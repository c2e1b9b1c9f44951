//! Bias diagnostics: the symmetric KL bias measure and auxiliary
//! distances. The Geweke convergence indicator (Eq. 14) is
//! `mto_obs::quality::GewekeStream`.

pub mod distance;
pub mod kl;

pub use distance::{ks_distance, running_mean_error, total_variation};
pub use kl::{kl_divergence, symmetric_kl, VisitCounter, DEFAULT_SMOOTHING};

/// The Geweke conventions the walk drivers rely on, checked on
/// `GewekeStream`, the one definition of Eq. 14.
#[cfg(test)]
mod geweke {
    mod tests {
        use mto_obs::quality::GewekeStream;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn stream_of(series: impl IntoIterator<Item = f64>) -> GewekeStream {
            let mut stream = GewekeStream::new();
            series.into_iter().for_each(|x| stream.push(x));
            stream
        }

        /// Eq. 14 over a whole series, with the float operations the
        /// statistic has always used: window A = the first 10%, window
        /// B = the last 50%, population variances.
        fn full_series_z(series: &[f64]) -> f64 {
            let mean_and_variance = |xs: &[f64]| {
                let n = xs.len() as f64;
                let mean = xs.iter().sum::<f64>() / n;
                let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
                (mean, var)
            };
            let n = series.len();
            let (mean_a, var_a) = mean_and_variance(&series[..(n as f64 * 0.1).floor() as usize]);
            let (mean_b, var_b) =
                mean_and_variance(&series[n - (n as f64 * 0.5).floor() as usize..]);
            (mean_a - mean_b).abs() / (var_a + var_b).sqrt()
        }

        #[test]
        fn drifting_series_does_not_converge() {
            // Strong upward trend: window means differ by far more than the
            // within-window spread.
            let z = stream_of((0..2000).map(f64::from)).z().unwrap();
            assert!(z > 1.0, "trending series must fail, z = {z}");
        }

        #[test]
        fn constant_series_is_trivially_converged() {
            let z = stream_of(vec![3.0; 500]).z();
            assert_eq!(z, Some(0.0));
            assert!(z.is_some_and(|z| z <= 0.01));
        }

        #[test]
        fn constant_but_different_windows_diverge() {
            let series = std::iter::repeat(1.0).take(100).chain(std::iter::repeat(2.0).take(900));
            assert_eq!(stream_of(series).z(), Some(f64::INFINITY));
        }

        #[test]
        fn short_series_yields_none() {
            assert_eq!(stream_of([1.0, 2.0]).z(), None);
            assert_eq!(GewekeStream::new().z(), None);
        }

        #[test]
        fn monitor_does_not_converge_on_trend() {
            // Tested at threshold 0.1 every 50th sample from the 100th on,
            // a superset of the driver's checkpoints.
            let mut stream = GewekeStream::new();
            for i in 0..3000 {
                stream.push(f64::from(i));
                let n = stream.seen();
                if n >= 100 && n % 50 == 0 {
                    let z = stream.z();
                    assert!(z.is_some_and(|z| z > 0.1), "a trend passed at n = {n}, z = {z:?}");
                }
            }
            assert_eq!(stream.seen(), 3000);
            assert_eq!(stream.retained().len(), 3000, "3000 samples fit the default window whole");
        }

        #[test]
        fn windowed_monitor_is_bit_identical_while_the_series_fits() {
            // The bounded window changes memory, not results: z over the
            // retained window is the full-series statistic, bit for bit,
            // whenever nothing has been dropped.
            let mut rng = StdRng::seed_from_u64(21);
            let series: Vec<f64> = (0..4000).map(|_| rng.gen_range(0.0..50.0)).collect();
            let stream = stream_of(series.iter().copied());
            assert_eq!(stream.retained(), series);
            assert_eq!(stream.z().unwrap().to_bits(), full_series_z(&series).to_bits());
        }

        #[test]
        fn windowed_monitor_memory_is_bounded() {
            let mut stream = GewekeStream::with_capacity(100, 400);
            for i in 0..100_000 {
                stream.push(f64::from(i % 17));
            }
            assert_eq!(stream.seen(), 100_000);
            assert_eq!(stream.retained().len(), 500, "only the window is retained");
            assert!(stream.z().is_some(), "the statistic keeps working past the window");
        }
    }
}
