//! Property suite for the `mto-net` discrete-event engine.
//!
//! The contract under test (ISSUE 3, satellite 4):
//!
//! * the event queue's `(time, seq)` ordering is a **total order**: pops
//!   are sorted by time with FIFO tie-breaking, for arbitrary push
//!   schedules;
//! * the pipeline is **deterministic across retrieval interleavings and
//!   arbitrary K**: the completion log depends only on `(seed,
//!   submissions)`, and every submission completes exactly once;
//! * latency samples **respect their model's bounds**: constant is
//!   exact, uniform stays in `[lo, hi)`, log-normal is strictly positive
//!   and finite.

use proptest::collection::vec;
use proptest::prelude::*;

use mto_graph::generators::paper_barbell;
use mto_graph::NodeId;
use mto_net::event::EventQueue;
use mto_net::latency::{FaultModel, LatencyModel};
use mto_net::pipeline::{PipelineConfig, QueryPipeline};
use mto_osn::{OsnService, RateLimitPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pipeline_on_barbell(config: PipelineConfig) -> QueryPipeline<OsnService> {
    QueryPipeline::new(OsnService::with_defaults(&paper_barbell()), config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_queue_pops_a_total_order(times in vec(0u64..1_000, 1..120)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let popped: Vec<(u64, u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time_us, e.seq, e.payload))).collect();
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            let ((t0, s0, _), (t1, s1, _)) = (w[0], w[1]);
            // Strict (time, seq) lexicographic order: a total order, so
            // no two pops ever compare equal.
            prop_assert!(t0 < t1 || (t0 == t1 && s0 < s1), "pop order broke: {:?}", w);
        }
        // Every payload surfaces exactly once, and ties pop FIFO.
        let mut seen: Vec<usize> = popped.iter().map(|&(_, _, p)| p).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].2 < w[1].2, "same-time events popped out of push order");
            }
        }
    }

    #[test]
    fn pipeline_log_is_invariant_under_retrieval_interleaving(
        nodes in vec(0u32..22, 1..40),
        seed in any::<u64>(),
        k in 1usize..9,
        pick in any::<u64>(),
    ) {
        let config = PipelineConfig {
            max_in_flight: k,
            latency: LatencyModel::LogNormal { median_secs: 0.2, sigma: 0.9 },
            faults: FaultModel { timeout_prob: 0.1, timeout_secs: 1.0, max_attempts: 3 },
            rate_limit: Some(RateLimitPolicy { burst: 10, refill_per_sec: 2.0 }),
            seed,
        };
        // Run 1: drain in event order.
        let mut a = pipeline_on_barbell(config);
        let ids_a: Vec<_> = nodes.iter().map(|&v| a.submit(NodeId(v))).collect();
        let done_a = a.drain();
        // Run 2: force a different completion-retrieval interleaving —
        // wait for an arbitrary id first, then the rest in reverse.
        let mut b = pipeline_on_barbell(config);
        let ids_b: Vec<_> = nodes.iter().map(|&v| b.submit(NodeId(v))).collect();
        let first = ids_b[(pick % ids_b.len() as u64) as usize];
        prop_assert!(b.wait_for(first).is_some());
        let mut done_b = 1usize;
        for &id in ids_b.iter().rev() {
            if id != first {
                prop_assert!(b.wait_for(id).is_some(), "id {} lost", id);
                done_b += 1;
            }
        }
        prop_assert_eq!(done_a.len(), ids_a.len(), "every submission completes once");
        prop_assert_eq!(done_b, ids_b.len());
        prop_assert_eq!(a.log_text(), b.log_text(), "retrieval order leaked into the stream");
        prop_assert_eq!(a.clock().now_us(), b.clock().now_us());
    }

    #[test]
    fn pipeline_completion_times_are_monotone_and_causal(
        nodes in vec(0u32..22, 1..40),
        seed in any::<u64>(),
        k in 1usize..9,
    ) {
        let mut p = pipeline_on_barbell(PipelineConfig {
            max_in_flight: k,
            latency: LatencyModel::Uniform { lo: 0.05, hi: 0.4 },
            seed,
            ..Default::default()
        });
        for &v in &nodes {
            p.submit(NodeId(v));
        }
        let done = p.drain();
        for w in done.windows(2) {
            prop_assert!(w[0].completed_at <= w[1].completed_at, "stream out of time order");
        }
        for c in &done {
            prop_assert!(c.submitted_at <= c.started_at, "started before submission");
            prop_assert!(c.started_at < c.completed_at, "zero/negative service time");
        }
    }

    #[test]
    fn constant_latency_is_exact(secs in 0.001f64..10.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = LatencyModel::Constant { secs };
        for _ in 0..32 {
            prop_assert_eq!(m.sample(&mut rng), secs);
        }
    }

    #[test]
    fn uniform_latency_respects_bounds(
        lo in 0.0f64..1.0,
        width in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let hi = lo + width;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = LatencyModel::Uniform { lo, hi };
        for _ in 0..64 {
            let s = m.sample(&mut rng);
            prop_assert!(s >= lo && s <= hi, "sample {} outside [{}, {}]", s, lo, hi);
        }
    }

    #[test]
    fn lognormal_latency_is_positive_and_finite(
        median in 0.001f64..5.0,
        sigma in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = LatencyModel::LogNormal { median_secs: median, sigma };
        for _ in 0..64 {
            let s = m.sample(&mut rng);
            prop_assert!(s > 0.0 && s.is_finite(), "sample {} out of range", s);
        }
    }
}
