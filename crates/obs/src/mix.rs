//! `mto-trace mix`: per-job convergence trajectories from a traced run.
//!
//! The quality plane stamps one set of point events per epoch barrier —
//! `quality-ess-<job>` / `quality-z-<job>` (scaled milli-units, see
//! [`crate::quality::scale_milli`]), the fleet-wide `quality-rhat`, and
//! `quality-met-<job>` when a job's `quality ess=N` SLO latches. This
//! module folds those points into a [`MixModel`] and renders the
//! deterministic line report of `mto-trace mix`: ESS per epoch,
//! the Geweke crossing (burn-in attribution at the paper's z ≤ 0.1
//! threshold), R-hat decay, and SLO latch epochs.
//!
//! [`cross_check`] joins the model against a run report's
//! `metric quality-*` lines: the final traced ESS of every job must
//! equal the metric figure exactly (both are scaled integers derived
//! from the same accumulator), which is how the fleet's `contract_obs`
//! test catches the two surfaces drifting apart.

use std::collections::BTreeMap;

use crate::trace::TraceRecord;

/// The paper's convergence threshold (z ≤ 0.1) in milli-units.
pub const BURN_IN_Z_MIL: u64 = 100;

/// Per-epoch figures of one job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochFigures {
    /// ESS in milli-units, when stamped this epoch.
    pub ess_mil: Option<u64>,
    /// Geweke z in milli-units, when stamped this epoch.
    pub z_mil: Option<u64>,
}

/// One job's convergence trajectory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobTrajectory {
    /// Figures per epoch ordinal, in epoch order.
    pub epochs: BTreeMap<u64, EpochFigures>,
    /// Epoch at which the job's `quality ess=N` SLO latched, if it did.
    pub met_epoch: Option<u64>,
}

impl JobTrajectory {
    /// The last stamped ESS (milli-units), if any epoch carried one.
    pub fn final_ess_mil(&self) -> Option<u64> {
        self.epochs.values().rev().find_map(|f| f.ess_mil)
    }

    /// The last stamped z (milli-units), if any epoch carried one.
    pub fn final_z_mil(&self) -> Option<u64> {
        self.epochs.values().rev().find_map(|f| f.z_mil)
    }

    /// Burn-in attribution: the first epoch whose z crossed under the
    /// paper threshold ([`BURN_IN_Z_MIL`]), with the crossing value.
    pub fn burn_in_epoch(&self) -> Option<(u64, u64)> {
        self.epochs
            .iter()
            .find_map(|(&e, f)| f.z_mil.filter(|&z| z <= BURN_IN_Z_MIL).map(|z| (e, z)))
    }
}

/// Everything `mto-trace mix` extracts from a traced run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MixModel {
    /// Per-job trajectories, keyed by job id.
    pub jobs: BTreeMap<String, JobTrajectory>,
    /// Fleet-wide R-hat per epoch (milli-units).
    pub rhat: BTreeMap<u64, u64>,
}

/// Epoch ordinal of a virtual-time stamp (the fleet stamps barrier
/// events at `epoch × 1_000_000 µs`).
fn epoch_of(t_us: u64) -> u64 {
    t_us / 1_000_000
}

impl MixModel {
    /// Folds the `quality-*` points of a decoded trace. Errors when the
    /// trace carries none — the usual cause is a run without the
    /// `quality` directive, which deserves a loud exit rather than an
    /// empty report.
    pub fn from_records(records: &[TraceRecord]) -> Result<MixModel, String> {
        let mut model = MixModel::default();
        for record in records {
            let TraceRecord::Point { t_us, name, value, .. } = record else {
                continue;
            };
            let epoch = epoch_of(*t_us);
            if let Some(job) = name.strip_prefix("quality-ess-") {
                model
                    .jobs
                    .entry(job.to_string())
                    .or_default()
                    .epochs
                    .entry(epoch)
                    .or_default()
                    .ess_mil = Some(*value);
            } else if let Some(job) = name.strip_prefix("quality-z-") {
                model
                    .jobs
                    .entry(job.to_string())
                    .or_default()
                    .epochs
                    .entry(epoch)
                    .or_default()
                    .z_mil = Some(*value);
            } else if let Some(job) = name.strip_prefix("quality-met-") {
                let trajectory = model.jobs.entry(job.to_string()).or_default();
                trajectory.met_epoch.get_or_insert(epoch);
            } else if name == "quality-rhat" {
                model.rhat.insert(epoch, *value);
            }
        }
        if model.jobs.is_empty() && model.rhat.is_empty() {
            return Err(
                "trace has no quality-* points — was the run missing the `quality` directive?"
                    .to_string(),
            );
        }
        Ok(model)
    }

    /// Renders the deterministic line report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let epochs = self
            .jobs
            .values()
            .flat_map(|t| t.epochs.keys().copied())
            .chain(self.rhat.keys().copied())
            .max()
            .map_or(0, |e| e + 1);
        writeln!(out, "# convergence trajectories (quality-* points, mto-trace/v2)")
            .expect("string write");
        writeln!(out, "jobs {} epochs {}", self.jobs.len(), epochs).expect("string write");
        for (job, trajectory) in &self.jobs {
            write!(out, "job {job}").expect("string write");
            if let Some(ess) = trajectory.final_ess_mil() {
                write!(out, " final-ess-mil={ess}").expect("string write");
            }
            if let Some(z) = trajectory.final_z_mil() {
                write!(out, " final-z-mil={z}").expect("string write");
            }
            if let Some(met) = trajectory.met_epoch {
                write!(out, " met-epoch={met}").expect("string write");
            }
            out.push('\n');
            for (epoch, figures) in &trajectory.epochs {
                write!(out, "  epoch {epoch}").expect("string write");
                if let Some(ess) = figures.ess_mil {
                    write!(out, " ess-mil={ess}").expect("string write");
                }
                if let Some(z) = figures.z_mil {
                    write!(out, " z-mil={z}").expect("string write");
                }
                out.push('\n');
            }
            match trajectory.burn_in_epoch() {
                Some((epoch, z)) => writeln!(
                    out,
                    "burn-in {job} crossed z-mil<={BURN_IN_Z_MIL} at epoch {epoch} (z-mil={z})"
                )
                .expect("string write"),
                None => writeln!(out, "burn-in {job} never crossed z-mil<={BURN_IN_Z_MIL}")
                    .expect("string write"),
            }
        }
        for (epoch, rhat) in &self.rhat {
            writeln!(out, "rhat epoch {epoch} rhat-mil={rhat}").expect("string write");
        }
        out
    }
}

/// Cross-checks the traced trajectories against a run report: every
/// job's final `quality-ess-<job>` point must equal the report's
/// `metric quality-<job>-ess-mil` line exactly (same accumulator, same
/// scaled-integer encoding). Returns one confirmation line per job;
/// errors name the first diverging job.
pub fn cross_check(model: &MixModel, report_text: &str) -> Result<Vec<String>, String> {
    let mut metric_ess: BTreeMap<&str, u64> = BTreeMap::new();
    for line in report_text.lines() {
        let Some(rest) = line.strip_prefix("metric quality-") else {
            continue;
        };
        let Some((name, value)) = rest.rsplit_once(' ') else {
            continue;
        };
        if let Some(job) = name.strip_suffix("-ess-mil") {
            let value = value
                .parse::<u64>()
                .map_err(|_| format!("unparseable metric value in {line:?}"))?;
            metric_ess.insert(job, value);
        }
    }
    if metric_ess.is_empty() {
        return Err("report has no `metric quality-*-ess-mil` lines to cross-check".to_string());
    }
    let mut confirmations = Vec::new();
    for (job, trajectory) in &model.jobs {
        let Some(traced) = trajectory.final_ess_mil() else {
            return Err(format!("job {job} has no traced ESS point"));
        };
        let Some(&reported) = metric_ess.get(job.as_str()) else {
            return Err(format!("job {job} is traced but missing from the report metrics"));
        };
        if traced != reported {
            return Err(format!(
                "job {job} ESS diverged: trace says {traced}, metrics say {reported}"
            ));
        }
        confirmations.push(format!("cross-check {job} ess-mil={traced} OK"));
    }
    Ok(confirmations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn quality_trace() -> TraceSink {
        let mut sink = TraceSink::new();
        for epoch in 0..3u64 {
            let t = epoch * 1_000_000;
            sink.enter(t, &format!("epoch-{epoch}"));
            sink.point(t, "quality-ess-a", 1000 * (epoch + 1));
            sink.point(t, "quality-z-a", 300 / (epoch + 1));
            sink.point(t, "quality-ess-b", 500 * (epoch + 1));
            sink.point(t, "quality-rhat", 1500 - 100 * epoch);
            if epoch == 2 {
                sink.point(t, "quality-met-a", 3000);
            }
            sink.exit(t, 0);
        }
        sink
    }

    #[test]
    fn model_folds_points_into_trajectories() {
        let sink = quality_trace();
        let model = MixModel::from_records(sink.events()).unwrap();
        assert_eq!(model.jobs.len(), 2);
        let a = &model.jobs["a"];
        assert_eq!(a.final_ess_mil(), Some(3000));
        assert_eq!(a.met_epoch, Some(2));
        // z series 300, 150, 100: crosses the 0.1 threshold at epoch 2.
        assert_eq!(a.burn_in_epoch(), Some((2, 100)));
        let b = &model.jobs["b"];
        assert_eq!(b.final_ess_mil(), Some(1500));
        assert_eq!(b.burn_in_epoch(), None, "job b never stamped a z");
        assert_eq!(model.rhat.len(), 3);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let sink = quality_trace();
        let model = MixModel::from_records(sink.events()).unwrap();
        let text = model.render();
        assert_eq!(text, MixModel::from_records(sink.events()).unwrap().render());
        assert!(text.contains("jobs 2 epochs 3"), "{text}");
        assert!(text.contains("job a final-ess-mil=3000 final-z-mil=100 met-epoch=2"), "{text}");
        assert!(text.contains("burn-in a crossed z-mil<=100 at epoch 2 (z-mil=100)"), "{text}");
        assert!(text.contains("burn-in b never crossed z-mil<=100"), "{text}");
        assert!(text.contains("rhat epoch 0 rhat-mil=1500"), "{text}");
    }

    #[test]
    fn traces_without_quality_points_are_rejected() {
        let mut sink = TraceSink::new();
        sink.enter(0, "epoch-0");
        sink.point(0, "ledger-pool", 7);
        sink.exit(0, 0);
        let err = MixModel::from_records(sink.events()).unwrap_err();
        assert!(err.contains("no quality-* points"), "{err}");
    }

    #[test]
    fn cross_check_accepts_matching_and_names_divergence() {
        let sink = quality_trace();
        let model = MixModel::from_records(sink.events()).unwrap();
        let good = "metric quality-a-ess-mil 3000\nmetric quality-b-ess-mil 1500\n";
        let lines = cross_check(&model, good).unwrap();
        assert_eq!(lines, vec!["cross-check a ess-mil=3000 OK", "cross-check b ess-mil=1500 OK"]);
        let doctored = "metric quality-a-ess-mil 3001\nmetric quality-b-ess-mil 1500\n";
        let err = cross_check(&model, doctored).unwrap_err();
        assert!(err.contains("job a ESS diverged"), "{err}");
        let missing = "metric unique-queries 10\n";
        let err = cross_check(&model, missing).unwrap_err();
        assert!(err.contains("no `metric quality-*-ess-mil` lines"), "{err}");
    }
}
