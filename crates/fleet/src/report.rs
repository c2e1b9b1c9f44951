//! What a fleet run produced: per-epoch gossip accounting plus the same
//! per-job outcomes the single-client scheduler reports.

use mto_core::mto::RewireStats;
use mto_net::PipelineStats;
use mto_obs::{MetricsRegistry, TraceSink};
use mto_qos::AdmissionDecision;
use mto_serve::history::{fnv1a64, HistoryStore};
use mto_serve::scheduler::JobOutcome;

/// Accounting of one epoch barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Fleet-wide unique queries (sum over shard clients) at the
    /// barrier.
    pub fleet_unique_queries: u64,
    /// Responses shards adopted from each other's crawls at this
    /// barrier — queries nobody has to re-pay: the gossip dedup saving.
    pub adopted_responses: u64,
    /// Conflicts the gossip merges resolved keep-first at this barrier:
    /// entries of two shards' deltas that disagree (nonzero means the
    /// shards crawl different networks). Each is counted only here —
    /// every shard leaves the barrier holding the kept version.
    pub merge_conflicts: u64,
    /// Max per-shard virtual seconds at the barrier — the fleet's
    /// makespan so far.
    pub makespan_secs: f64,
    /// Budget units finished jobs returned to the ledger pool at this
    /// barrier (budgeted runs only).
    pub ledger_reclaimed: u64,
    /// Budget units the ledger granted from the pool to dry jobs at
    /// this barrier (budgeted runs only).
    pub ledger_granted: u64,
}

/// Aggregate [`mto_qos::BudgetLedger`] accounting of a budgeted run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// The fleet-wide budget the request asked for.
    pub total: u64,
    /// Units spent across every job account — each job's unique demand,
    /// a shard-invariant figure (identical across `W`).
    pub spent: u64,
    /// Units returned to the pool by finished jobs, total.
    pub reclaimed: u64,
    /// Units re-granted from the pool to dry jobs, total.
    pub granted: u64,
    /// Units left in the pool at the end of the run.
    pub pool: u64,
    /// Jobs terminated early because their slice ran dry on an empty
    /// pool.
    pub cut_jobs: u64,
}

/// Observability the coordinator collected when
/// [`crate::FleetConfig::obs`] is on: the fleet-wide metrics registry
/// (per-shard registries merged at every epoch barrier, like the
/// history gossip) and the deterministic trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetObsData {
    /// Counters, gauges, and histograms merged across shards. Timing
    /// histograms (queue wait, service time) legitimately vary with the
    /// shard count; the deterministic-plane figures do not.
    pub registry: MetricsRegistry,
    /// Span/point/gossip events of the deterministic plane, stamped
    /// with epoch-ordinal virtual time and threaded with causal
    /// structure (span ids, parent links, cross-job adoption edges) —
    /// byte-identical across shard counts once encoded
    /// (`mto-trace/v2`).
    pub trace: TraceSink,
}

/// Aggregate result of one [`crate::FleetCoordinator::run`].
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Per-job outcomes, in submission order — the same shape (and, for
    /// equal inputs, the same *content*) as
    /// [`mto_serve::scheduler::ServeReport::outcomes`].
    pub outcomes: Vec<JobOutcome>,
    /// Shards that ran.
    pub shards: usize,
    /// Epoch barriers crossed.
    pub epochs: Vec<EpochReport>,
    /// Fleet-wide unique-query bill: the sum over shard clients.
    pub total_unique_queries: u64,
    /// Responses adopted through gossip, total.
    pub gossip_adopted_responses: u64,
    /// Keep-first merge conflicts, total: epoch gossip plus the final
    /// union. A conflict is counted once, at the barrier where two
    /// shards' deltas disagree, and every shard leaves that barrier
    /// holding the version folded first (see
    /// [`crate::coordinator::MergeOrder`]), so the final union finds only
    /// what no barrier exchanged: overlay disagreements, every
    /// disagreement when gossip is off, and a warm-start degree hint
    /// that a response contradicts (once, at any `W`). Honest runs
    /// report 0.
    pub merge_conflicts: u64,
    /// Max per-shard virtual seconds at the end of the run.
    pub makespan_secs: f64,
    /// Sum of rewiring counters across all rewiring jobs.
    pub aggregate_stats: RewireStats,
    /// The fleet-wide union history (cache union of every shard plus the
    /// walkers' overlay deltas) — what `save-history` persists and what
    /// a journal absorbs. Finalize builds it in one pass: the export of
    /// the shard folded first, keep-first plus what each other shard
    /// paid since its last barrier, with every shard's counters summed.
    /// It equals the keep-first fold of every shard's full export.
    pub union_store: HistoryStore,
    /// Budget-ledger accounting (`Some` iff the run was budgeted).
    pub ledger: Option<LedgerSummary>,
    /// The QoS admission review of every submitted job, in submission
    /// order (non-admitted jobs report placeholder outcomes).
    pub admission: Vec<AdmissionDecision>,
    /// Per-shard pipeline counters summed fleet-wide: ramp-ups/downs,
    /// latency backoffs, token-bucket stalls, retries, timeouts.
    pub pipeline_stats: PipelineStats,
    /// Metrics and trace, when the run was observed
    /// ([`crate::FleetConfig::obs`]).
    pub obs: Option<FleetObsData>,
    /// Wall-clock telemetry (`Some` iff [`crate::FleetConfig::wall`]):
    /// per-epoch/per-shard service time, barrier waits, gossip-merge
    /// cost, pipeline replay time. Deliberately **not** covered by
    /// [`FleetReport::results_digest`] or any deterministic surface —
    /// wall figures vary run to run by nature.
    pub wall: Option<mto_obs::wallclock::WallClockRegistry>,
    /// Estimator-quality figures (`Some` iff
    /// [`crate::FleetConfig::quality`]): per-job streaming ESS, windowed
    /// Geweke z, SLO status, and the cross-chain R-hat, folded from slot
    /// sample series at every epoch barrier. Every figure is a pure
    /// function of the walks, so the report — like the `metric
    /// quality-*` lines derived from it — is byte-identical across shard
    /// counts.
    pub quality: Option<mto_obs::quality::QualityReport>,
}

impl FleetReport {
    /// A canonical digest of the fleet's *results* — everything the
    /// determinism contract covers (samples, estimates, rewire stats),
    /// and nothing it does not (bills and timing legitimately vary with
    /// `W` and gossip). Two runs are result-identical iff their digests
    /// are byte-identical.
    pub fn results_digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for o in &self.outcomes {
            let mut walk = String::new();
            for v in &o.history {
                write!(walk, "{},", v.0).expect("string write");
            }
            write!(
                out,
                "job={} algo={} steps={} completed={} final={} visits={} walk-fnv={:016x}",
                o.id,
                o.algorithm,
                o.steps,
                u8::from(o.completed),
                o.final_node.0,
                o.history.len(),
                fnv1a64(walk.as_bytes())
            )
            .expect("string write");
            if let Some(est) = o.avg_degree_estimate {
                // Exact bit pattern, not a rounded rendering: the
                // contract is bit-identical estimates.
                write!(out, " est-bits={:016x}", est.to_bits()).expect("string write");
            }
            if let Some(s) = o.stats {
                write!(
                    out,
                    " removals={} replacements={} rejections={}",
                    s.removals, s.replacements, s.replacement_rejections
                )
                .expect("string write");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::NodeId;

    fn outcome(id: &str, est: Option<f64>) -> JobOutcome {
        JobOutcome {
            id: id.into(),
            algorithm: "MTO",
            steps: 10,
            completed: true,
            final_node: NodeId(3),
            history: vec![NodeId(0), NodeId(1), NodeId(3)],
            stats: Some(RewireStats { removals: 2, replacements: 1, replacement_rejections: 0 }),
            scan: None,
            mh: None,
            avg_degree_estimate: est,
            finished_secs: Some(1.25),
        }
    }

    #[test]
    fn digest_reflects_results_not_bills() {
        let mut a = FleetReport {
            outcomes: vec![outcome("x", Some(4.25))],
            total_unique_queries: 10,
            ..Default::default()
        };
        let b = FleetReport {
            outcomes: vec![outcome("x", Some(4.25))],
            total_unique_queries: 99, // different bill, same results
            shards: 8,
            makespan_secs: 123.0,
            ..Default::default()
        };
        assert_eq!(a.results_digest(), b.results_digest());
        a.outcomes[0].history.push(NodeId(5));
        assert_ne!(a.results_digest(), b.results_digest(), "walks are covered by the digest");
    }

    #[test]
    fn digest_distinguishes_estimates_at_full_precision() {
        let a = FleetReport { outcomes: vec![outcome("x", Some(4.25))], ..Default::default() };
        let b =
            FleetReport { outcomes: vec![outcome("x", Some(4.25 + 1e-15))], ..Default::default() };
        assert_ne!(a.results_digest(), b.results_digest(), "bit-level estimate fidelity");
    }
}
