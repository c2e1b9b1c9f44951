//! The walk-not-wait driver: multiplexing a walker pool over the
//! pipeline.
//!
//! "Walk, Not Wait" (Nazi et al., arXiv:1410.7833) observes that a
//! blocking sampler does nothing during per-request latency and
//! rate-limit refills, and that overlapping *walking* with *waiting*
//! converts that dead time into progress. This driver realizes the idea
//! deterministically, in three regimes over one recorded workload:
//!
//! * [`DriverMode::Serial`] — walkers run one after another, every cache
//!   miss blocks for its full round trip: the baseline bill.
//! * [`DriverMode::Pipelined`] — walkers interleave: while one is stalled
//!   on a miss, any walker whose next touch is cached keeps stepping, so
//!   up to `K` demand requests are in flight together.
//! * [`DriverMode::WalkNotWait`] — additionally, whenever *every* runnable
//!   walker is stalled and a connection is idle, the driver issues
//!   **speculative prefetches** drawn from the walkers' own
//!   [`mto_core::walk::Walker::prefetch_candidates`] (for MTO, the
//!   overlay-adjusted neighborhood of the current node) — charged against
//!   the same unique-query budget as demand traffic.
//!
//! Timing cannot change where a walk goes (paths are pure functions of
//! `(config, responses)`), so all three regimes produce byte-identical
//! walker histories; only the virtual wall clock and the bill differ.
//! The whole simulation is single-threaded discrete-event: results are
//! reproducible for a given seed regardless of host threading.

use std::collections::HashSet;

use mto_graph::NodeId;
use mto_osn::{Result, SocialNetworkInterface, VirtualClock};

use crate::demand::{record_traces, PoolJob, TraceEvent, WalkTrace};
use crate::pipeline::{PipelineConfig, PipelineStats, QueryPipeline};

/// The concurrency regime of one pool run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverMode {
    /// One walker at a time, one request at a time.
    Serial,
    /// Walkers interleave; demand requests overlap up to `K`.
    Pipelined,
    /// Pipelined plus speculative prefetching on idle connections.
    WalkNotWait,
}

impl DriverMode {
    /// Display name (`serial` / `pipelined` / `walk-not-wait`).
    pub fn name(&self) -> &'static str {
        match self {
            DriverMode::Serial => "serial",
            DriverMode::Pipelined => "pipelined",
            DriverMode::WalkNotWait => "walk-not-wait",
        }
    }
}

/// Configuration of a pool run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriverConfig {
    /// The concurrency regime.
    pub mode: DriverMode,
    /// The network engine underneath (connections, latency, quota, seed).
    pub pipeline: PipelineConfig,
    /// Cap on distinct nodes submitted (demand + prefetch). Demand is
    /// always admitted — the walk must finish — but speculation stops at
    /// the cap, so every regime runs under the *same* budget.
    pub unique_query_budget: Option<u64>,
}

/// Per-walker outcome of a pool run.
#[derive(Clone, Debug)]
pub struct WalkerOutcome {
    /// Pool index.
    pub walker: usize,
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Virtual seconds when this walker finished its budget.
    pub finish_secs: f64,
    /// Final position.
    pub final_node: NodeId,
    /// Every visited position, seed first (identical across regimes).
    pub history: Vec<NodeId>,
}

/// Aggregate outcome of a pool run.
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// The regime that ran.
    pub mode: DriverMode,
    /// Virtual wall clock when the last walker finished.
    pub virtual_secs: f64,
    /// Per-walker outcomes, in pool order.
    pub walkers: Vec<WalkerOutcome>,
    /// Distinct nodes submitted to the provider (demand + prefetch) —
    /// the paper's unique-query bill for this run.
    pub unique_queries: u64,
    /// Distinct nodes the walks themselves demanded.
    pub demand_queries: u64,
    /// Speculative prefetches issued.
    pub prefetches_issued: u64,
    /// Prefetched nodes a walker later demanded (useful speculation).
    pub prefetch_hits: u64,
    /// Engine counters (stalls, timeouts, …).
    pub pipeline: PipelineStats,
}

/// Where one simulated walker is.
#[derive(Clone, Debug, PartialEq)]
enum SimState {
    Ready,
    Stalled(NodeId),
    Done,
}

struct SimWalker<'a> {
    trace: &'a WalkTrace,
    pos: usize,
    state: SimState,
    candidates: Vec<NodeId>,
    finish_us: u64,
}

/// Runs a walker pool under `config`, returning the virtual-time bill.
///
/// Phase one records each walker's demand trace (an oracle pass over the
/// real interface — walks are timing-independent, so this fixes *what*
/// happens); phase two replays the traces through the discrete-event
/// pipeline to measure *when*. `interface` is borrowed for both phases.
/// To compare several regimes over one workload, call
/// [`record_traces`] once and [`replay_pool`] per regime instead —
/// traces do not depend on latency, quota, or mode.
pub fn run_pool<I: SocialNetworkInterface>(
    interface: I,
    jobs: &[PoolJob],
    config: &DriverConfig,
) -> Result<PoolReport> {
    let traces = record_traces(&interface, jobs)?;
    replay_pool(&interface, &traces, config)
}

/// Replays previously recorded demand traces through the discrete-event
/// pipeline under `config` — phase two of [`run_pool`], reusable across
/// regimes. `interface` only serves the pipeline's completion-time
/// queries; it must expose the same network the traces were recorded
/// from.
pub fn replay_pool<I: SocialNetworkInterface>(
    interface: &I,
    traces: &[WalkTrace],
    config: &DriverConfig,
) -> Result<PoolReport> {
    let mut pipeline = QueryPipeline::new(interface, config.pipeline);

    let mut walkers: Vec<SimWalker> = traces
        .iter()
        .map(|trace| SimWalker {
            trace,
            pos: 0,
            state: SimState::Ready,
            candidates: Vec::new(),
            finish_us: 0,
        })
        .collect();

    let mut arrived: HashSet<NodeId> = HashSet::new();
    let mut in_flight: HashSet<NodeId> = HashSet::new();
    let mut demanded: HashSet<NodeId> = HashSet::new();
    let mut prefetched: HashSet<NodeId> = HashSet::new();
    let budget = config.unique_query_budget.unwrap_or(u64::MAX);
    // Distinct nodes submitted so far (a prefetched node later demanded
    // counts once — it was one request).
    let submitted = |d: &HashSet<NodeId>, p: &HashSet<NodeId>| d.union(p).count() as u64;

    loop {
        // Phase A: advance every eligible Ready walker as far as its
        // trace allows. In Serial mode only the first unfinished walker
        // is eligible — finishing it may make the next one runnable, so
        // loop until a full pass makes no progress.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for i in 0..walkers.len() {
                if config.mode == DriverMode::Serial
                    && walkers[..i].iter().any(|w| w.state != SimState::Done)
                {
                    break;
                }
                while walkers[i].state == SimState::Ready {
                    let Some(event) = walkers[i].trace.events.get(walkers[i].pos) else {
                        walkers[i].state = SimState::Done;
                        walkers[i].finish_us = pipeline.clock().now_us();
                        progressed = true;
                        break;
                    };
                    match event {
                        TraceEvent::Fetch(v) => {
                            let v = *v;
                            if arrived.contains(&v) {
                                walkers[i].pos += 1; // free cache hit
                            } else {
                                // Demand miss: block on the round trip.
                                // Prefetched-but-not-landed nodes count
                                // as demanded too (the walker now needs
                                // them), but are not resubmitted.
                                demanded.insert(v);
                                if in_flight.insert(v) {
                                    pipeline.submit(v);
                                }
                                walkers[i].state = SimState::Stalled(v);
                                progressed = true;
                            }
                        }
                        TraceEvent::StepEnd { candidates } => {
                            walkers[i].candidates = candidates.clone();
                            walkers[i].pos += 1;
                        }
                    }
                }
            }
        }

        if walkers.iter().all(|w| w.state == SimState::Done) {
            break;
        }

        // Phase B: every runnable walker is stalled — the dead time the
        // paper converts. Fill idle connections with speculation (charged
        // against the same budget). Quota-aware: on a quota-bound
        // workload a wasted token extends the refill floor for demand,
        // so only speculate while the bucket holds a comfortable reserve
        // (one token per connection beyond the speculated one).
        if config.mode == DriverMode::WalkNotWait {
            let reserve = config.pipeline.max_in_flight as f64;
            'speculate: while pipeline.has_idle_connection()
                && pipeline.tokens_available() >= 1.0 + reserve
                && submitted(&demanded, &prefetched) < budget
            {
                for w in walkers.iter().filter(|w| matches!(w.state, SimState::Stalled(_))) {
                    if let Some(&c) =
                        w.candidates.iter().find(|c| !arrived.contains(c) && !in_flight.contains(c))
                    {
                        prefetched.insert(c);
                        in_flight.insert(c);
                        pipeline.submit(c);
                        continue 'speculate;
                    }
                }
                break; // nobody has anything left to speculate on
            }
        }

        // Phase C: advance virtual time to the next completion.
        let completion = pipeline
            .next_completion()
            .expect("stalled walkers always have a demand request in flight");
        if let Err(e) = &completion.response {
            // An UnknownUser reply IS an answer (Random Jump probes id
            // holes deliberately; the recording walker consumed the same
            // error). Anything else — transient retries exhausted — means
            // the simulated provider never answered a request the walk
            // needs, and pretending it landed would silently corrupt the
            // bill. Surface it.
            if !matches!(e, mto_osn::OsnError::UnknownUser(_)) {
                return Err(e.clone());
            }
        }
        in_flight.remove(&completion.node);
        arrived.insert(completion.node);
        for w in walkers.iter_mut() {
            if w.state == SimState::Stalled(completion.node) {
                w.state = SimState::Ready;
            }
        }
    }

    let prefetch_hits = prefetched.intersection(&demanded).count() as u64;
    let outcomes = walkers
        .iter()
        .enumerate()
        .map(|(walker, w)| WalkerOutcome {
            walker,
            algorithm: w.trace.algorithm,
            finish_secs: VirtualClock::us_to_secs(w.finish_us),
            final_node: w.trace.final_node,
            history: w.trace.history.clone(),
        })
        .collect();
    Ok(PoolReport {
        mode: config.mode,
        virtual_secs: pipeline.clock().now(),
        walkers: outcomes,
        unique_queries: submitted(&demanded, &prefetched),
        demand_queries: demanded.len() as u64,
        prefetches_issued: prefetched.len() as u64,
        prefetch_hits,
        pipeline: pipeline.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::WalkerSpec;
    use crate::latency::{LatencyModel, ProviderProfile};
    use mto_core::mto::MtoConfig;
    use mto_core::walk::SrwConfig;
    use mto_graph::generators::paper_barbell;
    use mto_osn::OsnService;

    fn pool() -> Vec<PoolJob> {
        (0..4u64)
            .map(|i| PoolJob {
                spec: WalkerSpec::Mto(MtoConfig { seed: 10 + i, ..Default::default() }),
                start: NodeId((i as u32 * 7) % 22),
                steps: 120,
            })
            .collect()
    }

    fn config(mode: DriverMode) -> DriverConfig {
        let profile = ProviderProfile::facebook();
        DriverConfig {
            mode,
            pipeline: PipelineConfig {
                max_in_flight: 4,
                latency: profile.latency,
                faults: profile.faults,
                rate_limit: Some(profile.policy),
                seed: 0xD1CE,
            },
            unique_query_budget: Some(22),
        }
    }

    fn run(mode: DriverMode) -> PoolReport {
        run_pool(OsnService::with_defaults(&paper_barbell()), &pool(), &config(mode)).unwrap()
    }

    #[test]
    fn histories_are_identical_across_all_regimes() {
        let serial = run(DriverMode::Serial);
        let pipelined = run(DriverMode::Pipelined);
        let wnw = run(DriverMode::WalkNotWait);
        for ((s, p), w) in serial.walkers.iter().zip(&pipelined.walkers).zip(&wnw.walkers) {
            assert_eq!(s.history, p.history, "timing changed walker {}", s.walker);
            assert_eq!(s.history, w.history, "speculation changed walker {}", s.walker);
            assert_eq!(s.history.len(), 121);
        }
        // Without speculation the demanded set is timing-independent.
        assert_eq!(serial.demand_queries, pipelined.demand_queries);
        // Speculation converts demand misses into free hits, so demand
        // can only shrink — but every node serial demanded was still
        // fetched (as demand or prefetch), so the bill can only grow.
        assert!(wnw.demand_queries <= serial.demand_queries);
        assert!(wnw.unique_queries >= serial.demand_queries);
    }

    #[test]
    fn overlap_strictly_beats_serial_time() {
        let serial = run(DriverMode::Serial);
        let pipelined = run(DriverMode::Pipelined);
        let wnw = run(DriverMode::WalkNotWait);
        assert!(
            pipelined.virtual_secs < serial.virtual_secs,
            "pipelined {} vs serial {}",
            pipelined.virtual_secs,
            serial.virtual_secs
        );
        assert!(
            wnw.virtual_secs <= pipelined.virtual_secs,
            "walk-not-wait {} vs pipelined {}",
            wnw.virtual_secs,
            pipelined.virtual_secs
        );
        assert!(wnw.prefetches_issued > 0, "speculation actually happened");
        assert!(wnw.prefetch_hits > 0, "some speculation was useful");
    }

    #[test]
    fn budget_caps_speculation_but_never_demand() {
        // Budget zero: no speculation at all, yet every walk still runs
        // to completion on demand traffic alone.
        let mut cfg = config(DriverMode::WalkNotWait);
        cfg.unique_query_budget = Some(0);
        let starved = run_pool(OsnService::with_defaults(&paper_barbell()), &pool(), &cfg).unwrap();
        assert_eq!(starved.prefetches_issued, 0, "speculation is refused at the cap");
        assert!(starved.demand_queries > 0, "demand is always admitted");
        assert!(starved.walkers.iter().all(|w| w.history.len() == 121));

        // An uncapped run speculates freely; the bill covers demand.
        cfg.unique_query_budget = None;
        let free = run_pool(OsnService::with_defaults(&paper_barbell()), &pool(), &cfg).unwrap();
        assert!(free.prefetches_issued > 0);
        assert!(free.unique_queries >= free.demand_queries);
        assert!(free.unique_queries <= 22, "bounded by |V| on the barbell");
    }

    #[test]
    fn runs_are_deterministic() {
        for mode in [DriverMode::Serial, DriverMode::Pipelined, DriverMode::WalkNotWait] {
            let a = run(mode);
            let b = run(mode);
            assert_eq!(a.virtual_secs, b.virtual_secs, "{mode:?} time diverged");
            assert_eq!(a.unique_queries, b.unique_queries);
            assert_eq!(a.prefetches_issued, b.prefetches_issued);
            for (wa, wb) in a.walkers.iter().zip(&b.walkers) {
                assert_eq!(wa.finish_secs, wb.finish_secs);
            }
        }
    }

    #[test]
    fn replay_reuses_traces_across_regimes() {
        let svc = OsnService::with_defaults(&paper_barbell());
        let traces = crate::demand::record_traces(&svc, &pool()).unwrap();
        let serial = replay_pool(&svc, &traces, &config(DriverMode::Serial)).unwrap();
        let wnw = replay_pool(&svc, &traces, &config(DriverMode::WalkNotWait)).unwrap();
        // One oracle pass, two regimes — same results as the coupled path.
        assert_eq!(serial.virtual_secs, run(DriverMode::Serial).virtual_secs);
        assert_eq!(wnw.virtual_secs, run(DriverMode::WalkNotWait).virtual_secs);
    }

    #[test]
    fn replay_surfaces_unanswered_requests_instead_of_inventing_data() {
        use mto_graph::NodeId;
        use mto_osn::{OsnError, QueryResponse, SocialNetworkInterface};

        /// Answers the first `cutoff` backend requests, then fails every
        /// later one transiently, forever.
        struct DiesAfter {
            inner: OsnService,
            cutoff: u64,
        }
        impl SocialNetworkInterface for DiesAfter {
            fn query(&self, v: NodeId) -> mto_osn::Result<QueryResponse> {
                if self.inner.requests_served() >= self.cutoff {
                    return Err(OsnError::Transient { user: v, attempt: 1 });
                }
                self.inner.query(v)
            }
            fn num_users_hint(&self) -> Option<usize> {
                self.inner.num_users_hint()
            }
            fn requests_served(&self) -> u64 {
                self.inner.requests_served()
            }
        }

        let jobs = &pool()[..1];
        let clean = run_pool(
            OsnService::with_defaults(&paper_barbell()),
            jobs,
            &config(DriverMode::Serial),
        )
        .unwrap();
        // Let the recording pass (demand_queries requests) succeed, then
        // kill the provider partway through the replay.
        let dying = DiesAfter {
            inner: OsnService::with_defaults(&paper_barbell()),
            cutoff: clean.demand_queries + 1,
        };
        let err = run_pool(dying, jobs, &config(DriverMode::Serial)).unwrap_err();
        assert!(matches!(err, OsnError::Transient { .. }), "got {err:?}");
    }

    #[test]
    fn serial_mode_finishes_walkers_in_pool_order() {
        let serial = run(DriverMode::Serial);
        let finishes: Vec<f64> = serial.walkers.iter().map(|w| w.finish_secs).collect();
        assert!(
            finishes.windows(2).all(|w| w[0] <= w[1]),
            "serial finishes out of order: {finishes:?}"
        );
    }

    #[test]
    fn mixed_pools_drive_baseline_walkers_too() {
        let jobs = vec![
            PoolJob {
                spec: WalkerSpec::Srw(SrwConfig { seed: 5, lazy: false }),
                start: NodeId(0),
                steps: 80,
            },
            PoolJob {
                spec: WalkerSpec::Mto(MtoConfig { seed: 6, ..Default::default() }),
                start: NodeId(11),
                steps: 80,
            },
        ];
        let cfg = DriverConfig {
            mode: DriverMode::WalkNotWait,
            pipeline: PipelineConfig {
                max_in_flight: 4,
                latency: LatencyModel::Constant { secs: 0.1 },
                rate_limit: None,
                ..Default::default()
            },
            unique_query_budget: None,
        };
        let report = run_pool(OsnService::with_defaults(&paper_barbell()), &jobs, &cfg).unwrap();
        assert_eq!(report.walkers[0].algorithm, "SRW");
        assert_eq!(report.walkers[1].algorithm, "MTO");
        assert!(report.virtual_secs > 0.0);
    }
}
