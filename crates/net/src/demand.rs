//! Demand-trace recording: phase one of the walk-not-wait driver
//! (formerly `mto_net::trace`).
//!
//! A walker's *path* is a pure function of `(config, responses)` — timing
//! never changes where it goes, only how long it takes (the same argument
//! that makes the job scheduler and session resume deterministic). So
//! the driver splits simulation in two: this module runs each walker once
//! against a plain cached client and records its **demand trace** — the
//! exact sequence of `fetch(v)` calls it makes, with the walker's own
//! [`Walker::prefetch_candidates`] snapshot at every step boundary — and
//! [`crate::driver`] then replays those traces through the
//! [`crate::pipeline::QueryPipeline`] to measure virtual wall-clock under
//! any latency/concurrency regime, without re-deciding anything.

use std::cell::RefCell;
use std::rc::Rc;

use mto_core::mto::{MtoConfig, MtoSampler, RewireStats};
use mto_core::walk::{
    MetropolisHastingsWalk, MhrwConfig, RandomJumpWalk, RjConfig, SimpleRandomWalk, SrwConfig,
    Walker,
};
use mto_graph::NodeId;
use mto_osn::{
    CachedClient, QueryClient, QueryResponse, Result, SharedClient, SocialNetworkInterface,
};

/// Which sampler a pool slot runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WalkerSpec {
    /// The MTO-Sampler.
    Mto(MtoConfig),
    /// Simple random walk.
    Srw(SrwConfig),
    /// Metropolis–Hastings.
    Mhrw(MhrwConfig),
    /// Random Jump (requires a published user count).
    Rj(RjConfig),
}

/// One walker of the pool: sampler, start node, step budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoolJob {
    /// Sampler and configuration.
    pub spec: WalkerSpec,
    /// Start node (queried immediately, like any walker).
    pub start: NodeId,
    /// Steps this walker takes.
    pub steps: usize,
}

/// One recorded client interaction.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// The walker called `fetch(v)` (hit or miss — the cache state at
    /// replay time decides which).
    Fetch(NodeId),
    /// A step finished; the walker's speculative targets at that moment,
    /// most likely first.
    StepEnd {
        /// Output of [`Walker::prefetch_candidates`] after the step.
        candidates: Vec<NodeId>,
    },
}

/// Everything phase one learned about one walker.
#[derive(Clone, Debug)]
pub struct WalkTrace {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// The interaction sequence, in program order.
    pub events: Vec<TraceEvent>,
    /// Every visited position, seed first.
    pub history: Vec<NodeId>,
    /// Final position.
    pub final_node: NodeId,
    /// Rewiring counters, for rewiring samplers.
    pub stats: Option<RewireStats>,
}

/// Client wrapper that logs every `fetch` while delegating to a shared
/// cache (so recording one pool costs each unique node only once).
struct RecordingClient<I> {
    inner: SharedClient<I>,
    log: Rc<RefCell<Vec<TraceEvent>>>,
}

impl<I: SocialNetworkInterface> QueryClient for RecordingClient<I> {
    fn fetch(&mut self, v: NodeId) -> Result<QueryResponse> {
        self.log.borrow_mut().push(TraceEvent::Fetch(v));
        self.inner.fetch(v)
    }

    fn known_degree(&self, v: NodeId) -> Option<usize> {
        self.inner.known_degree(v)
    }

    fn unique_queries(&self) -> u64 {
        self.inner.unique_queries()
    }

    fn num_users_hint(&self) -> Option<usize> {
        self.inner.num_users_hint()
    }

    fn cached_neighbors(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.inner.cached_neighbors(v)
    }
}

/// The concrete walker behind a [`WalkerSpec`], generic over the client.
enum AnyWalker<C: QueryClient> {
    // Boxed: the sampler carries its scratch buffers inline, dwarfing
    // the other variants.
    Mto(Box<MtoSampler<C>>),
    Srw(SimpleRandomWalk<C>),
    Mhrw(MetropolisHastingsWalk<C>),
    Rj(RandomJumpWalk<C>),
}

impl<C: QueryClient> AnyWalker<C> {
    fn build(client: C, job: &PoolJob) -> Result<Self> {
        Ok(match job.spec {
            WalkerSpec::Mto(cfg) => {
                AnyWalker::Mto(Box::new(MtoSampler::new(client, job.start, cfg)?))
            }
            WalkerSpec::Srw(cfg) => AnyWalker::Srw(SimpleRandomWalk::new(client, job.start, cfg)?),
            WalkerSpec::Mhrw(cfg) => {
                AnyWalker::Mhrw(MetropolisHastingsWalk::new(client, job.start, cfg)?)
            }
            WalkerSpec::Rj(cfg) => AnyWalker::Rj(RandomJumpWalk::new(client, job.start, cfg)?),
        })
    }

    fn rewire_stats(&self) -> Option<RewireStats> {
        match self {
            AnyWalker::Mto(w) => Some(w.stats()),
            _ => None,
        }
    }
}

impl<C: QueryClient> Walker for AnyWalker<C> {
    fn name(&self) -> &'static str {
        match self {
            AnyWalker::Mto(w) => w.name(),
            AnyWalker::Srw(w) => w.name(),
            AnyWalker::Mhrw(w) => w.name(),
            AnyWalker::Rj(w) => w.name(),
        }
    }

    fn current(&self) -> NodeId {
        match self {
            AnyWalker::Mto(w) => w.current(),
            AnyWalker::Srw(w) => w.current(),
            AnyWalker::Mhrw(w) => w.current(),
            AnyWalker::Rj(w) => w.current(),
        }
    }

    fn step(&mut self) -> Result<NodeId> {
        match self {
            AnyWalker::Mto(w) => w.step(),
            AnyWalker::Srw(w) => w.step(),
            AnyWalker::Mhrw(w) => w.step(),
            AnyWalker::Rj(w) => w.step(),
        }
    }

    fn history(&self) -> &[NodeId] {
        match self {
            AnyWalker::Mto(w) => w.history(),
            AnyWalker::Srw(w) => w.history(),
            AnyWalker::Mhrw(w) => w.history(),
            AnyWalker::Rj(w) => w.history(),
        }
    }

    fn query_cost(&self) -> u64 {
        match self {
            AnyWalker::Mto(w) => w.query_cost(),
            AnyWalker::Srw(w) => w.query_cost(),
            AnyWalker::Mhrw(w) => w.query_cost(),
            AnyWalker::Rj(w) => w.query_cost(),
        }
    }

    fn importance_weight(&mut self, v: NodeId) -> Result<f64> {
        match self {
            AnyWalker::Mto(w) => w.importance_weight(v),
            AnyWalker::Srw(w) => w.importance_weight(v),
            AnyWalker::Mhrw(w) => w.importance_weight(v),
            AnyWalker::Rj(w) => w.importance_weight(v),
        }
    }

    fn prefetch_candidates(&self) -> Vec<NodeId> {
        match self {
            AnyWalker::Mto(w) => w.prefetch_candidates(),
            AnyWalker::Srw(w) => w.prefetch_candidates(),
            AnyWalker::Mhrw(w) => w.prefetch_candidates(),
            AnyWalker::Rj(w) => w.prefetch_candidates(),
        }
    }
}

/// Records the demand trace of every job, in job order. The walkers run
/// over one shared cache (sharing changes nothing about their paths —
/// responses are immutable — it only avoids paying twice for the oracle
/// pass).
pub fn record_traces<I: SocialNetworkInterface>(
    interface: &I,
    jobs: &[PoolJob],
) -> Result<Vec<WalkTrace>> {
    let shared = SharedClient::new(CachedClient::new(interface));
    let mut traces = Vec::with_capacity(jobs.len());
    for job in jobs {
        let log = Rc::new(RefCell::new(Vec::new()));
        let client = RecordingClient { inner: shared.clone(), log: Rc::clone(&log) };
        let mut walker = AnyWalker::build(client, job)?;
        for _ in 0..job.steps {
            walker.step()?;
            log.borrow_mut().push(TraceEvent::StepEnd { candidates: walker.prefetch_candidates() });
        }
        traces.push(WalkTrace {
            algorithm: walker.name(),
            history: walker.history().to_vec(),
            final_node: walker.current(),
            stats: walker.rewire_stats(),
            events: std::mem::take(&mut *log.borrow_mut()),
        });
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::paper_barbell;
    use mto_osn::OsnService;

    fn jobs() -> Vec<PoolJob> {
        vec![
            PoolJob {
                spec: WalkerSpec::Mto(MtoConfig { seed: 1, ..Default::default() }),
                start: NodeId(0),
                steps: 50,
            },
            PoolJob {
                spec: WalkerSpec::Srw(SrwConfig { seed: 2, lazy: false }),
                start: NodeId(11),
                steps: 40,
            },
        ]
    }

    #[test]
    fn traces_capture_fetches_and_step_boundaries() {
        let svc = OsnService::with_defaults(&paper_barbell());
        let traces = record_traces(&svc, &jobs()).unwrap();
        assert_eq!(traces.len(), 2);
        let mto = &traces[0];
        assert_eq!(mto.algorithm, "MTO");
        assert_eq!(mto.history.len(), 51);
        assert_eq!(mto.events[0], TraceEvent::Fetch(NodeId(0)), "creation queries the start");
        let step_ends =
            mto.events.iter().filter(|e| matches!(e, TraceEvent::StepEnd { .. })).count();
        assert_eq!(step_ends, 50, "one boundary per step");
        assert!(mto.stats.unwrap().removals > 0);
        assert!(traces[1].stats.is_none(), "SRW does not rewire");
    }

    #[test]
    fn traces_match_an_independent_run_of_the_same_walker() {
        let g = paper_barbell();
        let traces = record_traces(&OsnService::with_defaults(&g), &jobs()).unwrap();
        // A plain, separately-built SRW with the same seed walks the same
        // path — the recorder is an observer, not a participant.
        let client = CachedClient::new(OsnService::with_defaults(&g));
        let mut srw =
            SimpleRandomWalk::new(client, NodeId(11), SrwConfig { seed: 2, lazy: false }).unwrap();
        for _ in 0..40 {
            srw.step().unwrap();
        }
        assert_eq!(traces[1].history, srw.history());
        assert_eq!(traces[1].final_node, srw.current());
    }

    #[test]
    fn recording_is_deterministic() {
        let g = paper_barbell();
        let a = record_traces(&OsnService::with_defaults(&g), &jobs()).unwrap();
        let b = record_traces(&OsnService::with_defaults(&g), &jobs()).unwrap();
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.events, tb.events);
            assert_eq!(ta.history, tb.history);
        }
    }
}
