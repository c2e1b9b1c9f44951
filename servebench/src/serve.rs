//! One request, in-process, through the same public entry
//! points `mto_serve run` uses — `ServeRequest::parse`, then
//! `JobScheduler::run_instrumented` (no `shards`) or
//! `FleetCoordinator::run` (with `shards`), with `HistoryStore::load` /
//! `save` around them for `warm-start` / `save-history`.
//!
//! Unlike the binary, the network and its service are built once, at
//! set-up, and shared by every request: that is the serving state a
//! request finds ready.

use std::sync::Arc;

use mto_fleet::{FleetConfig, FleetCoordinator, FleetReport, LedgerSummary};
use mto_graph::Graph;
use mto_obs::quality::QualityReport;
use mto_obs::WallClockRegistry;
use mto_osn::OsnService;
use mto_serve::error::ServeError;
use mto_serve::history::HistoryStore;
use mto_serve::request::{NetworkSpec, ServeRequest};
use mto_serve::scheduler::{fold_quality, JobOutcome, JobScheduler};
use mto_serve::session::JobSpec;

use crate::span::Tracer;

/// What set-up built: the network and the provider service over it.
pub struct Server {
    pub network: NetworkSpec,
    pub graph: Graph,
    pub service: Arc<OsnService>,
}

/// Set-up timings of one build.
pub struct SetupTimes {
    pub graph_s: f64,
    pub service_s: f64,
}

impl Server {
    /// `NetworkSpec::build` then `OsnService::with_defaults`, timed.
    pub fn build(network: &NetworkSpec) -> (Server, SetupTimes) {
        let t0 = std::time::Instant::now();
        let graph = network.build();
        let t1 = std::time::Instant::now();
        let service = Arc::new(OsnService::with_defaults(&graph));
        let times =
            SetupTimes { graph_s: (t1 - t0).as_secs_f64(), service_s: t1.elapsed().as_secs_f64() };
        (Server { network: network.clone(), graph, service }, times)
    }
}

/// Fleet figures a request reports beyond its outcomes.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetFigures {
    pub epochs: u64,
    pub adopted: u64,
    pub conflicts: u64,
    /// Pipeline completions (from the obs registry, so 0 without
    /// `counters`).
    pub completions: u64,
}

/// What one request produced.
pub struct Served {
    pub jobs: Vec<JobSpec>,
    pub outcomes: Vec<JobOutcome>,
    /// Unique queries billed to the provider: the fleet's
    /// `total_unique_queries` or the scheduler client's count.
    pub bill: u64,
    /// Cache lookups, when the run counted them (always on the scheduler
    /// path; with `counters` on the fleet path).
    pub lookups: Option<u64>,
    pub ledger: Option<LedgerSummary>,
    pub quality: Option<QualityReport>,
    pub fleet: Option<FleetFigures>,
    /// Size of the history `save-history` wrote, in bytes.
    pub history_bytes: Option<u64>,
}

impl Served {
    /// The results digest: `FleetReport::results_digest` over the outcomes
    /// (the scheduler path wraps its outcomes in a default report).
    pub fn digest(&self) -> String {
        FleetReport { outcomes: self.outcomes.clone(), ..Default::default() }.results_digest()
    }

    pub fn steps(&self) -> u64 {
        self.outcomes.iter().map(|o| o.steps as u64).sum()
    }
}

/// Runs one request. With the tracer enabled, every public call is a span
/// and the program's wall plane (`FleetConfig::wall`,
/// `run_instrumented(Some(..))`) adds its phases under them. `counters`
/// turns on the fleet's obs registry (`FleetConfig::obs`) for the lookup
/// and pipeline counts; it is not timed with the spans, because building
/// the deterministic trace costs far more than the spans measure.
pub fn serve(
    server: &Server,
    text: &str,
    tracer: &mut Tracer,
    counters: bool,
) -> Result<Served, ServeError> {
    let request = tracer.span("serve.parse", || ServeRequest::parse(text))?;
    if request.network != server.network {
        return Err(mismatch("the request names another network than the server was built for"));
    }
    if request.provider.is_some() || request.journal.is_some() {
        return Err(mismatch("`provider` and `journal` requests are not driven by this benchmark"));
    }
    let prior = match &request.warm_start {
        Some(path) => Some(tracer.span("serve.history_decode", || HistoryStore::load(path))?),
        None => None,
    };
    let (mut served, store) = match request.shards {
        Some(shards) => run_fleet(server, &request, shards, prior, tracer, counters)?,
        None => run_scheduler(server, &request, prior, tracer)?,
    };
    if let Some(path) = &request.save_history {
        tracer.span("serve.history_encode", || store.save(path))?;
        served.history_bytes = Some(std::fs::metadata(path)?.len());
    }
    Ok(served)
}

fn mismatch(message: &str) -> ServeError {
    ServeError::Request { line: 0, message: message.into() }
}

/// The single-client path, as `mto_serve`'s `run_scheduler`/`execute`.
fn run_scheduler(
    server: &Server,
    request: &ServeRequest,
    prior: Option<HistoryStore>,
    tracer: &mut Tracer,
) -> Result<(Served, HistoryStore), ServeError> {
    let service = server.service.clone();
    let scheduler = match &prior {
        Some(store) => JobScheduler::warm_start(service, store, request.scheduler)?,
        None => JobScheduler::new(service, request.scheduler),
    };
    let mut wall = tracer.enabled().then(WallClockRegistry::new);
    let run_span = tracer.enter("serve.scheduler_run");
    let report = scheduler.run_instrumented(request.jobs.clone(), wall.as_mut());
    tracer.exit(run_span);
    let report = report?;
    if let Some(wall) = &wall {
        // Workers run in parallel: the busiest one bounds the run.
        let busiest = wall
            .iter()
            .filter(|(k, _)| k.phase == "worker-service")
            .map(|(_, s)| s.nanos)
            .max()
            .unwrap_or(0);
        tracer.phase(run_span, "serve.worker_service", busiest);
    }
    let quality = request
        .quality
        .then(|| fold_quality(scheduler.client(), &request.jobs, &report.outcomes).report());
    let (store, bill, lookups) = tracer.span("serve.history_export", || {
        scheduler
            .client()
            .with(|c| (HistoryStore::from_client(c), c.unique_queries(), c.total_lookups()))
    });
    let served = Served {
        jobs: request.jobs.clone(),
        outcomes: report.outcomes,
        bill,
        lookups: Some(lookups),
        ledger: None,
        quality,
        fleet: None,
        history_bytes: None,
    };
    Ok((served, store))
}

/// The fleet path, as `mto_serve`'s `run_fleet`.
fn run_fleet(
    server: &Server,
    request: &ServeRequest,
    shards: usize,
    prior: Option<HistoryStore>,
    tracer: &mut Tracer,
    counters: bool,
) -> Result<(Served, HistoryStore), ServeError> {
    let max_budget = request.jobs.iter().map(|j| j.step_budget).max().unwrap_or(0);
    let epoch_quantum = max_budget.div_ceil(request.epochs.unwrap_or(4).max(1)).max(1);
    let config = FleetConfig {
        shards,
        epoch_quantum,
        provider: request.provider,
        policy: request.scheduler.policy,
        fleet_budget: request.scheduler.global_query_budget,
        obs: counters || request.trace.is_some() || request.metrics || request.prom.is_some(),
        wall: tracer.enabled() || request.prom.is_some(),
        quality: request.quality,
        ..Default::default()
    };
    let service = server.service.clone();
    let mut fleet = FleetCoordinator::new(move |_| service.clone(), config);
    if let Some(store) = prior {
        fleet = fleet.with_warm_start(store);
    }
    let run_span = tracer.enter("fleet.run");
    let report = fleet.run(request.jobs.clone());
    tracer.exit(run_span);
    let report = report?;
    if let Some(phases) = report.wall.as_ref().map(FleetPhases::of) {
        let service_span = tracer.phase(run_span, "fleet.shard_service", phases.shard_service);
        // Every shard replays its own queries inside its service time;
        // the per-shard mean nests within the slowest shard's.
        let replay = phases.pipeline_replay / report.shards.max(1) as u64;
        tracer.phase(service_span, "net.replay", replay);
        tracer.phase(run_span, "fleet.barrier_wait", phases.barrier_wait);
        tracer.phase(run_span, "fleet.gossip_merge", phases.gossip_merge);
    }
    let registry = report.obs.as_ref().map(|o| &o.registry);
    let served = Served {
        jobs: request.jobs.clone(),
        bill: report.total_unique_queries,
        lookups: registry.map(|r| r.counter("total-lookups")),
        ledger: report.ledger,
        quality: report.quality.clone(),
        fleet: Some(FleetFigures {
            epochs: report.epochs.len() as u64,
            adopted: report.gossip_adopted_responses,
            conflicts: report.merge_conflicts,
            completions: registry.map_or(0, |r| r.counter("pipeline-completions")),
        }),
        history_bytes: None,
        outcomes: report.outcomes,
    };
    Ok((served, report.union_store))
}

/// The fleet's wall phases folded over epochs and shards, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct FleetPhases {
    /// Σ over epochs of the slowest shard's `shard-service`.
    shard_service: u64,
    barrier_wait: u64,
    gossip_merge: u64,
    /// Σ of `pipeline-replay` over shards (inside shard service).
    pipeline_replay: u64,
}

impl FleetPhases {
    fn of(wall: &WallClockRegistry) -> FleetPhases {
        let mut slowest = std::collections::BTreeMap::<u64, u64>::new();
        let mut out = FleetPhases::default();
        for (key, stats) in wall.iter() {
            match key.phase {
                "shard-service" => {
                    let e = slowest.entry(key.epoch.unwrap_or(0)).or_insert(0);
                    *e = (*e).max(stats.nanos);
                }
                "barrier-wait" => out.barrier_wait += stats.nanos,
                "gossip-merge" => out.gossip_merge += stats.nanos,
                "pipeline-replay" => out.pipeline_replay += stats.nanos,
                _ => {}
            }
        }
        out.shard_service = slowest.values().sum();
        out
    }
}
