//! `mto_serve` — the sampling service front-end: request file in, results
//! out.
//!
//! ```text
//! mto_serve run <request-file> [--out FILE]
//! mto_serve snapshot <request-file> --at STEPS --to FILE
//! mto_serve resume <snapshot-file> [--out FILE]
//! ```
//!
//! * `run` executes every job of a request file — on the single-client
//!   [`JobScheduler`] by default (jobs step on the calling thread, so a
//!   `workers` line is accepted but has no effect), or as a sharded
//!   [`mto_fleet::FleetCoordinator`] when the request says `shards W`
//!   (with `epochs N` gossip barriers) — honoring its `warm-start` /
//!   `save-history` / `journal` directives. Fleet runs additionally
//!   report per-epoch gossip savings, keep-first `merge-conflicts`, the
//!   makespan (max per-shard virtual seconds), and — when the request
//!   carries `budget N` and/or per-job `deadline=` fields — the QoS
//!   surface: admission verdicts, the budget-ledger split/rebalance
//!   accounting, and per-job `deadline-met` flags (`policy edf`
//!   schedules quanta earliest-deadline-first). A `metrics` directive
//!   appends the mto-obs summary (shard-invariant `metric` lines plus
//!   `timing` lines), and `trace FILE` writes the deterministic
//!   `mto-trace/v2` span/point record — feed it to `mto-trace flame` for
//!   a collapsed-stack profile over virtual time. A `prom FILE` directive
//!   enables the wall-clock telemetry plane (per-phase wall time across
//!   shard service, barrier waits, gossip merges, pipeline replay, the
//!   scheduler's stepping loop, and history encode/decode) and writes a
//!   Prometheus text-exposition snapshot of the metrics and wall
//!   registries — the run's only output that varies run to run; report
//!   bodies, traces, and `metric` lines are byte-identical with or
//!   without it (join the two planes with `mto-trace gap`). Build with
//!   `--features wall-alloc` to add per-phase allocation counts/bytes
//!   to the snapshot.
//! * `snapshot` runs the request's **first** job for `--at` steps as a
//!   [`SamplerSession`], then freezes it (network spec included) to
//!   `--to`. Fleet directives (`shards` / `epochs`) describe a whole
//!   fleet, not one frozen session: `snapshot` (and therefore the
//!   `resume` of anything it wrote) **fails fast** on them, naming the
//!   unsupported directive, instead of silently ignoring them.
//! * `resume` thaws a snapshot, replays it against a freshly built
//!   instance of the recorded network, finishes the remaining budget, and
//!   reports — the cross-process half of the snapshot → resume lifecycle.
//!
//! The binary lives in `mto-fleet` (not `mto-serve`) because the crate
//! DAG is `serve ← fleet`: the front-end must sit at or above every
//! layer it drives.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mto_core::walk::Walker;
use mto_fleet::{FleetConfig, FleetCoordinator, FleetReport};
use mto_net::TimedInterface;
use mto_obs::quality::{JobQualityFigures, QualityReport};
use mto_obs::{
    encode_trace, percent, MetricsRegistry, TraceSink, WallClockRegistry, WallClockScope, WallKey,
};
use mto_osn::{CachedClient, OsnService, SharedClient, SocialNetworkInterface, VirtualClock};
use mto_serve::error::ServeError;
use mto_serve::history::HistoryStore;
use mto_serve::journal::{HistoryJournal, JournalRecovery};
use mto_serve::request::{NetworkSpec, ServeRequest};
use mto_serve::scheduler::{fold_quality, JobOutcome, JobScheduler, ServeReport};
use mto_serve::session::{SamplerSession, SessionSnapshot};

const USAGE: &str = "usage:
  mto_serve run <request-file> [--out FILE]
  mto_serve snapshot <request-file> --at STEPS --to FILE
  mto_serve resume <snapshot-file> [--out FILE]";

// With `--features wall-alloc`, every allocation bumps the process-wide
// counters the wall plane snapshots, so `prom` dumps carry per-phase
// alloc/byte figures. Without the feature those figures read 0.
#[cfg(feature = "wall-alloc")]
#[global_allocator]
static ALLOC: mto_obs::wallclock::CountingAllocator = mto_obs::wallclock::CountingAllocator;

/// Metadata key under which snapshots record their network spec.
const NETWORK_META: &str = "network";
/// Metadata key under which snapshots record their provider preset.
const PROVIDER_META: &str = "provider";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(()) => 0,
        Err(Invocation::Usage(msg)) => {
            eprintln!("{msg}\n{USAGE}");
            2
        }
        Err(Invocation::Failed(e)) => {
            eprintln!("error: {e}");
            1
        }
    };
    std::process::exit(code);
}

enum Invocation {
    Usage(String),
    Failed(ServeError),
}

impl From<ServeError> for Invocation {
    fn from(e: ServeError) -> Self {
        Invocation::Failed(e)
    }
}

fn dispatch(args: &[String]) -> Result<(), Invocation> {
    let (command, rest) =
        args.split_first().ok_or_else(|| Invocation::Usage("no command given".into()))?;
    match command.as_str() {
        "run" => cmd_run(rest),
        "snapshot" => cmd_snapshot(rest),
        "resume" => cmd_resume(rest),
        other => Err(Invocation::Usage(format!("unknown command {other:?}"))),
    }
}

/// Pulls `<positional> [--flag value]...` out of `args`.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
) -> Result<(PathBuf, std::collections::HashMap<String, PathBuf>), Invocation> {
    let mut positional = None;
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !allowed.contains(&name) {
                return Err(Invocation::Usage(format!("unknown flag --{name}")));
            }
            let value =
                it.next().ok_or_else(|| Invocation::Usage(format!("--{name} needs a value")))?;
            flags.insert(name.to_string(), PathBuf::from(value));
        } else if positional.is_none() {
            positional = Some(PathBuf::from(arg));
        } else {
            return Err(Invocation::Usage(format!("unexpected argument {arg:?}")));
        }
    }
    let positional = positional.ok_or_else(|| Invocation::Usage("missing input file".into()))?;
    Ok((positional, flags))
}

fn read_request(path: &Path) -> Result<ServeRequest, ServeError> {
    let text = std::fs::read_to_string(path)?;
    ServeRequest::parse(&text)
}

fn emit(report: &str, out: Option<&PathBuf>) -> Result<(), ServeError> {
    println!("{report}");
    if let Some(path) = out {
        std::fs::write(path, report)?;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), Invocation> {
    let (request_path, flags) = parse_flags(args, &["out"])?;
    let request = read_request(&request_path)?;

    // The `prom` directive turns on the wall plane; phases observed at
    // this process level (history codec work) accumulate here and merge
    // with whatever the run itself collected before the snapshot writes.
    let wall_on = request.prom.is_some();
    let mut process_wall = WallClockRegistry::new();

    // Prior history: a warm-start snapshot, or the journal's replayed
    // state (the request parser guarantees at most one of the two).
    let mut journal: Option<(HistoryJournal, JournalRecovery)> = match &request.journal {
        Some(path) => Some(open_journal(path)?),
        None => None,
    };
    let prior: Option<HistoryStore> = if let Some(path) = &request.warm_start {
        let timer = wall_on.then(WallClockScope::start);
        let store = HistoryStore::load(path)?;
        if let Some(timer) = timer {
            timer.stop_into(&mut process_wall, WallKey::phase("history-decode"));
        }
        eprintln!(
            "warm-starting from {} ({} cached responses)",
            path.display(),
            store.num_responses()
        );
        Some(store)
    } else {
        journal.as_ref().and_then(|(j, recovery)| {
            (j.records() > 0).then(|| {
                eprintln!(
                    "journal {}: replayed {} records{}",
                    j.path().display(),
                    recovery.replayed_records,
                    if recovery.recovered {
                        format!(" (recovered; dropped a {}-byte torn tail)", recovery.dropped_bytes)
                    } else {
                        String::new()
                    }
                );
                j.store().clone()
            })
        })
    };

    let (mut body, final_store, plane) = match request.shards {
        Some(shards) => run_fleet(&request, shards, prior)?,
        None => run_scheduler(&request, prior)?,
    };

    if let Some(path) = &request.save_history {
        let timer = wall_on.then(WallClockScope::start);
        final_store.save(path)?;
        if let Some(timer) = timer {
            timer.stop_into(&mut process_wall, WallKey::phase("history-encode"));
        }
        eprintln!(
            "saved history ({} cached responses) to {}",
            final_store.num_responses(),
            path.display()
        );
    }
    if let Some((mut j, recovery)) = journal.take() {
        let appended = j.absorb(&final_store)?;
        j.sync()?;
        use std::fmt::Write;
        writeln!(
            body,
            "journal {} replayed={} appended={} recovered={}",
            j.path().display(),
            recovery.replayed_records,
            appended,
            u8::from(recovery.recovered)
        )
        .expect("string write");
    }
    if let Some(path) = &request.prom {
        let mut plane = plane.unwrap_or_default();
        plane.wall.merge(&process_wall);
        std::fs::write(
            path,
            mto_obs::prom::render(plane.metrics.as_ref(), plane.quality.as_ref(), &plane.wall),
        )
        .map_err(ServeError::from)?;
        // A stderr note, like the trace write: report bodies (and their
        // CI diffs) stay byte-identical whether `prom` is present.
        eprintln!("wrote prom snapshot ({} wall keys) to {}", plane.wall.len(), path.display());
    }
    emit(&body, flags.get("out"))?;
    Ok(())
}

/// What the `prom` directive snapshots: the run's metrics registry
/// (when the run built one), the estimator-quality report (when the
/// request carried the `quality` directive), plus the wall-clock
/// registry.
#[derive(Default)]
struct WallPlane {
    metrics: Option<MetricsRegistry>,
    quality: Option<QualityReport>,
    wall: WallClockRegistry,
}

/// Opens an existing journal (replaying it, tolerating a torn tail) or
/// creates a fresh one.
fn open_journal(path: &Path) -> Result<(HistoryJournal, JournalRecovery), ServeError> {
    if path.exists() {
        HistoryJournal::open(path)
    } else {
        Ok((HistoryJournal::create(path)?, JournalRecovery::default()))
    }
}

/// The single-client path: every job on one [`JobScheduler`]. The
/// provider directive wraps the service in mto-net's simulated latency +
/// quota on a virtual clock, so the report can say what the run would
/// have cost in wall-clock time against the live API.
fn run_scheduler(
    request: &ServeRequest,
    prior: Option<HistoryStore>,
) -> Result<(String, HistoryStore, Option<WallPlane>), ServeError> {
    let service = OsnService::with_defaults(&request.network.build());
    let mut wall = request.prom.is_some().then(WallClockRegistry::new);
    let (report, store, obs) = match request.provider {
        Some(profile) => {
            let timed = TimedInterface::new(service, profile, 0x5EED);
            let clock = timed.clock().clone();
            execute(timed, request, prior, Some(clock), wall.as_mut())?
        }
        None => execute(service, request, prior, None, wall.as_mut())?,
    };
    let mut body = render_report(request, &report, obs.quality.as_ref());
    if request.metrics {
        render_scheduler_metrics(&mut body, &report, &obs);
    }
    if let Some(path) = &request.trace {
        write_trace(path, &scheduler_trace(&report, &obs.quanta))?;
    }
    // The single-client path renders its metrics straight off the
    // client; the prom snapshot rebuilds the same deterministic figures
    // as a registry so both planes export through one writer.
    let plane = wall.map(|wall| {
        let mut metrics = MetricsRegistry::new();
        metrics.inc("walk-steps", report.outcomes.iter().map(|o| o.steps as u64).sum());
        metrics.inc("unique-queries", obs.unique_queries);
        metrics.inc("total-lookups", obs.total_lookups);
        metrics.inc("transient-retries", obs.transient_retries);
        WallPlane { metrics: Some(metrics), quality: obs.quality.clone(), wall }
    });
    Ok((body, store, plane))
}

/// Client counters and planner quanta the single-client path surfaces
/// in its metrics/trace output (the fleet path reads the equivalents
/// out of its coordinator's merged registry).
struct SchedulerObs {
    quanta: Vec<usize>,
    unique_queries: u64,
    total_lookups: u64,
    transient_retries: u64,
    arena_rewrites_in_place: u64,
    arena_leaked_ids: u64,
    /// Estimator-quality figures (`Some` iff the request carried the
    /// `quality` directive), folded post-hoc from the full walk
    /// histories — the single-client path never stops early, so an
    /// `ess=` SLO here is judged at the end of the budget.
    quality: Option<QualityReport>,
}

/// Builds the scheduler (cold or warm-started), runs the jobs, and
/// exports the client's final history — generic over however the
/// service is wrapped.
fn execute<I: SocialNetworkInterface>(
    service: I,
    request: &ServeRequest,
    prior: Option<HistoryStore>,
    clock: Option<VirtualClock>,
    wall: Option<&mut WallClockRegistry>,
) -> Result<(ServeReport, HistoryStore, SchedulerObs), ServeError> {
    let mut scheduler = match &prior {
        Some(store) => JobScheduler::warm_start(service, store, request.scheduler)?,
        None => JobScheduler::new(service, request.scheduler),
    };
    if let Some(clock) = clock {
        scheduler = scheduler.with_virtual_clock(clock);
    }
    let quanta = scheduler.planned_quanta(&request.jobs);
    let report = scheduler.run_instrumented(request.jobs.clone(), wall)?;
    let quality = request
        .quality
        .then(|| fold_quality(scheduler.client(), &request.jobs, &report.outcomes).report());
    let (store, obs) = scheduler.client().with(|c| {
        (
            HistoryStore::from_client(c),
            SchedulerObs {
                quanta,
                unique_queries: c.unique_queries(),
                total_lookups: c.total_lookups(),
                transient_retries: c.transient_retries(),
                arena_rewrites_in_place: c.arena().rewrites_in_place(),
                arena_leaked_ids: c.arena().leaked_ids(),
                quality,
            },
        )
    });
    Ok((report, store, obs))
}

/// Encodes `trace` as `mto-trace/v2` to `path`, noting the write on
/// stderr so report bodies (and their CI diffs) stay unchanged.
fn write_trace(path: &Path, trace: &TraceSink) -> Result<(), ServeError> {
    std::fs::write(path, encode_trace(trace))?;
    eprintln!("wrote trace ({} events) to {}", trace.len(), path.display());
    Ok(())
}

/// The single-client path has no epoch clock, so its trace is a flat
/// plan→run record at `t = 0`: one point per planned quantum, one span
/// per job weighted by the steps it actually took. Deterministic for
/// the same reason the report body is.
fn scheduler_trace(report: &ServeReport, quanta: &[usize]) -> TraceSink {
    let mut sink = TraceSink::new();
    sink.enter(0, "serve");
    for (o, q) in report.outcomes.iter().zip(quanta) {
        sink.point(0, &format!("quantum-{}", o.id), *q as u64);
    }
    for o in &report.outcomes {
        sink.enter(0, &format!("job-{}", o.id));
        sink.exit(0, o.steps as u64);
    }
    sink.exit(0, 0);
    sink
}

/// Walker-internal telemetry summed over outcomes: Metropolis–Hastings
/// proposal/rejection counts and Theorem-3 criterion-scan lengths. All
/// deterministic-plane figures (walkers are pure functions of their
/// configs and the network's responses).
fn render_walker_metrics(out: &mut String, outcomes: &[JobOutcome]) {
    use std::fmt::Write;
    let (mut proposals, mut rejections) = (0u64, 0u64);
    let (mut scans, mut scanned, mut max_scan) = (0u64, 0u64, 0u64);
    for o in outcomes {
        if let Some((p, r)) = o.mh {
            proposals += p;
            rejections += r;
        }
        if let Some(s) = o.scan {
            scans += s.criterion_scans;
            scanned += s.criterion_scanned;
            max_scan = max_scan.max(s.max_scan);
        }
    }
    writeln!(out, "metric mh-proposals {proposals}").expect("string write");
    writeln!(out, "metric mh-rejections {rejections}").expect("string write");
    writeln!(out, "metric criterion-scans {scans}").expect("string write");
    writeln!(out, "metric criterion-scanned {scanned}").expect("string write");
    writeln!(out, "metric max-scan-len {max_scan}").expect("string write");
}

/// Metrics summary of a single-client run (`metrics` directive). One
/// client means one plane: every line is deterministic.
fn render_scheduler_metrics(out: &mut String, report: &ServeReport, obs: &SchedulerObs) {
    use std::fmt::Write;
    let steps: u64 = report.outcomes.iter().map(|o| o.steps as u64).sum();
    writeln!(out, "# metrics").expect("string write");
    writeln!(out, "metric jobs {}", report.outcomes.len()).expect("string write");
    writeln!(out, "metric walk-steps {steps}").expect("string write");
    writeln!(out, "metric unique-queries {}", obs.unique_queries).expect("string write");
    writeln!(out, "metric total-lookups {}", obs.total_lookups).expect("string write");
    writeln!(
        out,
        "metric cache-hit-rate {}",
        percent(obs.total_lookups.saturating_sub(obs.unique_queries), obs.total_lookups)
    )
    .expect("string write");
    writeln!(out, "metric transient-retries {}", obs.transient_retries).expect("string write");
    writeln!(out, "metric arena-rewrites-in-place {}", obs.arena_rewrites_in_place)
        .expect("string write");
    writeln!(out, "metric arena-leaked-ids {}", obs.arena_leaked_ids).expect("string write");
    // The scheduler trace is built balanced by construction, so its
    // underflow anomaly counter is pinned at zero here — the line
    // exists so the baseline gate watches it anyway.
    writeln!(out, "metric trace-underflows 0").expect("string write");
    render_walker_metrics(out, &report.outcomes);
    if let Some(quality) = &obs.quality {
        quality.render_metric_lines(out);
    }
}

/// The fleet path: jobs sharded across `W` workers with epoch-barrier
/// history gossip (see `mto_fleet::FleetCoordinator`). The `epochs N`
/// directive is a *target barrier count*: the per-epoch quantum is the
/// longest job budget divided across `N` epochs. A `budget N` directive
/// becomes the fleet-wide unique-query budget of the QoS ledger, and
/// the `policy` directive selects the epoch planner.
fn run_fleet(
    request: &ServeRequest,
    shards: usize,
    prior: Option<HistoryStore>,
) -> Result<(String, HistoryStore, Option<WallPlane>), ServeError> {
    let service = Arc::new(OsnService::with_defaults(&request.network.build()));
    let max_budget = request.jobs.iter().map(|j| j.step_budget).max().unwrap_or(0);
    let target_epochs = request.epochs.unwrap_or(4).max(1);
    let epoch_quantum = max_budget.div_ceil(target_epochs).max(1);
    let config = FleetConfig {
        shards,
        epoch_quantum,
        provider: request.provider,
        policy: request.scheduler.policy,
        fleet_budget: request.scheduler.global_query_budget,
        // `prom` wants the metrics families in its snapshot, so it
        // implies obs; enabling obs never changes results (the fleet's
        // own tests pin that).
        obs: request.trace.is_some() || request.metrics || request.prom.is_some(),
        wall: request.prom.is_some(),
        quality: request.quality,
        ..Default::default()
    };
    let warm_responses = prior.as_ref().map_or(0, HistoryStore::num_responses) as u64;
    let mut fleet = FleetCoordinator::new(move |_| service.clone(), config);
    if let Some(store) = prior {
        fleet = fleet.with_warm_start(store);
    }
    let report = fleet.run(request.jobs.clone())?;
    let mut body = render_fleet_report(request, &report, epoch_quantum);
    if request.metrics {
        render_fleet_metrics(&mut body, request, &report, warm_responses);
    }
    if let Some(path) = &request.trace {
        let fallback = TraceSink::new();
        write_trace(path, report.obs.as_ref().map_or(&fallback, |o| &o.trace))?;
    }
    let plane = report.wall.clone().map(|wall| WallPlane {
        metrics: report.obs.as_ref().map(|o| o.registry.clone()),
        quality: report.quality.clone(),
        wall,
    });
    let store = report.union_store;
    Ok((body, store, plane))
}

/// Metrics summary of a fleet run (`metrics` directive), in two planes:
/// `metric` lines are shard-invariant — byte-identical at every `W`
/// (the obs-smoke CI job diffs them) — while `timing` lines carry the
/// figures sharding legitimately changes: bills, queue waits, gossip
/// yield, per-job finish instants. `warm_responses` is the size of the
/// warm-start history the run began with (0 when cold).
fn render_fleet_metrics(
    out: &mut String,
    request: &ServeRequest,
    report: &FleetReport,
    warm_responses: u64,
) {
    use std::fmt::Write;
    let Some(obs) = &report.obs else { return };
    let reg = &obs.registry;
    writeln!(out, "# metrics (shard-invariant)").expect("string write");
    writeln!(out, "metric jobs {}", report.outcomes.len()).expect("string write");
    writeln!(out, "metric epochs {}", report.epochs.len()).expect("string write");
    writeln!(out, "metric walk-steps {}", reg.counter("walk-steps")).expect("string write");
    // The shard-invariant cache accounting: `unique-queries` is the
    // *union* of what the fleet learned (gossip makes it W-invariant),
    // `total-lookups` is the sum of every walker's fetch calls (each
    // walk is deterministic). The W-dependent bill — what the shards
    // actually re-paid — is `timing fleet-bill-unique-queries` below.
    // Misses are the responses this run added to the union: a lookup
    // answered from the warm-start history is a hit.
    let unique = reg.counter("unique-nodes-crawled");
    let lookups = reg.counter("total-lookups");
    let misses = unique.saturating_sub(warm_responses);
    writeln!(out, "metric unique-queries {unique}").expect("string write");
    writeln!(out, "metric total-lookups {lookups}").expect("string write");
    writeln!(out, "metric cache-hit-rate {}", percent(lookups.saturating_sub(misses), lookups))
        .expect("string write");
    // Causal adoptions are derived from walk histories, not shard
    // caches, so they sit in the invariant plane with the trace's
    // gossip edges; a nonzero underflow count is an instrumentation
    // bug this surface must scream about.
    writeln!(out, "metric gossip-causal-adoptions {}", reg.counter("gossip-causal-adoptions"))
        .expect("string write");
    writeln!(out, "metric trace-underflows {}", reg.counter("trace-underflows"))
        .expect("string write");
    render_walker_metrics(out, &report.outcomes);
    // Quality figures are pure functions of the walks, so they belong
    // to the shard-invariant plane (the quality-smoke CI job diffs them
    // across W).
    if let Some(quality) = &report.quality {
        quality.render_metric_lines(out);
    }
    writeln!(out, "# timing (varies with shard count)").expect("string write");
    writeln!(out, "timing fleet-bill-unique-queries {}", report.total_unique_queries)
        .expect("string write");
    writeln!(out, "timing gossip-adopted {}", report.gossip_adopted_responses)
        .expect("string write");
    writeln!(out, "timing merge-conflicts {}", report.merge_conflicts).expect("string write");
    writeln!(out, "timing makespan-secs {:.3}", report.makespan_secs).expect("string write");
    writeln!(out, "timing pipeline-completions {}", reg.counter("pipeline-completions"))
        .expect("string write");
    writeln!(out, "timing transient-retries {}", reg.counter("transient-retries"))
        .expect("string write");
    writeln!(out, "timing arena-rewrites-in-place {}", reg.counter("arena-rewrites-in-place"))
        .expect("string write");
    writeln!(out, "timing arena-leaked-ids {}", reg.counter("arena-leaked-ids"))
        .expect("string write");
    for name in ["queue-wait-us", "service-time-us"] {
        if let Some(h) = reg.histogram(name) {
            writeln!(out, "timing p50-{name} {}", h.p50()).expect("string write");
            writeln!(out, "timing p99-{name} {}", h.p99()).expect("string write");
        }
    }
    for (o, spec) in report.outcomes.iter().zip(&request.jobs) {
        if let (Some(d), Some(t)) = (spec.deadline, o.finished_secs) {
            writeln!(
                out,
                "timing deadline-slack job={} deadline={d:.3} finished-at={t:.3} slack-secs={:.3}",
                o.id,
                d - t
            )
            .expect("string write");
        }
    }
}

fn render_job_line(
    out: &mut String,
    o: &JobOutcome,
    deadline: Option<f64>,
    quality: Option<&JobQualityFigures>,
) {
    use std::fmt::Write;
    write!(
        out,
        "job {} algo={} steps={} completed={} final={} visits={}",
        o.id,
        o.algorithm,
        o.steps,
        u8::from(o.completed),
        o.final_node,
        o.history.len()
    )
    .expect("string write");
    if let Some(est) = o.avg_degree_estimate {
        write!(out, " est-avg-degree={est:.4}").expect("string write");
    }
    if let Some(s) = o.stats {
        write!(out, " removals={} replacements={}", s.removals, s.replacements)
            .expect("string write");
    }
    // Timing fields appear only for deadline jobs: deadline-free job
    // lines stay byte-stable across warm starts and shard counts.
    if let Some(d) = deadline {
        if let Some(t) = o.finished_secs {
            write!(out, " finished-at={t:.3}").expect("string write");
        }
        write!(out, " deadline={d:.3}").expect("string write");
        // The met flag needs a finish instant to judge against — the
        // fleet stamps one; the plain scheduler does not, and a job that
        // never ran (deferred/rejected/cut) has verifiably missed. A
        // completed job with no timestamp reports no verdict rather than
        // a false miss.
        if o.finished_secs.is_some() || !o.completed {
            write!(out, " deadline-met={}", u8::from(o.deadline_met(d))).expect("string write");
        }
    }
    // The SLO verdict appears only for jobs that declared `ess=`:
    // SLO-free job lines stay byte-stable with or without the quality
    // plane.
    if let Some(q) = quality {
        if q.target_ess.is_some() {
            write!(out, " quality-met={}", u8::from(q.met)).expect("string write");
        }
    }
    out.push('\n');
}

fn render_report(
    request: &ServeRequest,
    report: &ServeReport,
    quality: Option<&QualityReport>,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "# mto-serve results").expect("string write");
    writeln!(out, "network {}", request.network.to_line()).expect("string write");
    writeln!(out, "jobs {}", report.outcomes.len()).expect("string write");
    writeln!(out, "total-unique-queries {}", report.total_unique_queries).expect("string write");
    if let (Some(profile), Some(secs)) = (&request.provider, report.virtual_secs) {
        writeln!(out, "provider {} virtual-secs {secs:.3}", profile.name).expect("string write");
    }
    writeln!(
        out,
        "aggregate-rewiring removals={} replacements={} rejections={}",
        report.aggregate_stats.removals,
        report.aggregate_stats.replacements,
        report.aggregate_stats.replacement_rejections
    )
    .expect("string write");
    for (o, spec) in report.outcomes.iter().zip(&request.jobs) {
        render_job_line(&mut out, o, spec.deadline, quality.and_then(|q| q.jobs.get(&o.id)));
    }
    out
}

fn render_fleet_report(request: &ServeRequest, report: &FleetReport, quantum: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "# mto-serve results (fleet)").expect("string write");
    writeln!(out, "network {}", request.network.to_line()).expect("string write");
    writeln!(
        out,
        "fleet shards={} epochs={} quantum={quantum}",
        report.shards,
        report.epochs.len()
    )
    .expect("string write");
    writeln!(out, "jobs {}", report.outcomes.len()).expect("string write");
    writeln!(out, "total-unique-queries {}", report.total_unique_queries).expect("string write");
    writeln!(out, "gossip-saved {}", report.gossip_adopted_responses).expect("string write");
    writeln!(out, "merge-conflicts {}", report.merge_conflicts).expect("string write");
    writeln!(out, "makespan-secs {:.3}", report.makespan_secs).expect("string write");
    if let Some(profile) = &request.provider {
        // The fleet line carries the pipeline's adaptation counters
        // (summed over shards); the single-client line keeps its
        // frozen `provider NAME virtual-secs T` shape — CI greps it.
        let ps = &report.pipeline_stats;
        writeln!(
            out,
            "provider {} ramp-ups={} ramp-downs={} latency-backoffs={} rate-limit-stalls={}",
            profile.name, ps.ramp_ups, ps.ramp_downs, ps.latency_backoffs, ps.rate_limit_stalls
        )
        .expect("string write");
    }
    if let Some(ledger) = &report.ledger {
        // The ledger figures are shard-invariant: identical lines at
        // every W (the qos-smoke CI job diffs them).
        writeln!(
            out,
            "ledger total={} spent={} pool={} cut-jobs={}",
            ledger.total, ledger.spent, ledger.pool, ledger.cut_jobs
        )
        .expect("string write");
        writeln!(out, "ledger-rebalance reclaimed={} granted={}", ledger.reclaimed, ledger.granted)
            .expect("string write");
    }
    for d in &report.admission {
        if let Some(reason) = &d.reason {
            writeln!(
                out,
                "admission job={} verdict={} predicted-queries={} predicted-secs={:.3} # {}",
                d.id,
                d.verdict.name(),
                d.predicted_queries,
                d.predicted_secs,
                reason
            )
            .expect("string write");
        }
    }
    writeln!(
        out,
        "aggregate-rewiring removals={} replacements={} rejections={}",
        report.aggregate_stats.removals,
        report.aggregate_stats.replacements,
        report.aggregate_stats.replacement_rejections
    )
    .expect("string write");
    for e in &report.epochs {
        writeln!(
            out,
            "epoch {} unique={} adopted={} conflicts={} makespan-secs={:.3}",
            e.epoch,
            e.fleet_unique_queries,
            e.adopted_responses,
            e.merge_conflicts,
            e.makespan_secs
        )
        .expect("string write");
    }
    for (o, spec) in report.outcomes.iter().zip(&request.jobs) {
        let figures = report.quality.as_ref().and_then(|q| q.jobs.get(&o.id));
        render_job_line(&mut out, o, spec.deadline, figures);
    }
    out
}

fn cmd_snapshot(args: &[String]) -> Result<(), Invocation> {
    let (request_path, flags) = parse_flags(args, &["at", "to"])?;
    let at: usize = flags
        .get("at")
        .ok_or_else(|| Invocation::Usage("snapshot needs --at STEPS".into()))?
        .to_string_lossy()
        .parse()
        .map_err(|e| Invocation::Usage(format!("bad --at value: {e}")))?;
    let to = flags.get("to").ok_or_else(|| Invocation::Usage("snapshot needs --to FILE".into()))?;

    let request = read_request(&request_path)?;
    // A snapshot freezes ONE session; a request that asks for a fleet
    // cannot be honored by silently ignoring its fleet directives (the
    // resumed run would quietly drop the sharding the user asked for).
    // Fail fast, naming the unsupported directive.
    for (present, directive) in
        [(request.shards.is_some(), "shards"), (request.epochs.is_some(), "epochs")]
    {
        if present {
            return Err(Invocation::Failed(ServeError::Request {
                line: 0,
                message: format!(
                    "`snapshot`/`resume` operate on a single session; the fleet directive \
                     `{directive}` is not supported here — drop it or use `run`"
                ),
            }));
        }
    }
    let service = OsnService::with_defaults(&request.network.build());
    // Honor the provider directive exactly like `run` does, so one
    // request file means the same thing under every subcommand; the
    // provider travels in the snapshot meta for `resume` to rebuild.
    match request.provider {
        Some(profile) => {
            snapshot_session(TimedInterface::new(service, profile, 0x5EED), &request, at, to)
        }
        None => snapshot_session(service, &request, at, to),
    }
}

fn snapshot_session<I: SocialNetworkInterface>(
    service: I,
    request: &ServeRequest,
    at: usize,
    to: &Path,
) -> Result<(), Invocation> {
    let job = request.jobs[0].clone(); // parse guarantees ≥ 1 job
    let client = SharedClient::new(CachedClient::new(service));
    let mut session = SamplerSession::create(client, job)?;
    session.set_meta(NETWORK_META, request.network.to_line());
    if let Some(profile) = &request.provider {
        session.set_meta(PROVIDER_META, profile.name);
    }
    let taken = session.advance(at)?;
    session.pause();
    session.snapshot().save(to)?;
    println!(
        "snapshotted job {} after {} steps ({} unique queries) to {}",
        session.spec().id,
        taken,
        session.unique_queries(),
        to.display()
    );
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), Invocation> {
    let (snapshot_path, flags) = parse_flags(args, &["out"])?;
    let snapshot = SessionSnapshot::load(&snapshot_path)?;
    let network_line = snapshot
        .meta_value(NETWORK_META)
        .ok_or_else(|| ServeError::SnapshotMismatch("snapshot records no network spec".into()))?
        .to_string();
    let network = NetworkSpec::parse(&network_line)
        .map_err(|m| ServeError::SnapshotMismatch(format!("bad network meta: {m}")))?;
    let provider = match snapshot.meta_value(PROVIDER_META) {
        Some(name) => Some(mto_net::ProviderProfile::by_name(name).ok_or_else(|| {
            ServeError::SnapshotMismatch(format!("unknown provider meta {name:?}"))
        })?),
        None => None,
    };

    let service = OsnService::with_defaults(&network.build());
    // Replaying the frozen prefix is pure cache hits, so the virtual
    // clock only charges the *remaining* steps — exactly what resuming
    // against the live provider would cost.
    let out = match provider {
        Some(profile) => {
            let timed = TimedInterface::new(service, profile, 0x5EED);
            let clock = timed.clock().clone();
            resume_session(timed, &snapshot, &network_line, Some((profile.name, clock)))?
        }
        None => resume_session(service, &snapshot, &network_line, None)?,
    };
    emit(&out, flags.get("out"))?;
    Ok(())
}

fn resume_session<I: SocialNetworkInterface>(
    service: I,
    snapshot: &SessionSnapshot,
    network_line: &str,
    provider_clock: Option<(&str, VirtualClock)>,
) -> Result<String, Invocation> {
    let client = SharedClient::new(CachedClient::new(service));
    let mut session = SamplerSession::restore(client, snapshot)?;
    let resumed_at = session.steps_taken();
    session.run_to_completion()?;
    let estimate = session.average_degree_estimate()?;

    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "# mto-serve resumed session").expect("string write");
    writeln!(out, "network {network_line}").expect("string write");
    writeln!(
        out,
        "job {} resumed-at={} steps={} final={} unique-queries={}",
        session.spec().id,
        resumed_at,
        session.steps_taken(),
        session.walker().current(),
        session.unique_queries()
    )
    .expect("string write");
    if let Some((name, clock)) = provider_clock {
        writeln!(out, "provider {name} virtual-secs {:.3}", clock.now()).expect("string write");
    }
    if let Some(est) = estimate {
        writeln!(out, "est-avg-degree {est:.4}").expect("string write");
    }
    Ok(out)
}
