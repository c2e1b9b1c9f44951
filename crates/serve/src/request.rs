//! Request files: the `mto_serve` binary's input format.
//!
//! A request file is line-oriented: blank lines and `#` comments are
//! ignored, every other line is a directive.
//!
//! ```text
//! # which simulated network to build (mto-graph generators)
//! network barbell
//! # optional provider simulation: rate limit + latency on the virtual
//! # clock (mto-net presets: facebook / twitter / google-plus)
//! provider facebook
//! # optional persistent history
//! warm-start crawl.hist
//! save-history crawl.hist
//! # scheduler knobs (jobs step on the calling thread: `workers N` is
//! # accepted for older request files but has no effect)
//! workers 4
//! quantum 32
//! budget 5000
//! policy budget-proportional
//! # crash-safe append-only history (mto-serve journal format; replays
//! # on open, tolerates a torn tail)
//! journal crawl.journal
//! # observability: write the run's deterministic `mto-trace/v2` trace
//! # to a file, and append the metrics summary to the report (`metrics`
//! # is the one directive with no payload)
//! trace run.trace
//! metrics
//! # estimator-quality plane (payload-free, like `metrics`): streaming
//! # ESS / Geweke z per job and the cross-chain R-hat, folded at epoch
//! # barriers. Pure observation — results and trace spans are
//! # byte-identical with or without it. Jobs may then declare a
//! # `quality ess=N` SLO via `ess=` for deterministic early stop.
//! quality
//! # wall-clock plane: write a Prometheus text-exposition snapshot of
//! # the run's metrics and wall-phase timings here. The snapshot is a
//! # side channel — report bodies, traces, and `metric` lines stay
//! # byte-identical whether or not `prom` is present.
//! prom metrics.prom
//! # fleet mode (mto-fleet): shard the jobs across W threads and gossip
//! # history at N epoch barriers. Replaces the scheduler: `workers` /
//! # `quantum` are rejected together with `shards`; `budget` becomes the
//! # fleet-wide unique-query budget split by the mto-qos ledger, and
//! # `policy edf` schedules quanta earliest-deadline-first.
//! #shards 4
//! #epochs 8
//! # one line per job (same syntax as session snapshots); `deadline=` is
//! # an optional per-job completion deadline in virtual seconds
//! job id=a algo=mto start=0 steps=500 seed=7 deadline=45.0
//! job id=b algo=srw start=3 steps=500 seed=9
//! ```

use std::path::PathBuf;

use mto_graph::{generators, Graph};
use mto_net::ProviderProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::ServeError;
use crate::scheduler::{SchedulePolicy, SchedulerConfig};
use crate::session::{parse_job_line, JobSpec};

/// A buildable simulated-network description. Every variant maps to an
/// `mto_graph::generators` call, so the service layer stays below
/// `mto-experiments` in the crate DAG.
#[derive(Clone, Debug, PartialEq)]
pub enum NetworkSpec {
    /// The paper's 22-node barbell running example.
    Barbell,
    /// Complete graph `K_n`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Cycle graph `C_n`.
    Cycle {
        /// Node count (≥ 3).
        n: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Planted-partition stochastic block model.
    Sbm {
        /// Number of blocks.
        blocks: usize,
        /// Nodes per block.
        block_size: usize,
        /// Intra-block edge probability.
        p_in: f64,
        /// Inter-block edge probability.
        p_out: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Watts–Strogatz small world.
    WattsStrogatz {
        /// Node count.
        n: usize,
        /// Ring degree (even).
        k: usize,
        /// Rewiring probability.
        beta: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl NetworkSpec {
    /// Parses the payload of a `network` directive.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut tokens = text.split_whitespace();
        let name = tokens.next().ok_or("empty network spec")?;
        let mut fields = std::collections::HashMap::new();
        for token in tokens {
            let (k, v) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
            if fields.insert(k, v).is_some() {
                return Err(format!("duplicate field {k:?}"));
            }
        }
        fn field<T: std::str::FromStr>(
            fields: &mut std::collections::HashMap<&str, &str>,
            key: &str,
        ) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            let v = fields.remove(key).ok_or_else(|| format!("missing {key}="))?;
            v.parse().map_err(|e| format!("bad {key} {v:?}: {e}"))
        }
        let spec = match name {
            "barbell" => NetworkSpec::Barbell,
            "complete" => NetworkSpec::Complete { n: field(&mut fields, "n")? },
            "cycle" => NetworkSpec::Cycle { n: field(&mut fields, "n")? },
            "gnp" => NetworkSpec::Gnp {
                n: field(&mut fields, "n")?,
                p: field(&mut fields, "p")?,
                seed: field(&mut fields, "seed")?,
            },
            "sbm" => NetworkSpec::Sbm {
                blocks: field(&mut fields, "blocks")?,
                block_size: field(&mut fields, "block-size")?,
                p_in: field(&mut fields, "p-in")?,
                p_out: field(&mut fields, "p-out")?,
                seed: field(&mut fields, "seed")?,
            },
            "ws" => NetworkSpec::WattsStrogatz {
                n: field(&mut fields, "n")?,
                k: field(&mut fields, "k")?,
                beta: field(&mut fields, "beta")?,
                seed: field(&mut fields, "seed")?,
            },
            other => return Err(format!("unknown network kind {other:?}")),
        };
        if let Some(k) = fields.keys().next() {
            return Err(format!("unknown field {k:?} for network {name}"));
        }
        spec.check()?;
        Ok(spec)
    }

    /// Rejects the parameters the generators would assert on, so a bad
    /// `network` line is a request error, not a panic in
    /// [`NetworkSpec::build`].
    fn check(&self) -> Result<(), String> {
        fn probability(key: &str, p: f64) -> Result<(), String> {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{key}={p} must lie in [0, 1]"))
            }
        }
        match *self {
            NetworkSpec::Barbell | NetworkSpec::Complete { .. } => Ok(()),
            NetworkSpec::Cycle { n } if n < 3 => Err(format!("cycle n={n} must be at least 3")),
            NetworkSpec::Cycle { .. } => Ok(()),
            NetworkSpec::Gnp { p, .. } => probability("p", p),
            NetworkSpec::Sbm { blocks, block_size, p_in, p_out, .. } => {
                if blocks.checked_mul(block_size).is_none() {
                    return Err(format!("sbm blocks={blocks} × block-size={block_size} overflows"));
                }
                probability("p-in", p_in)?;
                probability("p-out", p_out)
            }
            NetworkSpec::WattsStrogatz { n, k, beta, .. } => {
                if k % 2 != 0 {
                    return Err(format!("ws k={k} must be even"));
                }
                if k >= n {
                    return Err(format!("ws k={k} must be below n={n}"));
                }
                probability("beta", beta)
            }
        }
    }

    /// The directive payload [`NetworkSpec::parse`] accepts back.
    pub fn to_line(&self) -> String {
        match self {
            NetworkSpec::Barbell => "barbell".to_string(),
            NetworkSpec::Complete { n } => format!("complete n={n}"),
            NetworkSpec::Cycle { n } => format!("cycle n={n}"),
            NetworkSpec::Gnp { n, p, seed } => format!("gnp n={n} p={p:?} seed={seed}"),
            NetworkSpec::Sbm { blocks, block_size, p_in, p_out, seed } => format!(
                "sbm blocks={blocks} block-size={block_size} p-in={p_in:?} p-out={p_out:?} \
                 seed={seed}"
            ),
            NetworkSpec::WattsStrogatz { n, k, beta, seed } => {
                format!("ws n={n} k={k} beta={beta:?} seed={seed}")
            }
        }
    }

    /// Node count of the network this spec builds — derivable without
    /// constructing the (possibly large random) graph, so request
    /// validation stays O(1).
    pub fn num_nodes(&self) -> usize {
        match *self {
            NetworkSpec::Barbell => generators::BarbellSpec::paper().num_nodes(),
            NetworkSpec::Complete { n }
            | NetworkSpec::Cycle { n }
            | NetworkSpec::Gnp { n, .. }
            | NetworkSpec::WattsStrogatz { n, .. } => n,
            NetworkSpec::Sbm { blocks, block_size, .. } => blocks * block_size,
        }
    }

    /// Builds the topology (deterministic given the spec).
    pub fn build(&self) -> Graph {
        match *self {
            NetworkSpec::Barbell => generators::paper_barbell(),
            NetworkSpec::Complete { n } => generators::complete_graph(n),
            NetworkSpec::Cycle { n } => generators::cycle_graph(n),
            NetworkSpec::Gnp { n, p, seed } => {
                generators::gnp_graph(n, p, &mut StdRng::seed_from_u64(seed))
            }
            NetworkSpec::Sbm { blocks, block_size, p_in, p_out, seed } => generators::sbm_graph(
                &generators::SbmSpec { block_sizes: vec![block_size; blocks], p_in, p_out },
                &mut StdRng::seed_from_u64(seed),
            ),
            NetworkSpec::WattsStrogatz { n, k, beta, seed } => {
                generators::watts_strogatz_graph(n, k, beta, &mut StdRng::seed_from_u64(seed))
            }
        }
    }
}

/// A parsed request file.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// The network every job samples.
    pub network: NetworkSpec,
    /// Simulate this provider's rate limit and latency on the virtual
    /// clock (`provider` directive; reports then carry `virtual-secs`).
    pub provider: Option<ProviderProfile>,
    /// Warm-start the shared client from this history file.
    pub warm_start: Option<PathBuf>,
    /// After the run, persist the shared client's history here.
    pub save_history: Option<PathBuf>,
    /// Crash-safe append-only history journal (`journal` directive):
    /// warm-start from it when it exists, append the run's new knowledge
    /// afterwards. Mutually exclusive with `warm-start` (one source of
    /// prior truth per run).
    pub journal: Option<PathBuf>,
    /// Shard the jobs across this many fleet workers (`shards`
    /// directive); `None` runs the plain single-client scheduler. The
    /// fleet path lives in `mto-fleet`.
    pub shards: Option<usize>,
    /// Target number of epoch barriers for the fleet's history gossip
    /// (`epochs` directive; only meaningful with `shards`).
    pub epochs: Option<usize>,
    /// Scheduler knobs (`quantum`, `budget`, `policy` directives; the
    /// `workers` directive parses but sets nothing).
    pub scheduler: SchedulerConfig,
    /// Write the run's deterministic `mto-trace/v2` trace here (`trace`
    /// directive). Trace contents cover only the deterministic plane —
    /// virtual-time span/point events that are byte-identical across
    /// shard and worker counts.
    pub trace: Option<PathBuf>,
    /// Append the metrics summary to the report (`metrics` directive,
    /// no payload).
    pub metrics: bool,
    /// Enable the estimator-quality plane (`quality` directive, no
    /// payload): per-job streaming ESS and windowed Geweke z, the
    /// cross-chain R-hat, `metric quality-*` report lines, and per-epoch
    /// quality trace points. Purely observational unless a job also
    /// declares an `ess=` SLO (which requires this directive).
    pub quality: bool,
    /// Write a Prometheus text-exposition snapshot here (`prom`
    /// directive). Enables the wall-clock telemetry plane for the run;
    /// the snapshot carries both the deterministic metrics and the
    /// wall-phase timings, and is the *only* output that varies run to
    /// run — reports, traces, and `metric` lines are unaffected.
    pub prom: Option<PathBuf>,
    /// The jobs, in file order.
    pub jobs: Vec<JobSpec>,
}

impl ServeRequest {
    /// Parses a request file.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        let mut network = None;
        let mut provider = None;
        let mut policy_seen = false;
        let mut warm_start = None;
        let mut save_history = None;
        let mut journal = None;
        let mut shards = None;
        let mut epochs = None;
        let mut workers_seen = false;
        let mut quantum_seen = false;
        let mut scheduler = SchedulerConfig::default();
        let mut trace = None;
        let mut metrics = false;
        let mut quality = false;
        let mut prom = None;
        let mut jobs: Vec<JobSpec> = Vec::new();
        let err = |line: usize, message: String| ServeError::Request { line, message };

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // `metrics` and `quality` are the flag directives: no
            // payload to parse.
            if line == "metrics" {
                if metrics {
                    return Err(err(lineno, "duplicate metrics directive".into()));
                }
                metrics = true;
                continue;
            }
            if line == "quality" {
                if quality {
                    return Err(err(lineno, "duplicate quality directive".into()));
                }
                quality = true;
                continue;
            }
            let (keyword, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => return Err(err(lineno, format!("directive {line:?} has no payload"))),
            };
            match keyword {
                "network" => {
                    if network.is_some() {
                        return Err(err(lineno, "duplicate network directive".into()));
                    }
                    network = Some(NetworkSpec::parse(rest).map_err(|m| err(lineno, m))?);
                }
                "provider" => {
                    if provider.is_some() {
                        return Err(err(lineno, "duplicate provider directive".into()));
                    }
                    provider =
                        Some(ProviderProfile::by_name(rest).ok_or_else(|| {
                            err(lineno, format!("unknown provider preset {rest:?}"))
                        })?);
                }
                "policy" => {
                    if policy_seen {
                        return Err(err(lineno, "duplicate policy directive".into()));
                    }
                    policy_seen = true;
                    scheduler.policy = SchedulePolicy::parse(rest).map_err(|m| err(lineno, m))?;
                }
                "trace" => {
                    if trace.is_some() {
                        return Err(err(lineno, "duplicate trace directive".into()));
                    }
                    trace = Some(PathBuf::from(rest));
                }
                "prom" => {
                    if prom.is_some() {
                        return Err(err(lineno, "duplicate prom directive".into()));
                    }
                    prom = Some(PathBuf::from(rest));
                }
                "warm-start" => warm_start = Some(PathBuf::from(rest)),
                "save-history" => save_history = Some(PathBuf::from(rest)),
                "journal" => journal = Some(PathBuf::from(rest)),
                "shards" => {
                    if shards.is_some() {
                        return Err(err(lineno, "duplicate shards directive".into()));
                    }
                    let n: usize =
                        rest.parse().map_err(|e| err(lineno, format!("bad shards: {e}")))?;
                    if n == 0 {
                        return Err(err(lineno, "shards must be at least 1".into()));
                    }
                    shards = Some(n);
                }
                "epochs" => {
                    if epochs.is_some() {
                        return Err(err(lineno, "duplicate epochs directive".into()));
                    }
                    let n: usize =
                        rest.parse().map_err(|e| err(lineno, format!("bad epochs: {e}")))?;
                    if n == 0 {
                        return Err(err(lineno, "epochs must be at least 1".into()));
                    }
                    epochs = Some(n);
                }
                "workers" => {
                    // Accepted for older request files, but jobs step on
                    // the calling thread: the count is checked, then
                    // ignored.
                    workers_seen = true;
                    rest.parse::<usize>().map_err(|e| err(lineno, format!("bad workers: {e}")))?;
                }
                "quantum" => {
                    quantum_seen = true;
                    scheduler.quantum =
                        rest.parse().map_err(|e| err(lineno, format!("bad quantum: {e}")))?;
                }
                "budget" => {
                    scheduler.global_query_budget =
                        Some(rest.parse().map_err(|e| err(lineno, format!("bad budget: {e}")))?);
                }
                "job" => {
                    let job = parse_job_line(rest).map_err(|m| err(lineno, m))?;
                    if jobs.iter().any(|j| j.id == job.id) {
                        return Err(err(lineno, format!("duplicate job id {:?}", job.id)));
                    }
                    jobs.push(job);
                }
                other => return Err(err(lineno, format!("unknown directive {other:?}"))),
            }
        }

        let network = network.ok_or_else(|| err(0, "missing `network` directive".into()))?;
        if jobs.is_empty() {
            return Err(err(0, "request names no jobs".into()));
        }
        if epochs.is_some() && shards.is_none() {
            return Err(err(0, "`epochs` requires a `shards` directive".into()));
        }
        // `budget` + `shards` is legal since the mto-qos ledger: the
        // fleet-wide budget is split per job at admission and rebalanced
        // at epoch barriers, so cuts no longer depend on shard placement.
        if shards.is_some() && scheduler.policy == SchedulePolicy::BudgetProportional {
            // The fleet's epoch planner implements round-robin and EDF;
            // silently running the proportional policy as round-robin
            // would drop a directive the user asked for.
            return Err(err(
                0,
                "`policy budget-proportional` tunes the single-client scheduler and is \
                 not implemented by the fleet planner; use `round-robin` or `edf` with \
                 `shards`"
                    .into(),
            ));
        }
        if shards.is_some() && (workers_seen || quantum_seen) {
            // Fleet parallelism is `shards`, fleet stepping granularity
            // is `epochs` — silently dropping the scheduler knobs would
            // let a request claim tuning it never gets.
            return Err(err(
                0,
                "`workers`/`quantum` tune the single-client scheduler and have no effect \
                 with `shards`; use `shards`/`epochs` instead"
                    .into(),
            ));
        }
        if journal.is_some() && warm_start.is_some() {
            return Err(err(
                0,
                "`journal` and `warm-start` are mutually exclusive (one source of prior \
                 history per run)"
                    .into(),
            ));
        }
        if !quality {
            if let Some(job) = jobs.iter().find(|j| j.ess.is_some()) {
                // An `ess=` SLO is judged against the quality plane's
                // streaming ESS; without the plane the target could
                // never latch and the job would silently run its full
                // budget — reject instead.
                return Err(err(
                    0,
                    format!(
                        "job {:?} declares an ess= SLO but the request has no `quality` \
                         directive (the quality plane computes the ESS the SLO is judged \
                         against)",
                        job.id
                    ),
                ));
            }
        }
        let num_nodes = network.num_nodes();
        for job in &jobs {
            if job.start.index() >= num_nodes {
                return Err(err(
                    0,
                    format!(
                        "job {:?} starts at {} but the network has {num_nodes} nodes",
                        job.id, job.start,
                    ),
                ));
            }
        }
        Ok(ServeRequest {
            network,
            provider,
            warm_start,
            save_history,
            journal,
            shards,
            epochs,
            scheduler,
            trace,
            metrics,
            quality,
            prom,
            jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AlgoSpec;

    const SMOKE: &str = "\
# a comment
network barbell
provider facebook

workers 2
quantum 32
budget 100
policy budget-proportional
warm-start in.hist
save-history out.hist
job id=a algo=mto start=0 steps=400 seed=7
job id=b algo=srw start=3 steps=400 seed=9
";

    #[test]
    fn request_file_parses() {
        let req = ServeRequest::parse(SMOKE).unwrap();
        assert_eq!(req.network, NetworkSpec::Barbell);
        assert_eq!(req.provider, Some(ProviderProfile::facebook()));
        // `workers 2` parses (and changes nothing); a bad count is still
        // an error that names the directive.
        assert_eq!(
            req.scheduler,
            ServeRequest::parse(&SMOKE.replace("workers 2\n", "")).unwrap().scheduler
        );
        let e = ServeRequest::parse(&SMOKE.replace("workers 2", "workers x")).unwrap_err();
        assert!(e.to_string().contains("bad workers"), "{e}");
        assert_eq!(req.scheduler.quantum, 32);
        assert_eq!(req.scheduler.global_query_budget, Some(100));
        assert_eq!(req.scheduler.policy, crate::scheduler::SchedulePolicy::BudgetProportional);
        assert_eq!(req.warm_start, Some(PathBuf::from("in.hist")));
        assert_eq!(req.save_history, Some(PathBuf::from("out.hist")));
        assert_eq!(req.jobs.len(), 2);
        assert!(matches!(req.jobs[0].algo, AlgoSpec::Mto(_)));
        assert_eq!(req.jobs[1].id, "b");
    }

    #[test]
    fn provider_and_policy_directives_default_off_and_reject_garbage() {
        let plain = "network barbell\njob id=a algo=mto start=0 steps=1";
        let req = ServeRequest::parse(plain).unwrap();
        assert_eq!(req.provider, None);
        assert_eq!(req.scheduler.policy, crate::scheduler::SchedulePolicy::RoundRobin);
        for (text, needle) in [
            ("network barbell\nprovider myspace\njob id=a algo=mto start=0 steps=1", "myspace"),
            (
                "network barbell\nprovider facebook\nprovider twitter\n\
                 job id=a algo=mto start=0 steps=1",
                "duplicate provider",
            ),
            ("network barbell\npolicy lottery\njob id=a algo=mto start=0 steps=1", "lottery"),
            (
                "network barbell\npolicy round-robin\npolicy budget-proportional\n\
                 job id=a algo=mto start=0 steps=1",
                "duplicate policy",
            ),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn fleet_and_journal_directives_parse_and_validate() {
        let req = ServeRequest::parse(
            "network barbell\nshards 4\nepochs 8\njournal crawl.journal\n\
             job id=a algo=mto start=0 steps=100",
        )
        .unwrap();
        assert_eq!(req.shards, Some(4));
        assert_eq!(req.epochs, Some(8));
        assert_eq!(req.journal, Some(PathBuf::from("crawl.journal")));

        let plain = ServeRequest::parse("network barbell\njob id=a algo=mto start=0 steps=1");
        let plain = plain.unwrap();
        assert_eq!(plain.shards, None);
        assert_eq!(plain.epochs, None);
        assert_eq!(plain.journal, None);

        for (text, needle) in [
            ("network barbell\nshards 0\njob id=a algo=mto start=0 steps=1", "at least 1"),
            ("network barbell\nepochs 0\nshards 2\njob id=a algo=mto start=0 steps=1", "at least"),
            ("network barbell\nshards 2\nshards 4\njob id=a algo=mto start=0 steps=1", "duplicate"),
            ("network barbell\nepochs 3\njob id=a algo=mto start=0 steps=1", "requires"),
            (
                "network barbell\nshards 2\npolicy budget-proportional\n\
                 job id=a algo=mto start=0 steps=1",
                "not implemented by the fleet planner",
            ),
            (
                "network barbell\nshards 2\nworkers 8\njob id=a algo=mto start=0 steps=1",
                "no effect",
            ),
            (
                "network barbell\nshards 2\nquantum 16\njob id=a algo=mto start=0 steps=1",
                "no effect",
            ),
            (
                "network barbell\njournal a.j\nwarm-start b.hist\n\
                 job id=a algo=mto start=0 steps=1",
                "mutually exclusive",
            ),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn budgeted_fleet_requests_with_deadlines_parse() {
        // `budget` + `shards` is legal since the QoS ledger (ROADMAP open
        // item resolved): the fleet budget is split per job at admission.
        let req = ServeRequest::parse(
            "network barbell\nshards 4\nepochs 6\nbudget 500\npolicy edf\n\
             job id=a algo=mto start=0 steps=100 deadline=12.5\n\
             job id=b algo=srw start=3 steps=100",
        )
        .unwrap();
        assert_eq!(req.shards, Some(4));
        assert_eq!(req.scheduler.global_query_budget, Some(500));
        assert_eq!(req.scheduler.policy, crate::scheduler::SchedulePolicy::EarliestDeadlineFirst);
        assert_eq!(req.jobs[0].deadline, Some(12.5));
        assert_eq!(req.jobs[1].deadline, None);
    }

    #[test]
    fn trace_and_metrics_directives_parse_and_reject_duplicates() {
        let req = ServeRequest::parse(
            "network barbell\ntrace run.trace\nmetrics\nprom run.prom\n\
             job id=a algo=mto start=0 steps=1",
        )
        .unwrap();
        assert_eq!(req.trace, Some(PathBuf::from("run.trace")));
        assert!(req.metrics);
        assert_eq!(req.prom, Some(PathBuf::from("run.prom")));

        let plain = ServeRequest::parse("network barbell\njob id=a algo=mto start=0 steps=1");
        let plain = plain.unwrap();
        assert_eq!(plain.trace, None);
        assert!(!plain.metrics, "observability defaults off");
        assert_eq!(plain.prom, None, "the wall-clock plane defaults off");

        for (text, needle) in [
            (
                "network barbell\ntrace a.t\ntrace b.t\njob id=a algo=mto start=0 steps=1",
                "duplicate trace",
            ),
            (
                "network barbell\nmetrics\nmetrics\njob id=a algo=mto start=0 steps=1",
                "duplicate metrics",
            ),
            (
                "network barbell\nprom a.prom\nprom b.prom\njob id=a algo=mto start=0 steps=1",
                "duplicate prom",
            ),
            ("network barbell\ntrace\njob id=a algo=mto start=0 steps=1", "no payload"),
            ("network barbell\nprom\njob id=a algo=mto start=0 steps=1", "no payload"),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn quality_directive_parses_and_gates_ess_slos() {
        let req = ServeRequest::parse(
            "network barbell\nquality\nshards 2\nepochs 4\n\
             job id=a algo=mto start=0 steps=100 ess=40\n\
             job id=b algo=srw start=3 steps=100",
        )
        .unwrap();
        assert!(req.quality);
        assert_eq!(req.jobs[0].ess, Some(40));
        assert_eq!(req.jobs[1].ess, None);

        let plain = ServeRequest::parse("network barbell\njob id=a algo=mto start=0 steps=1");
        assert!(!plain.unwrap().quality, "the quality plane defaults off");

        for (text, needle) in [
            (
                "network barbell\nquality\nquality\njob id=a algo=mto start=0 steps=1",
                "duplicate quality",
            ),
            (
                "network barbell\njob id=a algo=mto start=0 steps=100 ess=40",
                "no `quality` directive",
            ),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn request_file_rejections_carry_line_numbers() {
        for (text, needle) in [
            ("job id=a algo=mto start=0 steps=1", "missing `network`"),
            ("network barbell\n", "no jobs"),
            ("network barbell\nnetwork barbell\njob id=a algo=mto start=0 steps=1", "duplicate"),
            ("network barbell\nfrobnicate 3\njob id=a algo=mto start=0 steps=1", "frobnicate"),
            (
                "network barbell\njob id=a algo=mto start=0 steps=1\n\
                 job id=a algo=srw start=0 steps=1",
                "duplicate job id",
            ),
            ("network barbell\njob id=a algo=mto start=999 steps=1", "999"),
            ("network nope\njob id=a algo=mto start=0 steps=1", "unknown network"),
            // Parameters the generators and walkers would assert on.
            ("network cycle n=2\njob id=a algo=mto start=0 steps=1", "line 1: cycle n=2 must"),
            ("network gnp n=50 p=1.5 seed=1\njob id=a algo=mto start=0 steps=1", "line 1: p=1.5"),
            ("network gnp n=50 p=NaN seed=1\njob id=a algo=mto start=0 steps=1", "line 1: p=NaN"),
            (
                "# sbm\nnetwork sbm blocks=2 block-size=5 p-in=1.2 p-out=0.1 seed=1\n\
                 job id=a algo=mto start=0 steps=1",
                "line 2: p-in=1.2",
            ),
            (
                "network sbm blocks=2 block-size=5 p-in=0.5 p-out=-0.1 seed=1\n\
                 job id=a algo=mto start=0 steps=1",
                "line 1: p-out=-0.1",
            ),
            (
                "network ws n=10 k=3 beta=0.1 seed=1\njob id=a algo=mto start=0 steps=1",
                "line 1: ws k=3 must be even",
            ),
            (
                "network ws n=4 k=4 beta=0.1 seed=1\njob id=a algo=mto start=0 steps=1",
                "line 1: ws k=4 must be below n=4",
            ),
            (
                "network ws n=10 k=2 beta=2 seed=1\njob id=a algo=mto start=0 steps=1",
                "line 1: beta=2",
            ),
            (
                "network barbell\njob id=a algo=mto start=0 steps=1 replace_prob=1.5",
                "line 2: job \"a\" replace_prob=1.5 must",
            ),
            (
                "network barbell\njob id=a algo=mto start=0 steps=1 replace_prob=NaN",
                "line 2: job \"a\" replace_prob=NaN",
            ),
            (
                "network barbell\njob id=a algo=rj start=0 steps=1 jump=1.5",
                "line 2: job \"a\" jump=1.5",
            ),
            (
                "network barbell\njob id=a algo=rj start=0 steps=1 jump=-1",
                "line 2: job \"a\" jump=-1",
            ),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn network_specs_round_trip_and_build() {
        let specs = vec![
            NetworkSpec::Barbell,
            NetworkSpec::Complete { n: 6 },
            NetworkSpec::Cycle { n: 9 },
            NetworkSpec::Gnp { n: 30, p: 0.2, seed: 5 },
            NetworkSpec::Sbm { blocks: 3, block_size: 10, p_in: 0.5, p_out: 0.05, seed: 7 },
            NetworkSpec::WattsStrogatz { n: 24, k: 4, beta: 0.1, seed: 3 },
        ];
        for spec in specs {
            let line = spec.to_line();
            assert_eq!(NetworkSpec::parse(&line).unwrap(), spec, "line {line:?}");
            let g = spec.build();
            assert!(g.num_nodes() > 0);
            assert_eq!(g.num_nodes(), spec.num_nodes(), "cheap node count must match the build");
            // Deterministic rebuild.
            assert_eq!(g.num_edges(), spec.build().num_edges());
        }
    }

    #[test]
    fn job_start_bounds_are_checked_against_the_network() {
        let ok = "network complete n=5\njob id=a algo=mto start=4 steps=10";
        assert!(ServeRequest::parse(ok).is_ok());
        let bad = "network complete n=5\njob id=a algo=mto start=5 steps=10";
        assert!(ServeRequest::parse(bad).is_err());
    }
}
