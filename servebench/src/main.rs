//! `servebench` — the end-to-end serve benchmark.
//!
//! ```text
//! servebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--keep]
//! servebench --fidelity [--workload NAME] [--seed N]
//! ```
//!
//! The benchmark turns the seed into a request (see [`gen`]), builds the
//! network once per set-up, then drives the request in a closed loop — one
//! caller, the next request only after the previous report — through the
//! public entry points `mto_serve run` uses (see [`serve`]), checking every
//! report. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates traced and untraced requests and prints the per-layer
//! metrics. The last line of standard output is one JSON object.
//!
//! `--fidelity` runs each generated request once in-process and once
//! through the `mto_serve` binary built next to this one, and compares
//! their `job` lines. `--keep` leaves the generated request (and fixture)
//! in `.servebench/` for replay by hand.

mod check;
mod gen;
mod probe;
mod serve;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mto_serve::request::{NetworkSpec, ServeRequest};

use crate::gen::Workload;
use crate::serve::{Served, Server, SetupTimes};
use crate::span::Tracer;
use crate::stats::{median, tail};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests a run measures at least, so the tail has values beyond it.
const MIN_REQUESTS: usize = stats::TAIL_BEYOND + 1;
/// A run stops starting requests after this long, whatever `--seconds`.
const HARD_CAP_S: f64 = 120.0;
/// Where runs write requests, fixtures and span dumps.
const OUT_DIR: &str = ".servebench";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    keep: bool,
    fidelity: bool,
    /// Internal: build this network line, print the set-up times, exit.
    setup: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: check::DEFAULT_SEED,
        seconds: 36.0,
        trace: false,
        keep: false,
        fidelity: false,
        setup: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (use 0 or 1)")),
                }
            }
            "--keep" => out.keep = true,
            "--fidelity" => out.fidelity = true,
            "--setup" => out.setup = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workload.is_none() && !out.fidelity && out.setup.is_none() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|args| {
        if let Some(line) = &args.setup {
            let network = NetworkSpec::parse(line)?;
            let (_, times) = Server::build(&network);
            println!("{} {}", times.graph_s, times.service_s);
            Ok(())
        } else if args.fidelity {
            fidelity(&args)
        } else {
            measure(&args, args.workload.expect("checked by parse_args"))
        }
    });
    if let Err(e) = result {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// A per-run directory under [`OUT_DIR`], removed when dropped unless
/// kept.
struct WorkDir {
    path: PathBuf,
    keep: bool,
}

impl WorkDir {
    fn create(workload: Workload, seed: u64, keep: bool) -> Result<WorkDir, String> {
        let path = std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(OUT_DIR)
            .join(format!("{}-s{seed}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path, keep })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// One request of the closed loop.
struct Request {
    id: u64,
    wall_s: f64,
    traced: bool,
    /// Returned `Ok` and passed every output check.
    ok: bool,
    steps: u64,
}

fn measure(args: &Args, workload: Workload) -> Result<(), String> {
    let work = WorkDir::create(workload, args.seed, args.keep)?;
    let generated = gen::generate(workload, args.seed, &work.path)?;
    let request = ServeRequest::parse(&generated.text).map_err(|e| e.to_string())?;

    // Set-up: the first build serves. The others run in fresh processes,
    // the cold start a server pays, spread over the run (between
    // requests) so their median does not hang on one moment's share of
    // the machine, and outside this process's peak memory.
    let (server, times) = Server::build(&generated.network);
    let network_line = generated.network.to_line();
    let mut setup = vec![times];
    let probes = args.trace.then(|| probe::run(&server, &request));

    let mut tracer = Tracer::new();
    let mut requests: Vec<Request> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut first_digest = None;
    let mut sample: Option<Served> = None;
    // Peak memory after set-up and the warm-up request: what one
    // `mto_serve run` process peaks at. Later requests only add allocator
    // fragmentation, which varies from process to process.
    let mut peak_rss_mb = None;
    let loop_start = Instant::now();
    // Request 0 is the warm-up: checked, but outside every latency figure.
    // In a traced run it also reads the obs counters the layer metrics
    // need; after it, traced and untraced requests alternate.
    for index in 0usize.. {
        let elapsed = loop_start.elapsed().as_secs_f64();
        let measured = index.saturating_sub(1);
        if elapsed >= HARD_CAP_S || (elapsed >= args.seconds && measured >= MIN_REQUESTS) {
            break;
        }
        let traced = args.trace && index % 2 == 1;
        let id = tracer.begin_request(traced);
        let t = Instant::now();
        let root = tracer.enter("request");
        let counters = args.trace && index == 0;
        let result = serve::serve(&server, &generated.text, &mut tracer, counters);
        tracer.exit(root);
        let wall_s = t.elapsed().as_secs_f64();
        // A report that fails its check still carries the counts, so the
        // run can print them next to `correct: false`.
        let verdict = result.map_err(|e| e.to_string()).and_then(|served| {
            let digest = check::digest_hash(&served);
            let verdict = check::check(workload, args.seed, &served, digest, first_digest);
            let steps = served.steps();
            sample.get_or_insert(served);
            verdict.map(|()| (digest, steps))
        });
        let (ok, steps) = match verdict {
            Ok((digest, steps)) => {
                first_digest.get_or_insert(digest);
                (true, steps)
            }
            Err(e) => {
                failures.push(format!("request {id}: {e}"));
                (false, 0)
            }
        };
        if index > 0 {
            requests.push(Request { id, wall_s, traced, ok, steps });
        }
        if index == 0 {
            peak_rss_mb = Some(stats::peak_rss_mb()?);
        }
        let setup_due = setup.len() as f64 * args.seconds / SETUPS as f64;
        if setup.len() < SETUPS && loop_start.elapsed().as_secs_f64() >= setup_due {
            setup.push(setup_in_child(&network_line)?);
        }
    }
    while setup.len() < SETUPS {
        setup.push(setup_in_child(&network_line)?);
    }
    let setup_s = median(&setup.iter().map(|t| t.graph_s + t.service_s).collect::<Vec<_>>());
    let attempted = requests.len() + 1;
    let failed = failures.len();
    for f in &failures {
        eprintln!("servebench: failed {f}");
    }
    let sample = sample.ok_or("no request succeeded")?;

    println!(
        "workload {} seed {} requests {} (+1 warm-up) failed {failed} loop {:.1} s digest {:016x}",
        workload.name(),
        args.seed,
        requests.len(),
        loop_start.elapsed().as_secs_f64(),
        first_digest.unwrap_or(0)
    );
    println!("set-ups ms: {}", fmt_ms(setup.iter().map(|t| t.graph_s + t.service_s)));
    println!("requests ms: {}", fmt_ms(requests.iter().map(|r| r.wall_s)));
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(probes) = probes {
        metrics = layer_metrics(&tracer, &requests, &setup, &probes, &sample);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let dump = Path::new(OUT_DIR).join(format!("spans-{}-s{}.tsv", workload.name(), args.seed));
        std::fs::write(&dump, tracer.to_tsv())
            .map_err(|e| format!("writing {}: {e}", dump.display()))?;
        println!("spans written to {}", dump.display());
    } else {
        let peak_rss_mb = peak_rss_mb.expect("read after the warm-up request");
        end_to_end_metrics(&mut metrics, &requests, setup_s, peak_rss_mb, &server, &sample);
        println!("error_rate {} ratio", failed as f64 / attempted as f64);
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(())
}

fn fmt_ms(secs: impl Iterator<Item = f64>) -> String {
    secs.map(|x| format!("{:.1}", x * 1e3)).collect::<Vec<_>>().join(" ")
}

/// Runs one set-up in a fresh process: this executable with `--setup`.
fn setup_in_child(network_line: &str) -> Result<SetupTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--setup", network_line])
        .output()
        .map_err(|e| format!("running a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), fields.next(), fields.next()) {
        (true, Some(Ok(graph_s)), Some(Ok(service_s))) => Ok(SetupTimes { graph_s, service_s }),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Latencies of the measured requests; a failed request misses every
/// latency figure, so it counts as infinitely slow.
fn latencies<'a>(requests: impl Iterator<Item = &'a Request>) -> Vec<f64> {
    requests.map(|r| if r.ok { r.wall_s } else { f64::INFINITY }).collect()
}

fn end_to_end_metrics(
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
    requests: &[Request],
    setup_s: f64,
    peak_rss_mb: f64,
    server: &Server,
    sample: &Served,
) {
    let wall = latencies(requests.iter());
    let (tail_s, percentile, beyond) = tail(&wall);
    println!(
        "request_tail_s is p{percentile:.1} of {} requests, {beyond} beyond it",
        requests.len()
    );
    let ok = requests.iter().filter(|r| r.ok);
    let steps: u64 = ok.clone().map(|r| r.steps).sum();
    let busy: f64 = ok.map(|r| r.wall_s).sum();
    // ESS after timing: each outcome's visited-node degree series.
    let ess: f64 = sample
        .outcomes
        .iter()
        .map(|o| {
            let degrees: Vec<u64> =
                o.history.iter().map(|&v| server.graph.degree(v) as u64).collect();
            mto_obs::quality::ess_batch(&degrees)
        })
        .sum();
    metrics.extend([
        ("setup_s", setup_s, "s"),
        ("request_p50_s", median(&wall), "s"),
        ("request_tail_s", tail_s, "s"),
        ("steps_per_s", steps as f64 / busy, "1/s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("unique_queries", sample.bill as f64, "count"),
        ("queries_per_ess", sample.bill as f64 / ess, "query/ess"),
    ]);
}

fn layer_metrics(
    tracer: &Tracer,
    requests: &[Request],
    setup: &[SetupTimes],
    probes: &probe::Probes,
    sample: &Served,
) -> Vec<(&'static str, f64, &'static str)> {
    // Per span name: median over traced requests of total and self time.
    let traced: Vec<&Request> = requests.iter().filter(|r| r.traced && r.ok).collect();
    let mut totals: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut selfs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &traced {
        for (name, (total, own)) in tracer.times(r.id) {
            totals.entry(name).or_default().push(total);
            selfs.entry(name).or_default().push(own);
        }
    }
    let med = |map: &BTreeMap<&str, Vec<f64>>, name: &str| map.get(name).map_or(0.0, |v| median(v));
    println!("self time per request (median of {} traced requests):", traced.len());
    for (name, own) in &selfs {
        let shown = if *name == "request" { "unattributed" } else { name };
        println!("  {shown:<24} {:>10.6} s  (total {:.6} s)", median(own), med(&totals, name));
    }
    let overhead = median(&latencies(requests.iter().filter(|r| r.traced)))
        - median(&latencies(requests.iter().filter(|r| !r.traced)));
    println!("tracing overhead {overhead:.6} s per request");

    let lookups = sample.lookups.unwrap_or(0);
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        lookups.saturating_sub(sample.bill) as f64 / lookups as f64
    };
    let (mut scans, mut scanned, mut mto_steps, mut replacements) = (0u64, 0u64, 0u64, 0u64);
    for o in &sample.outcomes {
        if let Some(s) = o.scan {
            scans += s.criterion_scans;
            scanned += s.criterion_scanned;
            mto_steps += o.steps as u64;
        }
        if let Some(s) = o.stats {
            replacements += s.replacements;
        }
    }
    let ledger = sample.ledger.unwrap_or_default();
    let fleet = sample.fleet.unwrap_or_default();
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&setup.iter().map(f).collect::<Vec<_>>());
    vec![
        ("graph.build_s", setup_med(|t| t.graph_s), "s"),
        ("osn.service_build_s", setup_med(|t| t.service_s), "s"),
        ("osn.cold_query_ns", probes.cold_query_ns, "ns"),
        ("osn.lookups", lookups as f64, "count"),
        ("osn.cache_hit_ratio", hit_ratio, "ratio"),
        ("core.mto_step_ns", probes.mto_step_ns, "ns"),
        ("core.srw_step_ns", probes.srw_step_ns, "ns"),
        ("core.criterion_scans", scans as f64, "count"),
        (
            "core.criterion_scanned_per_mto_step",
            if mto_steps == 0 { 0.0 } else { scanned as f64 / mto_steps as f64 },
            "count",
        ),
        ("core.rewire_replacements", replacements as f64, "count"),
        ("serve.session_step_ns", probes.session_step_ns, "ns"),
        ("serve.scheduler_run_s", med(&totals, "serve.scheduler_run"), "s"),
        ("serve.worker_service_s", med(&totals, "serve.worker_service"), "s"),
        ("serve.history_decode_s", med(&totals, "serve.history_decode"), "s"),
        ("serve.history_encode_s", med(&totals, "serve.history_encode"), "s"),
        ("serve.history_bytes", sample.history_bytes.unwrap_or(0) as f64, "bytes"),
        ("net.replay_s", med(&totals, "net.replay"), "s"),
        ("net.completions", fleet.completions as f64, "count"),
        ("qos.plan_epoch_ns", probes.plan_epoch_ns, "ns"),
        ("qos.spent", ledger.spent as f64, "count"),
        ("qos.reclaimed", ledger.reclaimed as f64, "count"),
        ("qos.cut_jobs", ledger.cut_jobs as f64, "count"),
        ("fleet.run_s", med(&totals, "fleet.run"), "s"),
        ("fleet.shard_service_s", med(&totals, "fleet.shard_service"), "s"),
        ("fleet.barrier_wait_s", med(&totals, "fleet.barrier_wait"), "s"),
        ("fleet.gossip_merge_s", med(&totals, "fleet.gossip_merge"), "s"),
        ("fleet.serial_s", med(&selfs, "fleet.run"), "s"),
        ("fleet.epochs", fleet.epochs as f64, "count"),
        ("fleet.gossip_adopted", fleet.adopted as f64, "count"),
        ("fleet.merge_conflicts", fleet.conflicts as f64, "count"),
        ("obs.tracing_overhead_s", overhead, "s"),
        ("unattributed_s", med(&selfs, "request"), "s"),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Non-finite values (a run whose requests all failed)
/// print as the largest finite number, so the line stays valid JSON.
fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Runs each generated request once in-process and once through the
/// `mto_serve` binary next to this executable, and compares `job` lines.
fn fidelity(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let binary = exe.with_file_name("mto_serve");
    if !binary.exists() {
        return Err(format!(
            "{} not found; build it with `cargo build --release --offline --manifest-path \
             servebench/Cargo.toml -p mto-fleet --bin mto_serve`",
            binary.display()
        ));
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut mismatches = 0;
    for workload in workloads {
        let work = WorkDir::create(workload, args.seed, args.keep)?;
        let generated = gen::generate(workload, args.seed, &work.path)?;
        let (server, _) = Server::build(&generated.network);
        let served = serve::serve(&server, &generated.text, &mut Tracer::new(), false)
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        let ours = check::job_lines(&served);
        let output = std::process::Command::new(&binary)
            .arg("run")
            .arg(&generated.path)
            .output()
            .map_err(|e| format!("running {}: {e}", binary.display()))?;
        if !output.status.success() {
            return Err(format!(
                "{} {}: mto_serve exited {}: {}",
                workload.name(),
                generated.path.display(),
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let theirs: String = String::from_utf8_lossy(&output.stdout)
            .lines()
            .filter(|l| l.starts_with("job "))
            .map(|l| format!("{l}\n"))
            .collect();
        let jobs = ours.lines().count();
        if ours == theirs {
            println!("fidelity {}: PASS ({jobs} job lines identical)", workload.name());
        } else {
            mismatches += 1;
            println!("fidelity {}: FAIL", workload.name());
            for (a, b) in ours.lines().zip(theirs.lines()).filter(|(a, b)| a != b).take(3) {
                println!("  in-process: {a}\n  mto_serve:  {b}");
            }
        }
    }
    if mismatches > 0 {
        return Err(format!("{mismatches} workload(s) drifted from mto_serve"));
    }
    Ok(())
}
