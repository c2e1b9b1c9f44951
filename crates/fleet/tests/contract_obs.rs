//! The observability contract of `mto_serve` and `mto-trace`.
//!
//! `mto-trace` runs in process through `mto_obs::cli::run`; its inputs
//! are the committed fixtures, which `golden_requests` shows equal live
//! `mto_serve` output at every shard count. Only the runs whose outputs
//! no fixture holds (a perturbed seed, the wall-clock plane) start
//! `mto_serve`.
//!
//! * Pinned outputs: on the committed traces and reports, every
//!   subcommand prints the bytes and returns the exit code pinned in
//!   `fixtures/mto-trace/` (written by the seven tools `mto-trace`
//!   replaced); `baseline write` reproduces `OBS_BASELINE.json`.
//! * The obs-reference run: its report carries the `metric` and
//!   `timing` lines; `flame`, `critpath` and `timeline` render its
//!   trace, the critical path spanning `metric epochs`; the baseline
//!   gate passes on it and flags a doctored `walk-steps` or quality
//!   figure.
//! * A `seed=8` run diverges from it, and `diff` names the first
//!   divergent event and its epoch.
//! * With `prom` on, the dump carries the counter and wall families,
//!   the four phases and the `walk-steps` counter, while the trace and
//!   `metric` lines equal the run without it; `gap` attributes exactly
//!   `metric epochs` epochs.
//! * The quality-smoke run meets its ESS SLO, the ledger reclaims the
//!   unspent budget with no job cut, and `mix` agrees with the report's
//!   ESS figures.

use std::path::{Path, PathBuf};
use std::process::Command;

/// golden_requests' obs-reference request: budgeted EDF behind the
/// facebook provider preset, two deadline jobs, the quality plane on.
const OBS_REFERENCE: &str = "\
network gnp n=200 p=0.04 seed=7
epochs 6
budget 600
policy edf
provider facebook
metrics
quality
job id=a algo=mto start=0 steps=300 seed=1 deadline=6.0
job id=b algo=mto start=40 steps=300 seed=2 deadline=9.0
job id=c algo=mhrw start=80 steps=250 seed=3
job id=d algo=srw start=120 steps=250 seed=4
";

/// The pinned `mto-trace` commands: the pin's name and the arguments,
/// each after the subcommand a file under `fixtures/`.
const PINNED: &[(&str, &[&str])] = &[
    ("flame-obs-reference", &["flame", "obs-reference.trace"]),
    ("critpath-obs-reference", &["critpath", "obs-reference.trace"]),
    ("timeline-obs-reference", &["timeline", "obs-reference.trace"]),
    ("critpath-unsharded-serve-smoke", &["critpath", "unsharded-serve-smoke.trace"]),
    ("critpath-tight-budget", &["critpath", "tight-budget.trace"]),
    ("diff-obs-reference-tight-budget", &["diff", "obs-reference.trace", "tight-budget.trace"]),
    ("mix-quality-smoke", &["mix", "quality-smoke.trace", "quality-smoke.w4.body"]),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    path.to_str().unwrap().to_string()
}

fn obs_baseline() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../OBS_BASELINE.json").display().to_string()
}

fn read(path: impl AsRef<Path>) -> String {
    let path = path.as_ref();
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs `mto-trace args`; returns its report and exit code.
fn mto_trace(args: &[&str]) -> (String, u8) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut out = Vec::new();
    let code = match mto_obs::cli::run(&args, &mut out) {
        Ok(()) => 0,
        Err(failure) => {
            assert!(!failure.message.contains('\n'), "one-line diagnostic: {failure:?}");
            failure.code
        }
    };
    (String::from_utf8(out).unwrap(), code)
}

/// Runs `mto-trace args`, asserting it exits 0; returns its report.
fn report(args: &[&str]) -> String {
    let (out, code) = mto_trace(args);
    assert_eq!(code, 0, "mto-trace {args:?} failed:\n{out}");
    out
}

/// The pinned stdout of `name` and its pinned exit code.
fn pin(name: &str) -> (String, u8) {
    let codes = read(fixture("mto-trace/exit-codes"));
    let code = codes
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no exit code pinned for {name}"));
    (read(fixture(&format!("mto-trace/{name}.stdout"))), code.parse().unwrap())
}

fn has_line(text: &str, prefix: &str) -> bool {
    text.lines().any(|l| l.starts_with(prefix))
}

/// The value of the `metric <name>` line.
fn metric(body: &str, name: &str) -> String {
    let prefix = format!("metric {name} ");
    let line = body.lines().find_map(|l| l.strip_prefix(&prefix));
    line.unwrap_or_else(|| panic!("no `{prefix}` line")).to_string()
}

/// The `metric` lines of a report body, newline-terminated.
fn metric_lines(body: &str) -> String {
    body.lines().filter(|l| l.starts_with("metric ")).map(|l| format!("{l}\n")).collect()
}

/// The value of `key=` among the space-separated fields of `line`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(' ').find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
}

/// A temp dir for one test, removed when the test passes.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("mto-contract-obs-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }

    /// Writes `text` as file `name`; returns its path.
    fn write(&self, name: &str, text: &str) -> String {
        let path = self.path(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    /// `mto_serve run` of `request` at 4 shards, tracing to
    /// `<name>.trace` plus `extra` directives; returns the report.
    fn serve(&self, name: &str, request: &str, extra: &str) -> String {
        let trace = self.path(&format!("{name}.trace"));
        let req = self
            .write(&format!("{name}.req"), &format!("shards 4\ntrace {trace}\n{extra}{request}"));
        let out = self.path(&format!("{name}.txt"));
        let run = Command::new(env!("CARGO_BIN_EXE_mto_serve"))
            .args(["run", &req, "--out", &out])
            .output()
            .unwrap();
        assert!(run.status.success(), "{name}: {}", String::from_utf8_lossy(&run.stderr));
        read(&out)
    }

    fn finish(self) {
        std::fs::remove_dir_all(&self.0).unwrap();
    }
}

#[test]
fn trace_reports_equal_their_pins() {
    for (name, args) in PINNED {
        let files: Vec<String> = args[1..].iter().map(|f| fixture(f)).collect();
        let args: Vec<&str> =
            std::iter::once(args[0]).chain(files.iter().map(String::as_str)).collect();
        assert_eq!(mto_trace(&args), pin(name), "mto-trace {name}");
    }
}

#[test]
fn baseline_check_and_write_equal_their_pins() {
    let body = fixture("obs-reference.w4.body");
    let check = mto_trace(&["baseline", "check", &obs_baseline(), &body]);
    assert_eq!(check, pin("baseline-check-obs-reference"));

    // The pin was written over a copy named OBS_BASELINE.json in the
    // working directory, so its report names the copy without a dir.
    let dir = TempDir::new("baseline-write");
    let copy = dir.write("OBS_BASELINE.json", &read(obs_baseline()));
    let (out, code) = mto_trace(&["baseline", "write", &copy, &body]);
    let out = out.replace(&dir.path(""), "");
    assert_eq!((out, code), pin("baseline-write-obs-reference"));
    assert_eq!(read(&copy), read(obs_baseline()), "write reproduces the committed baseline");
    dir.finish();
}

#[test]
fn obs_reference_report_and_trace_tools_agree() {
    let body = read(fixture("obs-reference.w4.body"));
    for prefix in [
        "metric cache-hit-rate",
        "metric unique-queries",
        "metric gossip-causal-adoptions",
        "metric trace-underflows 0",
        "metric quality-a-ess-mil ",
        "metric quality-a-z-mil ",
        "metric quality-rhat-mil ",
        "timing p99-queue-wait-us",
        "timing p99-service-time-us",
        "timing deadline-slack job=a",
        "timing gossip-adopted",
    ] {
        assert!(has_line(&body, prefix), "report lacks a `{prefix}` line");
    }
    let trace = fixture("obs-reference.trace");
    assert!(has_line(&report(&["flame", &trace]), "epoch-0;job-a "));
    let critpath = report(&["critpath", &trace]);
    let epochs = metric(&body, "epochs");
    assert!(critpath.lines().any(|l| l == format!("makespan-epochs {epochs}")), "{critpath}");
    assert!(has_line(&critpath, "attribution service-epochs="), "{critpath}");
    assert!(has_line(&report(&["timeline", &trace]), "epoch |"));

    // The baseline gate passes on the report and flags doctored figures;
    // quality figures are pinned at tolerance 0.
    report(&["baseline", "check", &obs_baseline(), &fixture("obs-reference.w4.body")]);
    let dir = TempDir::new("doctored");
    for name in ["walk-steps", "quality-a-ess-mil"] {
        let doctored: String = body
            .lines()
            .map(|l| {
                if l.starts_with(&format!("metric {name} ")) {
                    format!("metric {name} 1\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let path = dir.write(&format!("{name}.txt"), &doctored);
        let (out, code) = mto_trace(&["baseline", "check", &obs_baseline(), &path]);
        assert_eq!(code, 1, "a doctored {name} passed the gate:\n{out}");
        assert!(has_line(&out, &format!("drift metric={name} ")), "{out}");
    }
    dir.finish();
}

#[test]
fn a_perturbed_seed_diverges_at_a_named_event() {
    let dir = TempDir::new("perturbed");
    dir.serve("perturbed", &OBS_REFERENCE.replace("seed=7", "seed=8"), "");
    let (out, code) =
        mto_trace(&["diff", &fixture("obs-reference.trace"), &dir.path("perturbed.trace")]);
    assert_eq!(code, 1, "a seed=8 run matched the seed=7 trace:\n{out}");
    assert!(has_line(&out, "first divergent event: index "), "{out}");
    assert!(has_line(&out, "  epoch: "), "{out}");
    dir.finish();
}

#[test]
fn the_wall_plane_exports_prometheus_text_and_changes_no_result() {
    let dir = TempDir::new("wall");
    let prom = dir.path("metrics.prom");
    let body = dir.serve("wall", OBS_REFERENCE, &format!("prom {prom}\n"));
    let dump = read(&prom);
    for line in ["# TYPE mto_counter_total counter", "# TYPE mto_wall_nanos_total counter"] {
        assert!(dump.lines().any(|l| l == line), "dump lacks `{line}`");
    }
    for family in [
        r#"mto_wall_nanos_total{phase="shard-service""#,
        r#"mto_wall_nanos_total{phase="barrier-wait""#,
        r#"mto_wall_nanos_total{phase="gossip-merge""#,
        r#"mto_wall_nanos_total{phase="pipeline-replay""#,
        r#"mto_counter_total{name="walk-steps"}"#,
    ] {
        assert!(dump.contains(family), "dump lacks `{family}`");
    }

    // The deterministic plane is the run without `prom`: the committed
    // trace and `metric` lines, which every shard count reproduces.
    let trace = dir.path("wall.trace");
    assert!(read(&trace) == read(fixture("obs-reference.trace")), "prom changed the trace");
    assert_eq!(metric_lines(&body), read(fixture("obs-reference.metrics")));
    let (out, code) = mto_trace(&["diff", &fixture("obs-reference.trace"), &trace]);
    assert_eq!((out.as_str(), code), ("traces identical (192 events)\n", 0));

    let gap = report(&["gap", &trace, &prom]);
    let epochs = metric(&body, "epochs");
    assert!(gap.lines().any(|l| l == format!("epochs {epochs}")), "{gap}");
    assert!(has_line(&gap, "epoch 0 "), "{gap}");
    assert!(gap.contains("barrier-wait="), "{gap}");
    assert!(has_line(&gap, "total wall-ns "), "{gap}");
    dir.finish();
}

#[test]
fn quality_smoke_stops_early_and_mix_agrees_with_the_report() {
    let body = read(fixture("quality-smoke.w4.body"));
    assert!(has_line(&body, "metric quality"));
    assert!(body.contains("quality-met=1"));
    let rebalance = body.lines().find(|l| l.starts_with("ledger-rebalance ")).unwrap();
    let reclaimed: u64 = field(rebalance, "reclaimed").unwrap().parse().unwrap();
    assert!(reclaimed > 0, "{rebalance}");
    // Conservation: spent + pool = total with no job cut.
    let ledger = body.lines().find(|l| l.starts_with("ledger total=")).unwrap();
    assert_eq!(field(ledger, "cut-jobs"), Some("0"), "{ledger}");

    let mix = report(&["mix", &fixture("quality-smoke.trace")]);
    assert!(has_line(&mix, "jobs 2 "), "{mix}");
    assert!(has_line(&mix, "rhat epoch "), "{mix}");
    // Both planes read the same estimator state.
    for id in ["conv", "plain"] {
        let line = mix.lines().find(|l| l.starts_with(&format!("job {id} "))).unwrap();
        let ess = field(line, "final-ess-mil").unwrap_or_else(|| panic!("{line}"));
        assert_eq!(ess, metric(&body, &format!("quality-{id}-ess-mil")), "{id}");
    }
}
