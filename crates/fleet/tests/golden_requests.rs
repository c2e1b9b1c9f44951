//! Golden contract of the fleet path of `mto_serve run`.
//!
//! Four reference requests run through the real binary with `trace` and
//! `metrics` on, at every shard count `W ∈ {1, 2, 4, 8}`:
//!
//! * the trace bytes and the `metric` lines equal one committed fixture
//!   at every `W` (the deterministic plane is shard-invariant);
//! * the `W = 4` report body equals its own fixture (bodies carry the
//!   W-dependent bill, makespan and `timing` lines, which still repeat
//!   from run to run).
//!
//! One test per request and `W`, so a failure names both. A failing run
//! keeps its outputs and prints their paths; `mto-trace diff
//! crates/fleet/tests/fixtures/<request>.trace <new trace>` then names the
//! first divergent event.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The obs-smoke reference: budgeted EDF behind the facebook provider
/// preset, two deadline jobs, the quality plane on.
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

/// The quality-smoke request: the `ess=10` job stops early and returns
/// its unspent budget to the ledger.
const QUALITY_SMOKE: &str = "\
network gnp n=300 p=0.03 seed=11
epochs 8
budget 4000
metrics
quality
job id=conv algo=mto start=0 steps=4000 seed=9 ess=10
job id=plain algo=srw start=11 steps=300 seed=4
";

/// The obs-smoke reference without a budget, under round-robin: the
/// unbudgeted barrier path (no ledger, finish times only).
const UNBUDGETED_ROUND_ROBIN: &str = "\
network gnp n=200 p=0.04 seed=7
epochs 6
policy round-robin
provider facebook
metrics
quality
job id=a algo=mto start=0 steps=300 seed=1 deadline=6.0
job id=b algo=mto start=40 steps=300 seed=2 deadline=9.0
job id=c algo=mhrw start=80 steps=250 seed=3
job id=d algo=srw start=120 steps=250 seed=4
";

/// A budget too small for the pool: admission defers two jobs (the
/// `ess=` job among them), and the ledger suspends, re-grants and
/// finally cuts one — every settle step of the barrier in one run.
const TIGHT_BUDGET: &str = "\
network gnp n=200 p=0.04 seed=7
epochs 8
budget 240
policy edf
metrics
quality
job id=a algo=mto start=0 steps=400 seed=1 deadline=6.0
job id=b algo=srw start=40 steps=400 seed=2 ess=20
job id=c algo=mhrw start=80 steps=400 seed=3 deadline=9.0
job id=d algo=srw start=120 steps=400 seed=4
";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The `metric` lines of a report body, newline-terminated.
fn metric_lines(body: &str) -> String {
    body.lines().filter(|l| l.starts_with("metric ")).map(|l| format!("{l}\n")).collect()
}

/// Runs `request` at `shards` through `mto_serve run` and checks its
/// outputs against the `name` fixtures.
fn check(name: &str, request: &str, shards: usize) {
    let dir =
        std::env::temp_dir().join(format!("mto-golden-{name}-w{shards}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (req, trace, out) = (dir.join("run.req"), dir.join("run.trace"), dir.join("run.txt"));
    std::fs::write(&req, format!("shards {shards}\ntrace {}\n{request}", trace.display())).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_mto_serve"))
        .arg("run")
        .arg(&req)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("mto_serve runs");
    assert!(run.status.success(), "{name} W={shards}: {}", String::from_utf8_lossy(&run.stderr));

    let body = std::fs::read_to_string(&out).unwrap();
    let mut failures = Vec::new();
    if std::fs::read(&trace).unwrap() != read_fixture(&format!("{name}.trace")) {
        failures.push(format!(
            "trace differs: mto-trace diff {} {}",
            fixture(&format!("{name}.trace")).display(),
            trace.display()
        ));
    }
    if metric_lines(&body).as_bytes() != read_fixture(&format!("{name}.metrics")) {
        failures
            .push(format!("`metric` lines differ from {name}.metrics (body at {})", out.display()));
    }
    if shards == 4 && body.as_bytes() != read_fixture(&format!("{name}.w4.body")) {
        failures.push(format!("report body differs from {name}.w4.body: {}", out.display()));
    }
    assert!(failures.is_empty(), "{name} W={shards}:\n  {}", failures.join("\n  "));
    std::fs::remove_dir_all(&dir).unwrap();
}

macro_rules! golden {
    ($($test:ident: $request:ident as $name:literal at $shards:literal;)*) => {$(
        #[test]
        fn $test() {
            check($name, $request, $shards);
        }
    )*};
}

golden! {
    obs_reference_w1: OBS_REFERENCE as "obs-reference" at 1;
    obs_reference_w2: OBS_REFERENCE as "obs-reference" at 2;
    obs_reference_w4: OBS_REFERENCE as "obs-reference" at 4;
    obs_reference_w8: OBS_REFERENCE as "obs-reference" at 8;
    quality_smoke_w1: QUALITY_SMOKE as "quality-smoke" at 1;
    quality_smoke_w2: QUALITY_SMOKE as "quality-smoke" at 2;
    quality_smoke_w4: QUALITY_SMOKE as "quality-smoke" at 4;
    quality_smoke_w8: QUALITY_SMOKE as "quality-smoke" at 8;
    unbudgeted_round_robin_w1: UNBUDGETED_ROUND_ROBIN as "unbudgeted-round-robin" at 1;
    unbudgeted_round_robin_w2: UNBUDGETED_ROUND_ROBIN as "unbudgeted-round-robin" at 2;
    unbudgeted_round_robin_w4: UNBUDGETED_ROUND_ROBIN as "unbudgeted-round-robin" at 4;
    unbudgeted_round_robin_w8: UNBUDGETED_ROUND_ROBIN as "unbudgeted-round-robin" at 8;
    tight_budget_w1: TIGHT_BUDGET as "tight-budget" at 1;
    tight_budget_w2: TIGHT_BUDGET as "tight-budget" at 2;
    tight_budget_w4: TIGHT_BUDGET as "tight-budget" at 4;
    tight_budget_w8: TIGHT_BUDGET as "tight-budget" at 8;
}
