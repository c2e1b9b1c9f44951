//! Golden contract of the unsharded path of `mto_serve run`.
//!
//! Four reference requests without `shards` run through the real binary
//! with `trace` on, once per `workers` line (1, 2 and 4) and once with
//! none. At every one of those, the report body and the trace bytes
//! equal the request's committed fixtures: jobs step on the calling
//! thread, so `workers` is accepted but changes nothing, not even which
//! jobs a global query budget cuts.
//!
//! One test per request and `workers` value, so a failure names both. A
//! failing run keeps its outputs and prints their paths.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The serve-smoke request: the barbell, two jobs over one cache.
const SERVE_SMOKE: &str = "\
network barbell
quantum 32
job id=smoke algo=mto start=0 steps=400 seed=7
job id=base algo=srw start=3 steps=400 seed=9
";

/// The net-smoke provider-timed request: its report carries the frozen
/// `provider facebook virtual-secs T` line.
const PROVIDER_TIMED: &str = "\
network barbell
provider facebook
policy budget-proportional
job id=timed algo=mto start=0 steps=300 seed=5
";

/// A small `mto-warm`: eight MTO jobs over one cache on a block graph,
/// with the metrics summary (unique queries, lookups, criterion scans).
const MTO_WARM_SMALL: &str = "\
network sbm blocks=4 block-size=250 p-in=0.03 p-out=0.0005 seed=3
metrics
job id=m0 algo=mto start=0 steps=3000 seed=1
job id=m1 algo=mto start=125 steps=3000 seed=2
job id=m2 algo=mto start=250 steps=3000 seed=3
job id=m3 algo=mto start=375 steps=3000 seed=4
job id=m4 algo=mto start=500 steps=3000 seed=5
job id=m5 algo=mto start=625 steps=3000 seed=6
job id=m6 algo=mto start=750 steps=3000 seed=7
job id=m7 algo=mto start=875 steps=3000 seed=8
";

/// A global query budget far below what the walks need: it cuts all
/// four jobs, so which quanta ran before the cut is part of the result.
const BUDGET_CUT: &str = "\
network gnp n=400 p=0.02 seed=5
quantum 8
budget 120
job id=a algo=mto start=0 steps=2000 seed=1
job id=b algo=srw start=100 steps=2000 seed=2
job id=c algo=mhrw start=200 steps=2000 seed=3
job id=d algo=mto start=300 steps=2000 seed=4
";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs `request` through `mto_serve run`, with a `workers` line when
/// `workers` is given, and checks its body and trace against the
/// `unsharded-<name>` fixtures.
fn check(name: &str, request: &str, workers: Option<usize>) {
    let label = workers.map_or("none".to_string(), |w| w.to_string());
    let dir = std::env::temp_dir()
        .join(format!("mto-golden-unsharded-{name}-workers-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (req, trace, out) = (dir.join("run.req"), dir.join("run.trace"), dir.join("run.txt"));
    let workers_line = workers.map_or(String::new(), |w| format!("workers {w}\n"));
    std::fs::write(&req, format!("{workers_line}trace {}\n{request}", trace.display())).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_mto_serve"))
        .arg("run")
        .arg(&req)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("mto_serve runs");
    assert!(
        run.status.success(),
        "{name} workers={label}: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let mut failures = Vec::new();
    for (file, ext) in [(&out, "body"), (&trace, "trace")] {
        let expected = format!("unsharded-{name}.{ext}");
        if std::fs::read(file).unwrap() != read_fixture(&expected) {
            failures.push(format!("{ext} differs from {expected}: {}", file.display()));
        }
    }
    assert!(failures.is_empty(), "{name} workers={label}:\n  {}", failures.join("\n  "));
    std::fs::remove_dir_all(&dir).unwrap();
}

macro_rules! golden {
    ($($test:ident: $request:ident as $name:literal with $workers:expr;)*) => {$(
        #[test]
        fn $test() {
            check($name, $request, $workers);
        }
    )*};
}

golden! {
    serve_smoke_workers_1: SERVE_SMOKE as "serve-smoke" with Some(1);
    serve_smoke_workers_2: SERVE_SMOKE as "serve-smoke" with Some(2);
    serve_smoke_workers_4: SERVE_SMOKE as "serve-smoke" with Some(4);
    serve_smoke_no_workers: SERVE_SMOKE as "serve-smoke" with None;
    provider_timed_workers_1: PROVIDER_TIMED as "provider-timed" with Some(1);
    provider_timed_workers_2: PROVIDER_TIMED as "provider-timed" with Some(2);
    provider_timed_workers_4: PROVIDER_TIMED as "provider-timed" with Some(4);
    provider_timed_no_workers: PROVIDER_TIMED as "provider-timed" with None;
    mto_warm_small_workers_1: MTO_WARM_SMALL as "mto-warm-small" with Some(1);
    mto_warm_small_workers_2: MTO_WARM_SMALL as "mto-warm-small" with Some(2);
    mto_warm_small_workers_4: MTO_WARM_SMALL as "mto-warm-small" with Some(4);
    mto_warm_small_no_workers: MTO_WARM_SMALL as "mto-warm-small" with None;
    budget_cut_workers_1: BUDGET_CUT as "budget-cut" with Some(1);
    budget_cut_workers_2: BUDGET_CUT as "budget-cut" with Some(2);
    budget_cut_workers_4: BUDGET_CUT as "budget-cut" with Some(4);
    budget_cut_no_workers: BUDGET_CUT as "budget-cut" with None;
}
