//! Golden contract of the history and journal bytes `mto_serve run`
//! writes.
//!
//! A saved history or journal is what a later run warm-starts from, so
//! its bytes are a determinism witness for the fleet's final union. Each
//! test runs requests through the built binary in a temp dir and
//! compares the saved bytes and the report bodies to committed fixtures.
//! Paths in the requests are relative to that dir, so no body names it.
//!
//! * A cold gnp request (two MTO jobs, one SRW, one MHRW) at `shards 2`
//!   with `save-history`; then the same jobs warm-started from that
//!   history at `shards` 1, 2 and 4, each saving again.
//! * A `shards 2` request whose jobs all take zero steps. No barrier
//!   runs, so the union must still hold both shards' start nodes.
//! * fleet-smoke's 4-shard `journal` request, run twice: the second run
//!   replays the first run's journal and appends to it.
//!
//! A failing run keeps its outputs and prints their paths.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The network of the cold and warm requests.
const NETWORK: &str = "network gnp n=300 p=0.03 seed=11\n";

/// The jobs of the cold and warm requests.
const JOBS: &str = "\
job id=mto-a algo=mto start=0 steps=400 seed=1
job id=mto-b algo=mto start=100 steps=400 seed=2
job id=srw algo=srw start=200 steps=300 seed=3
job id=mhrw algo=mhrw start=250 steps=300 seed=4
";

/// Two jobs that never step, on different shards.
const ZERO_STEPS: &str = "\
network gnp n=300 p=0.03 seed=11
shards 2
save-history zero.hist
job id=z0 algo=mto start=0 steps=0 seed=1
job id=z1 algo=srw start=150 steps=0 seed=2
";

/// fleet-smoke's request, with its journal in the run's dir.
const JOURNAL: &str = "\
network gnp n=200 p=0.04 seed=7
shards 4
epochs 6
journal fleet.journal
job id=a algo=mto start=0 steps=300 seed=1
job id=b algo=mto start=40 steps=300 seed=2
job id=c algo=mto start=80 steps=250 seed=3
job id=d algo=srw start=120 steps=250 seed=4
";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// A temp dir for one test; outputs are compared against fixtures and
/// the dir is removed only when every comparison held.
struct Golden {
    test: &'static str,
    dir: PathBuf,
    failures: Vec<String>,
}

impl Golden {
    fn new(test: &'static str) -> Golden {
        let dir =
            std::env::temp_dir().join(format!("mto-golden-history-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Golden { test, dir, failures: Vec::new() }
    }

    /// Copies fixture `name` into the dir as `as_name`.
    fn install(&self, name: &str, as_name: &str) {
        std::fs::copy(fixture(name), self.dir.join(as_name)).unwrap();
    }

    /// Runs `request` through `mto_serve run` in the dir, writing its
    /// report to `out`.
    fn run(&self, request: &str, out: &str) {
        std::fs::write(self.dir.join("run.req"), request).unwrap();
        let run = Command::new(env!("CARGO_BIN_EXE_mto_serve"))
            .current_dir(&self.dir)
            .args(["run", "run.req", "--out", out])
            .output()
            .expect("mto_serve runs");
        assert!(run.status.success(), "{}: {}", self.test, String::from_utf8_lossy(&run.stderr));
    }

    /// Compares the dir's file `file` with fixture `expected`. A copy is
    /// kept under the fixture's name, so a failing file is named by it.
    fn compare(&mut self, file: &str, expected: &str) {
        let produced = self.dir.join(file);
        let bytes = std::fs::read(&produced).unwrap();
        let kept = self.dir.join(format!("got-{expected}"));
        std::fs::write(&kept, &bytes).unwrap();
        let want = std::fs::read(fixture(expected))
            .unwrap_or_else(|e| panic!("cannot read fixture {expected}: {e}"));
        if bytes != want {
            self.failures.push(format!("{file} differs from {expected}: {}", kept.display()));
        }
    }

    fn finish(self) {
        assert!(self.failures.is_empty(), "{}:\n  {}", self.test, self.failures.join("\n  "));
        std::fs::remove_dir_all(&self.dir).unwrap();
    }
}

#[test]
fn cold_run_saves_the_pinned_history() {
    let mut golden = Golden::new("cold");
    golden.run(&format!("{NETWORK}shards 2\nepochs 4\nsave-history cold.hist\n{JOBS}"), "cold.txt");
    golden.compare("cold.txt", "history-cold.body");
    golden.compare("cold.hist", "history-cold.hist");
    golden.finish();
}

/// Warm-starts the cold request's jobs from its pinned history on
/// `shards` shards and checks the saved history and the report.
fn warm(test: &'static str, shards: usize) {
    let mut golden = Golden::new(test);
    golden.install("history-cold.hist", "cold.hist");
    let request = format!(
        "{NETWORK}shards {shards}\nepochs 4\nwarm-start cold.hist\nsave-history warm.hist\n{JOBS}"
    );
    golden.run(&request, "warm.txt");
    golden.compare("warm.txt", &format!("history-warm-w{shards}.body"));
    golden.compare("warm.hist", &format!("history-warm-w{shards}.hist"));
    golden.finish();
}

#[test]
fn warm_run_on_1_shard_saves_the_pinned_history() {
    warm("warm-w1", 1);
}

#[test]
fn warm_run_on_2_shards_saves_the_pinned_history() {
    warm("warm-w2", 2);
}

#[test]
fn warm_run_on_4_shards_saves_the_pinned_history() {
    warm("warm-w4", 4);
}

#[test]
fn zero_step_run_saves_every_start_node() {
    let mut golden = Golden::new("zero-steps");
    golden.run(ZERO_STEPS, "zero.txt");
    golden.compare("zero.txt", "history-zero-steps.body");
    golden.compare("zero.hist", "history-zero-steps.hist");
    golden.finish();
}

#[test]
fn journal_runs_append_the_pinned_records() {
    let mut golden = Golden::new("journal");
    golden.run(JOURNAL, "first.txt");
    golden.compare("first.txt", "history-journal.first.body");
    golden.compare("fleet.journal", "history-journal.first.journal");
    golden.run(JOURNAL, "second.txt");
    golden.compare("second.txt", "history-journal.second.body");
    golden.compare("fleet.journal", "history-journal.second.journal");
    golden.finish();
}
