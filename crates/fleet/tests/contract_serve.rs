//! The serve smoke contract of `mto_serve`: run, snapshot → resume, and
//! warm start, through the built binary in a temp dir.
//!
//! * `run` on the smoke request completes its jobs and saves history;
//! * `snapshot --at 150` then `resume` in a fresh process reports
//!   `resumed-at=150` and lands job `smoke` on the same `final=` node as
//!   the uninterrupted run;
//! * a second `run` warm-started from the saved history pays for no
//!   query on the barbell (every node is cached);
//! * fleet-smoke's 4-shard `journal` request reports its fleet lines;
//!   with 7 bytes torn off the journal's tail, a second run recovers
//!   (`recovered=1`), pays for nothing and prints the same `job` lines.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The smoke request; `{history}` becomes the `save-history` path.
const SMOKE: &str = "\
network barbell
workers 2
quantum 32
save-history {history}
job id=smoke algo=mto start=0 steps=400 seed=7
job id=base algo=srw start=3 steps=400 seed=9
";

/// The warm-start request; `{history}` becomes the `warm-start` path.
const WARM: &str = "\
network barbell
warm-start {history}
job id=warm algo=mto start=0 steps=400 seed=21
";

/// fleet-smoke's request; `{journal}` becomes the `journal` path.
const JOURNAL: &str = "\
network gnp n=200 p=0.04 seed=7
shards 4
epochs 6
journal {journal}
job id=a algo=mto start=0 steps=300 seed=1
job id=b algo=mto start=40 steps=300 seed=2
job id=c algo=mto start=80 steps=250 seed=3
job id=d algo=srw start=120 steps=250 seed=4
";

/// A temp dir for one test, removed when the test passes.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("mto-contract-serve-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Writes `template` as request `name`, with `{history}` pointing at
    /// this dir's `smoke.hist` and `{journal}` at its `fleet.journal`.
    fn request(&self, name: &str, template: &str) -> PathBuf {
        let path = self.path(name);
        let (history, journal) = (self.path("smoke.hist"), self.path("fleet.journal"));
        let text = template
            .replace("{history}", &history.display().to_string())
            .replace("{journal}", &journal.display().to_string());
        std::fs::write(&path, text).unwrap();
        path
    }

    fn finish(self) {
        std::fs::remove_dir_all(&self.0).unwrap();
    }
}

/// Runs `mto_serve` with `args`, asserting it succeeds.
fn mto_serve(args: &[&Path]) {
    let run = Command::new(env!("CARGO_BIN_EXE_mto_serve")).args(args).output().unwrap();
    assert!(
        run.status.success(),
        "mto_serve {args:?} failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// `mto_serve run` of request `req`; returns the report written to
/// `out`.
fn run(dir: &TempDir, req: &Path, out: &str) -> String {
    let out = dir.path(out);
    mto_serve(&[Path::new("run"), req, Path::new("--out"), &out]);
    read(&out)
}

/// `mto_serve run` of the smoke request; returns its report.
fn run_smoke(dir: &TempDir) -> String {
    run(dir, &dir.request("smoke.req", SMOKE), "smoke.cold.txt")
}

/// The `final=` field of job `id`'s line in a report.
fn final_node(report: &str, id: &str) -> String {
    let prefix = format!("job {id} ");
    let line = report
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no line for job {id} in:\n{report}"));
    line.split_whitespace()
        .find(|field| field.starts_with("final="))
        .unwrap_or_else(|| panic!("no final= in {line:?}"))
        .to_string()
}

#[test]
fn run_completes_the_smoke_request() {
    let dir = TempDir::new("run");
    let report = run_smoke(&dir);
    assert!(report.contains("completed=1"), "no completed job in:\n{report}");
    dir.finish();
}

#[test]
fn snapshot_then_resume_lands_on_the_run_final_node() {
    let dir = TempDir::new("resume");
    let cold = run_smoke(&dir);
    let (session, resumed) = (dir.path("smoke.session"), dir.path("smoke.resumed.txt"));
    mto_serve(&[
        Path::new("snapshot"),
        &dir.path("smoke.req"),
        Path::new("--at"),
        Path::new("150"),
        Path::new("--to"),
        &session,
    ]);
    mto_serve(&[Path::new("resume"), &session, Path::new("--out"), &resumed]);
    let resumed = read(&resumed);
    assert!(resumed.contains("resumed-at=150"), "no resumed-at=150 in:\n{resumed}");
    assert_eq!(
        final_node(&resumed, "smoke"),
        final_node(&cold, "smoke"),
        "the resumed session must land where the uninterrupted run did"
    );
    dir.finish();
}

#[test]
fn warm_start_from_the_saved_history_pays_nothing() {
    let dir = TempDir::new("warm");
    run_smoke(&dir);
    let warm = run(&dir, &dir.request("warm.req", WARM), "smoke.warm.txt");
    assert!(
        warm.lines().any(|l| l == "total-unique-queries 0"),
        "the warm run paid for queries:\n{warm}"
    );
    dir.finish();
}

/// The `job` lines of a report.
fn job_lines(report: &str) -> Vec<&str> {
    report.lines().filter(|l| l.starts_with("job ")).collect()
}

#[test]
fn a_torn_journal_recovers_and_keeps_the_job_results() {
    let dir = TempDir::new("journal");
    let req = dir.request("fleet.req", JOURNAL);
    let first = run(&dir, &req, "fleet.txt");
    for line in ["fleet shards=4", "gossip-saved", "makespan-secs", "recovered=0"] {
        assert!(first.contains(line), "no {line:?} in:\n{first}");
    }
    assert!(first.lines().any(|l| l == "merge-conflicts 0"), "conflicts in:\n{first}");

    // Tear the journal mid-record, as a crash during a write would.
    let journal = dir.path("fleet.journal");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();
    let second = run(&dir, &req, "fleet2.txt");
    assert!(second.contains("recovered=1"), "no recovery in:\n{second}");
    assert!(
        second.lines().any(|l| l == "total-unique-queries 0"),
        "the recovered run paid for queries:\n{second}"
    );
    // Same results either way: the journal only changes the bill.
    assert_eq!(job_lines(&second), job_lines(&first));
    dir.finish();
}
