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
//!   (`recovered=1`), pays for nothing and prints the same `job` lines;
//! * the budgeted EDF fleet with two deadline jobs reports its ledger and
//!   a met deadline at 4 shards, spends the same budget on the same
//!   results at 1, 2, 4 and 8 shards, and `snapshot` refuses it, naming
//!   `shards`.

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

/// The budgeted deadline fleet; `{shards}` becomes the shard count.
const QOS: &str = "\
network gnp n=200 p=0.04 seed=7
shards {shards}
epochs 6
budget 600
policy edf
job id=a algo=mto start=0 steps=300 seed=1 deadline=6.0
job id=b algo=mto start=40 steps=300 seed=2 deadline=9.0
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

/// The `job` lines without their timing fields (finish instants vary
/// with the shard count by design) and the `ledger` lines, as is.
fn results_and_spend(report: &str) -> Vec<String> {
    let timing = |f: &&str| f.starts_with("finished-at=") || f.starts_with("deadline-met=");
    let mut lines = Vec::new();
    for line in report.lines() {
        if line.starts_with("job ") {
            lines.push(line.split(' ').filter(|f| !timing(f)).collect::<Vec<_>>().join(" "));
        } else if line.starts_with("ledger") {
            lines.push(line.to_string());
        }
    }
    lines
}

#[test]
fn the_budgeted_deadline_fleet_spends_alike_at_every_shard_count() {
    let dir = TempDir::new("qos");
    let request =
        |w: usize| dir.request(&format!("qos-w{w}.req"), &QOS.replace("{shards}", &w.to_string()));
    let w4 = run(&dir, &request(4), "qos-w4.txt");
    assert!(w4.contains("fleet shards=4"), "{w4}");
    assert!(w4.lines().any(|l| l.starts_with("ledger total=600")), "{w4}");
    assert!(w4.lines().any(|l| l.starts_with("ledger-rebalance reclaimed=")), "{w4}");
    assert!(w4.contains("deadline-met=1"), "{w4}");
    let expected = results_and_spend(&w4);
    assert_eq!(expected.iter().filter(|l| l.starts_with("job ")).count(), 4, "{w4}");
    for w in [1, 2, 8] {
        let report = run(&dir, &request(w), &format!("qos-w{w}.txt"));
        assert_eq!(results_and_spend(&report), expected, "W={w} against W=4");
    }

    // `snapshot` operates on a single session, so it refuses the fleet
    // directive and names it.
    let snapshot = Command::new(env!("CARGO_BIN_EXE_mto_serve"))
        .arg("snapshot")
        .arg(request(4))
        .args(["--at", "50", "--to"])
        .arg(dir.path("qos.session"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&snapshot.stderr);
    assert_eq!(snapshot.status.code(), Some(1), "snapshot accepted a fleet request: {stderr}");
    assert!(stderr.contains("shards"), "{stderr}");
    dir.finish();
}
