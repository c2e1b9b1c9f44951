//! Warm-started fleets through `mto_serve run`.
//!
//! * `metric cache-hit-rate`: a lookup answered by the warm-start
//!   history is a hit, so the misses are the responses the run added to
//!   the union: a figure that does not depend on the shard count and
//!   equals what one shard pays.
//! * The order of a history's records: admission predicts each job's
//!   bill from binary searches over the decoded responses, so a history
//!   whose node records were reordered (and resealed) must give the same
//!   report as the original.

use std::path::Path;
use std::process::Command;

const NETWORK: &str = "network gnp n=2000 p=0.003 seed=5\n";

/// Four walks, so `shards 4` really runs four shards. Two start inside
/// the crawl the history recorded, two outside it.
const WARM_JOBS: &str = "\
job id=a algo=mto start=0 steps=600 seed=11
job id=b algo=srw start=500 steps=600 seed=12
job id=c algo=mhrw start=1200 steps=600 seed=13
job id=d algo=mto start=1700 steps=600 seed=14
";

/// Runs `request` through `mto_serve run` and returns the report body.
fn serve(dir: &Path, name: &str, request: &str) -> String {
    let (req, out) = (dir.join(format!("{name}.req")), dir.join(format!("{name}.txt")));
    std::fs::write(&req, request).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_mto_serve"))
        .arg("run")
        .arg(&req)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("mto_serve runs");
    assert!(run.status.success(), "{name}: {}", String::from_utf8_lossy(&run.stderr));
    std::fs::read_to_string(&out).unwrap()
}

/// The value of the body line `<key> <value>`.
fn figure<'a>(body: &'a str, key: &str) -> &'a str {
    body.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{key}` line in:\n{body}"))
}

#[test]
fn warm_started_fleets_count_only_new_responses_as_misses() {
    let dir = std::env::temp_dir().join(format!("mto-warm-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let history = dir.join("crawl.hist");
    serve(
        &dir,
        "cold",
        &format!(
            "{NETWORK}save-history {}\n\
             job id=x algo=mto start=0 steps=800 seed=1\n\
             job id=y algo=srw start=500 steps=800 seed=2\n",
            history.display()
        ),
    );
    let warm = |shards: usize| {
        let request = format!(
            "{NETWORK}shards {shards}\nepochs 5\nmetrics\nwarm-start {}\n{WARM_JOBS}",
            history.display()
        );
        serve(&dir, &format!("warm-w{shards}"), &request)
    };
    let (w1, w4) = (warm(1), warm(4));
    let lookups: u64 = figure(&w1, "metric total-lookups").parse().unwrap();
    let union: u64 = figure(&w1, "metric unique-queries").parse().unwrap();
    let bill: u64 = figure(&w1, "timing fleet-bill-unique-queries").parse().unwrap();
    assert!(0 < bill && bill < union, "the history covers part of the union, not all of it");
    assert_eq!(figure(&w1, "metric cache-hit-rate"), mto_obs::percent(lookups - bill, lookups));
    assert_eq!(figure(&w4, "metric cache-hit-rate"), figure(&w1, "metric cache-hit-rate"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_reordered_history_gives_the_same_budgeted_report() {
    let dir = std::env::temp_dir().join(format!("mto-warm-reordered-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (history, reordered) = (dir.join("crawl.hist"), dir.join("reordered.hist"));
    serve(
        &dir,
        "cold",
        &format!(
            "{NETWORK}save-history {}\n\
             job id=x algo=mto start=0 steps=800 seed=1\n\
             job id=y algo=srw start=500 steps=800 seed=2\n",
            history.display()
        ),
    );
    // The node records in reverse, resealed under a fresh checksum.
    let text = std::fs::read_to_string(&history).unwrap();
    let body = &text[..text.rfind("\nchecksum ").unwrap() + 1];
    let mut lines: Vec<&str> = body.lines().collect();
    let nodes = lines.iter().position(|l| l.starts_with("node ")).unwrap();
    let count = lines[nodes..].iter().take_while(|l| l.starts_with("node ")).count();
    lines[nodes..nodes + count].reverse();
    let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let checksum = mto_obs::fnv1a64(body.as_bytes());
    std::fs::write(&reordered, format!("{body}checksum {checksum:016x}")).unwrap();

    // A budget the five jobs overclaim, so admission defers some of them
    // on their predicted bills.
    let warm = |name: &str, path: &Path| {
        let request = format!(
            "{NETWORK}shards 2\nbudget 300\nwarm-start {}\n{WARM_JOBS}\
             job id=e algo=srw start=3 steps=600 seed=15\n",
            path.display()
        );
        serve(&dir, name, &request)
    };
    let original = warm("warm", &history);
    assert!(original.contains("verdict=defer"), "no job was deferred:\n{original}");
    assert_eq!(warm("warm-reordered", &reordered), original);
    std::fs::remove_dir_all(&dir).unwrap();
}
