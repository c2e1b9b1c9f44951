//! The acceptance verdicts of the latency, fleet, deadline and quality
//! experiments, through the built `mto-lab` at reduced scale: every
//! verdict line must read `PASS`.

use std::process::Command;

const VERDICTS: [&str; 9] = [
    "pipelined-beats-serial",
    "walk-not-wait-2x-serial",
    "gossip-beats-isolated",
    "fleet-deterministic",
    "edf-beats-round-robin",
    "qos-deterministic",
    "mto-fewer-queries-at-ess",
    "early-stop-releases-budget",
    "quality-deterministic",
];

#[test]
fn reduced_experiments_pass_their_verdicts() {
    let dir = std::env::temp_dir().join(format!("mto-lab-verdicts-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_mto-lab"))
        .args(["--reduced", "--out"])
        .arg(&dir)
        .args(["latency", "fleet", "deadline", "quality"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "mto-lab failed:\n{}", String::from_utf8_lossy(&run.stderr));
    for verdict in VERDICTS {
        let pass = format!("{verdict}: PASS");
        assert!(
            stdout.lines().any(|l| l.trim_start_matches("> ") == pass),
            "no `{pass}` line in:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
