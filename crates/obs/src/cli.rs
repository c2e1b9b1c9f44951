//! `mto-trace`: the one trace tool, as a dispatcher the binary and the
//! tests share.
//!
//! ```text
//! mto-trace flame <trace>                      collapsed flamegraph stacks
//! mto-trace critpath <trace>                   the critical path bounding the makespan
//! mto-trace timeline <trace>                   ASCII epoch lanes, one row per job
//! mto-trace diff <left-trace> <right-trace>    the first divergent event
//! mto-trace gap <trace> <prom>                 per-epoch virtual-vs-wall attribution
//! mto-trace mix <trace> [report]               convergence trajectories
//! mto-trace baseline check <baseline> <report> the OBS_BASELINE.json drift gate
//! mto-trace baseline write <baseline> <report> [request note...]
//! ```
//!
//! [`run`] writes the report to the writer it is given. A run that does
//! not exit 0 returns a [`Failure`]: status 1 for a failure, a
//! divergence or a drift, with one diagnostic line, `mto-trace <sub>:
//! <path>: <message>`; status 2 with the usage text for bad arguments.
//! A missing, empty, truncated or corrupt file is such a line, never a
//! panic. So is a header-only trace for every subcommand but `diff`: an
//! empty report piped onward hides a run that wrote no spans.
//!
//! `diff` compares decoded records, not bytes. `mix <trace> <report>`
//! appends one `cross-check` line per job, each job's final traced ESS
//! checked against the report's `metric quality-*-ess-mil` line.
//! `baseline write` keeps each still-present metric's tolerance and the
//! request note of an existing baseline unless a new note is given;
//! metrics new to the report are pinned at tolerance 0.

use std::io::Write;

use crate::baseline::{parse_metric_lines, Baseline, BaselineEntry};
use crate::codec::decode_trace;
use crate::critpath::{critical_path, flat_fallback, FleetModel};
use crate::mix::{cross_check, MixModel};
use crate::trace::TraceRecord;

const USAGE: &str = "usage: mto-trace flame <trace>
       mto-trace critpath <trace>
       mto-trace timeline <trace>
       mto-trace diff <left-trace> <right-trace>
       mto-trace gap <trace> <prom>
       mto-trace mix <trace> [report]
       mto-trace baseline check <baseline.json> <report>
       mto-trace baseline write <baseline.json> <report> [request note...]";

/// A run that did not exit 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// 1 for a failure, a divergence or a drift; 2 for a usage error.
    pub code: u8,
    /// `mto-trace <sub>: <path>: <message>`, or the usage text.
    pub message: String,
}

/// Runs `mto-trace` on `args` (the arguments after the program name),
/// writing the report to `out` — also the part written before a
/// divergence, a drift or a failed cross-check.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut text = String::new();
    let (sub, result) = match args[..] {
        ["flame", trace] => ("flame", flame(trace, &mut text)),
        ["critpath", trace] => ("critpath", critpath(trace, &mut text)),
        ["timeline", trace] => ("timeline", timeline(trace, &mut text)),
        ["diff", left, right] => ("diff", diff(left, right, &mut text)),
        ["gap", trace, prom] => ("gap", gap(trace, prom, &mut text)),
        ["mix", trace] => ("mix", mix(trace, None, &mut text)),
        ["mix", trace, report] => ("mix", mix(trace, Some(report), &mut text)),
        ["baseline", "check", baseline, report] => {
            ("baseline check", check(baseline, report, &mut text))
        }
        ["baseline", "write", baseline, report, ref note @ ..] => {
            ("baseline write", write(baseline, report, note, &mut text))
        }
        _ => return Err(Failure { code: 2, message: USAGE.to_string() }),
    };
    let failed = |e: String| Failure { code: 1, message: format!("mto-trace {sub}: {e}") };
    out.write_all(text.as_bytes()).map_err(|e| failed(format!("<stdout>: {e}")))?;
    result.map_err(failed)
}

/// Prefixes an error with the path it is about.
fn at<E: std::fmt::Display>(path: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{path}: {e}")
}

/// Reads a file; an empty one is an error, because a 0-byte trace is
/// what a run that died before writing leaves behind.
fn read(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    if text.is_empty() {
        return Err(format!("{path}: empty file"));
    }
    Ok(text)
}

fn load(path: &str) -> Result<Vec<TraceRecord>, String> {
    decode_trace(&read(path)?).map_err(at(path))
}

fn load_nonempty(path: &str) -> Result<Vec<TraceRecord>, String> {
    let records = load(path)?;
    if records.is_empty() {
        return Err(format!("{path}: trace has no events (header-only document)"));
    }
    Ok(records)
}

fn fleet_model(path: &str) -> Result<(Vec<TraceRecord>, FleetModel), String> {
    let records = load_nonempty(path)?;
    let model = FleetModel::from_records(&records).map_err(at(path))?;
    Ok((records, model))
}

fn flame(trace: &str, out: &mut String) -> Result<(), String> {
    out.push_str(&crate::flame::fold(&load_nonempty(trace)?));
    Ok(())
}

fn critpath(trace: &str, out: &mut String) -> Result<(), String> {
    let (records, model) = fleet_model(trace)?;
    if let Some(path) = critical_path(&model) {
        out.push_str(&crate::critpath::render(&path));
        return Ok(());
    }
    let (name, weight) = flat_fallback(&records)
        .ok_or_else(|| format!("{trace}: no spans to extract a path from"))?;
    out.push_str("# flat trace: no epochs, the heaviest span is the path\nmakespan-epochs 0\n");
    out.push_str(&format!("path span={name} weight={weight}\n"));
    Ok(())
}

fn timeline(trace: &str, out: &mut String) -> Result<(), String> {
    let (_, model) = fleet_model(trace)?;
    let lanes = crate::timeline::render(&model)
        .ok_or_else(|| format!("{trace}: flat trace (no epoch spans), nothing to draw"))?;
    out.push_str(&lanes);
    Ok(())
}

fn diff(left: &str, right: &str, out: &mut String) -> Result<(), String> {
    let (l, r) = (load(left)?, load(right)?);
    let Some(d) = crate::diff::first_divergence(&l, &r) else {
        out.push_str(&format!("traces identical ({} events)\n", l.len()));
        return Ok(());
    };
    out.push_str(&crate::diff::render(&d));
    Err(format!("{right}: diverges from {left} at event {}", d.index))
}

fn gap(trace: &str, prom: &str, out: &mut String) -> Result<(), String> {
    let (_, model) = fleet_model(trace)?;
    if model.epochs == 0 {
        return Err(format!("{trace}: flat trace (no epoch spans), nothing to attribute"));
    }
    let samples = crate::prom::parse(&read(prom)?).map_err(at(prom))?;
    out.push_str(&crate::gap::render(&model, &samples));
    Ok(())
}

fn mix(trace: &str, report: Option<&str>, out: &mut String) -> Result<(), String> {
    let model = MixModel::from_records(&load_nonempty(trace)?).map_err(at(trace))?;
    out.push_str(&model.render());
    if let Some(report) = report {
        for line in cross_check(&model, &read(report)?).map_err(at(report))? {
            out.push_str(&line);
            out.push('\n');
        }
    }
    Ok(())
}

fn check(baseline: &str, report: &str, out: &mut String) -> Result<(), String> {
    let pinned = Baseline::parse(&read(baseline)?).map_err(at(baseline))?;
    let drifts = pinned.compare(&parse_metric_lines(&read(report)?));
    let total = pinned.metrics.len();
    if drifts.is_empty() {
        out.push_str(&format!("obs-baseline: {total} pinned metrics within tolerance\n"));
        return Ok(());
    }
    for d in &drifts {
        out.push_str(&format!("{d}\n"));
    }
    Err(format!("{report}: {} of {total} pinned metrics drifted", drifts.len()))
}

fn write(baseline: &str, report: &str, note: &[&str], out: &mut String) -> Result<(), String> {
    let metrics = parse_metric_lines(&read(report)?);
    if metrics.is_empty() {
        return Err(format!("{report}: no `metric` lines to pin"));
    }
    // A missing baseline is a fresh start; an unparsable one is an error,
    // because silently replacing a corrupt committed gate hides the
    // corruption.
    let prior = match std::fs::read_to_string(baseline) {
        Ok(text) => Some(Baseline::parse(&text).map_err(|e| {
            format!("{baseline}: existing baseline is unreadable ({e}); delete it to start fresh")
        })?),
        Err(_) => None,
    };
    let request = match (note, &prior) {
        ([], Some(prior)) => prior.request.clone(),
        ([], None) => {
            return Err(format!(
                "{baseline}: no existing baseline to carry a request note from; pass one after \
                 the report path"
            ))
        }
        (note, _) => note.join(" "),
    };
    let tolerance = |name: &str| prior.as_ref()?.metrics.get(name).map(|e| e.tolerance_pct);
    let carried = metrics.keys().filter(|name| tolerance(name.as_str()).is_some()).count();
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| {
            let tolerance_pct = tolerance(name.as_str()).unwrap_or(0);
            (name, BaselineEntry { value, tolerance_pct })
        })
        .collect();
    let pinned = Baseline { request, metrics };
    std::fs::write(baseline, pinned.render())
        .map_err(|e| format!("{baseline}: cannot write: {e}"))?;
    let total = pinned.metrics.len();
    out.push_str(&format!(
        "obs-baseline: pinned {total} metrics to {baseline} ({carried} tolerances carried over)\n"
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> (Vec<u8>, Result<(), Failure>) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut out = Vec::new();
        let result = run(&args, &mut out);
        (out, result)
    }

    fn failure(args: &[&str]) -> Failure {
        let (out, result) = run_args(args);
        assert!(out.is_empty(), "a failed load writes no report");
        result.unwrap_err()
    }

    #[test]
    fn missing_empty_and_corrupt_files_get_one_line_diagnostics() {
        let err = failure(&["flame", "/nonexistent/trace"]);
        assert_eq!(err.code, 1);
        assert!(
            err.message.starts_with("mto-trace flame: /nonexistent/trace: cannot read:"),
            "{err:?}"
        );
        assert!(!err.message.contains('\n'), "{err:?}");

        let dir = std::env::temp_dir().join(format!("mto-obs-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.trace");
        std::fs::write(&empty, "").unwrap();
        let empty = empty.to_str().unwrap();
        let err = failure(&["diff", empty, empty]);
        assert_eq!(err.message, format!("mto-trace diff: {empty}: empty file"));

        let torn = dir.join("torn.trace");
        std::fs::write(&torn, "mto-trace v2\nevents 0\n").unwrap();
        let torn = torn.to_str().unwrap();
        let err = failure(&["critpath", torn]);
        assert!(err.message.starts_with(&format!("mto-trace critpath: {torn}: ")), "{err:?}");
        assert!(err.message.contains("trace truncated"), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_only_traces_pass_load_but_fail_the_nonempty_loader() {
        let dir = std::env::temp_dir().join(format!("mto-obs-cli-nonempty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("header-only.trace");
        std::fs::write(&path, crate::codec::encode_trace(&crate::trace::TraceSink::new())).unwrap();
        let path = path.to_str().unwrap();
        assert_eq!(load(path).unwrap(), vec![], "a valid empty document decodes");
        let (out, result) = run_args(&["diff", path, path]);
        assert_eq!(result, Ok(()));
        assert_eq!(String::from_utf8(out).unwrap(), "traces identical (0 events)\n");
        for args in [
            &["flame", path][..],
            &["critpath", path],
            &["timeline", path],
            &["mix", path],
            &["gap", path, path],
        ] {
            let err = failure(args);
            assert_eq!(err.code, 1);
            assert!(err.message.contains("trace has no events"), "{err:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for args in [
            &[][..],
            &["flame"],
            &["flame", "a", "b"],
            &["trace2flame", "a"],
            &["mix", "a", "b", "c"],
            &["baseline", "--write", "a", "b"],
            &["baseline", "check", "a"],
            &["baseline", "write", "a"],
        ] {
            let (out, result) = run_args(args);
            assert!(out.is_empty(), "{args:?}");
            let err = result.unwrap_err();
            assert_eq!(err.code, 2, "{args:?}");
            assert!(err.message.starts_with("usage: mto-trace flame <trace>\n"), "{args:?}");
        }
    }

    #[test]
    fn critpath_returns_when_two_stalled_jobs_release_each_other() {
        // a and b are suspended before epoch 0 and both finish at its
        // barrier, so each is the other's releaser.
        let mut sink = crate::trace::TraceSink::new();
        sink.point(0, "suspend-a", 0);
        sink.point(0, "suspend-b", 0);
        sink.enter(0, "epoch-0");
        sink.point(0, "finish-a", 0);
        sink.point(0, "finish-b", 0);
        sink.exit(0, 0);
        sink.enter(1_000_000, "epoch-1");
        sink.exit(1_000_000, 0);
        let dir = std::env::temp_dir().join(format!("mto-obs-cli-cycle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("release-cycle.trace");
        std::fs::write(&path, crate::codec::encode_trace(&sink)).unwrap();
        let (out, result) = run_args(&["critpath", path.to_str().unwrap()]);
        assert_eq!(result, Ok(()));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "# critical path (virtual time: 1 epoch = 1 second)\n\
             makespan-epochs 1\n\
             terminal-job b\n\
             path job=b epochs=0..0 phase=budget-stall\n\
             attribution service-epochs=0 queue-wait-epochs=0 budget-stall-epochs=1 \
             service-steps=0\n\
             gossip-adopted-into-path 0\n"
        );
        let (lanes, result) = run_args(&["timeline", path.to_str().unwrap()]);
        assert_eq!(result, Ok(()));
        assert!(String::from_utf8(lanes).unwrap().contains("    a |s.|\n    b |s.|\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
