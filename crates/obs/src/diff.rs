//! `mto-trace diff`: locate the first divergent event of two traces, with
//! causal context.
//!
//! The determinism witnesses (the fleet's golden and contract tests) compare
//! whole encoded traces; when they fail, a byte offset explains
//! nothing. This module compares two decoded record streams and reports
//! the first index where they differ, together with the **causal
//! context** reconstructed from the common prefix: the stack of spans
//! open at that point, the owning epoch, and the owning job (from the
//! open spans or the divergent record's own name). That turns "bytes
//! differ at offset 48213" into "the two runs first disagree at event
//! 1204, inside epoch-3, on job mto-b's grant".

use crate::codec::render_record;
use crate::trace::TraceRecord;

/// Point prefixes whose suffix names the owning job.
const JOB_POINT_PREFIXES: &[&str] = &[
    "grant-",
    "finish-",
    "suspend-",
    "resume-",
    "cut-",
    "ledger-charge-",
    "ledger-allowance-",
    "aging-promotion-",
];

/// The first difference between two record streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first differing event (also the length of the
    /// common prefix).
    pub index: usize,
    /// The left stream's record at `index` (`None`: stream ended).
    pub left: Option<TraceRecord>,
    /// The right stream's record at `index` (`None`: stream ended).
    pub right: Option<TraceRecord>,
    /// Names of spans open after the common prefix, outermost first.
    pub open_spans: Vec<String>,
    /// Innermost open `epoch-*` span, if any.
    pub epoch: Option<String>,
    /// Owning job id, from the open spans or the divergent records.
    pub job: Option<String>,
}

/// Extracts a job id from a record's own naming, if it has one.
fn job_of(record: &TraceRecord) -> Option<String> {
    match record {
        TraceRecord::Enter { name, .. } => name.strip_prefix("job-").map(str::to_string),
        TraceRecord::Point { name, .. } => {
            JOB_POINT_PREFIXES.iter().find_map(|p| name.strip_prefix(p)).map(str::to_string)
        }
        TraceRecord::Gossip { to, .. } => {
            to.strip_prefix("job-").map(str::to_string).or_else(|| Some(to.clone()))
        }
        TraceRecord::Exit { .. } => None,
    }
}

/// Compares two streams, returning `None` when they are identical and
/// the first divergence otherwise.
pub fn first_divergence(left: &[TraceRecord], right: &[TraceRecord]) -> Option<Divergence> {
    let index = left
        .iter()
        .zip(right.iter())
        .position(|(l, r)| l != r)
        .unwrap_or_else(|| left.len().min(right.len()));
    if index == left.len() && index == right.len() {
        return None;
    }

    // Causal context from the (identical) common prefix.
    let mut open: Vec<&str> = Vec::new();
    for r in &left[..index] {
        match r {
            TraceRecord::Enter { name, .. } => open.push(name),
            TraceRecord::Exit { .. } => {
                open.pop();
            }
            _ => {}
        }
    }
    let epoch = open.iter().rev().find(|n| n.starts_with("epoch-")).map(|n| n.to_string());
    let l = left.get(index).cloned();
    let r = right.get(index).cloned();
    let job = open
        .iter()
        .rev()
        .find_map(|n| n.strip_prefix("job-"))
        .map(str::to_string)
        .or_else(|| l.as_ref().and_then(job_of))
        .or_else(|| r.as_ref().and_then(job_of));
    Some(Divergence {
        index,
        left: l,
        right: r,
        open_spans: open.into_iter().map(str::to_string).collect(),
        epoch,
        job,
    })
}

fn side(record: &Option<TraceRecord>) -> String {
    match record {
        Some(r) => {
            let mut line = String::new();
            render_record(&mut line, r);
            line
        }
        None => "<trace ended>".to_string(),
    }
}

/// Renders the divergence as the multi-line report `mto-trace diff` prints.
pub fn render(d: &Divergence) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "first divergent event: index {}", d.index).expect("string write");
    writeln!(out, "  left:  {}", side(&d.left)).expect("string write");
    writeln!(out, "  right: {}", side(&d.right)).expect("string write");
    writeln!(
        out,
        "  open spans: {}",
        if d.open_spans.is_empty() { "(none)".to_string() } else { d.open_spans.join(" > ") }
    )
    .expect("string write");
    writeln!(out, "  epoch: {}", d.epoch.as_deref().unwrap_or("(outside epochs)"))
        .expect("string write");
    writeln!(out, "  job: {}", d.job.as_deref().unwrap_or("(none)")).expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn fleet_like(grant_b: u64) -> TraceSink {
        let mut sink = TraceSink::new();
        sink.point(0, "admission-a-admit", 10);
        sink.enter(0, "epoch-0");
        sink.point(0, "grant-a", 25);
        sink.enter(0, "job-a");
        sink.exit(0, 25);
        sink.exit(0, 0);
        sink.enter(1_000_000, "epoch-1");
        sink.point(1_000_000, "grant-b", grant_b);
        sink.enter(1_000_000, "job-b");
        sink.exit(1_000_000, grant_b);
        sink.exit(1_000_000, 0);
        sink
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let a = fleet_like(30);
        let b = fleet_like(30);
        assert_eq!(first_divergence(a.events(), b.events()), None);
    }

    #[test]
    fn divergence_names_the_event_epoch_and_job() {
        let a = fleet_like(30);
        let b = fleet_like(31);
        let d = first_divergence(a.events(), b.events()).unwrap();
        assert_eq!(d.index, 7, "streams agree through epoch 0 and the epoch-1 enter");
        assert_eq!(d.open_spans, vec!["epoch-1".to_string()]);
        assert_eq!(d.epoch.as_deref(), Some("epoch-1"));
        assert_eq!(d.job.as_deref(), Some("b"), "the grant point names its job");
        let report = render(&d);
        assert!(report.contains("index 7"));
        assert!(report.contains("left:  point 7 1000000 3 grant-b 30"), "{report}");
        assert!(report.contains("right: point 7 1000000 3 grant-b 31"), "{report}");
        assert!(report.contains("epoch: epoch-1"), "{report}");
        assert!(report.contains("job: b"), "{report}");
    }

    #[test]
    fn a_truncated_stream_diverges_at_its_end() {
        let a = fleet_like(30);
        let events = a.events();
        let d = first_divergence(events, &events[..4]).unwrap();
        assert_eq!(d.index, 4);
        assert!(d.left.is_some());
        assert_eq!(d.right, None);
        assert!(render(&d).contains("<trace ended>"));
    }

    #[test]
    fn job_context_comes_from_the_open_span_stack_too() {
        let mut a = TraceSink::new();
        a.enter(0, "epoch-0");
        a.enter(0, "job-x");
        a.exit(0, 5);
        a.exit(0, 0);
        let mut b = TraceSink::new();
        b.enter(0, "epoch-0");
        b.enter(0, "job-x");
        b.exit(0, 6);
        b.exit(0, 0);
        let d = first_divergence(a.events(), b.events()).unwrap();
        assert_eq!(d.index, 2);
        assert_eq!(d.open_spans, vec!["epoch-0".to_string(), "job-x".to_string()]);
        assert_eq!(d.job.as_deref(), Some("x"));
    }
}
