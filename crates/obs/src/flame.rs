//! `mto-trace flame`: fold span events into collapsed flamegraph stacks.
//!
//! The collapsed-stack format is one line per distinct span path —
//! `outer;inner;leaf <weight>` — the input `flamegraph.pl` and every
//! compatible renderer consume. Weights are the **explicit span costs**
//! recorded at exit (see [`crate::trace::TraceSink::exit`]), summed per
//! path; output lines are sorted by path, so the fold of a deterministic
//! trace is itself byte-deterministic.

use std::collections::BTreeMap;

use crate::trace::TraceRecord;

/// Folds a record stream into collapsed stacks: `path weight` lines
/// sorted by path, one per distinct enter-path. Point events and spans
/// left open at the end of the stream are ignored; an `exit` with no
/// open span is skipped (the codec cannot produce one from a sink, but
/// hand-edited traces can).
pub fn fold(records: &[TraceRecord]) -> String {
    let mut stack: Vec<&str> = Vec::new();
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        match r {
            TraceRecord::Enter { name, .. } => stack.push(name),
            TraceRecord::Exit { cost, .. } => {
                if stack.is_empty() {
                    continue;
                }
                let path = stack.join(";");
                stack.pop();
                *weights.entry(path).or_insert(0) += cost;
            }
            TraceRecord::Point { .. } | TraceRecord::Gossip { .. } => {}
        }
    }
    let mut out = String::new();
    for (path, w) in &weights {
        out.push_str(path);
        out.push(' ');
        out.push_str(&w.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    #[test]
    fn nested_spans_fold_to_semicolon_paths() {
        let mut sink = TraceSink::new();
        for epoch in 0..2u64 {
            sink.enter(epoch, "epoch");
            sink.enter(epoch, "job-a");
            sink.exit(epoch, 10);
            sink.enter(epoch, "job-b");
            sink.exit(epoch, 5);
            sink.exit(epoch, 1);
        }
        let folded = fold(sink.events());
        assert_eq!(folded, "epoch 2\nepoch;job-a 20\nepoch;job-b 10\n");
    }

    #[test]
    fn unbalanced_and_empty_streams_are_harmless() {
        assert_eq!(fold(&[]), "");
        let dangling = vec![TraceRecord::Exit { seq: 0, t_us: 0, span: 0, cost: 9 }];
        assert_eq!(fold(&dangling), "");
        let open = vec![TraceRecord::Enter {
            seq: 0,
            t_us: 0,
            span: 1,
            parent: 0,
            name: "left-open".into(),
        }];
        assert_eq!(fold(&open), "");
    }

    #[test]
    fn fold_is_deterministic_and_sorted() {
        let mut sink = TraceSink::new();
        sink.enter(0, "zz");
        sink.exit(0, 1);
        sink.enter(0, "aa");
        sink.exit(0, 2);
        assert_eq!(fold(sink.events()), "aa 2\nzz 1\n");
    }
}
