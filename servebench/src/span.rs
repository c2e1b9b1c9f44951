//! In-memory spans around the public calls into each layer crate.
//!
//! A span records its name (`<crate>.<call>`), start and end on the
//! process's monotonic clock, its parent and its request. Phases the
//! program times itself (the fleet's and scheduler's wall plane) become
//! child spans with a duration but no position of their own. Spans stay
//! in memory and are written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub request: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A duration reported by the program's own wall plane rather than
    /// measured here: its start is its parent's, its end start + duration.
    pub phase: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Returned by a disabled tracer: a span that was never recorded.
const UNRECORDED: usize = usize::MAX;

/// Collects spans; a disabled tracer only runs the calls it wraps.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    request: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next request id, recording its spans iff `on`.
    pub fn begin_request(&mut self, on: bool) -> u64 {
        self.enabled = on;
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        phase: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            phase,
        });
        id
    }

    /// Opens span `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return UNRECORDED;
        }
        let id = self.push(self.open.last().copied(), name, self.now_ns(), false);
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        if id == UNRECORDED {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a self-timed phase of `nanos` under span `parent`.
    pub fn phase(&mut self, parent: usize, name: &'static str, nanos: u64) -> usize {
        if parent == UNRECORDED {
            return UNRECORDED;
        }
        let start_ns = self.spans[parent].start_ns;
        let id = self.push(Some(parent), name, start_ns, true);
        self.spans[id].end_ns = start_ns + nanos;
        id
    }

    /// Total and self time per span name for one request; self time is a
    /// span's duration minus the part its children cover.
    pub fn times(&self, request: u64) -> BTreeMap<&'static str, (f64, f64)> {
        let spans: Vec<&Span> = self.spans.iter().filter(|s| s.request == request).collect();
        let mut out = BTreeMap::new();
        for s in &spans {
            let children: f64 =
                spans.iter().filter(|c| c.parent == Some(s.id)).map(|c| c.secs()).sum();
            let entry = out.entry(s.name).or_insert((0.0, 0.0));
            entry.0 += s.secs();
            entry.1 += s.secs() - children;
        }
        out
    }

    /// Every span as tab-separated text, one line each.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("request\tid\tparent\tname\tstart_ns\tend_ns\tkind\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let kind = if s.phase { "phase" } else { "call" };
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}\t{kind}",
                s.request, s.id, s.name, s.start_ns, s.end_ns
            )
            .expect("string write");
        }
        out
    }
}
