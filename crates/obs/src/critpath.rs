//! `mto-trace critpath`: extract the longest virtual-time dependency chain
//! from a fleet trace.
//!
//! The paper's cost model (and "Walk, Not Wait", arXiv:1410.7833) says a
//! crawl's completion time is bounded by its longest *dependency chain*
//! of queries, not the query count — so this module rebuilds the causal
//! structure of a fleet run from its trace and walks it backward from
//! the last job to finish, attributing every epoch on the chain to one
//! of three phases:
//!
//! * **service** — the critical job took steps this epoch;
//! * **queue-wait** — the job was runnable but the epoch planner granted
//!   it nothing (EDF starvation, quantified per job by the planner's
//!   aging counters);
//! * **budget-stall** — the job was suspended on an exhausted ledger
//!   slice. If the grant that resumed it was released by another job's
//!   finish at the same barrier, the chain *jumps* to that releaser: the
//!   stall was really time spent waiting for the releaser's service, and
//!   the releaser's own history (not the idle wait) bounds the makespan.
//!   Jobs that were stalled and finished at one barrier can be each
//!   other's releasers; the walk leaves such a cycle as a budget stall.
//!
//! Everything here reads the shard-invariant trace plane only, so the
//! extracted path — like the trace itself — is byte-identical across
//! shard counts. Totals are in **epoch virtual time** (the fleet stamps
//! one virtual second per epoch): the per-shard pipeline clock behind
//! the report's `timing makespan-secs` line legitimately varies with
//! `W`, which is exactly why the critical path does not use it. The
//! trace's own `fleet-epochs` point is cross-checked against the
//! reconstruction as an integrity gate.

use std::collections::{BTreeMap, BTreeSet};

use crate::trace::TraceRecord;

/// What one job did during one epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochState {
    /// Took this many steps.
    Ran(u64),
    /// Runnable, granted nothing by the planner.
    Starved,
    /// Suspended on an exhausted budget slice.
    Suspended,
    /// Already finished (or cut) in an earlier epoch.
    Done,
}

/// One job's reconstructed lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobLane {
    /// Job id (without the `job-` span prefix).
    pub id: String,
    /// Per-epoch states, `epochs` entries.
    pub states: Vec<EpochState>,
    /// Epoch whose barrier observed the job complete.
    pub finish_epoch: Option<usize>,
    /// The job was cut by the budget (after its last suspended epoch).
    pub cut: bool,
    /// Total steps across all epochs.
    pub total_steps: u64,
    /// Submission ordinal of the finish/cut point (tie-break for "last
    /// finisher"); `u64::MAX` when the trace ends with the job open.
    end_seq: u64,
}

/// One causal gossip edge, stamped with the epoch it was observed at
/// (`None` for the pre-epoch barrier).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipEdge {
    /// Barrier epoch, `None` for the t=0 barrier.
    pub epoch: Option<usize>,
    /// Crediting job name as recorded (`job-<id>`).
    pub from: String,
    /// Adopting job name as recorded (`job-<id>`).
    pub to: String,
    /// Adopted responses.
    pub count: u64,
}

/// The causal model of a fleet run, rebuilt from its trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetModel {
    /// Number of epochs (`epoch-N` spans) the fleet ran.
    pub epochs: usize,
    /// Job lanes in first-appearance order.
    pub jobs: Vec<JobLane>,
    /// Causal gossip edges in record order.
    pub gossip: Vec<GossipEdge>,
}

/// Model-construction failures: the trace decoded but does not describe
/// a consistent fleet run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// `epoch-N` spans did not appear as `epoch-0, epoch-1, …`.
    NonSequentialEpoch {
        /// The ordinal the span claimed.
        got: usize,
        /// The ordinal the model expected next.
        expected: usize,
    },
    /// The trace's `fleet-epochs` self-check disagrees with the number
    /// of epoch spans actually present.
    EpochCountMismatch {
        /// Value of the `fleet-epochs` point.
        declared: u64,
        /// Epoch spans counted.
        counted: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NonSequentialEpoch { got, expected } => {
                write!(f, "epoch spans out of order: saw epoch-{got}, expected epoch-{expected}")
            }
            ModelError::EpochCountMismatch { declared, counted } => {
                write!(f, "fleet-epochs declares {declared} epochs, trace contains {counted}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Per-job raw event collections gathered in one pass.
#[derive(Default)]
struct JobEvents {
    id: String,
    ran: Vec<(usize, u64)>,
    /// `(first_effective_epoch, suspended?)`, in record order.
    susp: Vec<(usize, bool)>,
    finish: Option<(usize, u64)>,
    cut: bool,
    cut_seq: Option<u64>,
}

/// What an open span is, for the model's parsing stack.
enum OpenSpan {
    Epoch,
    /// Index into the job table; the job's pending `ran` entry takes its
    /// weight from the matching exit.
    Job(usize),
    Other,
}

impl FleetModel {
    /// Rebuilds the fleet model from decoded records. Records that are
    /// not part of the fleet vocabulary (admission verdicts, ledger
    /// pool moves, scheduler `quantum-*` points) are ignored, so the
    /// model of a flat scheduler trace is simply empty of epochs.
    pub fn from_records(records: &[TraceRecord]) -> Result<FleetModel, ModelError> {
        let mut epochs = 0usize;
        let mut current: Option<usize> = None;
        let mut stack: Vec<OpenSpan> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        let mut events: Vec<JobEvents> = Vec::new();
        let mut gossip = Vec::new();
        let mut declared: Option<u64> = None;

        fn job(
            index: &mut BTreeMap<String, usize>,
            events: &mut Vec<JobEvents>,
            id: &str,
        ) -> usize {
            *index.entry(id.to_string()).or_insert_with(|| {
                events.push(JobEvents { id: id.to_string(), ..JobEvents::default() });
                events.len() - 1
            })
        }
        // Barrier events at epoch `e` take effect from epoch `e + 1`;
        // pre-epoch events (no open epoch span) from epoch 0.
        let effective = |current: Option<usize>| current.map_or(0, |e| e + 1);

        for r in records {
            match r {
                TraceRecord::Enter { name, .. } => {
                    if let Some(Ok(n)) = name.strip_prefix("epoch-").map(|n| n.parse::<usize>()) {
                        if n != epochs {
                            return Err(ModelError::NonSequentialEpoch {
                                got: n,
                                expected: epochs,
                            });
                        }
                        current = Some(n);
                        epochs += 1;
                        stack.push(OpenSpan::Epoch);
                    } else if let (Some(id), Some(e)) = (name.strip_prefix("job-"), current) {
                        // The step weight arrives on the matching exit;
                        // record the lane now so 0-cost spans still
                        // register the job.
                        let j = job(&mut index, &mut events, id);
                        events[j].ran.push((e, 0));
                        stack.push(OpenSpan::Job(j));
                    } else {
                        stack.push(OpenSpan::Other);
                    }
                }
                TraceRecord::Exit { cost, .. } => match stack.pop() {
                    Some(OpenSpan::Epoch) => current = None,
                    Some(OpenSpan::Job(j)) => {
                        if let Some(last) = events[j].ran.last_mut() {
                            last.1 = *cost;
                        }
                    }
                    Some(OpenSpan::Other) | None => {}
                },
                TraceRecord::Point { seq, name, value, .. } => {
                    if let Some(id) = name.strip_prefix("suspend-") {
                        let j = job(&mut index, &mut events, id);
                        events[j].susp.push((effective(current), true));
                    } else if let Some(id) = name.strip_prefix("resume-") {
                        let j = job(&mut index, &mut events, id);
                        events[j].susp.push((effective(current), false));
                    } else if let Some(id) = name.strip_prefix("finish-") {
                        let j = job(&mut index, &mut events, id);
                        if events[j].finish.is_none() {
                            events[j].finish = Some((current.unwrap_or(0), *seq));
                        }
                    } else if let Some(id) = name.strip_prefix("cut-") {
                        let j = job(&mut index, &mut events, id);
                        events[j].cut = true;
                        events[j].cut_seq = Some(*seq);
                    } else if name == "fleet-epochs" {
                        declared = Some(*value);
                    }
                }
                TraceRecord::Gossip { from, to, count, .. } => {
                    gossip.push(GossipEdge {
                        epoch: current,
                        from: from.clone(),
                        to: to.clone(),
                        count: *count,
                    });
                }
            }
        }

        if let Some(d) = declared {
            if d as usize != epochs {
                return Err(ModelError::EpochCountMismatch { declared: d, counted: epochs });
            }
        }

        let jobs = events
            .into_iter()
            .map(|j| {
                let id = j.id.clone();
                let mut states = Vec::with_capacity(epochs);
                let mut total = 0u64;
                let ran: BTreeMap<usize, u64> = j.ran.iter().copied().collect();
                for e in 0..epochs {
                    let suspended =
                        j.susp.iter().rfind(|&&(from, _)| from <= e).is_some_and(|&(_, s)| s);
                    let state = if let Some(&steps) = ran.get(&e) {
                        total += steps;
                        EpochState::Ran(steps)
                    } else if j.finish.is_some_and(|(f, _)| e > f) {
                        EpochState::Done
                    } else if suspended {
                        EpochState::Suspended
                    } else if j.finish.is_some_and(|(f, _)| e >= f) {
                        // Finished at a barrier without stepping this
                        // epoch (warm-started past its budget).
                        EpochState::Done
                    } else {
                        EpochState::Starved
                    };
                    states.push(state);
                }
                let end_seq = j.finish.map(|(_, s)| s).or(j.cut_seq).unwrap_or(u64::MAX);
                JobLane {
                    id,
                    states,
                    finish_epoch: j.finish.map(|(f, _)| f),
                    cut: j.cut,
                    total_steps: total,
                    end_seq,
                }
            })
            .collect();
        Ok(FleetModel { epochs, jobs, gossip })
    }

    /// The epoch a job's lane ends at: its finish epoch, or the final
    /// epoch for cut/open jobs.
    fn end_epoch(&self, lane: &JobLane) -> usize {
        lane.finish_epoch.unwrap_or_else(|| self.epochs.saturating_sub(1))
    }
}

/// Phase attribution of one critical-path segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The critical job was stepping.
    Service,
    /// Runnable but granted nothing.
    QueueWait,
    /// Suspended on an exhausted budget slice (no releaser to blame).
    BudgetStall,
}

impl Phase {
    /// The phase's rendered name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Service => "service",
            Phase::QueueWait => "queue-wait",
            Phase::BudgetStall => "budget-stall",
        }
    }
}

/// One maximal run of consecutive epochs attributed to the same job and
/// phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// Job id.
    pub job: String,
    /// First epoch of the segment (inclusive).
    pub start: usize,
    /// Last epoch of the segment (inclusive).
    pub end: usize,
    /// Attribution.
    pub phase: Phase,
    /// Steps taken over the segment (service segments only).
    pub steps: u64,
}

/// The extracted critical path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Total virtual epochs — covers every epoch exactly once, so it
    /// equals the fleet's epoch count (the virtual-time makespan).
    pub epochs: usize,
    /// The last job to finish (the chain's terminal).
    pub terminal: String,
    /// Segments in increasing epoch order.
    pub segments: Vec<PathSegment>,
    /// Responses jobs on the path adopted through gossip.
    pub adopted_into_path: u64,
}

impl CriticalPath {
    /// Epochs attributed to `phase` across the path.
    pub fn phase_epochs(&self, phase: Phase) -> usize {
        self.segments.iter().filter(|s| s.phase == phase).map(|s| s.end - s.start + 1).sum()
    }

    /// Steps taken on service segments.
    pub fn service_steps(&self) -> u64 {
        self.segments.iter().map(|s| s.steps).sum()
    }
}

/// Walks the model backward from the last finisher to epoch 0, jumping
/// to budget releasers at resume barriers. Returns `None` for a model
/// with no epochs (flat scheduler traces — see [`flat_fallback`]).
pub fn critical_path(model: &FleetModel) -> Option<CriticalPath> {
    if model.epochs == 0 || model.jobs.is_empty() {
        return None;
    }
    // Terminal: maximal end epoch, then latest finish/cut ordinal, then
    // lexicographic id — a total order, so the choice is deterministic.
    let terminal = model
        .jobs
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            (model.end_epoch(a), a.end_seq, &a.id).cmp(&(model.end_epoch(b), b.end_seq, &b.id))
        })
        .map(|(i, _)| i)?;

    let mut per_epoch: Vec<(usize, Phase, u64)> = Vec::with_capacity(model.epochs);
    // (job, epoch) pairs the walk has jumped away from. The next step
    // depends only on that pair, so a pair seen twice is a cycle of
    // releasers (jobs suspended and finished at the same barrier) that
    // would never end: it is attributed as a stall instead.
    let mut jumped_from: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut cur = terminal;
    let mut e = model.end_epoch(&model.jobs[terminal]) as isize;
    while e >= 0 {
        let eu = e as usize;
        let lane = &model.jobs[cur];
        match lane.states.get(eu).copied().unwrap_or(EpochState::Done) {
            EpochState::Ran(steps) => {
                per_epoch.push((cur, Phase::Service, steps));
                e -= 1;
            }
            EpochState::Starved => {
                per_epoch.push((cur, Phase::QueueWait, 0));
                e -= 1;
            }
            EpochState::Done => {
                // Reachable only on a malformed lane; treat as service
                // of zero weight rather than looping.
                per_epoch.push((cur, Phase::Service, 0));
                e -= 1;
            }
            EpochState::Suspended => {
                // Did the stall end at this barrier (the job runs — or
                // is anything but suspended — next epoch)?
                let resumed_here =
                    lane.states.get(eu + 1).is_some_and(|s| !matches!(s, EpochState::Suspended));
                let releaser = if resumed_here {
                    model
                        .jobs
                        .iter()
                        .enumerate()
                        .filter(|(i, j)| *i != cur && j.finish_epoch == Some(eu))
                        .max_by_key(|(_, j)| j.end_seq)
                        .map(|(i, _)| i)
                } else {
                    None
                };
                match releaser {
                    // Re-evaluate epoch `eu` as the releaser.
                    Some(r) if jumped_from.insert((cur, eu)) => cur = r,
                    _ => {
                        per_epoch.push((cur, Phase::BudgetStall, 0));
                        e -= 1;
                    }
                }
            }
        }
    }
    per_epoch.reverse();

    // Compress consecutive (job, phase) runs into segments.
    let mut segments: Vec<PathSegment> = Vec::new();
    for (epoch, &(job, phase, steps)) in per_epoch.iter().enumerate() {
        match segments.last_mut() {
            Some(s) if s.phase == phase && s.end + 1 == epoch && model.jobs[job].id == s.job => {
                s.end = epoch;
                s.steps += steps;
            }
            _ => segments.push(PathSegment {
                job: model.jobs[job].id.clone(),
                start: epoch,
                end: epoch,
                phase,
                steps,
            }),
        }
    }

    let on_path: Vec<String> = segments.iter().map(|s| format!("job-{}", s.job)).collect();
    let adopted_into_path =
        model.gossip.iter().filter(|g| on_path.contains(&g.to)).map(|g| g.count).sum();

    Some(CriticalPath {
        epochs: per_epoch.len(),
        terminal: model.jobs[terminal].id.clone(),
        segments,
        adopted_into_path,
    })
}

/// Fallback for flat (non-fleet) traces: the heaviest span is the whole
/// path. Returns `(name, weight)` of the costliest exit, outermost name
/// winning ties via first appearance.
pub fn flat_fallback(records: &[TraceRecord]) -> Option<(String, u64)> {
    let mut open: Vec<&str> = Vec::new();
    let mut best: Option<(String, u64)> = None;
    for r in records {
        match r {
            TraceRecord::Enter { name, .. } => open.push(name),
            TraceRecord::Exit { cost, .. } => {
                if let Some(name) = open.pop() {
                    if best.as_ref().map_or(true, |(_, w)| *cost > *w) {
                        best = Some((name.to_string(), *cost));
                    }
                }
            }
            _ => {}
        }
    }
    best
}

/// Renders the path as the deterministic line-oriented report
/// `mto-trace critpath` prints.
pub fn render(path: &CriticalPath) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "# critical path (virtual time: 1 epoch = 1 second)").expect("string write");
    writeln!(out, "makespan-epochs {}", path.epochs).expect("string write");
    writeln!(out, "terminal-job {}", path.terminal).expect("string write");
    for s in &path.segments {
        write!(out, "path job={} epochs={}..{} phase={}", s.job, s.start, s.end, s.phase.name())
            .expect("string write");
        if s.phase == Phase::Service {
            write!(out, " steps={}", s.steps).expect("string write");
        }
        out.push('\n');
    }
    writeln!(
        out,
        "attribution service-epochs={} queue-wait-epochs={} budget-stall-epochs={} service-steps={}",
        path.phase_epochs(Phase::Service),
        path.phase_epochs(Phase::QueueWait),
        path.phase_epochs(Phase::BudgetStall),
        path.service_steps(),
    )
    .expect("string write");
    writeln!(out, "gossip-adopted-into-path {}", path.adopted_into_path).expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    /// A hand-built three-epoch budgeted fleet: `a` runs and finishes at
    /// epoch 1 releasing budget; `b` stalls suspended through epochs
    /// 0–1, resumes at barrier 1, and finishes at epoch 2.
    fn stall_and_release() -> TraceSink {
        let mut sink = TraceSink::new();
        sink.point(0, "ledger-split", 100);
        sink.point(0, "suspend-b", 10);
        sink.enter(0, "epoch-0");
        sink.enter(0, "job-a");
        sink.exit(0, 40);
        sink.exit(0, 0);
        sink.enter(1_000_000, "epoch-1");
        sink.enter(1_000_000, "job-a");
        sink.exit(1_000_000, 20);
        sink.point(1_000_000, "finish-a", 60);
        sink.point(1_000_000, "ledger-reclaimed", 30);
        sink.point(1_000_000, "ledger-granted", 30);
        sink.point(1_000_000, "resume-b", 30);
        sink.exit(1_000_000, 0);
        sink.enter(2_000_000, "epoch-2");
        sink.enter(2_000_000, "job-b");
        sink.exit(2_000_000, 25);
        sink.point(2_000_000, "finish-b", 25);
        sink.gossip(2_000_000, "job-a", "job-b", 12);
        sink.exit(2_000_000, 0);
        sink.point(3_000_000, "fleet-epochs", 3);
        sink
    }

    #[test]
    fn model_reconstructs_lanes_and_barrier_effects() {
        let model = FleetModel::from_records(stall_and_release().events()).unwrap();
        assert_eq!(model.epochs, 3);
        let by_id = |id: &str| model.jobs.iter().find(|j| j.id == id).unwrap();
        let a = by_id("a");
        assert_eq!(a.states, vec![EpochState::Ran(40), EpochState::Ran(20), EpochState::Done]);
        assert_eq!(a.finish_epoch, Some(1));
        assert_eq!(a.total_steps, 60);
        let b = by_id("b");
        assert_eq!(
            b.states,
            vec![EpochState::Suspended, EpochState::Suspended, EpochState::Ran(25)],
            "suspend at t=0 holds through the resume barrier"
        );
        assert_eq!(model.gossip.len(), 1);
        assert_eq!(model.gossip[0].epoch, Some(2));
    }

    #[test]
    fn path_jumps_from_the_stalled_job_to_its_releaser() {
        let model = FleetModel::from_records(stall_and_release().events()).unwrap();
        let path = critical_path(&model).unwrap();
        assert_eq!(path.epochs, model.epochs, "the path covers every epoch exactly once");
        assert_eq!(path.terminal, "b");
        // b's suspended epochs 0..=1 are *not* idle time on the chain:
        // the releaser `a` was serving through them.
        let shape: Vec<(&str, usize, usize, Phase)> =
            path.segments.iter().map(|s| (s.job.as_str(), s.start, s.end, s.phase)).collect();
        assert_eq!(shape, vec![("a", 0, 1, Phase::Service), ("b", 2, 2, Phase::Service)],);
        assert_eq!(path.service_steps(), 85);
        assert_eq!(path.adopted_into_path, 12, "b is on the path and adopted 12 responses");
    }

    #[test]
    fn starvation_is_attributed_as_queue_wait() {
        let mut sink = TraceSink::new();
        sink.enter(0, "epoch-0");
        sink.enter(0, "job-a");
        sink.exit(0, 30);
        sink.exit(0, 0);
        // b exists (it eventually finishes last) but got no grant at 0.
        sink.enter(1_000_000, "epoch-1");
        sink.enter(1_000_000, "job-b");
        sink.exit(1_000_000, 50);
        sink.point(1_000_000, "finish-a", 30);
        sink.exit(1_000_000, 0);
        sink.enter(2_000_000, "epoch-2");
        sink.enter(2_000_000, "job-b");
        sink.exit(2_000_000, 50);
        sink.point(2_000_000, "finish-b", 100);
        sink.exit(2_000_000, 0);
        let model = FleetModel::from_records(sink.events()).unwrap();
        let path = critical_path(&model).unwrap();
        assert_eq!(path.terminal, "b");
        assert_eq!(path.phase_epochs(Phase::QueueWait), 1, "b waited out epoch 0");
        assert_eq!(path.phase_epochs(Phase::Service), 2);
        assert_eq!(path.epochs, 3);
    }

    #[test]
    fn epoch_self_check_catches_a_lying_trace() {
        let mut sink = TraceSink::new();
        sink.enter(0, "epoch-0");
        sink.exit(0, 0);
        sink.point(1_000_000, "fleet-epochs", 5);
        assert_eq!(
            FleetModel::from_records(sink.events()),
            Err(ModelError::EpochCountMismatch { declared: 5, counted: 1 })
        );
    }

    #[test]
    fn flat_traces_fall_back_to_the_heaviest_span() {
        let mut sink = TraceSink::new();
        sink.enter(0, "serve");
        sink.enter(0, "job-a");
        sink.exit(0, 10);
        sink.enter(0, "job-b");
        sink.exit(0, 90);
        sink.exit(0, 0);
        let model = FleetModel::from_records(sink.events()).unwrap();
        assert_eq!(model.epochs, 0);
        assert!(critical_path(&model).is_none());
        assert_eq!(flat_fallback(sink.events()), Some(("job-b".into(), 90)));
    }

    #[test]
    fn render_is_deterministic_and_totals_match() {
        let model = FleetModel::from_records(stall_and_release().events()).unwrap();
        let path = critical_path(&model).unwrap();
        let text = render(&path);
        assert!(text.contains("makespan-epochs 3\n"));
        assert!(text.contains("terminal-job b\n"));
        assert!(text.contains("path job=a epochs=0..1 phase=service steps=60\n"));
        assert!(text.contains(
            "attribution service-epochs=3 queue-wait-epochs=0 budget-stall-epochs=0 service-steps=85\n"
        ));
        assert_eq!(render(&path), text);
    }
}
