//! Resumable sampler sessions.
//!
//! A [`SamplerSession`] wraps one walker behind a lifecycle the service
//! layer can drive: **create → step in increments → pause → snapshot →
//! resume**. Estimation jobs stop being one-shot batch runs: the scheduler
//! interleaves many sessions, a session can be frozen to disk mid-walk and
//! continued later (in another process), and its accounting continues as
//! if it had never stopped.
//!
//! Resume is **event-sourced** (see [`MtoSampler::resume`]): a snapshot
//! stores no RNG or overlay internals, only the job spec, the step count,
//! and the [`HistoryStore`]. Restoring replays the prefix against the
//! warmed cache — zero new unique queries — and then *verifies* that the
//! replay reached exactly the snapshotted position, stats, and overlay,
//! so a snapshot applied to the wrong network is rejected instead of
//! silently producing garbage.

use std::collections::HashMap;

use mto_core::mto::{CriterionView, MtoConfig, MtoSampler, RewireStats};
use mto_core::rewire::OverlayDelta;
use mto_core::walk::{
    MetropolisHastingsWalk, MhrwConfig, RandomJumpWalk, RjConfig, SimpleRandomWalk, SrwConfig,
    Walker,
};
use mto_graph::NodeId;
use mto_osn::{SharedClient, SocialNetworkInterface};

use crate::error::{HistoryCodecError, Result, ServeError};
use crate::history::{
    bad_record, expect_header, parse_num, seal, split_keyword, verify_checksum, HistoryAccumulator,
    HistoryStore, FORMAT_VERSION, SESSION_MAGIC,
};

/// Which sampler a job runs, with its full configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlgoSpec {
    /// The MTO-Sampler (Algorithm 1).
    Mto(MtoConfig),
    /// Simple random walk baseline.
    Srw(SrwConfig),
    /// Metropolis–Hastings baseline.
    Mhrw(MhrwConfig),
    /// Random Jump baseline (requires a published user count).
    Rj(RjConfig),
}

impl AlgoSpec {
    /// Wire name of the algorithm (`mto`, `srw`, `mhrw`, `rj`).
    pub fn name(&self) -> &'static str {
        match self {
            AlgoSpec::Mto(_) => "mto",
            AlgoSpec::Srw(_) => "srw",
            AlgoSpec::Mhrw(_) => "mhrw",
            AlgoSpec::Rj(_) => "rj",
        }
    }

    /// Display name of the algorithm (`MTO`, `SRW`, `MHRW`, `RJ`): what
    /// its walker's [`Walker::name`] reports, and so the label every
    /// [`crate::scheduler::JobOutcome`] carries — including jobs that
    /// never ran.
    pub fn display_name(&self) -> &'static str {
        match self {
            AlgoSpec::Mto(_) => "MTO",
            AlgoSpec::Srw(_) => "SRW",
            AlgoSpec::Mhrw(_) => "MHRW",
            AlgoSpec::Rj(_) => "RJ",
        }
    }
}

/// One sampling job: which sampler, where it starts, how many steps it is
/// entitled to.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen identifier (no whitespace or `=`).
    pub id: String,
    /// Sampler and configuration.
    pub algo: AlgoSpec,
    /// Start node.
    pub start: NodeId,
    /// Per-job step budget.
    pub step_budget: usize,
    /// Optional completion deadline in *virtual seconds* (`deadline=`
    /// field). Deadlines drive the QoS layer: admission control flags
    /// predicted-unmeetable ones as at risk, and
    /// [`crate::scheduler::SchedulePolicy::EarliestDeadlineFirst`]
    /// prioritizes quanta by them. `None` means best-effort.
    pub deadline: Option<f64>,
    /// Optional quality SLO: the target effective sample size (`ess=`
    /// field). Requires the request's `quality` directive — the quality
    /// plane computes the streaming ESS the SLO is judged against, and
    /// the fleet's epoch planner stops granting quanta once a job's ESS
    /// reaches the target (deterministic early stop; unspent budget goes
    /// back to the ledger). `None` means run the full step budget.
    pub ess: Option<u64>,
}

impl JobSpec {
    /// Checks the id is representable in the line format and every
    /// field lies in its range: a positive finite deadline, a nonzero
    /// `ess`, and a `replace_prob` or `jump` probability in [0, 1].
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.id.is_empty() {
            return Err("job id must be non-empty".into());
        }
        if self.id.chars().any(|c| c.is_whitespace() || c == '=') {
            return Err(format!("job id {:?} contains whitespace or '='", self.id));
        }
        if let Some(d) = self.deadline {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!(
                    "job {:?} deadline {d} must be a positive number of virtual seconds",
                    self.id
                ));
            }
        }
        if self.ess == Some(0) {
            return Err(format!("job {:?} ess=0 is vacuous (already met at start)", self.id));
        }
        let (key, p) = match self.algo {
            AlgoSpec::Mto(c) => ("replace_prob", c.replace_prob),
            AlgoSpec::Rj(c) => ("jump", c.jump_probability),
            AlgoSpec::Srw(_) | AlgoSpec::Mhrw(_) => return Ok(()),
        };
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("job {:?} {key}={p} must lie in [0, 1]", self.id));
        }
        Ok(())
    }
}

/// Serializes a job spec as the single-line `key=value` form used by both
/// request files and session snapshots. Floats use Rust's shortest
/// round-trip formatting, so [`parse_job_line`] recovers them exactly.
pub fn format_job_line(spec: &JobSpec) -> String {
    let mut line = format!(
        "id={} algo={} start={} steps={}",
        spec.id,
        spec.algo.name(),
        spec.start.0,
        spec.step_budget
    );
    use std::fmt::Write;
    if let Some(d) = spec.deadline {
        write!(line, " deadline={d:?}").expect("string write");
    }
    if let Some(target) = spec.ess {
        write!(line, " ess={target}").expect("string write");
    }
    match &spec.algo {
        AlgoSpec::Mto(c) => {
            let view = match c.criterion_view {
                CriterionView::Original => "original",
                CriterionView::Overlay => "overlay",
            };
            write!(
                line,
                " seed={} removal={} replacement={} extension={} replace_prob={:?} lazy={} \
                 view={view} min_degree={}",
                c.seed,
                u8::from(c.removal),
                u8::from(c.replacement),
                u8::from(c.extension),
                c.replace_prob,
                u8::from(c.lazy),
                c.min_overlay_degree
            )
            .expect("string write");
        }
        AlgoSpec::Srw(c) => {
            write!(line, " seed={} lazy={}", c.seed, u8::from(c.lazy)).expect("string write");
        }
        AlgoSpec::Mhrw(c) => write!(line, " seed={}", c.seed).expect("string write"),
        AlgoSpec::Rj(c) => {
            write!(line, " seed={} jump={:?}", c.seed, c.jump_probability).expect("string write");
        }
    }
    line
}

/// Parses the `key=value` job line produced by [`format_job_line`] (also
/// the `job …` directive of request files). Unspecified algorithm
/// parameters take their `Default` values.
pub fn parse_job_line(line: &str) -> std::result::Result<JobSpec, String> {
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for token in line.split_whitespace() {
        let (k, v) =
            token.split_once('=').ok_or_else(|| format!("expected key=value, got {token:?}"))?;
        if fields.insert(k, v).is_some() {
            return Err(format!("duplicate field {k:?}"));
        }
    }
    let mut take = |k: &str| fields.remove(k);
    let id = take("id").ok_or("missing id=")?.to_string();
    let algo_name = take("algo").ok_or("missing algo=")?.to_string();
    let start = NodeId(parse_field(take("start").ok_or("missing start=")?, "start")?);
    let step_budget: usize = parse_field(take("steps").ok_or("missing steps=")?, "steps")?;
    let deadline: Option<f64> = match take("deadline") {
        Some(v) => Some(parse_field(v, "deadline")?),
        None => None,
    };
    let ess: Option<u64> = match take("ess") {
        Some(v) => Some(parse_field(v, "ess")?),
        None => None,
    };
    let seed: u64 = match take("seed") {
        Some(v) => parse_field(v, "seed")?,
        None => 1,
    };

    let algo = match algo_name.as_str() {
        "mto" => {
            let d = MtoConfig::default();
            AlgoSpec::Mto(MtoConfig {
                seed,
                removal: parse_flag_or(take("removal"), d.removal)?,
                replacement: parse_flag_or(take("replacement"), d.replacement)?,
                extension: parse_flag_or(take("extension"), d.extension)?,
                replace_prob: match take("replace_prob") {
                    Some(v) => parse_field(v, "replace_prob")?,
                    None => d.replace_prob,
                },
                lazy: parse_flag_or(take("lazy"), d.lazy)?,
                criterion_view: match take("view") {
                    None | Some("original") => CriterionView::Original,
                    Some("overlay") => CriterionView::Overlay,
                    Some(other) => return Err(format!("unknown criterion view {other:?}")),
                },
                min_overlay_degree: match take("min_degree") {
                    Some(v) => parse_field(v, "min_degree")?,
                    None => d.min_overlay_degree,
                },
            })
        }
        "srw" => AlgoSpec::Srw(SrwConfig {
            seed,
            lazy: parse_flag_or(take("lazy"), SrwConfig::default().lazy)?,
        }),
        "mhrw" => AlgoSpec::Mhrw(MhrwConfig { seed }),
        "rj" => AlgoSpec::Rj(RjConfig {
            seed,
            jump_probability: match take("jump") {
                Some(v) => parse_field(v, "jump")?,
                None => RjConfig::default().jump_probability,
            },
        }),
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    if let Some(k) = fields.keys().next() {
        return Err(format!("unknown field {k:?} for algo {algo_name}"));
    }
    let spec = JobSpec { id, algo, start, step_budget, deadline, ess };
    spec.validate()?;
    Ok(spec)
}

fn parse_field<T: std::str::FromStr>(v: &str, what: &str) -> std::result::Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad {what} {v:?}: {e}"))
}

fn parse_flag_or(v: Option<&str>, default: bool) -> std::result::Result<bool, String> {
    match v {
        None => Ok(default),
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("bad flag {other:?} (use 0 or 1)")),
    }
}

/// The concrete walker a session drives — an enum (not `Box<dyn Walker>`)
/// so the session can reach algorithm-specific state: the MTO overlay for
/// snapshots and the rewiring counters for aggregation.
pub enum SessionWalker<I: SocialNetworkInterface> {
    /// MTO-Sampler. Boxed: the sampler carries its scratch buffers
    /// inline, dwarfing the other variants.
    Mto(Box<MtoSampler<SharedClient<I>>>),
    /// Simple random walk.
    Srw(SimpleRandomWalk<SharedClient<I>>),
    /// Metropolis–Hastings.
    Mhrw(MetropolisHastingsWalk<SharedClient<I>>),
    /// Random Jump.
    Rj(RandomJumpWalk<SharedClient<I>>),
}

impl<I: SocialNetworkInterface> SessionWalker<I> {
    fn build(client: SharedClient<I>, spec: &JobSpec) -> Result<Self> {
        Ok(match spec.algo {
            AlgoSpec::Mto(cfg) => {
                SessionWalker::Mto(Box::new(MtoSampler::new(client, spec.start, cfg)?))
            }
            AlgoSpec::Srw(cfg) => {
                SessionWalker::Srw(SimpleRandomWalk::new(client, spec.start, cfg)?)
            }
            AlgoSpec::Mhrw(cfg) => {
                SessionWalker::Mhrw(MetropolisHastingsWalk::new(client, spec.start, cfg)?)
            }
            AlgoSpec::Rj(cfg) => SessionWalker::Rj(RandomJumpWalk::new(client, spec.start, cfg)?),
        })
    }

    /// Rewiring counters, for samplers that rewire.
    pub fn rewire_stats(&self) -> Option<RewireStats> {
        match self {
            SessionWalker::Mto(s) => Some(s.stats()),
            _ => None,
        }
    }

    /// The overlay delta, for samplers that maintain one.
    pub fn overlay(&self) -> Option<&OverlayDelta> {
        match self {
            SessionWalker::Mto(s) => Some(s.overlay()),
            _ => None,
        }
    }

    /// Theorem-3 criterion-scan telemetry, for samplers that rewire.
    pub fn scan_probe(&self) -> Option<mto_core::mto::ScanProbe> {
        match self {
            SessionWalker::Mto(s) => Some(s.probe()),
            _ => None,
        }
    }

    /// `(proposals, rejections)` for Metropolis–Hastings walkers.
    pub fn mh_counters(&self) -> Option<(u64, u64)> {
        match self {
            SessionWalker::Mhrw(w) => Some((w.proposals(), w.rejections())),
            _ => None,
        }
    }
}

impl<I: SocialNetworkInterface> Walker for SessionWalker<I> {
    fn name(&self) -> &'static str {
        match self {
            SessionWalker::Mto(w) => w.name(),
            SessionWalker::Srw(w) => w.name(),
            SessionWalker::Mhrw(w) => w.name(),
            SessionWalker::Rj(w) => w.name(),
        }
    }

    fn current(&self) -> NodeId {
        match self {
            SessionWalker::Mto(w) => w.current(),
            SessionWalker::Srw(w) => w.current(),
            SessionWalker::Mhrw(w) => w.current(),
            SessionWalker::Rj(w) => w.current(),
        }
    }

    fn step(&mut self) -> mto_osn::Result<NodeId> {
        match self {
            SessionWalker::Mto(w) => w.step(),
            SessionWalker::Srw(w) => w.step(),
            SessionWalker::Mhrw(w) => w.step(),
            SessionWalker::Rj(w) => w.step(),
        }
    }

    fn history(&self) -> &[NodeId] {
        match self {
            SessionWalker::Mto(w) => w.history(),
            SessionWalker::Srw(w) => w.history(),
            SessionWalker::Mhrw(w) => w.history(),
            SessionWalker::Rj(w) => w.history(),
        }
    }

    fn query_cost(&self) -> u64 {
        match self {
            SessionWalker::Mto(w) => w.query_cost(),
            SessionWalker::Srw(w) => w.query_cost(),
            SessionWalker::Mhrw(w) => w.query_cost(),
            SessionWalker::Rj(w) => w.query_cost(),
        }
    }

    fn importance_weight(&mut self, v: NodeId) -> mto_osn::Result<f64> {
        match self {
            SessionWalker::Mto(w) => w.importance_weight(v),
            SessionWalker::Srw(w) => w.importance_weight(v),
            SessionWalker::Mhrw(w) => w.importance_weight(v),
            SessionWalker::Rj(w) => w.importance_weight(v),
        }
    }

    fn prefetch_candidates(&self) -> Vec<NodeId> {
        match self {
            SessionWalker::Mto(w) => w.prefetch_candidates(),
            SessionWalker::Srw(w) => w.prefetch_candidates(),
            SessionWalker::Mhrw(w) => w.prefetch_candidates(),
            SessionWalker::Rj(w) => w.prefetch_candidates(),
        }
    }
}

/// Where a session is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Stepping when asked to.
    Running,
    /// Frozen by [`SamplerSession::pause`]; `advance` is a no-op.
    Paused,
    /// The step budget is spent.
    Completed,
}

/// A resumable sampling session over a shared client.
pub struct SamplerSession<I: SocialNetworkInterface> {
    spec: JobSpec,
    client: SharedClient<I>,
    walker: SessionWalker<I>,
    steps_taken: usize,
    state: SessionState,
    meta: Vec<(String, String)>,
}

impl<I: SocialNetworkInterface> SamplerSession<I> {
    /// Creates a session (the start node is queried immediately, as for
    /// any walker).
    pub fn create(client: SharedClient<I>, spec: JobSpec) -> Result<Self> {
        spec.validate().map_err(|message| ServeError::Request { line: 0, message })?;
        let walker = SessionWalker::build(client.clone(), &spec)?;
        let state =
            if spec.step_budget == 0 { SessionState::Completed } else { SessionState::Running };
        Ok(SamplerSession { spec, client, walker, steps_taken: 0, state, meta: Vec::new() })
    }

    /// The job this session runs.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Steps taken so far (excluding the seed position).
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Steps left in the budget.
    pub fn steps_remaining(&self) -> usize {
        self.spec.step_budget - self.steps_taken
    }

    /// The wrapped walker.
    pub fn walker(&self) -> &SessionWalker<I> {
        &self.walker
    }

    /// Handle to the (shared) client this session charges.
    pub fn client(&self) -> &SharedClient<I> {
        &self.client
    }

    /// Unique queries charged to the shared client so far.
    pub fn unique_queries(&self) -> u64 {
        self.walker.query_cost()
    }

    /// Attaches a key/value pair carried through snapshots (e.g. which
    /// network the session ran against).
    ///
    /// # Panics
    /// Panics when the key contains whitespace or when either part
    /// contains a line break — such pairs are unrepresentable in the
    /// line-oriented snapshot format, and silently encoding them would
    /// let a value inject snapshot records.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        assert!(
            !key.is_empty() && !key.contains(char::is_whitespace),
            "meta key {key:?} must be non-empty and whitespace-free"
        );
        assert!(
            !value.contains('\n') && !value.contains('\r'),
            "meta value for {key:?} must not contain line breaks"
        );
        self.meta.retain(|(k, _)| *k != key);
        self.meta.push((key, value));
    }

    /// Snapshot metadata.
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Freezes the session: `advance` becomes a no-op until
    /// [`SamplerSession::resume_stepping`].
    pub fn pause(&mut self) {
        if self.state == SessionState::Running {
            self.state = SessionState::Paused;
        }
    }

    /// Unfreezes a paused session.
    pub fn resume_stepping(&mut self) {
        if self.state == SessionState::Paused {
            self.state = SessionState::Running;
        }
    }

    /// Advances up to `max_steps` steps (bounded by the remaining budget),
    /// returning how many were actually taken. Paused and completed
    /// sessions take none.
    pub fn advance(&mut self, max_steps: usize) -> Result<usize> {
        if self.state != SessionState::Running {
            return Ok(0);
        }
        let n = self.steps_remaining().min(max_steps);
        for _ in 0..n {
            self.walker.step()?;
        }
        self.steps_taken += n;
        if self.steps_remaining() == 0 {
            self.state = SessionState::Completed;
        }
        Ok(n)
    }

    /// Runs the rest of the budget (resuming a paused session first).
    pub fn run_to_completion(&mut self) -> Result<usize> {
        self.resume_stepping();
        self.advance(self.steps_remaining())
    }

    /// Self-normalized importance estimate of the average degree over the
    /// visited history — the standing deliverable of an estimation job.
    /// Free: every visited node is cached, and weights come from the
    /// walker's own stationary distribution.
    ///
    /// One pass over the history, read in place. Each distinct node's
    /// weight and degree are looked up once, at its first visit, into a
    /// table indexed by node id (ids are dense); the sums run in visit
    /// order, so the estimate is bit-for-bit the per-visit sum.
    pub fn average_degree_estimate(&mut self) -> Result<Option<f64>> {
        // (weight, weight × degree) per node id, filled at first visit.
        let mut memo: Vec<Option<(f64, f64)>> = Vec::new();
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for i in 0..self.walker.history().len() {
            let v = self.walker.history()[i];
            if v.index() >= memo.len() {
                memo.resize(v.index() + 1, None);
            }
            let (weight, weighted_degree) = match memo[v.index()] {
                Some(entry) => entry,
                None => {
                    let weight = self.walker.importance_weight(v)?;
                    let degree = self.client.with(|c| c.known_degree(v)).ok_or_else(|| {
                        ServeError::SnapshotMismatch(format!("visited node {v} is not cached"))
                    })?;
                    *memo[v.index()].insert((weight, weight * degree as f64))
                }
            };
            num += weighted_degree;
            den += weight;
        }
        Ok((den > 0.0).then(|| num / den))
    }

    /// Captures the session as a portable snapshot: job spec, step count,
    /// position, stats, metadata, and the full history store.
    pub fn snapshot(&self) -> SessionSnapshot {
        let history = self.client.with(|c| HistoryStore::from_parts(c, self.walker.overlay()));
        SessionSnapshot {
            spec: self.spec.clone(),
            steps_taken: self.steps_taken,
            current: self.walker.current(),
            stats: self.walker.rewire_stats().unwrap_or_default(),
            meta: self.meta.clone(),
            history,
        }
    }

    /// Restores a snapshotted session against `client` (wrapping the same
    /// network): imports the history store (cache **and** counters),
    /// replays the walked prefix — all cache hits, zero new unique
    /// queries — and verifies the replay reached exactly the snapshotted
    /// position, stats, and overlay.
    pub fn restore(client: SharedClient<I>, snapshot: &SessionSnapshot) -> Result<Self> {
        // First line of defense against restoring onto the wrong network:
        // the imported cache shadows the provider during replay, so replay
        // divergence alone cannot catch a swapped backend. The recorded
        // user count (and id-space bounds) can.
        snapshot
            .history
            .validate_against(client.with(|c| c.num_users_hint()))
            .map_err(ServeError::SnapshotMismatch)?;
        client.with(|c| c.import_entries(&snapshot.history.cache));
        let mut session = Self::create(client, snapshot.spec.clone())?;
        session.meta = snapshot.meta.clone();
        for _ in 0..snapshot.steps_taken {
            session.walker.step()?;
        }
        session.steps_taken = snapshot.steps_taken;
        if session.steps_remaining() == 0 {
            session.state = SessionState::Completed;
        }
        // Counters are restored *after* the replay so the free cache hits
        // of the prefix (and the creation fetch) are not double-counted:
        // the resumed session accounts exactly as if it had never stopped.
        session.client.with(|c| c.restore_counters(&snapshot.history.cache));

        if session.walker.current() != snapshot.current {
            return Err(ServeError::SnapshotMismatch(format!(
                "replay ended at {}, snapshot says {} — wrong network or tampered snapshot",
                session.walker.current(),
                snapshot.current
            )));
        }
        let stats = session.walker.rewire_stats().unwrap_or_default();
        if stats != snapshot.stats {
            return Err(ServeError::SnapshotMismatch(format!(
                "replayed rewire stats {stats:?} disagree with snapshot {:?}",
                snapshot.stats
            )));
        }
        if let Some(delta) = session.walker.overlay() {
            if *delta != snapshot.history.overlay_delta() {
                return Err(ServeError::SnapshotMismatch(
                    "replayed overlay delta disagrees with snapshot".into(),
                ));
            }
        }
        Ok(session)
    }
}

/// Cursor-based extractor of the quality plane's sample series: the
/// **degree of every visited node**, in visit order. Degree is the
/// paper's own convergence indicator ("applies to every graph"), and it
/// is a pure function of the walk — every visited node is cached by the
/// walker's own queries — so the drained series is byte-identical across
/// shard counts and scheduler interleavings.
///
/// The observer batches: each [`SampleObserver::drain`] returns only the
/// suffix of the history the cursor has not seen yet, so callers can
/// feed an accumulator at quantum or epoch granularity without
/// re-walking the whole history.
#[derive(Clone, Copy, Debug, Default)]
pub struct SampleObserver {
    cursor: usize,
}

impl SampleObserver {
    /// A fresh observer (cursor at the start of the history).
    pub fn new() -> Self {
        Self::default()
    }

    /// Positions visited so far that have already been drained.
    pub fn drained(&self) -> usize {
        self.cursor
    }

    /// Drains the degrees of the nodes visited since the last drain.
    ///
    /// # Panics
    /// Panics when a visited node is not cached — impossible for any
    /// walker in this crate (stepping queries the node it stands on),
    /// so a miss means the session and client were mismatched.
    pub fn drain<I: SocialNetworkInterface>(&mut self, session: &SamplerSession<I>) -> Vec<u64> {
        let history = session.walker().history();
        let fresh = &history[self.cursor.min(history.len())..];
        let samples = session.client().with(|c| {
            fresh
                .iter()
                .map(|&v| {
                    c.known_degree(v).unwrap_or_else(|| {
                        panic!("visited node {v} is not cached — session/client mismatch")
                    }) as u64
                })
                .collect()
        });
        self.cursor = history.len();
        samples
    }
}

/// A frozen session: everything needed to continue it later, in another
/// process, against a fresh instance of the same network.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// The job being run.
    pub spec: JobSpec,
    /// Steps taken when the snapshot was cut.
    pub steps_taken: usize,
    /// Position when the snapshot was cut (verified on restore).
    pub current: NodeId,
    /// Rewiring counters when the snapshot was cut (verified on restore).
    /// The network's published user count travels inside
    /// [`HistoryStore::num_users`] and is verified on restore.
    pub stats: RewireStats,
    /// Caller metadata (e.g. the network spec), carried verbatim.
    pub meta: Vec<(String, String)>,
    /// The persistent crawl history.
    pub history: HistoryStore,
}

impl SessionSnapshot {
    /// Serializes to the versioned session file format.
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut body = format!("{SESSION_MAGIC} v{FORMAT_VERSION}\n");
        for (k, v) in &self.meta {
            writeln!(body, "meta {k} {v}").expect("string write");
        }
        writeln!(body, "job {}", format_job_line(&self.spec)).expect("string write");
        writeln!(body, "steps {}", self.steps_taken).expect("string write");
        writeln!(body, "current {}", self.current.0).expect("string write");
        writeln!(
            body,
            "stats {} {} {}",
            self.stats.removals, self.stats.replacements, self.stats.replacement_rejections
        )
        .expect("string write");
        crate::history::write_history_body(&self.history, &mut body);
        seal(body)
    }

    /// Parses the session file format. Malformed input — truncated,
    /// corrupted, or from a different format version — yields a clean
    /// [`HistoryCodecError`].
    pub fn decode(text: &str) -> std::result::Result<Self, HistoryCodecError> {
        let body = verify_checksum(text)?;
        let mut lines = body.lines().enumerate();
        expect_header(lines.next(), SESSION_MAGIC)?;
        let mut acc = HistoryAccumulator::default();
        let mut meta = Vec::new();
        let mut spec: Option<JobSpec> = None;
        let mut steps_taken = None;
        let mut current = None;
        let mut stats = None;
        for (idx, line) in lines {
            let lineno = idx + 1;
            let (keyword, rest) = split_keyword(line, lineno)?;
            match keyword {
                "meta" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(|| {
                        bad_record(lineno, "meta needs `meta <key> <value>`".to_string())
                    })?;
                    meta.push((k.to_string(), v.to_string()));
                }
                "job" => {
                    if spec.is_some() {
                        return Err(bad_record(lineno, "duplicate job record"));
                    }
                    spec = Some(parse_job_line(rest).map_err(|e| bad_record(lineno, e))?);
                }
                "steps" => steps_taken = Some(parse_num(rest, "step count", lineno)?),
                "current" => current = Some(NodeId(parse_num(rest, "node id", lineno)?)),
                "stats" => {
                    let parts: Vec<&str> = rest.split(' ').collect();
                    if parts.len() != 3 {
                        return Err(bad_record(lineno, "stats needs three counters"));
                    }
                    stats = Some(RewireStats {
                        removals: parse_num(parts[0], "removals", lineno)?,
                        replacements: parse_num(parts[1], "replacements", lineno)?,
                        replacement_rejections: parse_num(parts[2], "rejections", lineno)?,
                    });
                }
                _ => {
                    if !acc.consume(keyword, rest, lineno)? {
                        return Err(bad_record(
                            lineno,
                            format!("unknown record keyword {keyword:?}"),
                        ));
                    }
                }
            }
        }
        let spec = spec.ok_or_else(|| bad_record(0, "missing job record"))?;
        let steps_taken = steps_taken.ok_or_else(|| bad_record(0, "missing steps record"))?;
        if steps_taken > spec.step_budget {
            return Err(bad_record(0, "steps taken exceed the job budget"));
        }
        Ok(SessionSnapshot {
            spec,
            steps_taken,
            current: current.ok_or_else(|| bad_record(0, "missing current record"))?,
            stats: stats.unwrap_or_default(),
            meta,
            history: acc.finish(),
        })
    }

    /// Writes the encoded snapshot to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads and decodes a snapshot from `path`.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::decode(&text)?)
    }

    /// Looks up a metadata value.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::paper_barbell;
    use mto_osn::{CachedClient, OsnService, QueryClient};

    fn shared_client() -> SharedClient<OsnService> {
        SharedClient::new(CachedClient::new(OsnService::with_defaults(&paper_barbell())))
    }

    fn mto_job(id: &str, steps: usize, seed: u64) -> JobSpec {
        JobSpec {
            id: id.into(),
            algo: AlgoSpec::Mto(MtoConfig { seed, ..Default::default() }),
            start: NodeId(0),
            step_budget: steps,
            deadline: None,
            ess: None,
        }
    }

    #[test]
    fn display_names_are_the_walker_names() {
        for algo in [
            AlgoSpec::Mto(MtoConfig::default()),
            AlgoSpec::Srw(SrwConfig::default()),
            AlgoSpec::Mhrw(MhrwConfig::default()),
            AlgoSpec::Rj(RjConfig::default()),
        ] {
            let spec = JobSpec { algo, ..mto_job("a", 1, 1) };
            let session = SamplerSession::create(shared_client(), spec).unwrap();
            assert_eq!(algo.display_name(), session.walker().name());
        }
    }

    #[test]
    fn session_lifecycle_create_step_pause_complete() {
        let mut s = SamplerSession::create(shared_client(), mto_job("a", 100, 3)).unwrap();
        assert_eq!(s.state(), SessionState::Running);
        assert_eq!(s.advance(30).unwrap(), 30);
        s.pause();
        assert_eq!(s.advance(30).unwrap(), 0, "paused sessions do not step");
        s.resume_stepping();
        assert_eq!(s.advance(1000).unwrap(), 70, "clamped to the budget");
        assert_eq!(s.state(), SessionState::Completed);
        assert_eq!(s.advance(10).unwrap(), 0);
        assert_eq!(s.walker().history().len(), 101);
    }

    #[test]
    fn zero_budget_session_is_born_completed() {
        let s = SamplerSession::create(shared_client(), mto_job("z", 0, 1)).unwrap();
        assert_eq!(s.state(), SessionState::Completed);
    }

    #[test]
    fn job_line_round_trips_for_every_algorithm() {
        let specs = vec![
            mto_job("m", 500, 9),
            JobSpec {
                id: "m2".into(),
                algo: AlgoSpec::Mto(MtoConfig {
                    seed: 3,
                    removal: false,
                    replace_prob: 0.125,
                    criterion_view: CriterionView::Overlay,
                    min_overlay_degree: 5,
                    ..Default::default()
                }),
                start: NodeId(7),
                step_budget: 10,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "s".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 4, lazy: true }),
                start: NodeId(1),
                step_budget: 20,
                deadline: Some(12.5),
                ess: Some(250),
            },
            JobSpec {
                id: "h".into(),
                algo: AlgoSpec::Mhrw(MhrwConfig { seed: 5 }),
                start: NodeId(2),
                step_budget: 30,
                deadline: Some(0.125),
                ess: None,
            },
            JobSpec {
                id: "r".into(),
                algo: AlgoSpec::Rj(RjConfig { seed: 6, jump_probability: 0.25 }),
                start: NodeId(3),
                step_budget: 40,
                deadline: None,
                ess: None,
            },
        ];
        for spec in specs {
            let line = format_job_line(&spec);
            assert_eq!(parse_job_line(&line).unwrap(), spec, "line {line:?}");
        }
    }

    #[test]
    fn job_line_rejects_malformed_input() {
        for bad in [
            "",
            "id=a",
            "id=a algo=warp start=0 steps=1",
            "id=a algo=mto start=0 steps=1 bogus=1",
            "id=a algo=mto start=x steps=1",
            "id=a algo=mto start=0 steps=1 lazy=maybe",
            "id=a id=b algo=mto start=0 steps=1",
            "id=a algo=mto start=0 steps=1 deadline=soon",
            "id=a algo=mto start=0 steps=1 deadline=-4.0",
            "id=a algo=mto start=0 steps=1 deadline=0",
            "id=a algo=mto start=0 steps=1 deadline=inf",
            "id=a algo=mto start=0 steps=1 ess=0",
            "id=a algo=mto start=0 steps=1 ess=-3",
            "id=a algo=mto start=0 steps=1 ess=soon",
        ] {
            assert!(parse_job_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sample_observer_drains_the_degree_series_in_batches() {
        let mut s = SamplerSession::create(shared_client(), mto_job("q", 200, 3)).unwrap();
        let mut obs = SampleObserver::new();
        let first = obs.drain(&s);
        assert_eq!(first.len(), 1, "the seed position is a sample too");
        s.advance(80).unwrap();
        let mid = obs.drain(&s);
        assert_eq!(mid.len(), 80);
        assert!(obs.drain(&s).is_empty(), "nothing new since the cursor");
        s.run_to_completion().unwrap();
        let rest = obs.drain(&s);
        assert_eq!(obs.drained(), 201);

        // Batched drains see exactly the full-history degree series.
        let all: Vec<u64> = [first, mid, rest].concat();
        let whole: Vec<u64> = s.client().with(|c| {
            s.walker().history().iter().map(|&v| c.known_degree(v).unwrap() as u64).collect()
        });
        assert_eq!(all, whole);
    }

    #[test]
    fn snapshot_encode_decode_round_trips() {
        let mut s = SamplerSession::create(shared_client(), mto_job("snap", 300, 11)).unwrap();
        s.advance(120).unwrap();
        s.set_meta("network", "barbell");
        let snap = s.snapshot();
        let decoded = SessionSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.meta_value("network"), Some("barbell"));
    }

    #[test]
    fn restore_replays_to_the_snapshotted_state() {
        let mut original = SamplerSession::create(shared_client(), mto_job("r", 400, 17)).unwrap();
        original.advance(150).unwrap();
        let snap = original.snapshot();
        let unique_at_snap = original.unique_queries();

        let restored = SamplerSession::restore(shared_client(), &snap).unwrap();
        assert_eq!(restored.steps_taken(), 150);
        assert_eq!(restored.unique_queries(), unique_at_snap, "replay is free");
        assert_eq!(restored.walker().history(), original.walker().history());
        assert_eq!(restored.walker().rewire_stats(), original.walker().rewire_stats());
        // Counter fidelity: the replayed prefix's lookups are not
        // double-counted — the resumed client accounts exactly as the
        // original did at snapshot time.
        assert_eq!(
            restored.client().with(|c| c.total_lookups()),
            snap.history.cache.total_lookups,
            "snapshot → restore must be idempotent on every counter"
        );
    }

    #[test]
    #[should_panic(expected = "line breaks")]
    fn meta_values_cannot_inject_records() {
        let mut s = SamplerSession::create(shared_client(), mto_job("m", 10, 1)).unwrap();
        s.set_meta("note", "x\nsteps 0");
    }

    #[test]
    fn restore_rejects_a_snapshot_of_a_different_network() {
        let mut s = SamplerSession::create(shared_client(), mto_job("x", 300, 23)).unwrap();
        s.advance(200).unwrap();
        let mut snap = s.snapshot();
        // Sabotage: claim the walk ended somewhere else.
        snap.current = NodeId((snap.current.0 + 1) % 22);
        let err = match SamplerSession::restore(shared_client(), &snap) {
            Err(e) => e,
            Ok(_) => panic!("restore accepted a sabotaged snapshot"),
        };
        assert!(matches!(err, ServeError::SnapshotMismatch(_)), "{err:?}");
    }

    #[test]
    fn average_degree_estimate_lands_near_truth() {
        let client = shared_client();
        let mut s = SamplerSession::create(client, mto_job("est", 4000, 5)).unwrap();
        s.run_to_completion().unwrap();
        let est = s.average_degree_estimate().unwrap().unwrap();
        let truth = 2.0 * 111.0 / 22.0;
        assert!(
            (est - truth).abs() / truth < 0.35,
            "estimate {est:.2} too far from truth {truth:.2}"
        );
    }

    /// The per-visit estimate the one-pass version replaced: a hashed
    /// weight memo and one client lock per visit, over a copy of the
    /// history. Kept as the reference the one-pass version must match.
    fn per_visit_average_degree_estimate<I: SocialNetworkInterface>(
        session: &mut SamplerSession<I>,
    ) -> Result<Option<f64>> {
        let history: Vec<NodeId> = session.walker.history().to_vec();
        let mut weight_of: HashMap<NodeId, f64> = HashMap::new();
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for v in history {
            let weight = match weight_of.entry(v) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    *e.insert(session.walker.importance_weight(v)?)
                }
            };
            let degree = session.client.with(|c| c.known_degree(v)).ok_or_else(|| {
                ServeError::SnapshotMismatch(format!("visited node {v} is not cached"))
            })?;
            num += weight * degree as f64;
            den += weight;
        }
        Ok((den > 0.0).then(|| num / den))
    }

    #[test]
    fn one_pass_estimate_matches_the_per_visit_reference() {
        use crate::request::NetworkSpec;
        use mto_core::walk::{MhrwConfig, RjConfig, SrwConfig};

        let barbell = paper_barbell();
        let gnp = NetworkSpec::Gnp { n: 400, p: 0.02, seed: 5 }.build();
        let algos = [
            AlgoSpec::Mto(MtoConfig { seed: 3, ..Default::default() }),
            AlgoSpec::Srw(SrwConfig { seed: 4, lazy: false }),
            AlgoSpec::Mhrw(MhrwConfig { seed: 5 }),
            AlgoSpec::Rj(RjConfig { seed: 6, ..Default::default() }),
        ];
        for (name, graph) in [("barbell", &barbell), ("gnp", &gnp)] {
            // A cold crawl of the graph, to warm-start a client from.
            let crawl = SharedClient::new(CachedClient::new(OsnService::with_defaults(graph)));
            let mut crawler = SamplerSession::create(crawl.clone(), mto_job("crawl", 1500, 9))
                .expect("crawl session");
            crawler.run_to_completion().unwrap();
            let store = crawl.with(|c| HistoryStore::from_client(c));

            for algo in algos {
                for warm in [false, true] {
                    // The estimate's bits and the lookups it adds, on a
                    // fresh client walked by the same job.
                    let estimate = |one_pass: bool| {
                        let service = OsnService::with_defaults(graph);
                        let client = SharedClient::new(if warm {
                            store.warm_start(service).unwrap()
                        } else {
                            CachedClient::new(service)
                        });
                        let spec = JobSpec {
                            id: "j".into(),
                            algo,
                            start: NodeId(1),
                            step_budget: 800,
                            deadline: None,
                            ess: None,
                        };
                        let mut s = SamplerSession::create(client.clone(), spec).unwrap();
                        s.run_to_completion().unwrap();
                        let before = client.with(|c| c.total_lookups());
                        let est = if one_pass {
                            s.average_degree_estimate()
                        } else {
                            per_visit_average_degree_estimate(&mut s)
                        };
                        let est = est.unwrap().expect("a walked history has an estimate");
                        (est.to_bits(), client.with(|c| c.total_lookups()) - before)
                    };
                    let (reference, one_pass) = (estimate(false), estimate(true));
                    let case = format!("{} on {name}, warm={warm}", algo.name());
                    assert_eq!(one_pass, reference, "{case}: (bits, added lookups) differ");
                    if matches!(algo, AlgoSpec::Srw(_)) {
                        assert!(reference.1 > 0, "{case}: SRW weights look degrees up");
                    }
                }
            }
        }
    }

    #[test]
    fn sessions_share_one_budget_through_one_client() {
        let client = shared_client();
        let mut a = SamplerSession::create(client.clone(), mto_job("a", 200, 1)).unwrap();
        let mut b = SamplerSession::create(client.clone(), mto_job("b", 200, 2)).unwrap();
        a.run_to_completion().unwrap();
        b.run_to_completion().unwrap();
        assert!(client.unique_queries() <= 22, "shared cache bounds cost at |V|");
        assert_eq!(a.unique_queries(), b.unique_queries(), "one shared bill");
    }
}
