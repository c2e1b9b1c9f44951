//! The fleet coordinator: shard workers in lockstep epochs, history
//! gossip at every barrier — now with a QoS brain above the shards.
//!
//! A [`crate::ShardPlan`] gives each of `W` shard workers its own slice
//! of the job list. Each shard owns a **private** [`CachedClient`] over
//! its own interface instance, its own [`QueryPipeline`] on its own
//! [`VirtualClock`] (the shard's wall-clock model: every unique query
//! the shard pays is replayed through the pipeline with up to `K` — or
//! adaptively fewer/more — requests in flight), and its sessions'
//! private overlays. Shards therefore never contend on a lock; the price
//! is that two shards can *re-pay* for the same node.
//!
//! That price is what the **epoch gossip** recovers: the coordinator
//! steps every shard through its epoch grants on
//! [`std::thread::scope`] workers, and at the barrier exchanges **deltas**
//! — the responses each shard paid for since the last barrier, read off
//! its client's paid log ([`CachedClient::paid_log`]). The deltas fold
//! into one merged delta (pairwise [`HistoryStore::merge`], keep-first,
//! conflicts counted) that every shard imports, skipping what it already
//! holds verbatim — so from the next epoch on, nobody re-pays for a node
//! any shard has already bought ("Leveraging History for Faster Sampling
//! of Online Social Networks", arXiv:1505.00079, applied *between*
//! concurrent crawlers instead of between runs). Every shard leaves a
//! barrier holding the same responses, so a barrier costs in proportion
//! to what was paid since the last one, not to the cache size.
//!
//! The **QoS layer** (`mto-qos`) decides which work deserves those
//! epochs and budgets, through three shard-invariant mechanisms:
//!
//! * **admission** — before any shard is built, every job is reviewed
//!   against its deadline and the fleet budget
//!   ([`AdmissionController`]); rejected and deferred jobs never run and
//!   report placeholder outcomes;
//! * **EDF planning** — under
//!   [`SchedulePolicy::EarliestDeadlineFirst`] each epoch's fleet-wide
//!   step capacity is dealt out earliest-deadline-first with aging
//!   ([`mto_qos::plan_epoch`]), so urgent jobs finish in earlier epochs
//!   (at earlier virtual times) while the fair policies keep the
//!   historical lockstep grants;
//! * **the budget ledger** — `fleet_budget` is split per job at
//!   admission, spent against each job's *unique demand* (distinct
//!   nodes its own walk requested — a pure function of the walk, no
//!   matter which shard runs it), and rebalanced at every barrier
//!   (releases to the pool, proportional grants to dry jobs). A job
//!   whose slice runs dry suspends until a rebalance refills it, or is
//!   cut (`completed = false`) when the pool cannot.
//!
//! **Determinism contract.** Walkers are pure functions of
//! `(config, responses)` and responses are pure functions of the
//! network; admission, planning, and the ledger are pure functions of
//! job-local state. So per-job results — walks, estimates, rewire
//! stats, budget cut points — are bit-identical regardless of shard
//! count, worker interleaving, and gossip merge order; `W = 1`
//! reproduces the single-client
//! [`mto_serve::scheduler::JobScheduler`] outcomes exactly (under the
//! fair policies with no budget). Only the *bill* (unique queries) and
//! the *timing* (virtual seconds) depend on `W` and gossip — that is
//! the whole point of measuring them.

//!
//! **Phases.** [`FleetCoordinator::run`] is admit → build shards → per
//! epoch {plan, step, barrier: quality → settle → gossip} → finalize,
//! each a method of one private run state. Only `step` runs on shard
//! threads; every other phase — and so every trace event — runs on the
//! serial control path. The quality latch precedes settle so a converged
//! job releases its slice at the barrier that stopped it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use mto_core::mto::RewireStats;
use mto_core::walk::Walker;
use mto_graph::NodeId;
use mto_net::{Concurrency, PipelineConfig, ProviderProfile, QueryPipeline};
use mto_obs::quality::{scale_milli, QualityAccumulator};
use mto_obs::{MetricsRegistry, WallClockRegistry, WallClockScope, WallKey, WallStats};
use mto_osn::{CacheSnapshot, CachedClient, SharedClient, SocialNetworkInterface, VirtualClock};
use mto_qos::{
    plan_epoch, AdmissionController, AdmissionDecision, BudgetLedger, CostPredictor,
    DeadlinePolicy, LiveJob, PlannerConfig,
};
use mto_serve::error::{Result, ServeError};
use mto_serve::history::HistoryStore;
use mto_serve::scheduler::{finalize_session, JobOutcome, SchedulePolicy};
use mto_serve::session::{JobSpec, SampleObserver, SamplerSession, SessionState};

use crate::plan::ShardPlan;
use crate::report::{EpochReport, FleetObsData, FleetReport, LedgerSummary};

/// The order in which the shards' gossip deltas are folded into the
/// merged delta, and in which finalize builds the union store. Merge is
/// keep-first, so the order can only matter when shards *disagree* about
/// the network, breaking the factory's same-network contract. The rule then:
/// a conflict is counted once, at the barrier where two deltas disagree,
/// and every shard leaves that barrier holding the version folded first.
/// The determinism proptests run both orders to witness that honest
/// results never depend on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeOrder {
    /// Fold shard 0 first.
    #[default]
    Forward,
    /// Fold shard `W−1` first.
    Reverse,
}

/// Tuning of a [`FleetCoordinator`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetConfig {
    /// Shard workers `W` (clamped to the job count; ≥ 1).
    pub shards: usize,
    /// Steps each job takes between gossip barriers (≥ 1) — the base
    /// quantum the epoch planner deals out.
    pub epoch_quantum: usize,
    /// Whether the epoch barrier gossips history (disable to measure the
    /// isolated-shards baseline the `fleet` experiment compares against).
    pub gossip: bool,
    /// Gossip fold order (see [`MergeOrder`]).
    pub merge_order: MergeOrder,
    /// Provider preset for the per-shard pipelines (latency + quota +
    /// faults); `None` models a plain 50 ms constant-latency provider
    /// with no quota.
    pub provider: Option<ProviderProfile>,
    /// Per-shard pipeline lanes (max requests in flight).
    pub max_in_flight: usize,
    /// Fixed or adaptive in-flight control for the per-shard pipelines.
    pub concurrency: Concurrency,
    /// Base seed of the per-shard latency RNGs (shard `s` uses
    /// `seed + s`).
    pub seed: u64,
    /// How epoch step capacity is allocated among live jobs:
    /// the fair policies grant lockstep quanta (the historical
    /// behavior), [`SchedulePolicy::EarliestDeadlineFirst`] front-loads
    /// deadline jobs (see [`mto_qos::plan_epoch`]).
    pub policy: SchedulePolicy,
    /// Fleet-wide unique-query budget, split per job at admission by
    /// the [`BudgetLedger`] and rebalanced at epoch barriers. `None`
    /// runs unbudgeted.
    pub fleet_budget: Option<u64>,
    /// How admission treats predicted-unmeetable deadlines.
    pub deadline_policy: DeadlinePolicy,
    /// Collect observability: per-shard metrics registries merged at
    /// every epoch barrier, pipeline queue-wait/service-time histograms,
    /// and the deterministic `mto-trace/v2` trace. Off by default — the
    /// disabled configuration adds no work to the epoch loop.
    pub obs: bool,
    /// Collect the wall-clock telemetry plane
    /// ([`mto_obs::wallclock`]): per-epoch/per-shard service wall time,
    /// barrier-wait time, gossip-merge cost, and per-shard pipeline
    /// replay time, reported in [`FleetReport::wall`]. Independent of
    /// [`FleetConfig::obs`] and excluded from every deterministic
    /// surface — results, traces, and `metric` figures are
    /// byte-identical whether this is on or off.
    pub wall: bool,
    /// Collect the estimator-quality plane ([`mto_obs::quality`]):
    /// per-job streaming ESS, windowed Geweke z, and the cross-chain
    /// R-hat, folded from per-slot sample series (the degree of every
    /// node the walk visits — a pure function of the walk) at every
    /// epoch barrier, reported in [`FleetReport::quality`]. Jobs may
    /// additionally declare `ess=N` SLOs: the epoch planner stops
    /// granting a converged job's quanta and its remaining budget is
    /// released to the ledger at the same barrier. Off by default; the
    /// disabled configuration adds no work to the epoch loop, and a
    /// quality run without SLOs produces byte-identical results,
    /// traces, and non-quality `metric` lines to a run without it.
    pub quality: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            epoch_quantum: 64,
            gossip: true,
            merge_order: MergeOrder::Forward,
            provider: None,
            max_in_flight: 8,
            concurrency: Concurrency::Fixed,
            seed: 0xF1EE7,
            policy: SchedulePolicy::RoundRobin,
            fleet_budget: None,
            deadline_policy: DeadlinePolicy::Optimistic,
            obs: false,
            wall: false,
            quality: false,
        }
    }
}

/// The trace stamp of epoch `e`: the epoch ordinal is the finest
/// shard-invariant clock the lockstep fleet has, scaled so the timeline
/// reads as one virtual second per epoch.
fn epoch_t_us(epoch: usize) -> u64 {
    (epoch as u64).saturating_mul(1_000_000)
}

/// Stamps a trace point when the run is observed. `name` is formatted
/// only then, so an unobserved run formats nothing.
fn point(obs: &mut Option<FleetObsData>, t: u64, name: fmt::Arguments<'_>, value: u64) {
    if let Some(obs) = obs {
        obs.trace.point(t, &name.to_string(), value);
    }
}

impl FleetConfig {
    fn pipeline_config(&self, shard: usize) -> PipelineConfig {
        let base = PipelineConfig {
            max_in_flight: self.max_in_flight.max(1),
            concurrency: self.concurrency,
            seed: self.seed.wrapping_add(shard as u64),
            ..Default::default()
        };
        match self.provider {
            Some(p) => PipelineConfig {
                latency: p.latency,
                faults: p.faults,
                rate_limit: Some(p.policy),
                ..base
            },
            None => base,
        }
    }
}

/// One admitted job's session plus its QoS bookkeeping.
struct Slot<I: SocialNetworkInterface> {
    /// Index into the *submitted* job list (outcome ordering).
    orig: usize,
    /// Index into the *admitted* job list (ledger/planner accounts).
    account: usize,
    /// The shard whose client and clock serve this job.
    shard: usize,
    session: SamplerSession<I>,
    /// Distinct nodes this job's walk has visited: the ledger's
    /// shard-invariant spend and the causal trace's revisit filter
    /// (tracked only when the ledger or the causal trace is on).
    visited: HashSet<NodeId>,
    /// History prefix already folded into `visited`.
    folded: usize,
    /// Steps taken as of the end of the last barrier.
    steps_seen: usize,
    /// Consecutive epochs the planner granted this open job nothing
    /// (the input of EDF aging).
    starved: u32,
    /// Suspended by an exhausted ledger slice (resumes on re-grant).
    suspended: bool,
    /// Terminated by the budget: the pool could not refill its slice.
    cut: bool,
    /// Shard-clock time at the barrier after the job's last step.
    finished_secs: Option<f64>,
    /// Cursor into the walk history for the quality plane's sample
    /// series (tracked only when [`FleetConfig::quality`]).
    observer: SampleObserver,
    /// The job's `ess=N` SLO latched: the quality plane judged the walk
    /// converged, so the planner stops granting it quanta and the
    /// ledger treats it as finished (outcome reports `completed`).
    quality_met: bool,
}

impl<I: SocialNetworkInterface> Slot<I> {
    /// Folds newly walked history into `visited`, calling `fresh` on
    /// each first visit in walk order; returns the cumulative unique
    /// demand.
    fn fold_visits(&mut self, mut fresh: impl FnMut(NodeId)) -> u64 {
        let history = self.session.walker().history();
        for &v in &history[self.folded.min(history.len())..] {
            if self.visited.insert(v) {
                fresh(v);
            }
        }
        self.folded = history.len();
        self.visited.len() as u64
    }

    fn done(&self) -> bool {
        self.cut || self.quality_met || self.session.state() == SessionState::Completed
    }
}

/// Derives the causal cross-job adoption edges carried by the trace's
/// `gossip` records: job *B* adopted node `v` at a barrier if *B*'s walk
/// visited `v` after some job *A*'s walk had already paid for it.
///
/// The per-shard cache adoption counts gossiped at the same barrier are
/// a `W`-dependent figure (which shard paid first depends on the job
/// placement), so they live in the registry's timing plane. These edges
/// instead are a pure function of the walk histories — themselves
/// byte-identical across shard counts — folded in ascending account
/// order, so the traced edge multiset is shard-invariant and safe for
/// the byte-identity contract.
#[derive(Default)]
struct CausalGossip {
    /// First account whose walk visited each node.
    first_owner: HashMap<NodeId, usize>,
    /// Edges `(owner, adopter) → count` not yet traced.
    pending: BTreeMap<(usize, usize), u64>,
    /// Total adoptions across all barriers.
    total: u64,
}

impl CausalGossip {
    /// `adopter`'s walk visited `v` for the first time. Its own revisits
    /// never get here (the slot's `visited` set filters them), so any
    /// earlier owner is another job.
    fn visit(&mut self, adopter: usize, v: NodeId) {
        match self.first_owner.entry(v) {
            Entry::Vacant(owner) => {
                owner.insert(adopter);
            }
            Entry::Occupied(owner) => {
                *self.pending.entry((*owner.get(), adopter)).or_insert(0) += 1;
                self.total += 1;
            }
        }
    }
}

/// One shard worker: private client, private pipeline, private clock.
/// Its jobs' slots live in the run state and are lent to it per epoch.
/// Two marks into the client's paid log say what the shard bought since
/// it last replayed and since it last gossiped.
struct Shard<I: SocialNetworkInterface> {
    client: SharedClient<I>,
    pipeline: QueryPipeline<I>,
    /// Paid-log prefix already replayed through the pipeline. It starts
    /// past the start-node queries paid while sessions opened: those
    /// predate the first epoch and are never replayed.
    replayed: usize,
    /// Paid-log prefix already gossiped (starts at 0, so the first delta
    /// carries the start-node queries).
    gossiped: usize,
    /// Wall plane: this epoch's self-timed service (`Some` iff
    /// [`FleetConfig::wall`]). The shard accumulates on its own thread;
    /// the coordinator takes and keys it after the barrier, so the hot
    /// path needs no locks and no knowledge of its epoch/shard index.
    wall: Option<WallStats>,
    error: Option<ServeError>,
}

impl<I: SocialNetworkInterface> Shard<I> {
    /// Advances each of this shard's `slots` by its epoch grant, then
    /// replays the nodes this shard paid for this epoch — its paid log
    /// past `replayed`, ascending — through its pipeline: the shard's
    /// wall-clock bill for the epoch. Gossip imports never enter the paid
    /// log, so they cost no virtual time here: nobody re-pays them.
    /// `grants` is indexed by ledger account.
    fn run_epoch(&mut self, slots: Vec<&mut Slot<I>>, grants: &[usize]) {
        let timer = self.wall.is_some().then(WallClockScope::start);
        self.run_epoch_inner(slots, grants);
        if let (Some(wall), Some(timer)) = (self.wall.as_mut(), timer) {
            wall.absorb(timer.stop());
        }
    }

    fn run_epoch_inner(&mut self, slots: Vec<&mut Slot<I>>, grants: &[usize]) {
        for slot in slots {
            let steps = grants[slot.account];
            if steps == 0 {
                continue;
            }
            if let Err(e) = slot.session.advance(steps) {
                self.error = Some(e);
                return;
            }
        }
        for v in self.client.with(|c| paid_since(c, &mut self.replayed)) {
            self.pipeline.submit(v);
        }
        self.pipeline.drain();
    }
}

/// The nodes `client` paid for past `mark` in its paid log, ascending;
/// moves `mark` to the end of the log.
fn paid_since<I: SocialNetworkInterface>(
    client: &CachedClient<I>,
    mark: &mut usize,
) -> Vec<NodeId> {
    let mut fresh = client.paid_log()[*mark..].to_vec();
    *mark = client.paid_log().len();
    fresh.sort_unstable();
    fresh
}

/// The responses `client` paid for past `mark`, ascending, as a store;
/// moves `mark` to the end of the log. Past a shard's gossip mark, this
/// is its gossip delta.
fn paid_delta<I: SocialNetworkInterface>(
    client: &CachedClient<I>,
    mark: &mut usize,
) -> HistoryStore {
    let responses = paid_since(client, mark)
        .into_iter()
        .map(|v| client.cached(v).expect("a paid node is cached"))
        .collect();
    HistoryStore {
        cache: CacheSnapshot { responses, ..Default::default() },
        num_users: client.num_users_hint(),
        ..Default::default()
    }
}

/// Runs a job list as a sharded fleet (see the module docs).
pub struct FleetCoordinator<I, F> {
    factory: F,
    config: FleetConfig,
    warm_start: Option<HistoryStore>,
    _marker: std::marker::PhantomData<fn() -> I>,
}

impl<I, F> FleetCoordinator<I, F>
where
    I: SocialNetworkInterface + Send + Sync,
    F: Fn(usize) -> I,
{
    /// A coordinator whose shard `s` crawls through `factory(s)`. The
    /// factory must be deterministic — every shard must see the *same
    /// network* (instances may differ, answers may not).
    pub fn new(factory: F, config: FleetConfig) -> Self {
        FleetCoordinator { factory, config, warm_start: None, _marker: std::marker::PhantomData }
    }

    /// Warm-starts every shard from a persisted history: imported nodes
    /// are free for all shards from step one (and discount every
    /// admission-time cost prediction).
    pub fn with_warm_start(mut self, store: HistoryStore) -> Self {
        self.warm_start = Some(store);
        self
    }

    /// Runs `jobs` to completion (or to their budget slices) and reports
    /// per-epoch gossip and ledger accounting alongside the per-job
    /// outcomes.
    pub fn run(&self, jobs: Vec<JobSpec>) -> Result<FleetReport> {
        if jobs.is_empty() {
            return Ok(FleetReport { shards: 0, ..Default::default() });
        }
        let num_users = (self.factory)(0).num_users_hint();
        let mut run = FleetRun::admit(&self.config, self.warm_start.as_ref(), num_users, jobs)?;
        run.build_shards(&self.factory)?;
        while let Some(grants) = run.plan() {
            run.step(&grants)?;
            run.quality_barrier();
            let mut report = run.settle();
            run.gossip(&mut report)?;
            run.close_epoch(report);
        }
        run.finalize()
    }
}

/// One [`FleetCoordinator::run`] in flight: the state its phases share,
/// from admission to the report.
struct FleetRun<'a, I: SocialNetworkInterface> {
    config: &'a FleetConfig,
    warm_start: Option<&'a HistoryStore>,
    jobs: Vec<JobSpec>,
    decisions: Vec<AdmissionDecision>,
    /// Submitted-job index of each ledger/planner account.
    admitted: Vec<usize>,
    predictor: CostPredictor,
    planner: PlannerConfig,
    ledger: Option<BudgetLedger>,
    /// One fleet-wide quality accumulator. A job runs whole on one shard
    /// and its series is a pure function of its walk, so the fold
    /// commutes with sharding (`proptest_quality`).
    quality: Option<QualityAccumulator>,
    /// Trace and registry. Every trace event is emitted from the serial
    /// phases, stamped with epoch-ordinal virtual time, and derived from
    /// shard-invariant state only (grants, demand, ledger moves, step
    /// counts) — so encoded traces are byte-identical across shard
    /// counts. The registry additionally absorbs timing-plane figures
    /// (queue-wait/service-time histograms, gossip savings) that
    /// legitimately vary with `W`.
    obs: Option<FleetObsData>,
    /// Causal adoption edges: on iff obs and gossip are. `gossip =
    /// false` runs isolated shards, so nothing is adopted — on any `W`.
    causal: Option<CausalGossip>,
    wall: Option<WallClockRegistry>,
    shards: Vec<Shard<I>>,
    /// Every admitted job's slot, in account order.
    slots: Vec<Slot<I>>,
    /// Barriers crossed so far; `epochs.len()` is the current epoch.
    epochs: Vec<EpochReport>,
}

impl<'a, I: SocialNetworkInterface + Send + Sync> FleetRun<'a, I> {
    /// **Admit.** Validates every spec up front (rejected and deferred
    /// jobs never reach a session, which would validate on creation),
    /// reviews the jobs against their deadlines and the budget — a pure
    /// function of (jobs, history, budget), so every `W` admits the same
    /// set — splits the ledger over the admitted accounts, registers
    /// their quality chains in account order, and traces the verdicts.
    fn admit(
        config: &'a FleetConfig,
        warm_start: Option<&'a HistoryStore>,
        num_users: Option<usize>,
        jobs: Vec<JobSpec>,
    ) -> Result<Self> {
        for spec in &jobs {
            spec.validate().map_err(|message| ServeError::Request { line: 0, message })?;
        }
        let mut predictor = CostPredictor::new(num_users);
        if let Some(p) = &config.provider {
            predictor = predictor.with_provider(p);
        }
        let decisions = AdmissionController::new(config.deadline_policy).review(
            &predictor,
            &jobs,
            warm_start,
            config.fleet_budget,
        );
        let admitted: Vec<usize> =
            decisions.iter().filter(|d| d.verdict.admitted()).map(|d| d.job_index).collect();
        let ledger = config.fleet_budget.map(|budget| {
            let predicted: Vec<u64> =
                admitted.iter().map(|&i| decisions[i].predicted_queries).collect();
            BudgetLedger::split(budget, &predicted)
        });
        let quality = config.quality.then(|| {
            let mut acc = QualityAccumulator::new();
            for &orig in &admitted {
                acc.register(&jobs[orig].id, jobs[orig].ess);
            }
            acc
        });
        let mut obs = config.obs.then(FleetObsData::default);
        for d in &decisions {
            let verdict = d.verdict.name();
            point(&mut obs, 0, format_args!("admission-{}-{verdict}", d.id), d.predicted_queries);
        }
        if let Some(ledger) = &ledger {
            point(&mut obs, 0, format_args!("ledger-split"), ledger.total());
            for (account, &orig) in admitted.iter().enumerate() {
                let allowance = ledger.account(account).allowance;
                point(&mut obs, 0, format_args!("ledger-allowance-{}", jobs[orig].id), allowance);
            }
        }
        Ok(FleetRun {
            config,
            warm_start,
            predictor,
            planner: PlannerConfig { quantum: config.epoch_quantum.max(1), ..Default::default() },
            ledger,
            quality,
            obs,
            causal: (config.obs && config.gossip).then(CausalGossip::default),
            wall: config.wall.then(WallClockRegistry::new),
            shards: Vec::new(),
            slots: Vec::with_capacity(admitted.len()),
            epochs: Vec::new(),
            jobs,
            decisions,
            admitted,
        })
    }

    /// **Build shards.** One shard per plan entry, in shard order, each
    /// with its own (optionally warm-started) client, pipeline and clock;
    /// sessions open in ascending account order, so start-node queries
    /// charge deterministically. Then the seed charge: the start position
    /// is demand too (a zero-step job still bills its start), and a walk
    /// starting on a node another walk owns adopts it at epoch zero.
    fn build_shards(&mut self, factory: &impl Fn(usize) -> I) -> Result<()> {
        if self.admitted.is_empty() {
            return Ok(());
        }
        let plan = ShardPlan::round_robin(self.admitted.len(), self.config.shards);
        for (s, accounts) in plan.iter() {
            let client = match self.warm_start {
                Some(store) => SharedClient::new(store.warm_start(factory(s))?),
                None => SharedClient::new(CachedClient::new(factory(s))),
            };
            let pipeline_config = self.config.pipeline_config(s);
            let mut pipeline =
                QueryPipeline::with_clock(factory(s), pipeline_config, VirtualClock::new());
            if self.config.obs {
                pipeline.enable_obs();
            }
            if self.config.wall {
                pipeline.enable_wall();
            }
            for &account in accounts {
                let orig = self.admitted[account];
                self.slots.push(Slot {
                    orig,
                    account,
                    shard: s,
                    session: SamplerSession::create(client.clone(), self.jobs[orig].clone())?,
                    visited: HashSet::new(),
                    folded: 0,
                    steps_seen: 0,
                    starved: 0,
                    suspended: false,
                    cut: false,
                    finished_secs: None,
                    observer: SampleObserver::new(),
                    quality_met: false,
                });
            }
            let wall = self.config.wall.then(WallStats::default);
            let replayed = client.with(|c| c.paid_log().len());
            self.shards.push(Shard { client, pipeline, replayed, gossiped: 0, wall, error: None });
        }
        self.slots.sort_by_key(|slot| slot.account);
        for account in 0..self.slots.len() {
            if self.charge(account, 0)
                && self.slots[account].session.state() != SessionState::Completed
            {
                self.suspend(account, 0);
            }
        }
        self.trace_adoptions(0);
        Ok(())
    }

    /// **Plan.** `None` once every job is done — or once every open job
    /// is suspended on an empty pool (a rebalance ran at the last
    /// barrier), after cutting them. Otherwise deals the epoch's grants
    /// (by account), ages the starved, opens the epoch span and traces
    /// the grants.
    fn plan(&mut self) -> Option<Vec<usize>> {
        let t = epoch_t_us(self.epochs.len());
        let live: Vec<LiveJob> = self
            .slots
            .iter()
            .map(|slot| LiveJob {
                remaining_steps: if slot.done() { 0 } else { slot.session.steps_remaining() },
                deadline: slot.session.spec().deadline,
                starved_epochs: slot.starved,
                suspended: slot.suspended,
            })
            .collect();
        if !live.iter().any(|j| j.remaining_steps > 0) {
            return None;
        }
        if !live.iter().any(|j| !j.suspended && j.remaining_steps > 0) {
            for slot in &mut self.slots {
                if slot.suspended && !slot.done() {
                    slot.cut = true;
                    slot.finished_secs = Some(self.shards[slot.shard].pipeline.clock().now());
                    let steps = slot.session.steps_taken() as u64;
                    point(&mut self.obs, t, format_args!("cut-{}", slot.session.spec().id), steps);
                }
            }
            return None;
        }
        let grants = plan_epoch(self.config.policy, &self.planner, &live);
        for (slot, job) in self.slots.iter_mut().zip(&live) {
            if !job.suspended && job.remaining_steps > 0 {
                slot.starved = if grants[slot.account] == 0 { slot.starved + 1 } else { 0 };
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.trace.enter(t, &format!("epoch-{}", self.epochs.len()));
        }
        let edf = self.config.policy == SchedulePolicy::EarliestDeadlineFirst;
        for (slot, job) in self.slots.iter().zip(&live) {
            let granted = grants[slot.account] as u64;
            if granted == 0 {
                continue;
            }
            let id = &slot.session.spec().id;
            point(&mut self.obs, t, format_args!("grant-{id}"), granted);
            // An EDF aging promotion is visible in the plan's own inputs:
            // a job starved past the threshold that got a grant this
            // epoch was promoted ahead of every deadline.
            if edf && job.starved_epochs >= self.planner.aging_epochs {
                let starved = u64::from(job.starved_epochs);
                point(&mut self.obs, t, format_args!("aging-promotion-{id}"), starved);
            }
        }
        Some(grants)
    }

    /// **Step.** Every shard advances its slots by their grants on its
    /// own [`std::thread::scope`] worker. Then, serially: the wall plane
    /// keys each shard's self-timed service, one trace span per job that
    /// ran (weighted by the steps it took — the virtual work `mto-trace flame`
    /// folds into `epoch-N;job-id` rows), and the per-shard pipeline
    /// registries fold into the fleet registry (merge is associative and
    /// commutative, so the fold order cannot matter).
    fn step(&mut self, grants: &[usize]) -> Result<()> {
        let section = self.wall.is_some().then(WallClockScope::start);
        let mut lanes: Vec<Vec<&mut Slot<I>>> = self.shards.iter().map(|_| Vec::new()).collect();
        for slot in &mut self.slots {
            lanes[slot.shard].push(slot);
        }
        std::thread::scope(|scope| {
            for (shard, slots) in self.shards.iter_mut().zip(lanes) {
                scope.spawn(move || shard.run_epoch(slots, grants));
            }
        });
        let epoch = self.epochs.len();
        if let (Some(wall), Some(timer)) = (self.wall.as_mut(), section) {
            let section = timer.stop();
            // The barrier's own cost is what the parallel section took
            // beyond the slowest shard: spawn/join overhead plus the
            // lockstep wait every faster shard paid.
            let mut slowest = 0u64;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if let Some(service) = shard.wall.replace(WallStats::default()) {
                    slowest = slowest.max(service.nanos);
                    let key = WallKey::phase("shard-service").at_epoch(epoch as u64);
                    wall.record(key.on_shard(s as u64), service);
                }
            }
            let nanos = section.nanos.saturating_sub(slowest);
            wall.record(
                WallKey::phase("barrier-wait").at_epoch(epoch as u64),
                WallStats { count: 1, nanos, allocs: 0, bytes: 0 },
            );
        }
        for shard in &mut self.shards {
            if let Some(e) = shard.error.take() {
                return Err(e);
            }
        }
        let Some(obs) = self.obs.as_mut() else { return Ok(()) };
        let t = epoch_t_us(epoch);
        for slot in &self.slots {
            let delta = (slot.session.steps_taken() - slot.steps_seen) as u64;
            if delta > 0 {
                obs.trace.enter(t, &format!("job-{}", slot.session.spec().id));
                obs.trace.exit(t, delta);
            }
        }
        for shard in &mut self.shards {
            let mut shard_reg = MetricsRegistry::new();
            if let Some(po) = shard.pipeline.take_obs() {
                shard_reg.inc("pipeline-completions", po.service_time_us.count());
                shard_reg.merge_histogram("queue-wait-us", &po.queue_wait_us);
                shard_reg.merge_histogram("service-time-us", &po.service_time_us);
                shard.pipeline.enable_obs();
            }
            obs.registry.merge(&shard_reg);
        }
        Ok(())
    }

    /// Folds every job's fresh samples into the quality accumulator, in
    /// account order (per-job folds commute). Idempotent: the observer
    /// cursor makes a re-drain of folded history a no-op.
    fn drain_quality(&mut self) {
        if let Some(acc) = self.quality.as_mut() {
            for slot in &mut self.slots {
                let samples = slot.observer.drain(&slot.session);
                acc.observe(&slot.session.spec().id, &samples);
            }
        }
    }

    /// **Barrier: quality.** Folds each job's fresh sample series (the
    /// degree of each node its walk visited this epoch), stamps the
    /// epoch's figures into the trace in id order — per-job ESS, the
    /// Geweke z once the window splits, then the fleet R-hat, exactly
    /// what `mto-trace mix` folds into trajectories — and latches `ess=N`
    /// SLOs in account order: a converged job pauses so the planner
    /// stops granting it, and settle releases its unspent slice at this
    /// same barrier.
    fn quality_barrier(&mut self) {
        self.drain_quality();
        let Some(acc) = self.quality.as_ref() else { return };
        let t = epoch_t_us(self.epochs.len());
        if self.obs.is_some() {
            for (id, jq) in acc.jobs() {
                point(&mut self.obs, t, format_args!("quality-ess-{id}"), scale_milli(jq.ess()));
                if let Some(z) = jq.geweke_z() {
                    point(&mut self.obs, t, format_args!("quality-z-{id}"), scale_milli(z));
                }
            }
            if let Some(rhat) = acc.rhat() {
                point(&mut self.obs, t, format_args!("quality-rhat"), scale_milli(rhat));
            }
        }
        for slot in &mut self.slots {
            if slot.done() {
                continue;
            }
            let id = &slot.session.spec().id;
            let Some(jq) = acc.job(id).filter(|jq| jq.met()) else { continue };
            point(&mut self.obs, t, format_args!("quality-met-{id}"), scale_milli(jq.ess()));
            slot.quality_met = true;
            slot.session.pause();
        }
    }

    /// The charge step, at seed and at every barrier: folds the job's
    /// newly visited nodes (feeding the causal trace) and bills its
    /// cumulative unique demand to the ledger, tracing the new spend.
    /// Only walked steps calibrate the predictor — the seed's start-node
    /// query is not a step. Returns whether the job's slice is exhausted
    /// (never, unbudgeted).
    fn charge(&mut self, account: usize, t: u64) -> bool {
        if self.ledger.is_none() && self.causal.is_none() {
            return false;
        }
        let slot = &mut self.slots[account];
        let causal = &mut self.causal;
        let demand = slot.fold_visits(|v| {
            if let Some(causal) = causal.as_mut() {
                causal.visit(account, v);
            }
        });
        let Some(ledger) = self.ledger.as_mut() else { return false };
        let charged = demand.saturating_sub(ledger.account(account).spent);
        let exhausted = ledger.charge(account, demand);
        let steps = (slot.session.steps_taken() - slot.steps_seen) as u64;
        if steps > 0 {
            self.predictor.observe(slot.session.spec().algo.name(), steps, charged);
        }
        if charged > 0 {
            let id = &slot.session.spec().id;
            point(&mut self.obs, t, format_args!("ledger-charge-{id}"), charged);
        }
        exhausted
    }

    /// Pauses a job whose ledger slice ran dry until a rebalance refills
    /// it.
    fn suspend(&mut self, account: usize, t: u64) {
        let slot = &mut self.slots[account];
        slot.suspended = true;
        slot.session.pause();
        let demand = slot.visited.len() as u64;
        point(&mut self.obs, t, format_args!("suspend-{}", slot.session.spec().id), demand);
    }

    /// **Barrier: settle.** Per job, in account order (serial, and a pure
    /// function of job-local state — shard-invariant): charge the ledger,
    /// stamp the finish time of a job that completed or met its SLO
    /// (only true completions get a `finish-` point; the SLO latch is
    /// already traced), suspend a dry slice, and claim what a suspended
    /// walk still needs. Then rebalance the ledger and resume the jobs it
    /// re-granted. Unbudgeted runs only stamp finish times. Returns the
    /// epoch's report, bill and makespan taken before the gossip.
    fn settle(&mut self) -> EpochReport {
        let t = epoch_t_us(self.epochs.len());
        let (fleet_unique_queries, makespan_secs) = self.bill_and_makespan();
        let mut report = EpochReport {
            epoch: self.epochs.len(),
            fleet_unique_queries,
            makespan_secs,
            ..Default::default()
        };
        let mut finished: Vec<usize> = Vec::new();
        let mut claims: Vec<(usize, u64)> = Vec::new();
        for account in 0..self.slots.len() {
            let exhausted = self.charge(account, t);
            let slot = &mut self.slots[account];
            let completed = slot.session.state() == SessionState::Completed;
            if completed || slot.quality_met {
                if slot.finished_secs.is_none() {
                    finished.push(account);
                    slot.finished_secs = Some(self.shards[slot.shard].pipeline.clock().now());
                    if completed {
                        let steps = slot.session.steps_taken() as u64;
                        let id = &slot.session.spec().id;
                        point(&mut self.obs, t, format_args!("finish-{id}"), steps);
                    }
                }
            } else if exhausted && !slot.suspended {
                self.suspend(account, t);
            }
            let slot = &self.slots[account];
            let Some(ledger) = &self.ledger else { continue };
            if slot.suspended && !slot.done() {
                // Claim what the rest of the walk is predicted to demand,
                // judged against the *static* warm store so the claim is
                // shard-invariant — PLUS the overshoot already spent past
                // the allowance: a grant that ignored it could cover the
                // predicted remainder yet leave the account exhausted, and
                // the job would be cut with budget still pooled.
                let slice = ledger.account(account);
                let overshoot = slice.spent.saturating_sub(slice.allowance);
                let want = self.predictor.predict_remaining_queries(
                    slot.session.spec(),
                    slot.session.steps_remaining(),
                    self.warm_start,
                );
                claims.push((account, overshoot + want.max(1)));
            }
        }
        let Some(ledger) = self.ledger.as_mut() else { return report };
        let outcome = ledger.rebalance(&finished, &claims);
        report.ledger_reclaimed = outcome.reclaimed;
        report.ledger_granted = outcome.granted;
        if outcome.reclaimed > 0 {
            point(&mut self.obs, t, format_args!("ledger-reclaimed"), outcome.reclaimed);
        }
        if outcome.granted > 0 {
            point(&mut self.obs, t, format_args!("ledger-granted"), outcome.granted);
        }
        for &(account, _) in &claims {
            let slot = &mut self.slots[account];
            let slice = ledger.account(account);
            if slot.suspended && !slice.exhausted() {
                slot.suspended = false;
                slot.session.resume_stepping();
                let id = &slot.session.spec().id;
                point(&mut self.obs, t, format_args!("resume-{id}"), slice.allowance);
            }
        }
        report
    }

    /// **Barrier: gossip.** Folds the shards' deltas keep-first into one
    /// merged delta and imports it into every shard, which skips what it
    /// already holds verbatim. Shards entered the barrier holding the
    /// same responses plus their own delta, and all leave it holding the
    /// same responses again — conflicting entries in the version folded
    /// first — so a shard adopts the merged delta minus its own, and from
    /// the next epoch on nobody re-pays for a node any shard bought.
    fn gossip(&mut self, report: &mut EpochReport) -> Result<()> {
        if !self.config.gossip || self.shards.len() < 2 {
            return Ok(());
        }
        let timer = self.wall.is_some().then(WallClockScope::start);
        let deltas: Vec<HistoryStore> = self
            .shards
            .iter_mut()
            .map(|s| s.client.with(|c| paid_delta(c, &mut s.gossiped)))
            .collect();
        let (merged, conflicts) = self.fold_union(&deltas)?;
        for (shard, delta) in self.shards.iter().zip(&deltas) {
            report.adopted_responses += (merged.num_responses() - delta.num_responses()) as u64;
            shard.client.with(|c| c.import_entries(&merged.cache));
        }
        report.merge_conflicts = conflicts;
        if let (Some(wall), Some(timer)) = (self.wall.as_mut(), timer) {
            let key = WallKey::phase("gossip-merge").at_epoch(self.epochs.len() as u64);
            timer.stop_into(wall, key);
        }
        Ok(())
    }

    /// Ends the barrier: records the epoch's walked steps and gossip
    /// savings (a W-dependent figure, so registry only, never the trace),
    /// traces the causal adoption edges inside the epoch span, closes the
    /// span, and moves every job's step mark to now.
    fn close_epoch(&mut self, report: EpochReport) {
        let t = epoch_t_us(self.epochs.len());
        let mut walked = 0u64;
        for slot in &mut self.slots {
            walked += (slot.session.steps_taken() - slot.steps_seen) as u64;
            slot.steps_seen = slot.session.steps_taken();
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.registry.inc("gossip-adopted-responses", report.adopted_responses);
            obs.registry.inc("gossip-merge-conflicts", report.merge_conflicts);
            obs.registry.inc("walk-steps", walked);
        }
        self.trace_adoptions(t);
        if let Some(obs) = self.obs.as_mut() {
            // Exit cost 0: the epoch's work is already attributed to the
            // nested job spans (the fold treats exit cost as *self*
            // weight, so a nonzero epoch cost would double count).
            obs.trace.exit(t, 0);
        }
        self.epochs.push(report);
    }

    /// Traces the causal adoption edges folded since the last call, in
    /// `(owner, adopter)` order.
    fn trace_adoptions(&mut self, t: u64) {
        let (Some(obs), Some(causal)) = (self.obs.as_mut(), self.causal.as_mut()) else {
            return;
        };
        let job = |account: usize| format!("job-{}", self.slots[account].session.spec().id);
        for ((owner, adopter), count) in std::mem::take(&mut causal.pending) {
            obs.trace.gossip(t, &job(owner), &job(adopter), count);
        }
    }

    /// The fleet-wide bill (unique queries summed over shard clients) and
    /// makespan (the latest shard clock).
    fn bill_and_makespan(&self) -> (u64, f64) {
        let bill = self.shards.iter().map(|s| s.client.with(|c| c.unique_queries())).sum();
        let makespan = self.shards.iter().map(|s| s.pipeline.clock().now()).fold(0.0, f64::max);
        (bill, makespan)
    }

    /// Folds one store per shard (in shard order) keep-first into a union
    /// in the configured [`MergeOrder`]: the union and the conflicts its
    /// merges resolved. Gossip barriers fold the shards' deltas with it.
    fn fold_union(&self, stores: &[HistoryStore]) -> Result<(HistoryStore, u64)> {
        let mut union = HistoryStore::default();
        let mut conflicts = 0u64;
        let mut order: Vec<&HistoryStore> = stores.iter().collect();
        if self.config.merge_order == MergeOrder::Reverse {
            order.reverse();
        }
        for store in order {
            conflicts += union.merge(store).map_err(ServeError::SnapshotMismatch)?.conflicts;
        }
        Ok((union, conflicts))
    }

    /// **Finalize.** Closes the trace with its epoch-count self-check
    /// (`mto-trace critpath` cross-checks it), drains the last quality
    /// samples (covering runs that never crossed a barrier, e.g.
    /// zero-step jobs whose only sample is the seed), and assembles the
    /// report.
    fn finalize(mut self) -> Result<FleetReport> {
        let epochs = self.epochs.len();
        point(&mut self.obs, epoch_t_us(epochs), format_args!("fleet-epochs"), epochs as u64);
        self.drain_quality();
        let (outcomes, aggregate_stats, cut_jobs) = self.outcomes()?;
        let (union, fold_conflicts) = self.union_store()?;
        self.fill_registry(&outcomes, &union);
        // Wall plane: each shard pipeline's accumulated replay time (one
        // figure per shard — the pipeline does not know about barriers).
        if let Some(wall) = self.wall.as_mut() {
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if let Some(replay) = shard.pipeline.take_wall() {
                    wall.record(WallKey::phase("pipeline-replay").on_shard(s as u64), replay);
                }
            }
        }
        let (total_unique_queries, makespan_secs) = self.bill_and_makespan();
        let total = |figure: fn(&EpochReport) -> u64| self.epochs.iter().map(figure).sum::<u64>();
        let ledger = self.ledger.as_ref().map(|l| LedgerSummary {
            total: l.total(),
            spent: l.total_spent(),
            reclaimed: total(|e| e.ledger_reclaimed),
            granted: total(|e| e.ledger_granted),
            pool: l.pool(),
            cut_jobs,
        });
        Ok(FleetReport {
            outcomes,
            shards: self.shards.len(),
            total_unique_queries,
            gossip_adopted_responses: total(|e| e.adopted_responses),
            merge_conflicts: total(|e| e.merge_conflicts) + fold_conflicts,
            makespan_secs,
            aggregate_stats,
            union_store: union,
            ledger,
            admission: self.decisions,
            epochs: self.epochs,
            pipeline_stats: self.shards.iter().map(|s| s.pipeline.stats()).sum(),
            obs: self.obs,
            wall: self.wall,
            quality: self.quality.map(|acc| acc.report()),
        })
    }

    /// Per-job outcomes in submission order — run slots, plus
    /// placeholders for jobs admission kept off the fleet — with the
    /// summed rewiring counters and the number of budget-cut jobs.
    fn outcomes(&mut self) -> Result<(Vec<JobOutcome>, RewireStats, u64)> {
        let mut indexed: Vec<(usize, JobOutcome)> = Vec::with_capacity(self.jobs.len());
        let mut aggregate_stats = RewireStats::default();
        let mut cut_jobs = 0u64;
        for slot in &mut self.slots {
            let mut outcome = finalize_session(&mut slot.session, !slot.cut)?;
            outcome.finished_secs = slot.finished_secs;
            // A quality-met job stopped early *because it met its goal*:
            // it completes by SLO even though its session never
            // exhausted the step budget.
            outcome.completed |= slot.quality_met;
            cut_jobs += u64::from(slot.cut);
            if let Some(s) = outcome.stats {
                aggregate_stats += s;
            }
            indexed.push((slot.orig, outcome));
        }
        for d in self.decisions.iter().filter(|d| !d.verdict.admitted()) {
            let spec = &self.jobs[d.job_index];
            indexed.push((
                d.job_index,
                JobOutcome {
                    id: spec.id.clone(),
                    algorithm: spec.algo.display_name(),
                    steps: 0,
                    completed: false,
                    final_node: spec.start,
                    history: Vec::new(),
                    stats: None,
                    scan: None,
                    mh: None,
                    avg_degree_estimate: None,
                    finished_secs: None,
                },
            ));
        }
        indexed.sort_unstable_by_key(|(j, _)| *j);
        Ok((indexed.into_iter().map(|(_, o)| o).collect(), aggregate_stats, cut_jobs))
    }

    /// The fleet-wide union store — every shard's cache plus every
    /// rewiring walker's overlay delta (shard by shard, each in account
    /// order) — and the conflicts its folds resolved, built in one pass.
    ///
    /// It starts from the export of the shard folded first in
    /// [`MergeOrder`]. Every barrier imports the merged delta into every
    /// shard, so another shard can add only what it paid past its gossip
    /// mark: that is folded in keep-first, and every shard's counters are
    /// summed. This equals the keep-first fold of every shard's full
    /// export. After the last barrier of a gossiping fleet, and at
    /// `W = 1`, there is nothing left to fold; with gossip off, or in a
    /// run that crossed no barrier, each shard's own payments are folded.
    /// Degree hints come only from the warm start, which every shard
    /// imports, so the first export holds them all; a hint a response
    /// shadows is dropped, and a wrong one is one conflict.
    fn union_store(&self) -> Result<(HistoryStore, u64)> {
        let mut order: Vec<&Shard<I>> = self.shards.iter().collect();
        if self.config.merge_order == MergeOrder::Reverse {
            order.reverse();
        }
        let Some((first, rest)) = order.split_first() else {
            return Ok((HistoryStore::default(), 0));
        };
        let mut union = first.client.with(|c| HistoryStore::from_client(c));
        let mut conflicts = 0u64;
        for shard in rest {
            // A copy of the gossip mark: building the union moves nothing.
            let delta = shard.client.with(|c| paid_delta(c, &mut shard.gossiped.clone()));
            conflicts += union.merge(&delta).map_err(ServeError::SnapshotMismatch)?.conflicts;
            shard.client.with(|c| {
                union.cache.unique_queries += c.unique_queries();
                union.cache.total_lookups += c.total_lookups();
                union.cache.transient_retries += c.transient_retries();
            });
        }
        conflicts += union.drop_shadowed_hints();
        let mut by_shard: Vec<&Slot<I>> = self.slots.iter().collect();
        by_shard.sort_by_key(|slot| slot.shard);
        for slot in by_shard {
            if let Some(delta) = slot.session.walker().overlay() {
                let removed: Vec<_> =
                    delta.removed_edges().map(|e| (e.small(), e.large())).collect();
                let added: Vec<_> = delta.added_edges().map(|e| (e.small(), e.large())).collect();
                conflicts += union.merge_overlay(&removed, &added).conflicts;
            }
        }
        Ok((union, conflicts))
    }

    /// Final registry fill: walker telemetry (deterministic plane, summed
    /// over jobs in submission order) plus cache/arena figures
    /// (W-dependent: per-shard caches diverge with the shard count).
    fn fill_registry(&mut self, outcomes: &[JobOutcome], union: &HistoryStore) {
        let Some(obs) = self.obs.as_mut() else { return };
        // A nonzero underflow count means an exit was submitted with no
        // open span — an instrumentation bug the metrics surface must
        // report rather than silently drop.
        let underflows = obs.trace.underflows();
        let reg = &mut obs.registry;
        reg.inc("trace-underflows", underflows);
        reg.inc("gossip-causal-adoptions", self.causal.as_ref().map_or(0, |c| c.total));
        reg.inc("unique-nodes-crawled", union.num_responses() as u64);
        for shard in &self.shards {
            shard.client.with(|c| {
                reg.inc("total-lookups", c.total_lookups());
                reg.inc("transient-retries", c.transient_retries());
                reg.inc("arena-rewrites-in-place", c.arena().rewrites_in_place());
                reg.inc("arena-leaked-ids", c.arena().leaked_ids());
            });
        }
        for o in outcomes {
            if let Some((proposals, rejections)) = o.mh {
                reg.inc("mh-proposals", proposals);
                reg.inc("mh-rejections", rejections);
            }
            if let Some(scan) = o.scan {
                reg.inc("criterion-scans", scan.criterion_scans);
                reg.inc("criterion-scanned", scan.criterion_scanned);
                reg.gauge_max("max-scan-len", scan.max_scan);
            }
            if let Some(s) = o.stats {
                reg.inc("rewire-removals", s.removals);
                reg.inc("rewire-replacements", s.replacements);
                reg.inc("rewire-replacement-rejections", s.replacement_rejections);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_core::mto::MtoConfig;
    use mto_core::walk::{MhrwConfig, SrwConfig};
    use mto_graph::generators::paper_barbell;
    use mto_osn::OsnService;
    use mto_qos::AdmissionVerdict;
    use mto_serve::scheduler::{JobScheduler, SchedulerConfig};
    use mto_serve::session::AlgoSpec;

    fn barbell_fleet(
        config: FleetConfig,
    ) -> FleetCoordinator<OsnService, impl Fn(usize) -> OsnService> {
        FleetCoordinator::new(|_| OsnService::with_defaults(&paper_barbell()), config)
    }

    fn mixed_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                id: "mto-a".into(),
                algo: AlgoSpec::Mto(MtoConfig { seed: 1, ..Default::default() }),
                start: NodeId(0),
                step_budget: 400,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "mto-b".into(),
                algo: AlgoSpec::Mto(MtoConfig { seed: 2, ..Default::default() }),
                start: NodeId(11),
                step_budget: 300,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "srw".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 3, lazy: false }),
                start: NodeId(5),
                step_budget: 250,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "mhrw".into(),
                algo: AlgoSpec::Mhrw(MhrwConfig { seed: 4 }),
                start: NodeId(16),
                step_budget: 200,
                deadline: None,
                ess: None,
            },
        ]
    }

    /// The mixed pool with deadlines on two jobs.
    fn deadline_jobs() -> Vec<JobSpec> {
        let mut jobs = mixed_jobs();
        jobs[1].deadline = Some(2.0);
        jobs[3].deadline = Some(5.0);
        jobs
    }

    #[test]
    fn fleet_runs_jobs_to_their_budgets_and_reports_epochs() {
        let fleet =
            barbell_fleet(FleetConfig { shards: 4, epoch_quantum: 50, ..Default::default() });
        let report = fleet.run(mixed_jobs()).unwrap();
        assert_eq!(report.shards, 4);
        let by_id: Vec<(&str, usize, bool)> =
            report.outcomes.iter().map(|o| (o.id.as_str(), o.steps, o.completed)).collect();
        assert_eq!(
            by_id,
            vec![
                ("mto-a", 400, true),
                ("mto-b", 300, true),
                ("srw", 250, true),
                ("mhrw", 200, true)
            ]
        );
        assert_eq!(report.epochs.len(), 8, "longest job (400) at quantum 50");
        assert!(report.makespan_secs > 0.0, "pipelines must bill virtual time");
        assert!(report.aggregate_stats.removals > 0, "MTO jobs rewire");
        // Honest shards crawling one network never conflict.
        assert_eq!(report.epochs.iter().map(|e| e.merge_conflicts).sum::<u64>(), 0);
        // The union store holds every node anyone paid for.
        assert!(report.union_store.num_responses() >= 20, "barbell is nearly fully crawled");
        // Unbudgeted run: no ledger; every job admitted; finish times set.
        assert!(report.ledger.is_none());
        assert!(report.admission.iter().all(|d| d.verdict == AdmissionVerdict::Admit));
        assert!(report.outcomes.iter().all(|o| o.finished_secs.is_some()));
    }

    #[test]
    fn results_are_invariant_to_shard_count_and_merge_order() {
        let digest = |shards, merge_order, gossip| {
            barbell_fleet(FleetConfig {
                shards,
                merge_order,
                gossip,
                epoch_quantum: 32,
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
            .results_digest()
        };
        let reference = digest(1, MergeOrder::Forward, true);
        assert!(!reference.is_empty());
        for shards in [2, 3, 4] {
            for order in [MergeOrder::Forward, MergeOrder::Reverse] {
                for gossip in [true, false] {
                    assert_eq!(
                        digest(shards, order, gossip),
                        reference,
                        "W={shards} {order:?} gossip={gossip} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn single_shard_fleet_matches_the_job_scheduler_exactly() {
        let fleet =
            barbell_fleet(FleetConfig { shards: 1, epoch_quantum: 64, ..Default::default() });
        let fleet_report = fleet.run(mixed_jobs()).unwrap();

        let scheduler = JobScheduler::new(
            OsnService::with_defaults(&paper_barbell()),
            SchedulerConfig { quantum: 16, ..Default::default() },
        );
        let serve_report = scheduler.run(mixed_jobs()).unwrap();

        assert_eq!(fleet_report.outcomes.len(), serve_report.outcomes.len());
        for (f, s) in fleet_report.outcomes.iter().zip(&serve_report.outcomes) {
            assert_eq!(f.id, s.id);
            assert_eq!(f.history, s.history, "job {} diverged from the scheduler", f.id);
            assert_eq!(f.stats, s.stats);
            assert_eq!(f.avg_degree_estimate, s.avg_degree_estimate);
            assert_eq!((f.steps, f.completed), (s.steps, s.completed));
        }
        assert_eq!(
            fleet_report.total_unique_queries, serve_report.total_unique_queries,
            "one shard, one client: the same bill"
        );
    }

    #[test]
    fn gossip_cuts_the_fleet_bill_versus_isolated_shards() {
        let bill = |gossip| {
            barbell_fleet(FleetConfig {
                shards: 4,
                gossip,
                epoch_quantum: 25,
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
            .total_unique_queries
        };
        let (gossiped, isolated) = (bill(true), bill(false));
        assert!(
            gossiped < isolated,
            "gossip {gossiped} must beat isolated {isolated} on overlapping crawls"
        );
    }

    #[test]
    fn gossip_adoption_is_visible_in_epoch_reports() {
        let report =
            barbell_fleet(FleetConfig { shards: 4, epoch_quantum: 25, ..Default::default() })
                .run(mixed_jobs())
                .unwrap();
        assert!(report.gossip_adopted_responses > 0, "shards must trade history");
        assert_eq!(
            report.gossip_adopted_responses,
            report.epochs.iter().map(|e| e.adopted_responses).sum::<u64>()
        );
        for w in report.epochs.windows(2) {
            assert!(
                w[1].fleet_unique_queries >= w[0].fleet_unique_queries,
                "the bill is cumulative"
            );
            assert!(w[1].makespan_secs >= w[0].makespan_secs, "makespan is monotone");
        }
    }

    #[test]
    fn warm_started_fleet_pays_less() {
        let cold = barbell_fleet(FleetConfig { shards: 2, ..Default::default() });
        let cold_report = cold.run(mixed_jobs()).unwrap();
        let warm = barbell_fleet(FleetConfig { shards: 2, ..Default::default() })
            .with_warm_start(cold_report.union_store.clone());
        let warm_report = warm.run(mixed_jobs()).unwrap();
        assert!(
            warm_report.total_unique_queries < cold_report.total_unique_queries,
            "warm {} vs cold {}",
            warm_report.total_unique_queries,
            cold_report.total_unique_queries
        );
        assert_eq!(warm_report.results_digest(), cold_report.results_digest());
    }

    #[test]
    fn empty_job_list_is_a_noop() {
        let report = barbell_fleet(FleetConfig::default()).run(Vec::new()).unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.total_unique_queries, 0);
        assert_eq!(report.shards, 0);
    }

    #[test]
    fn provider_profiles_shape_the_makespan() {
        let makespan = |provider| {
            barbell_fleet(FleetConfig { shards: 2, provider, ..Default::default() })
                .run(mixed_jobs())
                .unwrap()
                .makespan_secs
        };
        let plain = makespan(None);
        let twitter = makespan(Some(ProviderProfile::twitter()));
        assert!(plain > 0.0);
        assert!(twitter > plain, "twitter's quota must dominate a plain 50 ms provider");
    }

    #[test]
    fn edf_policy_preserves_results_but_front_loads_deadline_finishes() {
        // A 200-node G(n, p) keeps walks discovering (and the shard
        // clocks advancing) for the whole run, so finish times resolve
        // finer than the tiny barbell's fully-crawled plateau.
        use rand::SeedableRng;
        let run = |policy, shards| {
            FleetCoordinator::new(
                |_| {
                    OsnService::with_defaults(&mto_graph::generators::gnp_graph(
                        200,
                        0.04,
                        &mut rand::rngs::StdRng::seed_from_u64(7),
                    ))
                },
                FleetConfig { shards, epoch_quantum: 25, policy, ..Default::default() },
            )
            .run(deadline_jobs())
            .unwrap()
        };
        let rr = run(SchedulePolicy::RoundRobin, 2);
        for shards in [1, 2, 4] {
            let edf = run(SchedulePolicy::EarliestDeadlineFirst, shards);
            assert_eq!(
                edf.results_digest(),
                rr.results_digest(),
                "policy/W must never change results (W={shards})"
            );
        }
        // Timing is what EDF changes: on a one-shard fleet (all four
        // jobs contending), the deadline jobs must finish no later than
        // under round-robin — and strictly earlier than the best-effort
        // hog that shares their shard.
        let rr1 = run(SchedulePolicy::RoundRobin, 1);
        let edf1 = run(SchedulePolicy::EarliestDeadlineFirst, 1);
        let finish = |r: &FleetReport, id: &str| -> f64 {
            r.outcomes.iter().find(|o| o.id == id).unwrap().finished_secs.unwrap()
        };
        assert!(
            finish(&edf1, "mto-b") <= finish(&rr1, "mto-b"),
            "EDF must not delay a deadline job"
        );
        assert!(
            finish(&edf1, "mto-b") < finish(&edf1, "mto-a"),
            "the deadline job outruns the best-effort hog under EDF"
        );
    }

    #[test]
    fn budgeted_fleet_is_bit_identical_across_shard_counts() {
        // The acceptance criterion of ISSUE 5: budget + shards composes,
        // with identical results and identical ledger spend across W.
        let run = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 25,
                fleet_budget: Some(30),
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
        };
        let reference = run(1);
        let ref_ledger = reference.ledger.expect("budgeted run carries a ledger");
        assert!(ref_ledger.spent > 0);
        for shards in [2, 3, 4] {
            let report = run(shards);
            assert_eq!(
                report.results_digest(),
                reference.results_digest(),
                "budget cuts diverged at W={shards}"
            );
            let ledger = report.ledger.unwrap();
            assert_eq!(ledger.spent, ref_ledger.spent, "ledger spend diverged at W={shards}");
            assert_eq!(ledger.reclaimed, ref_ledger.reclaimed);
            assert_eq!(ledger.granted, ref_ledger.granted);
            assert_eq!(ledger.cut_jobs, ref_ledger.cut_jobs);
        }
    }

    #[test]
    fn tight_budgets_cut_jobs_and_generous_budgets_do_not() {
        let run = |budget| {
            barbell_fleet(FleetConfig {
                shards: 2,
                epoch_quantum: 25,
                fleet_budget: Some(budget),
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
        };
        let tight = run(6);
        assert!(
            tight.outcomes.iter().any(|o| !o.completed),
            "a 6-unit budget cannot cover four walks of the barbell"
        );
        assert!(tight.ledger.unwrap().cut_jobs > 0);
        let generous = run(10_000);
        assert!(generous.outcomes.iter().all(|o| o.completed));
        assert_eq!(generous.ledger.unwrap().cut_jobs, 0);
        // The ledger never lets total spend sail past budget + one
        // quantum's overshoot per job.
        let spent = tight.ledger.unwrap().spent;
        assert!(spent >= 6, "the budget itself is spendable");
    }

    #[test]
    fn strict_deadline_policy_rejects_hopeless_jobs_up_front() {
        let mut jobs = mixed_jobs();
        // 400 steps at ≥ 50 ms per predicted query cannot finish in 1 ms.
        jobs[0].deadline = Some(0.001);
        let report = barbell_fleet(FleetConfig {
            shards: 2,
            deadline_policy: DeadlinePolicy::Strict,
            ..Default::default()
        })
        .run(jobs)
        .unwrap();
        assert_eq!(report.admission[0].verdict, AdmissionVerdict::Reject);
        let rejected = &report.outcomes[0];
        assert_eq!((rejected.steps, rejected.completed), (0, false), "never ran");
        assert!(rejected.history.is_empty());
        // The other three ran normally.
        assert!(report.outcomes[1..].iter().all(|o| o.completed));
    }

    #[test]
    fn deferred_jobs_carry_the_algorithm_label_of_jobs_that_ran() {
        // The first job's predicted bill alone fills a 10-unit budget:
        // it is admitted (and runs until its slice is spent), the rest
        // are deferred.
        let report =
            barbell_fleet(FleetConfig { shards: 2, fleet_budget: Some(10), ..Default::default() })
                .run(mixed_jobs())
                .unwrap();
        assert_eq!(report.admission[0].verdict, AdmissionVerdict::Admit);
        assert_eq!(report.admission[1].verdict, AdmissionVerdict::Defer);
        let (ran, deferred) = (&report.outcomes[0], &report.outcomes[1]);
        assert!(ran.steps > 0 && deferred.steps == 0);
        assert_eq!(deferred.algorithm, ran.algorithm, "both are MTO jobs");
    }

    #[test]
    fn fleet_refuses_mismatched_shard_networks() {
        // Shard 1 sees a different network: the gossip merge must refuse
        // the union instead of poisoning every shard's cache.
        let fleet = FleetCoordinator::new(
            |s| {
                if s == 0 {
                    OsnService::with_defaults(&paper_barbell())
                } else {
                    OsnService::with_defaults(&mto_graph::generators::complete_graph(5))
                }
            },
            FleetConfig { shards: 2, epoch_quantum: 16, ..Default::default() },
        );
        let jobs = vec![
            JobSpec {
                id: "a".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 1, lazy: false }),
                start: NodeId(0),
                step_budget: 64,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "b".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 2, lazy: false }),
                start: NodeId(1),
                step_budget: 64,
                deadline: None,
                ess: None,
            },
        ];
        let err = fleet.run(jobs).unwrap_err();
        assert!(matches!(err, ServeError::SnapshotMismatch(_)), "{err:?}");
    }

    /// `count` SRW jobs (no overlays, so every conflict is a response
    /// conflict) starting `spacing` nodes apart.
    fn srw_jobs(count: u32, spacing: u32, steps: usize) -> Vec<JobSpec> {
        (0..count)
            .map(|i| JobSpec {
                id: format!("srw-{i}"),
                algo: AlgoSpec::Srw(SrwConfig { seed: u64::from(i) + 1, lazy: false }),
                start: NodeId(spacing * i),
                step_budget: steps,
                deadline: None,
                ess: None,
            })
            .collect()
    }

    /// A G(n, p) factory whose shard 1 crawls a different G(n, p) of the
    /// same size, breaking the same-network contract.
    fn split_brain(n: usize, p: f64) -> impl Fn(usize) -> OsnService {
        use rand::SeedableRng;
        move |s| {
            let seed = if s == 1 { 8 } else { 7 };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            OsnService::with_defaults(&mto_graph::generators::gnp_graph(n, p, &mut rng))
        }
    }

    /// Runs `jobs` on [`split_brain`]'s networks. The loop is
    /// [`FleetCoordinator::run`]'s, with each barrier's hand-off checked
    /// against keep-first worked out by hand: a node paid for by several
    /// shards in one epoch takes the version of the first in fold order,
    /// every later payer with another version is one conflict, and every
    /// shard leaves the barrier holding the same responses.
    fn split_brain_run(
        config: FleetConfig,
        (n, p): (usize, f64),
        jobs: Vec<JobSpec>,
    ) -> FleetReport {
        let factory = split_brain(n, p);
        let mut run = FleetRun::admit(&config, None, factory(0).num_users_hint(), jobs).unwrap();
        run.build_shards(&factory).unwrap();
        while let Some(grants) = run.plan() {
            run.step(&grants).unwrap();
            run.quality_barrier();
            let mut report = run.settle();
            let mut order: Vec<&Shard<OsnService>> = run.shards.iter().collect();
            if config.merge_order == MergeOrder::Reverse {
                order.reverse();
            }
            let mut first: BTreeMap<NodeId, mto_osn::QueryResponse> = BTreeMap::new();
            let mut conflicts = 0u64;
            for shard in order {
                shard.client.with(|c| {
                    for &v in &c.paid_log()[shard.gossiped..] {
                        let mine = c.cached(v).unwrap();
                        if let Some(kept) = first.get(&v) {
                            conflicts += u64::from(*kept != mine);
                        } else {
                            first.insert(v, mine);
                        }
                    }
                });
            }
            run.gossip(&mut report).unwrap();
            let epoch = report.epoch;
            assert_eq!(report.merge_conflicts, conflicts, "epoch {epoch}");
            let held: Vec<CacheSnapshot> =
                run.shards.iter().map(|s| s.client.with(|c| c.export_snapshot())).collect();
            for (s, snapshot) in held.iter().enumerate() {
                assert_eq!(snapshot.responses, held[0].responses, "epoch {epoch}: shard {s}");
                for (v, kept) in &first {
                    let response = snapshot.responses.iter().find(|r| r.user == *v);
                    assert_eq!(response, Some(kept), "epoch {epoch}: shard {s} node {v}");
                }
            }
            run.close_epoch(report);
        }
        let (report, conflicts) = finalize_against_reference(run);
        assert_eq!(report.merge_conflicts, conflicts, "counted as the reference fold counts");
        report
    }

    /// The union fold [`FleetRun::union_store`] replaced, kept as its
    /// reference: every shard's full export keep-first in merge order,
    /// then one `merge` per rewiring walker's overlay, shard by shard.
    /// Returns the union and the run's total conflicts under that fold.
    fn reference_union<I: SocialNetworkInterface + Send + Sync>(
        run: &FleetRun<'_, I>,
    ) -> (HistoryStore, u64) {
        let stores: Vec<HistoryStore> =
            run.shards.iter().map(|s| s.client.with(|c| HistoryStore::from_client(c))).collect();
        let (mut union, mut conflicts) = run.fold_union(&stores).unwrap();
        let mut by_shard: Vec<&Slot<I>> = run.slots.iter().collect();
        by_shard.sort_by_key(|slot| slot.shard);
        for slot in by_shard {
            if let Some(delta) = slot.session.walker().overlay() {
                let overlay_only = HistoryStore {
                    removed: delta.removed_edges().map(|e| (e.small(), e.large())).collect(),
                    added: delta.added_edges().map(|e| (e.small(), e.large())).collect(),
                    ..Default::default()
                };
                conflicts += union.merge(&overlay_only).unwrap().conflicts;
            }
        }
        let at_barriers: u64 = run.epochs.iter().map(|e| e.merge_conflicts).sum();
        (union, at_barriers + conflicts)
    }

    /// Checks that [`FleetRun::union_store`] encodes to the bytes of
    /// [`reference_union`]'s, then finalizes `run`. Returns the report
    /// and the reference's conflict total. The union is read-only, so
    /// building it here leaves finalize's own union unchanged.
    fn finalize_against_reference<I: SocialNetworkInterface + Send + Sync>(
        run: FleetRun<'_, I>,
    ) -> (FleetReport, u64) {
        let (reference, conflicts) = reference_union(&run);
        let (union, _) = run.union_store().unwrap();
        let label = format!("W={} {:?}", run.shards.len(), run.config.merge_order);
        assert_eq!(union.encode(), reference.encode(), "{label}: union bytes");
        (run.finalize().unwrap(), conflicts)
    }

    /// Runs `jobs` as [`FleetCoordinator::run`] does, then
    /// [`finalize_against_reference`].
    fn run_against_reference(
        config: &FleetConfig,
        factory: impl Fn(usize) -> OsnService,
        warm_start: Option<&HistoryStore>,
        jobs: Vec<JobSpec>,
    ) -> (FleetReport, u64) {
        let num_users = factory(0).num_users_hint();
        let mut run = FleetRun::admit(config, warm_start, num_users, jobs).unwrap();
        run.build_shards(&factory).unwrap();
        while let Some(grants) = run.plan() {
            run.step(&grants).unwrap();
            run.quality_barrier();
            let mut report = run.settle();
            run.gossip(&mut report).unwrap();
            run.close_epoch(report);
        }
        finalize_against_reference(run)
    }

    /// Every mixed job with a zero step budget: they bill only their
    /// start nodes (0, 11, 5 and 16), and no barrier runs.
    fn zero_step_jobs() -> Vec<JobSpec> {
        mixed_jobs().into_iter().map(|job| JobSpec { step_budget: 0, ..job }).collect()
    }

    /// Every combination of `W` ∈ {1, 2, 3}, merge order and gossip.
    fn union_configs() -> Vec<FleetConfig> {
        let mut configs = Vec::new();
        for shards in [1, 2, 3] {
            for merge_order in [MergeOrder::Forward, MergeOrder::Reverse] {
                for gossip in [true, false] {
                    configs.push(FleetConfig {
                        shards,
                        merge_order,
                        gossip,
                        epoch_quantum: 32,
                        ..Default::default()
                    });
                }
            }
        }
        configs
    }

    #[test]
    fn the_union_equals_the_fold_of_every_full_export() {
        // A warm store holding nodes 0..=10, one bell of the barbell, so
        // warm runs still pay for the other.
        let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for v in 0..11 {
            client.query(NodeId(v)).unwrap();
        }
        let warm = HistoryStore::from_client(&client);
        let barbell = |_| OsnService::with_defaults(&paper_barbell());
        for config in union_configs() {
            let label =
                format!("W={} {:?} gossip={}", config.shards, config.merge_order, config.gossip);
            for warm_start in [None, Some(&warm)] {
                let (report, conflicts) =
                    run_against_reference(&config, barbell, warm_start, mixed_jobs());
                assert_eq!((report.merge_conflicts, conflicts), (0, 0), "{label}");
                let (report, conflicts) =
                    run_against_reference(&config, barbell, warm_start, zero_step_jobs());
                assert_eq!((report.merge_conflicts, conflicts), (0, 0), "{label}");
                assert!(report.epochs.is_empty(), "{label}: zero-step jobs cross no barrier");
                // Every start node, whichever shard paid it; warm, nodes
                // 11 and 16 are the new ones.
                let held = warm_start.map_or(4, |w| w.num_responses() + 2);
                assert_eq!(report.union_store.num_responses(), held, "{label}");
            }
            if config.shards > 1 && !config.gossip {
                // Split brain with gossip off: the union folds each
                // shard's own payments, and shard 1's versions conflict.
                let config = FleetConfig { epoch_quantum: 30, ..config };
                let (report, conflicts) = run_against_reference(
                    &config,
                    split_brain(120, 0.05),
                    None,
                    srw_jobs(3, 40, 150),
                );
                assert!(report.merge_conflicts > 0, "{label}: shard 1 contradicts the others");
                assert_eq!(report.merge_conflicts, conflicts, "{label}");
            }
        }
    }

    #[test]
    fn a_wrong_warm_hint_a_response_shadows_is_one_conflict() {
        // The warm store remembers node 5 with degree 3, but 5 sits in a
        // clique of 11. The SRW job starts on 5, so its response shadows
        // the hint: the union drops it and counts one conflict. The
        // reference fold counted it once per shard export that met it.
        let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        client.query(NodeId(0)).unwrap();
        client.remember_degree(NodeId(5), 3);
        let warm = HistoryStore::from_client(&client);
        let barbell = |_| OsnService::with_defaults(&paper_barbell());
        for config in union_configs() {
            let label =
                format!("W={} {:?} gossip={}", config.shards, config.merge_order, config.gossip);
            let (report, conflicts) =
                run_against_reference(&config, barbell, Some(&warm), mixed_jobs());
            assert!(report.union_store.cache.degree_hints.is_empty(), "{label}");
            assert_eq!(report.merge_conflicts, 1, "{label}");
            if config.gossip {
                // After the barriers every shard holds 5's response.
                assert_eq!(conflicts, config.shards as u64, "{label}");
            } else {
                assert!(conflicts >= 1, "{label}");
            }
        }
    }

    #[test]
    fn a_conflict_is_counted_once_and_every_shard_keeps_the_first_version() {
        // (W, order) → merge conflicts, per-epoch adoptions, union size,
        // and the fnv1a64 of the encoded union store.
        let pins: [(usize, MergeOrder, u64, [u64; 5], usize, u64); 4] = [
            (2, MergeOrder::Forward, 22, [40, 17, 12, 7, 8], 106, 0xa8e1_1cf7_29f6_5357),
            (2, MergeOrder::Reverse, 20, [40, 27, 9, 7, 8], 111, 0xb925_cf01_a776_1913),
            (3, MergeOrder::Forward, 22, [89, 38, 28, 15, 13], 106, 0x17ed_f3b8_1f08_8633),
            (3, MergeOrder::Reverse, 24, [89, 46, 19, 15, 16], 109, 0xd2c8_26ce_33b5_008f),
        ];
        for (shards, merge_order, conflicts, adopted, union_len, union_hash) in pins {
            let config =
                FleetConfig { shards, merge_order, epoch_quantum: 30, ..Default::default() };
            let report = split_brain_run(config, (120, 0.05), srw_jobs(3, 40, 150));
            let union = &report.union_store;
            let got = (
                report.merge_conflicts,
                report.epochs.iter().map(|e| e.adopted_responses).collect::<Vec<_>>(),
                union.num_responses(),
                mto_obs::fnv1a64(union.encode().as_bytes()),
            );
            let run = format!("W={shards} {merge_order:?}");
            assert!(report.merge_conflicts > 0, "{run}: shard 1 contradicts the others");
            // Counted once: the barriers left no conflict behind for the
            // final fold of the shards' full stores to find again.
            let at_barriers: u64 = report.epochs.iter().map(|e| e.merge_conflicts).sum();
            assert_eq!(report.merge_conflicts, at_barriers, "{run}");
            assert_eq!(got, (conflicts, adopted.to_vec(), union_len, union_hash), "{run}");
        }
    }

    #[test]
    fn a_shard_that_adopts_nothing_still_takes_the_kept_version() {
        // Both walks crawl all ten nodes in epoch 0, each on its own
        // version of the network: neither shard adopts a node, yet every
        // node it holds may conflict with the other's.
        for merge_order in [MergeOrder::Forward, MergeOrder::Reverse] {
            let config =
                FleetConfig { shards: 2, merge_order, epoch_quantum: 100, ..Default::default() };
            let report = split_brain_run(config, (10, 0.6), srw_jobs(2, 5, 200));
            let adopted: Vec<u64> = report.epochs.iter().map(|e| e.adopted_responses).collect();
            let conflicts: Vec<u64> = report.epochs.iter().map(|e| e.merge_conflicts).collect();
            assert_eq!(report.union_store.num_responses(), 10, "{merge_order:?}");
            assert_eq!(adopted, [0, 0], "{merge_order:?}");
            assert_eq!(conflicts, [10, 0], "{merge_order:?}");
            assert_eq!(report.merge_conflicts, conflicts[0], "{merge_order:?}: counted once");
        }
    }

    #[test]
    fn observed_traces_are_byte_identical_across_shard_counts() {
        let observe = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 32,
                fleet_budget: Some(10_000),
                obs: true,
                ..Default::default()
            })
            .run(deadline_jobs())
            .unwrap()
            .obs
            .expect("obs was requested")
        };
        let reference = observe(1);
        let encoded = mto_obs::encode_trace(&reference.trace);
        assert!(!reference.trace.is_empty(), "an observed run records events");
        assert_eq!(reference.trace.open_spans(), 0, "every epoch span closed");
        assert_eq!(reference.trace.underflows(), 0, "every exit had an open span");
        // The causal records are part of the byte-identical plane: the
        // W=1 trace already carries gossip edges and the epoch-count
        // self-check, so cross-W equality covers them too.
        assert!(
            reference
                .trace
                .events()
                .iter()
                .any(|e| matches!(e, mto_obs::TraceRecord::Gossip { .. })),
            "deadline jobs on one barbell share nodes: adoption edges must appear"
        );
        assert!(
            reference.trace.events().iter().any(|e| matches!(
                e,
                mto_obs::TraceRecord::Point { name, .. } if name == "fleet-epochs"
            )),
            "the trace must close with its epoch-count self-check"
        );
        for shards in [2, 4] {
            let other = observe(shards);
            assert_eq!(
                mto_obs::encode_trace(&other.trace),
                encoded,
                "trace diverged at W={shards}"
            );
            // Deterministic-plane registry figures are W-invariant too;
            // the timing histograms legitimately are not.
            for name in ["walk-steps", "unique-nodes-crawled", "total-lookups", "mh-proposals"] {
                assert_eq!(
                    other.registry.counter(name),
                    reference.registry.counter(name),
                    "{name} diverged at W={shards}"
                );
            }
        }
    }

    #[test]
    fn the_critical_path_spans_the_makespan_and_is_shard_invariant() {
        let run = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 32,
                fleet_budget: Some(10_000),
                obs: true,
                ..Default::default()
            })
            .run(deadline_jobs())
            .unwrap()
        };
        let reference = run(1);
        let data = reference.obs.as_ref().expect("obs was requested");
        let model = mto_obs::critpath::FleetModel::from_records(data.trace.events())
            .expect("fleet traces parse into the epoch/job model");
        let path = mto_obs::critpath::critical_path(&model).expect("the run has epochs");
        // The path is an unbroken causal chain through every epoch: its
        // virtual-time total *is* the makespan, in epochs — the trace's
        // own `fleet-epochs` self-check already pinned that count to the
        // model during parsing.
        assert_eq!(path.epochs, reference.epochs.len());
        let report = mto_obs::critpath::render(&path);
        let lanes = mto_obs::timeline::render(&model).expect("fleet traces have epoch lanes");
        for shards in [2, 4] {
            let other = run(shards);
            let other_data = other.obs.as_ref().expect("obs was requested");
            let other_model =
                mto_obs::critpath::FleetModel::from_records(other_data.trace.events())
                    .expect("fleet traces parse into the epoch/job model");
            let other_path = mto_obs::critpath::critical_path(&other_model).unwrap();
            assert_eq!(mto_obs::critpath::render(&other_path), report, "W={shards}");
            assert_eq!(mto_obs::timeline::render(&other_model).unwrap(), lanes, "W={shards}");
        }
    }

    #[test]
    fn wall_plane_reports_phases_without_perturbing_the_deterministic_plane() {
        let run = |wall| {
            barbell_fleet(FleetConfig {
                shards: 2,
                epoch_quantum: 32,
                obs: true,
                wall,
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
        };
        let plain = run(false);
        assert!(plain.wall.is_none(), "the wall plane is strictly opt-in");
        let timed = run(true);
        // The determinism contract with the wall plane enabled: results,
        // bills, trace bytes, and the whole metrics registry are
        // identical to the uninstrumented run.
        assert_eq!(timed.results_digest(), plain.results_digest());
        assert_eq!(timed.total_unique_queries, plain.total_unique_queries);
        let (a, b) = (plain.obs.as_ref().unwrap(), timed.obs.as_ref().unwrap());
        assert_eq!(mto_obs::encode_trace(&b.trace), mto_obs::encode_trace(&a.trace));
        assert_eq!(b.registry, a.registry, "wall figures must never leak into metrics");

        let wall = timed.wall.expect("wall was requested");
        assert!(!wall.is_empty());
        for (key, stats) in wall.iter() {
            match key.phase {
                "shard-service" => {
                    assert!(key.epoch.is_some() && key.shard.is_some(), "{key:?}");
                }
                "barrier-wait" | "gossip-merge" => {
                    assert!(key.epoch.is_some() && key.shard.is_none(), "{key:?}");
                }
                "pipeline-replay" => {
                    assert!(key.epoch.is_none() && key.shard.is_some(), "{key:?}");
                }
                other => panic!("unexpected wall phase {other:?}"),
            }
            assert!(stats.count > 0, "{key:?} recorded nothing");
        }
        // Every epoch has both shards' service and a barrier row; the
        // replay fold covers both shard pipelines.
        for e in 0..timed.epochs.len() as u64 {
            for s in 0..2 {
                let key = mto_obs::WallKey::phase("shard-service").at_epoch(e).on_shard(s);
                assert!(wall.get(&key).is_some(), "missing {key:?}");
            }
            let key = mto_obs::WallKey::phase("barrier-wait").at_epoch(e);
            assert!(wall.get(&key).is_some(), "missing {key:?}");
        }
        for s in 0..2 {
            let key = mto_obs::WallKey::phase("pipeline-replay").on_shard(s);
            assert!(wall.get(&key).is_some(), "missing {key:?}");
        }
        assert!(wall.total().nanos > 0, "wall clocks advance");
    }

    #[test]
    fn unobserved_runs_collect_nothing_and_observed_runs_match_results() {
        let run = |obs| {
            barbell_fleet(FleetConfig { shards: 2, epoch_quantum: 32, obs, ..Default::default() })
                .run(mixed_jobs())
                .unwrap()
        };
        let plain = run(false);
        assert!(plain.obs.is_none(), "obs is strictly opt-in");
        let observed = run(true);
        let data = observed.obs.as_ref().expect("obs was requested");
        // Observation is read-only: results and bills are untouched.
        assert_eq!(observed.results_digest(), plain.results_digest());
        assert_eq!(observed.total_unique_queries, plain.total_unique_queries);
        // The registry cross-checks the outcomes it was derived from.
        let steps: u64 = observed.outcomes.iter().map(|o| o.steps as u64).sum();
        assert_eq!(data.registry.counter("walk-steps"), steps);
        assert_eq!(
            data.registry.counter("unique-nodes-crawled"),
            observed.union_store.num_responses() as u64
        );
    }

    #[test]
    fn quality_plane_is_shard_invariant_and_strictly_opt_in() {
        let run = |shards, merge_order, quality| {
            barbell_fleet(FleetConfig {
                shards,
                merge_order,
                epoch_quantum: 32,
                obs: true,
                quality,
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
        };
        let plain = run(2, MergeOrder::Forward, false);
        assert!(plain.quality.is_none(), "the quality plane is strictly opt-in");

        let reference = run(1, MergeOrder::Forward, true);
        let report = reference.quality.as_ref().expect("quality was requested");
        // Observation is read-only: results and bills are untouched by
        // the plane (no job declared an SLO, so nothing stops early).
        assert_eq!(reference.results_digest(), plain.results_digest());
        for (id, figures) in &report.jobs {
            let outcome = reference.outcomes.iter().find(|o| &o.id == id).unwrap();
            assert_eq!(
                figures.samples,
                outcome.history.len() as u64,
                "job {id}: one sample per visited position"
            );
            assert!(figures.ess > 0.0, "job {id} has a positive ESS");
            assert!(figures.target_ess.is_none() && !figures.met, "no job declared an SLO");
        }
        assert!(report.rhat.is_some(), "four chains fold into an R-hat");

        // Every figure is a pure function of the walks, so the report —
        // and the quality trace stamps — are byte-identical across
        // shard counts and fold orders.
        let encoded = mto_obs::encode_trace(&reference.obs.as_ref().unwrap().trace);
        assert!(
            reference.obs.as_ref().unwrap().trace.events().iter().any(|e| matches!(
                e,
                mto_obs::TraceRecord::Point { name, .. } if name.starts_with("quality-ess-")
            )),
            "quality runs stamp per-epoch ESS points"
        );
        for shards in [2, 4] {
            for order in [MergeOrder::Forward, MergeOrder::Reverse] {
                let other = run(shards, order, true);
                assert_eq!(
                    other.quality.as_ref(),
                    Some(report),
                    "quality figures diverged at W={shards} {order:?}"
                );
                assert_eq!(
                    mto_obs::encode_trace(&other.obs.as_ref().unwrap().trace),
                    encoded,
                    "quality trace diverged at W={shards} {order:?}"
                );
            }
        }
    }

    #[test]
    fn quality_slo_stops_a_converged_job_early_and_releases_its_budget() {
        let jobs = || {
            vec![
                JobSpec {
                    id: "converge".into(),
                    algo: AlgoSpec::Mto(MtoConfig { seed: 9, ..Default::default() }),
                    start: NodeId(0),
                    step_budget: 4000,
                    deadline: None,
                    ess: Some(10),
                },
                JobSpec {
                    id: "plain".into(),
                    algo: AlgoSpec::Srw(SrwConfig { seed: 4, lazy: false }),
                    start: NodeId(11),
                    step_budget: 300,
                    deadline: None,
                    ess: None,
                },
            ]
        };
        let run = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 50,
                fleet_budget: Some(10_000),
                obs: true,
                quality: true,
                ..Default::default()
            })
            .run(jobs())
            .unwrap()
        };
        let report = run(2);
        let converged = report.outcomes.iter().find(|o| o.id == "converge").unwrap();
        assert!(
            converged.steps < 4000,
            "a 10-ESS target on a 4000-step walk must latch early (took {})",
            converged.steps
        );
        assert!(converged.completed, "meeting the SLO is completion");
        assert!(converged.finished_secs.is_some(), "early stop records a finish time");
        let plain = report.outcomes.iter().find(|o| o.id == "plain").unwrap();
        assert_eq!((plain.steps, plain.completed), (300, true), "non-SLO jobs run to budget");

        let quality = report.quality.as_ref().expect("quality was requested");
        let figures = &quality.jobs["converge"];
        assert!(figures.met && figures.target_ess == Some(10));
        assert!(figures.ess >= 10.0, "the latch means the target was reached");

        // The early stop released the converged job's unspent slice to
        // the pool at the same barrier, and the trace marks the latch.
        let ledger = report.ledger.as_ref().expect("the run was budgeted");
        assert!(ledger.reclaimed > 0, "an early-stopped job reclaims budget");
        assert_eq!(ledger.cut_jobs, 0, "a generous budget cuts nobody");
        let trace = &report.obs.as_ref().unwrap().trace;
        assert!(
            trace.events().iter().any(|e| matches!(
                e,
                mto_obs::TraceRecord::Point { name, .. } if name == "quality-met-converge"
            )),
            "the SLO latch is stamped into the trace"
        );

        // The latch fires at an epoch barrier — a shard-invariant clock
        // — so the early-stopped walk itself is bit-identical across W.
        for shards in [1, 4] {
            let other = run(shards);
            assert_eq!(other.results_digest(), report.results_digest(), "W={shards}");
            assert_eq!(other.quality.as_ref(), report.quality.as_ref(), "W={shards}");
        }
    }
}
