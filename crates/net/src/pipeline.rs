//! The in-flight query pipeline: K concurrent requests over a virtual
//! event clock.
//!
//! A serial client issues `q(v)`, sleeps one latency, issues the next —
//! so wall-clock cost is `Σ latency + Σ stalls`. Real crawlers keep many
//! requests in flight; this module simulates that with a **deterministic
//! discrete-event engine**: submissions reserve one of `K` virtual
//! connections (FIFO when all are busy), acquire a rate-limit token,
//! suffer a sampled latency (and injected timeouts), and complete in
//! simulated-time order through a binary-heap [`EventQueue`].
//!
//! Everything is a pure function of `(seed, submission schedule)`: there
//! are no host threads, latency draws happen in submission order, and
//! completions pop in the `(time, seq)` total order — so the completion
//! log is byte-identical across runs no matter how the caller interleaves
//! retrieval (see `retrieval_order_cannot_change_the_stream` below).

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use mto_graph::NodeId;
use mto_osn::{
    OsnError, QueryResponse, RateLimitPolicy, Result, SocialNetworkInterface, TokenBucket,
    VirtualClock,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::EventQueue;
use crate::latency::{FaultModel, LatencyModel};

/// Identifier of one submitted request (the submission sequence number).
pub type RequestId = u64;

/// How the pipeline chooses its in-flight limit.
///
/// Fixed `K` wastes lanes on quota-bound workloads (requests park on
/// connections waiting for tokens) and leaves throughput on the table
/// when the bucket is deep. [`Concurrency::Adaptive`] ramps the live
/// limit between a floor and [`PipelineConfig::max_in_flight`] against
/// the *observed token-bucket headroom*: one more lane whenever the
/// bucket could feed it, one fewer when the bucket runs dry. All inputs
/// are virtual, so adaptivity is as deterministic as everything else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Concurrency {
    /// Always allow exactly `max_in_flight` requests in flight.
    #[default]
    Fixed,
    /// Ramp the live limit between `min_in_flight` and `max_in_flight`
    /// based on rate-limit headroom at each submission.
    Adaptive {
        /// Lower bound of the ramp (clamped to `1..=max_in_flight`).
        min_in_flight: usize,
    },
}

/// Tuning of a [`QueryPipeline`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Maximum requests in flight (virtual connections), ≥ 1.
    pub max_in_flight: usize,
    /// Fixed-K or headroom-adaptive in-flight limit (see [`Concurrency`];
    /// the default keeps the historical fixed-K behavior).
    pub concurrency: Concurrency,
    /// Per-request service-time distribution.
    pub latency: LatencyModel,
    /// Timeout injection.
    pub faults: FaultModel,
    /// Provider quota enforced at request *start* time (`None` = no
    /// limit).
    pub rate_limit: Option<RateLimitPolicy>,
    /// Latency-aware back-off for [`Concurrency::Adaptive`]: when the
    /// rolling mean completion latency (over the last
    /// [`LATENCY_WINDOW`] completions) exceeds this factor times the
    /// latency model's expectation ([`LatencyModel::mean`]), the
    /// controller sheds one lane — a slow provider is a signal to ease
    /// off, independent of token headroom. `None` disables the rule;
    /// fixed-K pipelines ignore it entirely.
    pub latency_backoff: Option<f64>,
    /// Seed of the latency/fault RNG.
    pub seed: u64,
}

/// Completions the latency-aware ramp averages over (and the minimum
/// sample count before it may trigger).
pub const LATENCY_WINDOW: usize = 8;

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_in_flight: 8,
            concurrency: Concurrency::Fixed,
            latency: LatencyModel::Constant { secs: 0.05 },
            faults: FaultModel::none(),
            rate_limit: None,
            latency_backoff: None,
            seed: 0x7E7,
        }
    }
}

/// One finished request: its full virtual timeline plus the response.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Submission sequence number.
    pub id: RequestId,
    /// The queried node.
    pub node: NodeId,
    /// Virtual seconds when the request was submitted.
    pub submitted_at: f64,
    /// Virtual seconds when a connection and token were secured and the
    /// first attempt left.
    pub started_at: f64,
    /// Virtual seconds when the response arrived.
    pub completed_at: f64,
    /// Attempts taken (1 + injected timeouts).
    pub attempts: u32,
    /// The provider's answer.
    pub response: Result<QueryResponse>,
}

/// Aggregate pipeline counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed (claimed or buffered).
    pub completed: u64,
    /// Injected attempt timeouts.
    pub timeouts: u64,
    /// Token-bucket stalls (attempts that had to wait for refill).
    pub rate_limit_stalls: u64,
    /// Transient provider failures retried at completion.
    pub transient_retries: u64,
    /// Times the adaptive controller raised the in-flight limit.
    pub ramp_ups: u64,
    /// Times the adaptive controller lowered the in-flight limit.
    pub ramp_downs: u64,
    /// Ramp-downs forced by the latency rule alone (slow completions,
    /// token headroom notwithstanding); a subset of `ramp_downs`.
    pub latency_backoffs: u64,
}

/// Field-wise totals, e.g. over a fleet's per-shard pipelines.
impl std::iter::Sum for PipelineStats {
    fn sum<It: Iterator<Item = Self>>(iter: It) -> Self {
        iter.fold(PipelineStats::default(), |a, b| PipelineStats {
            submitted: a.submitted + b.submitted,
            completed: a.completed + b.completed,
            timeouts: a.timeouts + b.timeouts,
            rate_limit_stalls: a.rate_limit_stalls + b.rate_limit_stalls,
            transient_retries: a.transient_retries + b.transient_retries,
            ramp_ups: a.ramp_ups + b.ramp_ups,
            ramp_downs: a.ramp_downs + b.ramp_downs,
            latency_backoffs: a.latency_backoffs + b.latency_backoffs,
        })
    }
}

/// Optional pipeline observability: queue-wait and service-time
/// distributions in integer virtual microseconds, recorded at the
/// moment each completion fires. Off (`None`) by default — the hot path
/// pays one `Option` branch per completion, nothing per step — and
/// harvested into a [`mto_obs::MetricsRegistry`] by whoever owns the
/// pipeline (the fleet does it per shard, merging at epoch barriers).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineObs {
    /// `started − submitted` per completion: virtual µs spent queueing
    /// for a connection slot and a rate-limit token.
    pub queue_wait_us: mto_obs::Histogram,
    /// `completed − started` per completion: virtual µs of provider
    /// service time including injected timeout retries.
    pub service_time_us: mto_obs::Histogram,
}

/// What one in-flight event carries until it fires.
#[derive(Clone, Debug)]
struct Pending {
    id: RequestId,
    node: NodeId,
    submitted_us: u64,
    started_us: u64,
    attempts: u32,
}

/// Deterministic K-in-flight request pipeline over any
/// [`SocialNetworkInterface`].
pub struct QueryPipeline<I> {
    inner: I,
    clock: VirtualClock,
    config: PipelineConfig,
    rng: StdRng,
    bucket: Option<TokenBucket>,
    /// Busy-until times of the live virtual connections (entries in the
    /// past mean "idle"). Never grows beyond the current in-flight
    /// limit: a submit that finds it full pops the earliest-free entry
    /// and queues behind it.
    servers: BinaryHeap<Reverse<u64>>,
    /// The live in-flight limit: `max_in_flight` under
    /// [`Concurrency::Fixed`], the controller's current choice under
    /// [`Concurrency::Adaptive`].
    current_limit: usize,
    events: EventQueue<Pending>,
    /// Completions popped while waiting for a specific id, keyed by
    /// `(completion_us, id)` so they re-emerge in event order.
    ready: BTreeMap<(u64, RequestId), Completion>,
    /// Tokens are granted in submission order: no acquisition may be
    /// backdated before an earlier one (the bucket refills monotonically).
    token_cursor_us: u64,
    /// Service times (started → completed, virtual secs) of the last
    /// [`LATENCY_WINDOW`] completions — the rolling sample the
    /// latency-aware ramp judges against the model's expectation.
    recent_latency: std::collections::VecDeque<f64>,
    /// One line per completion, appended strictly in event order — the
    /// determinism witness.
    log: Vec<String>,
    next_id: RequestId,
    stats: PipelineStats,
    /// Latency histograms, recorded per completion when enabled.
    obs: Option<PipelineObs>,
    /// Wall-plane accumulator: real nanoseconds spent replaying
    /// completions (the backing query plus event bookkeeping), when
    /// enabled. Lives outside the determinism contract — nothing
    /// virtual ever reads it.
    wall: Option<mto_obs::WallStats>,
}

impl<I: SocialNetworkInterface> QueryPipeline<I> {
    /// A pipeline on a fresh private clock.
    pub fn new(inner: I, config: PipelineConfig) -> Self {
        Self::with_clock(inner, config, VirtualClock::new())
    }

    /// A pipeline advancing an externally shared [`VirtualClock`].
    pub fn with_clock(inner: I, config: PipelineConfig, clock: VirtualClock) -> Self {
        assert!(config.max_in_flight >= 1, "pipeline needs at least one connection");
        assert!(config.faults.max_attempts >= 1, "requests need at least one attempt");
        let current_limit = match config.concurrency {
            Concurrency::Fixed => config.max_in_flight,
            Concurrency::Adaptive { min_in_flight } => min_in_flight.clamp(1, config.max_in_flight),
        };
        QueryPipeline {
            inner,
            clock,
            rng: StdRng::seed_from_u64(config.seed),
            bucket: config.rate_limit.map(TokenBucket::new),
            servers: BinaryHeap::with_capacity(config.max_in_flight),
            current_limit,
            events: EventQueue::new(),
            ready: BTreeMap::new(),
            token_cursor_us: 0,
            recent_latency: std::collections::VecDeque::with_capacity(LATENCY_WINDOW),
            log: Vec::new(),
            next_id: 0,
            stats: PipelineStats::default(),
            obs: None,
            wall: None,
            config,
        }
    }

    /// Starts recording per-completion latency histograms (idempotent;
    /// already-recorded samples are kept).
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(PipelineObs::default());
        }
    }

    /// The recorded latency histograms, when enabled.
    pub fn obs(&self) -> Option<&PipelineObs> {
        self.obs.as_ref()
    }

    /// Detaches and returns the recorded latency histograms.
    pub fn take_obs(&mut self) -> Option<PipelineObs> {
        self.obs.take()
    }

    /// Starts recording wall-clock replay time (idempotent). Purely
    /// observational: completions, logs, and stats are byte-identical
    /// with the wall plane on or off.
    pub fn enable_wall(&mut self) {
        if self.wall.is_none() {
            self.wall = Some(mto_obs::WallStats::default());
        }
    }

    /// Detaches and returns the accumulated wall-clock replay stats.
    pub fn take_wall(&mut self) -> Option<mto_obs::WallStats> {
        self.wall.take()
    }

    /// The clock this pipeline advances.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The wrapped interface.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Counters so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Requests submitted but not yet surfaced by
    /// [`QueryPipeline::next_completion`] / [`QueryPipeline::wait_for`].
    pub fn outstanding(&self) -> usize {
        self.events.len() + self.ready.len()
    }

    /// Whether a connection is idle *right now* — a request submitted at
    /// the current instant would start immediately (modulo tokens). The
    /// walk-not-wait prefetcher only speculates under this condition, so
    /// speculation never queues ahead of demand traffic.
    pub fn has_idle_connection(&self) -> bool {
        let now = self.clock.now_us();
        self.servers.len() < self.current_limit
            || self.servers.peek().is_some_and(|Reverse(t)| *t <= now)
    }

    /// The live in-flight limit: constant under [`Concurrency::Fixed`],
    /// the adaptive controller's current choice otherwise.
    pub fn in_flight_limit(&self) -> usize {
        self.current_limit
    }

    /// Re-evaluates the in-flight limit before a submission (a no-op
    /// under [`Concurrency::Fixed`]). Policy: one more lane whenever the
    /// bucket holds enough tokens to feed every live lane plus one; one
    /// fewer when the bucket cannot even cover a single request — or,
    /// with [`PipelineConfig::latency_backoff`] set, when the rolling
    /// mean completion latency exceeds that factor of the model's
    /// expectation (a slow provider sheds a lane even with token
    /// headroom to spare). Every input is virtual state, so the ramp is
    /// deterministic.
    fn adapt_limit(&mut self) {
        let Concurrency::Adaptive { min_in_flight } = self.config.concurrency else {
            return;
        };
        let max = self.config.max_in_flight;
        let min = min_in_flight.clamp(1, max);
        let headroom = self.tokens_available();
        let mut want = if headroom >= (self.current_limit + 1) as f64 {
            self.current_limit + 1
        } else if headroom < 1.0 {
            self.current_limit.saturating_sub(1)
        } else {
            self.current_limit
        };
        if let Some(factor) = self.config.latency_backoff {
            let expected = self.config.latency.mean();
            if self.recent_latency.len() >= LATENCY_WINDOW && expected > 0.0 {
                let mean: f64 =
                    self.recent_latency.iter().sum::<f64>() / self.recent_latency.len() as f64;
                if mean > factor * expected {
                    let slowed = self.current_limit.saturating_sub(1);
                    if slowed < want && slowed.clamp(min, max) < self.current_limit {
                        self.stats.latency_backoffs += 1;
                    }
                    want = want.min(slowed);
                }
            }
        }
        let want = want.clamp(min, max);
        match want.cmp(&self.current_limit) {
            std::cmp::Ordering::Greater => self.stats.ramp_ups += 1,
            std::cmp::Ordering::Less => {
                self.stats.ramp_downs += 1;
                // Retire the *busiest* connections so the survivors are
                // the earliest to free up; in-flight work on retired
                // lanes still completes (events are already scheduled).
                let mut lanes: Vec<u64> = self.servers.drain().map(|Reverse(t)| t).collect();
                lanes.sort_unstable();
                lanes.truncate(want);
                self.servers.extend(lanes.into_iter().map(Reverse));
            }
            std::cmp::Ordering::Equal => {}
        }
        self.current_limit = want;
    }

    /// Rate-limit tokens currently spendable (∞ when unlimited), *after*
    /// every already-committed acquisition. The walk-not-wait prefetcher
    /// uses this to stay quota-aware: on a quota-bound workload every
    /// wasted token extends the refill floor for demand traffic, so
    /// speculation must stop while the bucket runs low.
    pub fn tokens_available(&mut self) -> f64 {
        let now = self.clock.now();
        match self.bucket.as_mut() {
            // `available` refills only forward in time; if committed
            // acquisitions are already ahead of `now`, it reports the
            // post-commitment balance unchanged.
            Some(bucket) => bucket.available(now),
            None => f64::INFINITY,
        }
    }

    /// Acquires one token at `t_us` (or at the previous grant's instant,
    /// whichever is later — grants are serialized in submission order so
    /// the bucket's refill clock never runs backwards), stalling
    /// virtually if the bucket is empty; returns the instant the token
    /// was secured.
    fn acquire_token(&mut self, t_us: u64) -> u64 {
        let Some(bucket) = self.bucket.as_mut() else { return t_us };
        let t_us = t_us.max(self.token_cursor_us);
        let granted = match bucket.try_acquire(VirtualClock::us_to_secs(t_us)) {
            Ok(()) => t_us,
            Err(wait) => {
                self.stats.rate_limit_stalls += 1;
                let mut later = t_us + VirtualClock::secs_to_us(wait);
                // Floating-point rounding in the refill can leave the
                // bucket a hair short at the computed instant; nudge
                // forward (≥ 1 µs per try) until the token really lands.
                while let Err(more) = bucket.try_acquire(VirtualClock::us_to_secs(later)) {
                    later += VirtualClock::secs_to_us(more).max(1);
                }
                later
            }
        };
        self.token_cursor_us = granted;
        granted
    }

    /// Submits `q(v)`. Returns immediately with the request id; the
    /// response surfaces later in simulated-time order. If all `K`
    /// connections are busy the request queues FIFO behind the earliest
    /// one to free up.
    pub fn submit(&mut self, v: NodeId) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        self.adapt_limit();
        let submitted_us = self.clock.now_us();

        // Reserve a connection: idle one now, else queue behind the
        // earliest-free.
        let free_at = if self.servers.len() < self.current_limit {
            submitted_us
        } else {
            let Reverse(earliest) = self.servers.pop().expect("full heap is non-empty");
            submitted_us.max(earliest)
        };

        // First attempt leaves once a token is secured.
        let started_us = self.acquire_token(free_at);
        let mut t = started_us;
        let mut attempts = 1u32;
        // Injected timeouts: each failed attempt burns the timeout window
        // and a fresh token. The attempt cap keeps simulations finite.
        while attempts < self.config.faults.max_attempts
            && self.config.faults.timeout_prob > 0.0
            && self.rng.gen::<f64>() < self.config.faults.timeout_prob
        {
            self.stats.timeouts += 1;
            attempts += 1;
            t += VirtualClock::secs_to_us(self.config.faults.timeout_secs);
            t = self.acquire_token(t);
        }
        t += VirtualClock::secs_to_us(self.config.latency.sample(&mut self.rng).max(0.0));

        self.servers.push(Reverse(t));
        self.events.push(t, Pending { id, node: v, submitted_us, started_us, attempts });
        self.stats.submitted += 1;
        id
    }

    /// Fires the earliest scheduled event: advances the clock to its
    /// completion time, performs the backing query (retrying transient
    /// failures), and logs it.
    fn fire_next_event(&mut self) -> Option<Completion> {
        let event = self.events.pop()?;
        let scope = self.wall.is_some().then(mto_obs::WallClockScope::start);
        let p = event.payload;
        self.clock.advance_to_us(event.time_us);

        let mut transient = 0u32;
        let response = loop {
            match self.inner.query(p.node) {
                Err(OsnError::Transient { .. }) if transient < 16 => {
                    transient += 1;
                    self.stats.transient_retries += 1;
                }
                other => break other,
            }
        };
        self.stats.completed += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.queue_wait_us.record(p.started_us.saturating_sub(p.submitted_us));
            obs.service_time_us.record(event.time_us.saturating_sub(p.started_us));
        }
        if self.recent_latency.len() == LATENCY_WINDOW {
            self.recent_latency.pop_front();
        }
        self.recent_latency
            .push_back(VirtualClock::us_to_secs(event.time_us.saturating_sub(p.started_us)));
        let summary = match &response {
            Ok(r) => format!("ok degree={}", r.degree()),
            Err(e) => format!("err {e}"),
        };
        self.log.push(format!(
            "#{} node={} submit={}us start={}us done={}us attempts={} {}",
            p.id, p.node, p.submitted_us, p.started_us, event.time_us, p.attempts, summary
        ));
        if let (Some(wall), Some(scope)) = (self.wall.as_mut(), scope) {
            wall.absorb(scope.stop());
        }
        Some(Completion {
            id: p.id,
            node: p.node,
            submitted_at: VirtualClock::us_to_secs(p.submitted_us),
            started_at: VirtualClock::us_to_secs(p.started_us),
            completed_at: VirtualClock::us_to_secs(event.time_us),
            attempts: p.attempts,
            response,
        })
    }

    /// Returns the next completion in simulated-time order (buffered ones
    /// first — they completed earlier than anything still scheduled), or
    /// `None` when nothing is outstanding.
    pub fn next_completion(&mut self) -> Option<Completion> {
        if let Some((&key, _)) = self.ready.iter().next() {
            return self.ready.remove(&key);
        }
        self.fire_next_event()
    }

    /// Processes events until request `id` completes, buffering every
    /// other completion for later retrieval. `None` if `id` was never
    /// submitted or already claimed. Out-of-order retrieval cannot
    /// perturb the event schedule: events still fire in `(time, seq)`
    /// order and the log stays identical.
    pub fn wait_for(&mut self, id: RequestId) -> Option<Completion> {
        if let Some(key) = self.ready.keys().find(|&&(_, i)| i == id).copied() {
            return self.ready.remove(&key);
        }
        while let Some(c) = self.fire_next_event() {
            if c.id == id {
                return Some(c);
            }
            self.ready.insert((VirtualClock::secs_to_us(c.completed_at), c.id), c);
        }
        None
    }

    /// Claims every outstanding completion, in simulated-time order.
    pub fn drain(&mut self) -> Vec<Completion> {
        std::iter::from_fn(|| self.next_completion()).collect()
    }

    /// The completion log: one line per completion, strictly in event
    /// order — byte-identical across runs with the same seed and
    /// submission schedule regardless of retrieval interleaving.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// The log as one newline-joined string (for byte comparisons).
    pub fn log_text(&self) -> String {
        self.log.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::paper_barbell;
    use mto_osn::{OsnService, OsnServiceConfig};

    fn pipeline(config: PipelineConfig) -> QueryPipeline<OsnService> {
        QueryPipeline::new(OsnService::with_defaults(&paper_barbell()), config)
    }

    #[test]
    fn serial_pipeline_sums_latencies() {
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 1,
            latency: LatencyModel::Constant { secs: 0.1 },
            ..Default::default()
        });
        for v in 0..5u32 {
            p.submit(NodeId(v));
        }
        let done = p.drain();
        assert_eq!(done.len(), 5);
        assert!((done[4].completed_at - 0.5).abs() < 1e-6, "5 × 100 ms back to back");
        assert!((p.clock().now() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn k_in_flight_overlaps_latency() {
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 5,
            latency: LatencyModel::Constant { secs: 0.1 },
            ..Default::default()
        });
        for v in 0..5u32 {
            p.submit(NodeId(v));
        }
        let done = p.drain();
        assert!(done.iter().all(|c| (c.completed_at - 0.1).abs() < 1e-6), "all five overlap fully");
    }

    #[test]
    fn sixth_request_queues_behind_five_connections() {
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 5,
            latency: LatencyModel::Constant { secs: 0.1 },
            ..Default::default()
        });
        for v in 0..6u32 {
            p.submit(NodeId(v));
        }
        let done = p.drain();
        assert!((done[5].started_at - 0.1).abs() < 1e-6, "waited for a free connection");
        assert!((done[5].completed_at - 0.2).abs() < 1e-6);
    }

    #[test]
    fn completions_surface_in_simulated_time_order() {
        // Log-normal latencies: later submissions can finish earlier.
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 8,
            latency: LatencyModel::LogNormal { median_secs: 0.2, sigma: 1.0 },
            seed: 5,
            ..Default::default()
        });
        for v in 0..8u32 {
            p.submit(NodeId(v));
        }
        let done = p.drain();
        let times: Vec<f64> = done.iter().map(|c| c.completed_at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "out of order: {times:?}");
        assert_ne!(
            done.iter().map(|c| c.id).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>(),
            "heavy tail should reorder at least one completion (seed-dependent)"
        );
    }

    #[test]
    fn rate_limit_delays_starts_on_the_shared_clock() {
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 4,
            latency: LatencyModel::Constant { secs: 0.01 },
            rate_limit: Some(RateLimitPolicy { burst: 2, refill_per_sec: 1.0 }),
            ..Default::default()
        });
        for v in 0..4u32 {
            p.submit(NodeId(v));
        }
        let done = p.drain();
        assert_eq!(p.stats().rate_limit_stalls, 2);
        assert!(done[2].started_at >= 1.0, "third request waited for a token");
        assert!(done[3].started_at >= 2.0, "fourth waited for the next token");
    }

    #[test]
    fn timeouts_add_attempts_and_virtual_time() {
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 1,
            latency: LatencyModel::Constant { secs: 0.05 },
            faults: FaultModel { timeout_prob: 1.0, timeout_secs: 2.0, max_attempts: 3 },
            ..Default::default()
        });
        p.submit(NodeId(0));
        let c = p.next_completion().unwrap();
        assert_eq!(c.attempts, 3, "prob 1.0 burns every allowed attempt");
        assert!((c.completed_at - 4.05).abs() < 1e-6, "two timeouts + one success");
        assert_eq!(p.stats().timeouts, 2);
        assert!(c.response.is_ok(), "the final attempt succeeds");
    }

    #[test]
    fn transient_failures_retry_at_completion() {
        let svc = OsnService::new(
            &paper_barbell(),
            OsnServiceConfig { transient_failure_rate: 0.5, ..Default::default() },
        );
        let mut p = QueryPipeline::new(svc, PipelineConfig::default());
        for v in 0..22u32 {
            p.submit(NodeId(v));
        }
        let done = p.drain();
        assert!(done.iter().all(|c| c.response.is_ok()));
        assert!(p.stats().transient_retries > 0);
    }

    #[test]
    fn unknown_user_surfaces_as_an_error_completion() {
        let mut p = pipeline(PipelineConfig::default());
        let id = p.submit(NodeId(404));
        let c = p.wait_for(id).unwrap();
        assert!(matches!(c.response, Err(OsnError::UnknownUser(_))));
    }

    #[test]
    fn retrieval_order_cannot_change_the_stream() {
        // The acceptance property: same seed, same submissions, three
        // *different* retrieval interleavings — byte-identical logs.
        let run = |mode: u8| {
            let mut p = pipeline(PipelineConfig {
                max_in_flight: 4,
                latency: LatencyModel::LogNormal { median_secs: 0.2, sigma: 0.8 },
                seed: 77,
                ..Default::default()
            });
            let ids: Vec<RequestId> = (0..12u32).map(|v| p.submit(NodeId(v % 22))).collect();
            match mode {
                0 => {
                    p.drain();
                }
                1 => {
                    for &id in ids.iter().rev() {
                        p.wait_for(id).unwrap();
                    }
                }
                _ => {
                    // Zig-zag: wait for the middle, then drain.
                    p.wait_for(ids[6]).unwrap();
                    p.wait_for(ids[1]).unwrap();
                    p.drain();
                }
            }
            p.log_text()
        };
        let a = run(0);
        assert!(!a.is_empty());
        assert_eq!(a, run(1), "reverse retrieval changed the stream");
        assert_eq!(a, run(2), "zig-zag retrieval changed the stream");
    }

    #[test]
    fn same_seed_reproduces_different_seed_diverges() {
        let run = |seed| {
            let mut p = pipeline(PipelineConfig {
                latency: LatencyModel::LogNormal { median_secs: 0.3, sigma: 0.7 },
                seed,
                ..Default::default()
            });
            for v in 0..10u32 {
                p.submit(NodeId(v));
            }
            p.drain();
            p.log_text()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn fixed_concurrency_default_is_byte_identical_to_explicit_fixed() {
        let run = |concurrency| {
            let mut p = pipeline(PipelineConfig {
                max_in_flight: 4,
                concurrency,
                latency: LatencyModel::LogNormal { median_secs: 0.2, sigma: 0.8 },
                rate_limit: Some(RateLimitPolicy { burst: 6, refill_per_sec: 2.0 }),
                seed: 11,
                ..Default::default()
            });
            for v in 0..14u32 {
                p.submit(NodeId(v % 22));
            }
            p.drain();
            (p.log_text(), p.stats())
        };
        let (log_default, stats_default) = run(Concurrency::Fixed);
        assert_eq!(stats_default.ramp_ups, 0, "fixed K never ramps");
        assert_eq!(stats_default.ramp_downs, 0);
        let mut p = pipeline(PipelineConfig::default());
        assert_eq!(p.in_flight_limit(), 8);
        p.submit(NodeId(0));
        assert_eq!(p.in_flight_limit(), 8, "fixed limit is inert");
        assert!(!log_default.is_empty());
    }

    #[test]
    fn adaptive_ramps_to_max_under_unlimited_headroom() {
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 6,
            concurrency: Concurrency::Adaptive { min_in_flight: 1 },
            latency: LatencyModel::Constant { secs: 0.1 },
            ..Default::default()
        });
        assert_eq!(p.in_flight_limit(), 1, "adaptive starts at the floor");
        for v in 0..12u32 {
            p.submit(NodeId(v % 22));
        }
        assert_eq!(p.in_flight_limit(), 6, "no quota: every submit earns a lane");
        assert_eq!(p.stats().ramp_ups, 5);
        assert_eq!(p.stats().ramp_downs, 0);
        let done = p.drain();
        assert_eq!(done.len(), 12);
    }

    #[test]
    fn adaptive_backs_off_when_the_bucket_runs_dry() {
        // Burst 3 at a slow refill: after the burst is spent the
        // controller must fall back to the floor instead of parking
        // requests on lanes that only wait for tokens.
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 8,
            concurrency: Concurrency::Adaptive { min_in_flight: 2 },
            latency: LatencyModel::Constant { secs: 0.01 },
            rate_limit: Some(RateLimitPolicy { burst: 3, refill_per_sec: 0.5 }),
            ..Default::default()
        });
        for v in 0..10u32 {
            p.submit(NodeId(v % 22));
        }
        let done = p.drain();
        assert_eq!(done.len(), 10);
        assert!(p.stats().ramp_downs > 0, "an exhausted bucket must shed lanes");
        assert_eq!(p.in_flight_limit(), 2, "settles at the floor while quota-bound");
    }

    #[test]
    fn adaptive_limit_stays_within_its_bounds_and_is_deterministic() {
        let run = || {
            let mut p = pipeline(PipelineConfig {
                max_in_flight: 5,
                concurrency: Concurrency::Adaptive { min_in_flight: 2 },
                latency: LatencyModel::LogNormal { median_secs: 0.2, sigma: 0.7 },
                rate_limit: Some(RateLimitPolicy { burst: 4, refill_per_sec: 1.0 }),
                seed: 23,
                ..Default::default()
            });
            let mut limits = Vec::new();
            for v in 0..20u32 {
                p.submit(NodeId(v % 22));
                limits.push(p.in_flight_limit());
            }
            p.drain();
            (limits, p.log_text())
        };
        let (limits, log) = run();
        assert!(limits.iter().all(|&k| (2..=5).contains(&k)), "limits {limits:?}");
        assert_eq!((limits, log), run(), "adaptive control must stay deterministic");
    }

    #[test]
    fn latency_backoff_sheds_lanes_when_completions_run_slow() {
        // Injected timeouts make the measured service time (~2.05 s)
        // dwarf the model's 50 ms expectation, so the latency rule must
        // shed lanes down to the floor even though tokens are unlimited
        // (the old headroom-only rule would have ramped to max).
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 6,
            concurrency: Concurrency::Adaptive { min_in_flight: 2 },
            latency: LatencyModel::Constant { secs: 0.05 },
            faults: FaultModel { timeout_prob: 1.0, timeout_secs: 2.0, max_attempts: 2 },
            latency_backoff: Some(2.0),
            ..Default::default()
        });
        for v in 0..40u32 {
            p.submit(NodeId(v % 22));
            // Interleave retrieval so completions feed the rolling window.
            p.next_completion();
        }
        p.drain();
        assert!(p.stats().latency_backoffs > 0, "slow completions must trigger the rule");
        assert_eq!(p.in_flight_limit(), 2, "settles at the floor while the provider is slow");
    }

    #[test]
    fn latency_backoff_stays_quiet_when_completions_match_the_model() {
        let run = |backoff| {
            let mut p = pipeline(PipelineConfig {
                max_in_flight: 6,
                concurrency: Concurrency::Adaptive { min_in_flight: 1 },
                latency: LatencyModel::Constant { secs: 0.05 },
                latency_backoff: backoff,
                ..Default::default()
            });
            for v in 0..30u32 {
                p.submit(NodeId(v % 22));
                p.next_completion();
            }
            p.drain();
            (p.log_text(), p.stats())
        };
        let (log_on, stats_on) = run(Some(1.5));
        let (log_off, stats_off) = run(None);
        assert_eq!(stats_on.latency_backoffs, 0, "on-model completions never back off");
        assert_eq!(log_on, log_off, "an idle rule must not perturb the stream");
        assert_eq!(stats_on, stats_off);
    }

    #[test]
    fn fixed_k_ignores_the_latency_backoff_knob() {
        let run = |backoff| {
            let mut p = pipeline(PipelineConfig {
                max_in_flight: 4,
                latency: LatencyModel::LogNormal { median_secs: 0.2, sigma: 0.9 },
                faults: FaultModel { timeout_prob: 0.3, timeout_secs: 1.0, max_attempts: 3 },
                latency_backoff: backoff,
                seed: 41,
                ..Default::default()
            });
            for v in 0..20u32 {
                p.submit(NodeId(v % 22));
            }
            p.drain();
            (p.log_text(), p.stats())
        };
        assert_eq!(run(Some(0.01)), run(None), "fixed-K must stay byte-identical");
    }

    #[test]
    fn wall_plane_observes_replay_without_perturbing_the_stream() {
        let run = |wall: bool| {
            let mut p = pipeline(PipelineConfig {
                max_in_flight: 4,
                latency: LatencyModel::LogNormal { median_secs: 0.2, sigma: 0.8 },
                seed: 77,
                ..Default::default()
            });
            if wall {
                p.enable_wall();
            }
            for v in 0..12u32 {
                p.submit(NodeId(v % 22));
            }
            p.drain();
            (p.log_text(), p.stats(), p.take_wall())
        };
        let (log_on, stats_on, wall_on) = run(true);
        let (log_off, stats_off, wall_off) = run(false);
        assert_eq!(log_on, log_off, "wall plane must not perturb the completion stream");
        assert_eq!(stats_on, stats_off);
        assert_eq!(wall_off, None, "disabled: nothing collected");
        let wall = wall_on.expect("enabled: replay observed");
        assert_eq!(wall.count, 12, "one observation per completion");
        assert!(wall.nanos > 0, "replay spends real time: {wall:?}");
    }

    #[test]
    fn idle_connection_accounting() {
        let mut p = pipeline(PipelineConfig {
            max_in_flight: 2,
            latency: LatencyModel::Constant { secs: 0.1 },
            ..Default::default()
        });
        assert!(p.has_idle_connection());
        p.submit(NodeId(0));
        assert!(p.has_idle_connection(), "one of two connections still free");
        p.submit(NodeId(1));
        assert!(!p.has_idle_connection(), "both busy");
        p.next_completion().unwrap();
        assert!(p.has_idle_connection(), "completion freed a connection");
        assert_eq!(p.outstanding(), 1);
    }
}
