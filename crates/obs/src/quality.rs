//! The estimator-quality plane: streaming convergence diagnostics over
//! each job's sample series.
//!
//! The paper's claim is statistical — MTO rewiring shrinks mixing time,
//! so walks converge in fewer steps — and this module is how the serving
//! stack *observes* that claim per request, with the same determinism
//! contract as the metric and trace planes:
//!
//! * [`ChainMoments`] — count/sum/sum-of-squares of a `u64` sample
//!   series kept as **exact integers** (`u64`/`u128`), so merging two
//!   accumulators is integer addition: associative, commutative, and
//!   therefore invariant under the fleet's barrier merge order
//!   (`proptest_quality` pins this).
//! * [`EssEstimator`] — effective sample size by the batch-means method
//!   in O(1) memory: batch *sums* stay integers and collapse pairwise
//!   (an exact operation) when the bounded batch table fills, so the
//!   streaming state after `n` pushes is bit-identical to chunking the
//!   full series at the final batch size.
//! * [`GewekeStream`] — the Geweke convergence indicator (Section
//!   V-A.3, Eq. 14) over a bounded window: first-window prefix plus
//!   last-window ring. The experiment drivers stop burn-in on it at the
//!   paper's `z ≤ 0.1`.
//! * [`RhatAccumulator`] — the cross-chain Gelman–Rubin statistic over
//!   per-job [`ChainMoments`], foldable at epoch barriers exactly like
//!   history gossip.
//! * [`QualityAccumulator`] — the per-shard bundle the coordinator
//!   folds: one [`JobQuality`] per job (a job runs whole on one shard,
//!   so shard accumulators have disjoint job sets and their union is
//!   order-invariant).
//!
//! The sample series is the **degree of each visited node** — the
//! paper's own Geweke indicator ("a commonly used one is degree that
//! applies to every graph") and a pure function of the walk, so every
//! figure derived here is byte-identical across shard counts. Floats
//! appear only in *derived* figures (ESS, z, R-hat), never in merged
//! state, and are rendered through one scaled-integer encoding
//! ([`scale_milli`]) shared by `metric` lines, trace points, and
//! `mto-trace mix`.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Maximum completed-batch table size of [`EssEstimator`]; when the
/// table fills, adjacent batches collapse pairwise and the batch size
/// doubles, so memory stays O(1) for unbounded series.
const MAX_BATCHES: usize = 64;

/// Default prefix capacity of [`GewekeStream`] (window A source).
pub const GEWEKE_FIRST_CAPACITY: usize = 8_192;

/// Default ring capacity of [`GewekeStream`] (window B source).
pub const GEWEKE_LAST_CAPACITY: usize = 32_768;

/// Leading window fraction of the Geweke statistic (paper: 0.1).
const GEWEKE_FIRST_FRACTION: f64 = 0.1;

/// Trailing window fraction of the Geweke statistic (paper: 0.5).
const GEWEKE_LAST_FRACTION: f64 = 0.5;

/// Encodes a non-negative derived figure as milli-units for `u64`
/// surfaces (trace point values, `metric` lines, baselines).
/// Non-finite values saturate to `u64::MAX` so an infinite z (constant
/// but unequal windows) stays visible instead of wrapping.
pub fn scale_milli(x: f64) -> u64 {
    if !x.is_finite() {
        return u64::MAX;
    }
    let scaled = (x * 1000.0).round();
    if scaled <= 0.0 {
        0
    } else if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

/// Exact integer moments of a `u64` sample series.
///
/// The merge is plain integer addition, so it is associative and
/// commutative with **no** floating-point drift — the property that
/// makes the fleet's barrier fold order-invariant. Sums use `u128`:
/// even `u64::MAX`-sized samples cannot overflow within 2^64 pushes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainMoments {
    count: u64,
    sum: u128,
    sum_sq: u128,
}

impl ChainMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        ChainMoments::default()
    }

    /// Records one sample.
    pub fn push(&mut self, x: u64) {
        self.count += 1;
        self.sum += x as u128;
        self.sum_sq += (x as u128) * (x as u128);
    }

    /// Folds `other` into `self` (exact integer addition).
    pub fn merge(&mut self, other: &ChainMoments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Population variance `E[x²] − E[x]²` (0 when empty), derived from
    /// the integer moments so it is a pure function of the merged state.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        let mean_sq = self.sum_sq as f64 / n;
        (mean_sq - mean * mean).max(0.0)
    }
}

/// Streaming batch-means effective sample size in O(1) memory.
///
/// Batches are kept as integer **sums** (never means), so the pairwise
/// collapse that doubles the batch size when the table fills is exact:
/// after `n` pushes the table holds precisely the chunk sums of the
/// series at the current batch size — what [`ess_batch`] recomputes
/// from the full series, and what `proptest_quality` pins as
/// bit-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EssEstimator {
    moments: ChainMoments,
    batch_size: u64,
    batch_sums: Vec<u128>,
    current_sum: u128,
    current_count: u64,
}

impl EssEstimator {
    /// An empty estimator (batch size starts at 1).
    pub fn new() -> Self {
        EssEstimator { batch_size: 1, ..EssEstimator::default() }
    }

    /// Records one sample.
    pub fn push(&mut self, x: u64) {
        self.moments.push(x);
        self.current_sum += x as u128;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batch_sums.push(self.current_sum);
            self.current_sum = 0;
            self.current_count = 0;
            if self.batch_sums.len() == MAX_BATCHES {
                // Exact pairwise collapse: integer sums of adjacent
                // batches add into sums of double-size batches.
                for i in 0..MAX_BATCHES / 2 {
                    self.batch_sums[i] = self.batch_sums[2 * i] + self.batch_sums[2 * i + 1];
                }
                self.batch_sums.truncate(MAX_BATCHES / 2);
                self.batch_size *= 2;
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// The overall integer moments (shared with the R-hat chains).
    pub fn moments(&self) -> &ChainMoments {
        &self.moments
    }

    /// Current batch size (a power of two).
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// The effective sample size estimate. With fewer than two complete
    /// batches (or a constant series) autocorrelation cannot be
    /// estimated and the series counts at face value (`ESS = n`, the
    /// i.i.d. limit); the estimate is clamped to `[0, n]`.
    pub fn ess(&self) -> f64 {
        ess_from_parts(&self.moments, self.batch_size, &self.batch_sums)
    }
}

/// The shared final step of the batch-means estimate: ESS from overall
/// moments plus the completed-batch sums at `batch_size`. Both the
/// streaming estimator and the [`ess_batch`] reference call this, so
/// "streaming equals batch recomputation" reduces to the integer batch
/// state being identical — which the collapse rule guarantees.
fn ess_from_parts(moments: &ChainMoments, batch_size: u64, batch_sums: &[u128]) -> f64 {
    let n = moments.count();
    if n == 0 {
        return 0.0;
    }
    let m = batch_sums.len();
    if m < 2 {
        return n as f64;
    }
    let variance = moments.variance();
    if variance == 0.0 {
        return n as f64;
    }
    let b = batch_size as f64;
    // Batch means and their sample variance, in table order (the same
    // order every time: batches are chunks of the series).
    let grand = batch_sums.iter().map(|&s| s as f64 / b).sum::<f64>() / m as f64;
    let var_bm = batch_sums
        .iter()
        .map(|&s| {
            let d = s as f64 / b - grand;
            d * d
        })
        .sum::<f64>()
        / (m - 1) as f64;
    if var_bm == 0.0 {
        return n as f64;
    }
    // Var(x̄) ≈ var_bm · b / n ⇒ ESS = σ² / Var(x̄) = n·σ² / (b·var_bm).
    (n as f64 * variance / (b * var_bm)).min(n as f64)
}

/// Batch recomputation reference: chunk the full series at the batch
/// size the streaming schedule would have reached after `n` pushes and
/// estimate ESS from those chunk sums. Bit-identical to feeding the
/// series through [`EssEstimator`] one sample at a time.
pub fn ess_batch(series: &[u64]) -> f64 {
    let n = series.len() as u64;
    // The streaming schedule doubles the batch size whenever 64 batches
    // complete, so the final size is the smallest power of two with
    // fewer than 64 complete chunks... except exactly at the collapse
    // point, where the table was just halved.
    let mut batch_size = 1u64;
    while n / batch_size >= MAX_BATCHES as u64 {
        batch_size *= 2;
    }
    let mut moments = ChainMoments::new();
    for &x in series {
        moments.push(x);
    }
    let mut batch_sums = Vec::new();
    for chunk in series.chunks_exact(batch_size as usize) {
        batch_sums.push(chunk.iter().map(|&x| x as u128).sum::<u128>());
    }
    ess_from_parts(&moments, batch_size, &batch_sums)
}

/// Bounded Geweke window: the first [`GEWEKE_FIRST_CAPACITY`]-style
/// prefix plus a ring of the most recent samples, so memory stays
/// bounded for unbounded walks. While the whole series fits, the z
/// statistic is the full series' own.
#[derive(Clone, Debug, PartialEq)]
pub struct GewekeStream {
    first: Vec<f64>,
    first_capacity: usize,
    last: VecDeque<f64>,
    last_capacity: usize,
    seen: u64,
}

impl Default for GewekeStream {
    fn default() -> Self {
        GewekeStream::new()
    }
}

impl GewekeStream {
    /// A stream with the default window capacities.
    pub fn new() -> Self {
        GewekeStream::with_capacity(GEWEKE_FIRST_CAPACITY, GEWEKE_LAST_CAPACITY)
    }

    /// A stream retaining the first `first_capacity` and last
    /// `last_capacity` samples. The prefix capacity must be large
    /// enough that window A (10% of the retained series) always fits:
    /// `first_capacity ≥ (first_capacity + last_capacity) / 10`.
    pub fn with_capacity(first_capacity: usize, last_capacity: usize) -> Self {
        assert!(first_capacity > 0 && last_capacity > 0, "window capacities must be positive");
        assert!(
            first_capacity
                >= ((first_capacity + last_capacity) as f64 * GEWEKE_FIRST_FRACTION).floor()
                    as usize,
            "prefix capacity too small for window A of the retained series"
        );
        GewekeStream {
            first: Vec::new(),
            first_capacity,
            last: VecDeque::new(),
            last_capacity,
            seen: 0,
        }
    }

    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.first.len() < self.first_capacity {
            self.first.push(x);
            return;
        }
        if self.last.len() == self.last_capacity {
            self.last.pop_front();
        }
        self.last.push_back(x);
    }

    /// Total samples pushed (retained or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of retained samples.
    pub fn retained_len(&self) -> usize {
        self.first.len() + self.last.len()
    }

    /// The retained window in arrival order: the kept prefix followed
    /// by the ring of most recent samples.
    pub fn retained(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.retained_len());
        out.extend_from_slice(&self.first);
        out.extend(self.last.iter().copied());
        out
    }

    /// The Geweke z statistic over the retained window: window A = the
    /// first 10%, window B = the last 50%, `z = |mean_A − mean_B| /
    /// sqrt(var_A + var_B)`. `None` while either window is empty;
    /// `Some(0.0)` / `Some(∞)` for zero-variance windows with equal /
    /// distinct means.
    pub fn z(&self) -> Option<f64> {
        let n = self.retained_len();
        let a_len = (n as f64 * GEWEKE_FIRST_FRACTION).floor() as usize;
        let b_len = (n as f64 * GEWEKE_LAST_FRACTION).floor() as usize;
        if a_len == 0 || b_len == 0 {
            return None;
        }
        let retained = self.retained();
        let (mean_a, var_a) = mean_and_variance(&retained[..a_len]);
        let (mean_b, var_b) = mean_and_variance(&retained[n - b_len..]);
        let denom = (var_a + var_b).sqrt();
        let num = (mean_a - mean_b).abs();
        if denom == 0.0 {
            return Some(if num == 0.0 { 0.0 } else { f64::INFINITY });
        }
        Some(num / denom)
    }
}

/// Mean and population variance: sum then divide, squared deviations
/// summed in series order. Every reported z and every experiment's
/// burn-in length depends on these exact float operations.
fn mean_and_variance(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var)
}

/// Cross-chain Gelman–Rubin accumulator: one [`ChainMoments`] per
/// chain, keyed by job id. Merging unions the maps and integer-adds
/// same-key moments — associative and commutative, so the fleet can
/// fold per-shard accumulators at a barrier in any configured merge
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RhatAccumulator {
    chains: BTreeMap<String, ChainMoments>,
}

impl RhatAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        RhatAccumulator::default()
    }

    /// Records one sample into chain `chain`.
    pub fn push(&mut self, chain: &str, x: u64) {
        self.chains.entry(chain.to_string()).or_default().push(x);
    }

    /// Folds fully-formed chain moments into chain `chain`.
    pub fn add_chain(&mut self, chain: &str, moments: &ChainMoments) {
        self.chains.entry(chain.to_string()).or_default().merge(moments);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &RhatAccumulator) {
        for (chain, moments) in &other.chains {
            self.chains.entry(chain.clone()).or_default().merge(moments);
        }
    }

    /// Chains recorded so far.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// The potential-scale-reduction statistic over chains with at
    /// least two samples:
    ///
    /// ```text
    /// W  = mean of within-chain variances
    /// B̂  = sample variance of the chain means
    /// R̂  = sqrt(((n̄−1)/n̄ · W + B̂) / W)
    /// ```
    ///
    /// tending to 1 as chains agree. `None` with fewer than two usable
    /// chains; `Some(1.0)` / `Some(∞)` when every chain is constant
    /// with equal / distinct means. Iteration is in chain-name order,
    /// so the figure is a pure function of the merged state.
    pub fn rhat(&self) -> Option<f64> {
        let usable: Vec<&ChainMoments> = self.chains.values().filter(|m| m.count() >= 2).collect();
        let m = usable.len();
        if m < 2 {
            return None;
        }
        let within = usable.iter().map(|c| c.variance()).sum::<f64>() / m as f64;
        let grand = usable.iter().map(|c| c.mean()).sum::<f64>() / m as f64;
        let between = usable
            .iter()
            .map(|c| {
                let d = c.mean() - grand;
                d * d
            })
            .sum::<f64>()
            / (m - 1) as f64;
        let mean_n = usable.iter().map(|c| c.count() as f64).sum::<f64>() / m as f64;
        if within == 0.0 {
            return Some(if between == 0.0 { 1.0 } else { f64::INFINITY });
        }
        let var_plus = (mean_n - 1.0) / mean_n * within + between;
        Some((var_plus / within).sqrt())
    }
}

/// One job's quality state: the streaming ESS over its sample series,
/// the bounded Geweke window, and the declared SLO if any. A job runs
/// whole on one shard, so this state is only ever *fed* by one
/// accumulator — cross-shard folding happens at the map level
/// ([`QualityAccumulator::merge`]), where job sets are disjoint.
#[derive(Clone, Debug, PartialEq)]
pub struct JobQuality {
    ess: EssEstimator,
    geweke: GewekeStream,
    target_ess: Option<u64>,
}

impl JobQuality {
    /// Fresh state with an optional `quality ess=N` SLO.
    pub fn new(target_ess: Option<u64>) -> Self {
        JobQuality { ess: EssEstimator::new(), geweke: GewekeStream::new(), target_ess }
    }

    /// Records one sample (a visited node's degree).
    pub fn push(&mut self, x: u64) {
        self.ess.push(x);
        self.geweke.push(x as f64);
    }

    /// Samples recorded.
    pub fn samples(&self) -> u64 {
        self.ess.count()
    }

    /// Current effective sample size.
    pub fn ess(&self) -> f64 {
        self.ess.ess()
    }

    /// Current Geweke z over the retained window.
    pub fn geweke_z(&self) -> Option<f64> {
        self.geweke.z()
    }

    /// The declared ESS target, if the job carries a quality SLO.
    pub fn target_ess(&self) -> Option<u64> {
        self.target_ess
    }

    /// Whether the SLO is met: a target is declared and the current
    /// ESS estimate reaches it.
    pub fn met(&self) -> bool {
        self.target_ess.is_some_and(|t| self.ess() >= t as f64)
    }

    /// The overall chain moments (fed to the cross-chain R-hat).
    pub fn moments(&self) -> &ChainMoments {
        self.ess.moments()
    }
}

/// The per-shard quality bundle: one [`JobQuality`] per job id.
///
/// Shards own disjoint job sets, so [`QualityAccumulator::merge`] is a
/// disjoint map union — associative, commutative, and invariant under
/// how jobs were partitioned across `W` shards (`proptest_quality`).
/// Merging two accumulators that both carry the same job is a caller
/// bug and panics rather than silently corrupting the series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QualityAccumulator {
    jobs: BTreeMap<String, JobQuality>,
}

impl QualityAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        QualityAccumulator::default()
    }

    /// Registers a job (idempotent) with its optional ESS target.
    pub fn register(&mut self, job: &str, target_ess: Option<u64>) {
        self.jobs.entry(job.to_string()).or_insert_with(|| JobQuality::new(target_ess));
    }

    /// Feeds a batch of samples to `job`'s state (registering it
    /// without an SLO if unseen).
    pub fn observe(&mut self, job: &str, samples: &[u64]) {
        let state = self.jobs.entry(job.to_string()).or_insert_with(|| JobQuality::new(None));
        for &x in samples {
            state.push(x);
        }
    }

    /// One job's state.
    pub fn job(&self, job: &str) -> Option<&JobQuality> {
        self.jobs.get(job)
    }

    /// Iterates jobs in id order.
    pub fn jobs(&self) -> impl Iterator<Item = (&str, &JobQuality)> + '_ {
        self.jobs.iter().map(|(id, q)| (id.as_str(), q))
    }

    /// Whether no job has been registered.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Folds `other` into `self`. Job sets must be disjoint (one job
    /// runs whole on one shard): a collision panics.
    pub fn merge(&mut self, other: &QualityAccumulator) {
        for (job, state) in &other.jobs {
            let previous = self.jobs.insert(job.clone(), state.clone());
            assert!(previous.is_none(), "job {job:?} split across quality accumulators");
        }
    }

    /// The cross-chain R-hat over every job's moments.
    pub fn rhat(&self) -> Option<f64> {
        let mut acc = RhatAccumulator::new();
        for (job, state) in &self.jobs {
            acc.add_chain(job, state.moments());
        }
        acc.rhat()
    }

    /// Derived figures for rendering (metric lines, prom families,
    /// trace points).
    pub fn report(&self) -> QualityReport {
        QualityReport {
            jobs: self
                .jobs
                .iter()
                .map(|(id, q)| {
                    (
                        id.clone(),
                        JobQualityFigures {
                            samples: q.samples(),
                            ess: q.ess(),
                            geweke_z: q.geweke_z(),
                            target_ess: q.target_ess(),
                            met: q.met(),
                        },
                    )
                })
                .collect(),
            rhat: self.rhat(),
        }
    }
}

/// One job's derived quality figures.
#[derive(Clone, Debug, PartialEq)]
pub struct JobQualityFigures {
    /// Samples recorded (walk steps observed).
    pub samples: u64,
    /// Effective sample size estimate.
    pub ess: f64,
    /// Geweke z over the retained window (`None` = series too short).
    pub geweke_z: Option<f64>,
    /// The declared `quality ess=N` target, if any.
    pub target_ess: Option<u64>,
    /// Whether the target is met.
    pub met: bool,
}

/// Everything the quality plane reports for one run: per-job figures in
/// job-id order plus the fleet-wide cross-chain R-hat.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QualityReport {
    /// Per-job figures, keyed by job id.
    pub jobs: BTreeMap<String, JobQualityFigures>,
    /// Cross-chain R-hat (`None` with fewer than two usable chains).
    pub rhat: Option<f64>,
}

impl QualityReport {
    /// Renders the canonical shard-invariant `metric quality-*` lines —
    /// the byte-identical-across-`W` surface CI diffs and
    /// `OBS_BASELINE.json` pins. All values are scaled integers via
    /// [`scale_milli`].
    pub fn render_metric_lines(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (id, q) in &self.jobs {
            writeln!(out, "metric quality-{id}-samples {}", q.samples).expect("string write");
            writeln!(out, "metric quality-{id}-ess-mil {}", scale_milli(q.ess))
                .expect("string write");
            if let Some(z) = q.geweke_z {
                writeln!(out, "metric quality-{id}-z-mil {}", scale_milli(z))
                    .expect("string write");
            }
            if q.target_ess.is_some() {
                writeln!(out, "metric quality-{id}-met {}", u8::from(q.met)).expect("string write");
            }
        }
        if let Some(rhat) = self.rhat {
            writeln!(out, "metric quality-rhat-mil {}", scale_milli(rhat)).expect("string write");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_moments_merge_exactly() {
        let xs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut whole = ChainMoments::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = ChainMoments::new();
        let mut right = ChainMoments::new();
        for &x in &xs[..3] {
            left.push(x);
        }
        for &x in &xs[3..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left, whole, "integer merge is exact, not approximately equal");
        assert_eq!(whole.count(), 8);
        assert!((whole.mean() - 3.875).abs() < 1e-12);
    }

    #[test]
    fn iid_series_has_near_full_ess() {
        // Deterministic LCG draws: effectively uncorrelated.
        let mut state = 12345u64;
        let mut est = EssEstimator::new();
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            est.push((state >> 33) % 100);
        }
        let ess = est.ess();
        assert!(ess > 2048.0, "iid series should keep most of its samples: ess = {ess}");
        assert!(ess <= 4096.0, "ess is clamped to n");
    }

    #[test]
    fn sticky_series_has_low_ess() {
        // Strong positive autocorrelation: long runs of equal values.
        let mut est = EssEstimator::new();
        for i in 0..4096u64 {
            est.push((i / 512) % 2 * 50);
        }
        let ess = est.ess();
        assert!(ess < 410.0, "a sticky chain must lose most of its samples: ess = {ess}");
    }

    #[test]
    fn streaming_ess_matches_batch_recomputation() {
        let mut state = 7u64;
        let series: Vec<u64> = (0..5_000)
            .map(|_| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (state >> 40) % 64
            })
            .collect();
        for n in [0usize, 1, 63, 64, 65, 127, 128, 1000, 5000] {
            let mut est = EssEstimator::new();
            for &x in &series[..n] {
                est.push(x);
            }
            let streamed = est.ess();
            let batch = ess_batch(&series[..n]);
            assert_eq!(streamed.to_bits(), batch.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn ess_memory_is_bounded() {
        let mut est = EssEstimator::new();
        for i in 0..1_000_000u64 {
            est.push(i % 97);
        }
        assert!(est.batch_sums.len() < MAX_BATCHES);
        assert!(est.batch_size() >= 16_384, "batch size doubles as the series grows");
    }

    #[test]
    fn geweke_stream_matches_full_series_when_everything_fits() {
        let mut stream = GewekeStream::with_capacity(64, 512);
        let mut series = Vec::new();
        let mut state = 99u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = ((state >> 33) % 1000) as f64;
            stream.push(x);
            series.push(x);
        }
        assert_eq!(stream.retained(), series, "nothing dropped below capacity");
        // Reference: the core formula replayed locally.
        let n = series.len();
        let a = &series[..(n as f64 * 0.1).floor() as usize];
        let b = &series[n - (n as f64 * 0.5).floor() as usize..];
        let (ma, va) = mean_and_variance(a);
        let (mb, vb) = mean_and_variance(b);
        let expected = (ma - mb).abs() / (va + vb).sqrt();
        assert_eq!(stream.z().unwrap().to_bits(), expected.to_bits());
    }

    #[test]
    fn geweke_stream_drops_the_middle_not_the_ends() {
        let mut stream = GewekeStream::with_capacity(10, 20);
        for i in 0..100 {
            stream.push(i as f64);
        }
        assert_eq!(stream.seen(), 100);
        assert_eq!(stream.retained_len(), 30);
        let retained = stream.retained();
        assert_eq!(&retained[..10], &(0..10).map(f64::from).collect::<Vec<_>>()[..]);
        assert_eq!(&retained[10..], &(80..100).map(f64::from).collect::<Vec<_>>()[..]);
        assert!(stream.z().unwrap() > 1.0, "a pure trend stays visibly unconverged");
    }

    #[test]
    fn geweke_stream_edge_conventions_match_core() {
        let mut empty = GewekeStream::new();
        assert_eq!(empty.z(), None);
        empty.push(1.0);
        assert_eq!(empty.z(), None, "window A still empty below 10 samples");

        let mut constant = GewekeStream::new();
        for _ in 0..100 {
            constant.push(3.0);
        }
        assert_eq!(constant.z(), Some(0.0));

        let mut split = GewekeStream::new();
        for _ in 0..100 {
            split.push(1.0);
        }
        for _ in 0..900 {
            split.push(2.0);
        }
        assert_eq!(split.z(), Some(f64::INFINITY));
    }

    /// A uniform draw from `[0, 1)` off a 64-bit LCG.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn geweke_of(series: impl IntoIterator<Item = f64>) -> GewekeStream {
        let mut stream = GewekeStream::new();
        series.into_iter().for_each(|x| stream.push(x));
        stream
    }

    #[test]
    fn geweke_stream_converges_on_a_stationary_series() {
        let mut state = 5u64;
        let z = geweke_of((0..2000).map(|_| uniform(&mut state))).z().unwrap();
        assert!(z < 0.1, "an iid series must look converged, z = {z}");
    }

    #[test]
    fn geweke_stream_flags_a_burn_in_prefix() {
        // Stuck at 100 for the first 10% of the walk, then mixing around 0.
        let mut state = 9u64;
        let mixing = (0..1350).map(|_| 2.0 * uniform(&mut state) - 1.0);
        let z = geweke_of(std::iter::repeat(100.0).take(150).chain(mixing)).z().unwrap();
        assert!(z > 0.5, "an unforgotten initial state must be detected, z = {z}");
    }

    #[test]
    fn geweke_stream_needs_longer_series_for_tighter_thresholds() {
        // AR(1)-style correlated noise, tested every 20th sample from the
        // 100th on: a loose threshold is crossed before a tight one.
        let mut state = 11u64;
        let mut x = 5.0f64;
        let series: Vec<f64> = (0..20_000)
            .map(|_| {
                x = 0.99 * x + 2.0 * uniform(&mut state) - 1.0;
                x
            })
            .collect();
        let crossing = |threshold: f64| {
            let mut stream = GewekeStream::new();
            (1..=series.len()).find(|&n| {
                stream.push(series[n - 1]);
                n >= 100 && n % 20 == 0 && stream.z().is_some_and(|z| z <= threshold)
            })
        };
        let loose = crossing(0.8).expect("a loose threshold is crossed");
        let tight = crossing(0.05).expect("a tight threshold is crossed");
        assert!(loose < tight, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn rhat_agreeing_chains_near_one_disagreeing_chains_large() {
        let mut agree = RhatAccumulator::new();
        let mut state = 5u64;
        for chain in ["a", "b", "c"] {
            for _ in 0..500 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                agree.push(chain, (state >> 33) % 100);
            }
        }
        let r = agree.rhat().unwrap();
        assert!(r < 1.1, "same-distribution chains must agree: rhat = {r}");

        let mut disagree = RhatAccumulator::new();
        for i in 0..500u64 {
            disagree.push("lo", i % 3);
            disagree.push("hi", 1000 + i % 3);
        }
        let r = disagree.rhat().unwrap();
        assert!(r > 2.0, "separated chains must be flagged: rhat = {r}");
    }

    #[test]
    fn rhat_edge_cases() {
        let mut acc = RhatAccumulator::new();
        assert_eq!(acc.rhat(), None);
        acc.push("only", 1);
        acc.push("only", 2);
        assert_eq!(acc.rhat(), None, "one chain is not comparable");
        // Two constant chains with equal means: trivially converged.
        let mut flat = RhatAccumulator::new();
        for _ in 0..10 {
            flat.push("a", 7);
            flat.push("b", 7);
        }
        assert_eq!(flat.rhat(), Some(1.0));
        // Constant but distinct: infinitely far apart.
        let mut split = RhatAccumulator::new();
        for _ in 0..10 {
            split.push("a", 1);
            split.push("b", 2);
        }
        assert_eq!(split.rhat(), Some(f64::INFINITY));
    }

    #[test]
    fn accumulator_merge_is_disjoint_union() {
        let mut left = QualityAccumulator::new();
        left.register("a", Some(100));
        left.observe("a", &[1, 2, 3]);
        let mut right = QualityAccumulator::new();
        right.observe("b", &[4, 5, 6]);
        let mut forward = left.clone();
        forward.merge(&right);
        let mut backward = right.clone();
        backward.merge(&left);
        assert_eq!(forward, backward, "disjoint union commutes");
        assert_eq!(forward.job("a").unwrap().samples(), 3);
        assert_eq!(forward.job("a").unwrap().target_ess(), Some(100));
        assert_eq!(forward.job("b").unwrap().target_ess(), None);
    }

    #[test]
    #[should_panic(expected = "split across quality accumulators")]
    fn accumulator_merge_rejects_split_jobs() {
        let mut left = QualityAccumulator::new();
        left.observe("a", &[1]);
        let mut right = QualityAccumulator::new();
        right.observe("a", &[2]);
        left.merge(&right);
    }

    #[test]
    fn report_renders_canonical_metric_lines() {
        let mut acc = QualityAccumulator::new();
        acc.register("a", Some(10));
        acc.register("b", None);
        let mut state = 1u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            acc.observe("a", &[(state >> 33) % 50]);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            acc.observe("b", &[(state >> 33) % 50]);
        }
        let report = acc.report();
        assert!(report.jobs["a"].met, "200 near-iid samples clear an ESS target of 10");
        let mut out = String::new();
        report.render_metric_lines(&mut out);
        assert!(out.contains("metric quality-a-samples 200"), "{out}");
        assert!(out.contains("metric quality-a-met 1"), "{out}");
        assert!(out.contains("metric quality-rhat-mil "), "{out}");
        assert!(!out.contains("quality-b-met"), "jobs without an SLO render no met flag:\n{out}");
        for line in out.lines() {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "non-integer metric value in {line:?}");
        }
    }

    #[test]
    fn scale_milli_conventions() {
        assert_eq!(scale_milli(0.0), 0);
        assert_eq!(scale_milli(1.2345), 1235);
        assert_eq!(scale_milli(f64::INFINITY), u64::MAX);
        assert_eq!(scale_milli(f64::NAN), u64::MAX);
        assert_eq!(scale_milli(-0.5), 0);
    }
}
