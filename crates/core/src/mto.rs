//! The MTO-Sampler: a random walk that rewires its own topology on the fly
//! (Algorithm 1).
//!
//! At the current node `u` the walker picks a candidate neighbor `v`
//! uniformly from the *overlay* neighborhood `N*(u)` and queries it. Then:
//!
//! 1. **Removal** (Theorem 3 / Theorem 5): if `e_uv` is provably
//!    non-cross-cutting, delete it from the overlay and pick again —
//!    the walk never traverses a deleted edge.
//! 2. **Replacement** (Theorem 4): if the candidate `v` has overlay degree
//!    exactly 3, then with probability `replace_prob` pick
//!    `w ~ Uniform(N*(v) \ {u})` with `e_uw` absent, rewire
//!    `e_uv → e_uw`, and make `w` the candidate. (The paper's pseudocode
//!    leaves the redirect ambiguous; we follow the interpretation licensed
//!    by Theorem 4 — see DESIGN.md §5.)
//! 3. **Lazy coin**: move to the candidate with probability ½, else stay
//!    (the pseudocode's `rand(0,1) < 1/2`), which keeps the chain
//!    aperiodic.
//!
//! The stationary distribution of the walk is `τ*(v) = k*_v / 2|E*|` over
//! the *overlay*, so importance weights use the overlay degree implied
//! by the modifications discovered so far
//! ([`OverlayDegreeMode::Discovered`]; the other modes of
//! [`OverlayDegreeMode`] are for ablations).

use mto_graph::NodeId;
use mto_osn::{QueryClient, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rewire::overlay::OverlayDelta;
use crate::rewire::removal::{is_removable_from_neighborhoods, is_removable_with_history};
use crate::rewire::replacement::{plan_replacement, PIVOT_DEGREE};
use crate::walk::walker::Walker;

/// Which neighborhood counts feed the Theorem 3/5 criterion.
///
/// The paper's pseudocode checks "`e_uv` is removable" against the data
/// the web interface returned — the **original** neighborhoods. That is
/// the view that reproduces the running example's numbers
/// (`Φ(G*) ≈ 0.053` on the barbell): intra-clique edges stay removable
/// (9 common neighbors) no matter how many have already been dropped, and
/// the minimum-degree guard is what stops the thinning.
///
/// The **overlay** view re-evaluates the criterion against the rewired
/// topology. It is the conservative reading of Theorem 3 ("not
/// cross-cutting *in the graph being walked*"): removal self-limits as
/// common counts shrink. On the barbell it stalls after roughly a matching
/// (the K₁₁ criterion is margin-1), yielding a much smaller conductance
/// gain. Both views are provided; experiments default to the
/// paper-faithful [`CriterionView::Original`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CriterionView {
    /// Evaluate against the interface's original responses (paper default).
    Original,
    /// Evaluate against the current overlay (conservative).
    Overlay,
}

/// Which rewiring moves the sampler is allowed to make — the ablation axes
/// of Fig 10 (`MTO_RM`, `MTO_RP`, `MTO_Both`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MtoConfig {
    /// Enable Theorem 3 edge removal.
    pub removal: bool,
    /// Enable Theorem 4 edge replacement.
    pub replacement: bool,
    /// Enable the Theorem 5 degree-history extension of the removal
    /// criterion.
    pub extension: bool,
    /// Probability of attempting a replacement when a degree-3 pivot is
    /// encountered.
    pub replace_prob: f64,
    /// Lazy walk (recommended; Algorithm 1's coin).
    pub lazy: bool,
    /// RNG seed.
    pub seed: u64,
    /// Criterion evaluation view (see [`CriterionView`]).
    pub criterion_view: CriterionView,
    /// Never remove an edge that would push either endpoint's overlay
    /// degree below this floor. Keeps the walk un-strandable (≥1) and, at
    /// the default of 2, keeps the overlay inside the cyclic regime the
    /// paper's `G*` figure shows.
    pub min_overlay_degree: usize,
}

impl Default for MtoConfig {
    fn default() -> Self {
        MtoConfig {
            removal: true,
            replacement: true,
            extension: false,
            replace_prob: 0.5,
            lazy: true,
            seed: 1,
            criterion_view: CriterionView::Original,
            min_overlay_degree: 2,
        }
    }
}

impl MtoConfig {
    /// Removal-only ablation (`MTO_RM` in Fig 10).
    pub fn removal_only() -> Self {
        MtoConfig { replacement: false, ..Default::default() }
    }

    /// Replacement-only ablation (`MTO_RP` in Fig 10).
    pub fn replacement_only() -> Self {
        MtoConfig { removal: false, ..Default::default() }
    }

    /// Both moves plus the Theorem 5 extension.
    pub fn with_extension() -> Self {
        MtoConfig { extension: true, ..Default::default() }
    }
}

/// How to obtain `k*_v` for importance weighting (Section IV-A's
/// "probability revision").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayDegreeMode {
    /// Use the overlay degree implied by modifications discovered so far.
    /// Free; slightly biased early, exact in the long run.
    Discovered,
    /// Apply the removal criterion to every incident edge, querying each
    /// neighbor: exact `k*_v` for the *fully-removed* overlay, at a cost
    /// of up to `k_v` extra queries.
    ExactRemoval,
    /// The paper's suggestion: sample `m` incident edges, extrapolate the
    /// removable fraction.
    SampledRemoval(usize),
}

/// Counters describing the rewiring work performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewireStats {
    /// Edges removed from the overlay.
    pub removals: u64,
    /// Replacements performed (`e_uv → e_uw`).
    pub replacements: u64,
    /// Candidates rejected for replacement (wrong degree or no target).
    pub replacement_rejections: u64,
}

impl std::ops::AddAssign for RewireStats {
    fn add_assign(&mut self, rhs: RewireStats) {
        self.removals += rhs.removals;
        self.replacements += rhs.replacements;
        self.replacement_rejections += rhs.replacement_rejections;
    }
}

/// Always-on hot-path probe: Theorem 3/5 criterion scan effort.
///
/// Kept outside [`RewireStats`] so the session-snapshot codec (which
/// persists and replay-checks the rewiring counters) is untouched: the
/// probe is derived telemetry, recomputed for free by any replay. The
/// per-scan cost is three integer updates — cheap enough to leave on in
/// the hottest path (the `micro/obs` bench group and the `BENCH_7.json`
/// instrumented-vs-disabled comparison keep that claim honest).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanProbe {
    /// Criterion evaluations (one per candidate edge checked).
    pub criterion_scans: u64,
    /// Total neighbor-list entries walked by those evaluations — the
    /// "eligibility-scan length" bill of the sorted-list intersections.
    pub criterion_scanned: u64,
    /// Longest single scan (`|N(u)| + |N(v)|` of the worst edge).
    pub max_scan: u64,
}

impl ScanProbe {
    /// Records one criterion evaluation that walked `scanned` entries.
    #[inline]
    fn record(&mut self, scanned: u64) {
        self.criterion_scans += 1;
        self.criterion_scanned += scanned;
        self.max_scan = self.max_scan.max(scanned);
    }
}

impl std::ops::AddAssign for ScanProbe {
    fn add_assign(&mut self, rhs: ScanProbe) {
        self.criterion_scans += rhs.criterion_scans;
        self.criterion_scanned += rhs.criterion_scanned;
        self.max_scan = self.max_scan.max(rhs.max_scan);
    }
}

/// The MTO sampler.
pub struct MtoSampler<C> {
    client: C,
    overlay: OverlayDelta,
    config: MtoConfig,
    current: NodeId,
    rng: StdRng,
    history: Vec<NodeId>,
    stats: RewireStats,
    probe: ScanProbe,
    // Reusable scratch buffers: steady-state stepping fills these in place
    // instead of allocating fresh neighbor lists. Each is mem::take'n out
    // for the duration of the call that uses it (the borrow checker cannot
    // see that `self.client` and a buffer field are disjoint through a
    // `&mut self` method call) and restored afterwards, so capacity is
    // retained across steps.
    buf_u: Vec<NodeId>,
    buf_v: Vec<NodeId>,
    buf_a: Vec<NodeId>,
    buf_b: Vec<NodeId>,
    buf_probe: Vec<NodeId>,
    buf_deg: Vec<NodeId>,
    eligible: Vec<NodeId>,
}

impl<C: QueryClient> MtoSampler<C> {
    /// Starts a sampler at `start` (queried immediately).
    pub fn new(mut client: C, start: NodeId, config: MtoConfig) -> Result<Self> {
        assert!(
            (0.0..=1.0).contains(&config.replace_prob),
            "replace_prob {} outside [0, 1]",
            config.replace_prob
        );
        client.fetch_degree(start)?;
        Ok(MtoSampler {
            client,
            overlay: OverlayDelta::new(),
            config,
            current: start,
            rng: StdRng::seed_from_u64(config.seed),
            history: vec![start],
            stats: RewireStats::default(),
            probe: ScanProbe::default(),
            buf_u: Vec::new(),
            buf_v: Vec::new(),
            buf_a: Vec::new(),
            buf_b: Vec::new(),
            buf_probe: Vec::new(),
            buf_deg: Vec::new(),
            eligible: Vec::new(),
        })
    }

    /// Rebuilds a sampler that had already taken `steps_taken` steps — the
    /// event-sourced resumable-walker state contract.
    ///
    /// An `MtoSampler` is a pure function of `(config, start, interface
    /// responses)`: its RNG is seeded from the config and every decision
    /// depends only on drawn randomness plus the (immutable) responses. So
    /// a walker needs no serialized RNG or overlay state to be resumable —
    /// replaying `steps_taken` steps reproduces position, history, overlay
    /// and stats exactly. Replay against a warm [`QueryClient`] cache (the
    /// `mto-serve` `HistoryStore` path) issues **zero** new unique queries,
    /// because the original run already paid for every node the prefix
    /// visits.
    pub fn resume(client: C, start: NodeId, config: MtoConfig, steps_taken: usize) -> Result<Self> {
        let mut sampler = Self::new(client, start, config)?;
        for _ in 0..steps_taken {
            sampler.step()?;
        }
        Ok(sampler)
    }

    /// Rewiring counters.
    pub fn stats(&self) -> RewireStats {
        self.stats
    }

    /// Criterion scan-effort probe counters.
    pub fn probe(&self) -> ScanProbe {
        self.probe
    }

    /// The overlay delta accumulated so far.
    pub fn overlay(&self) -> &OverlayDelta {
        &self.overlay
    }

    /// Access to the underlying client.
    pub fn client(&self) -> &C {
        &self.client
    }

    /// Mutable access to the underlying client.
    pub fn client_mut(&mut self) -> &mut C {
        &mut self.client
    }

    /// Overlay neighborhood `N*(v)`; queries `v` if unseen.
    pub fn overlay_neighbors(&mut self, v: NodeId) -> Result<Vec<NodeId>> {
        let mut out = Vec::new();
        self.overlay_neighbors_into(v, &mut out)?;
        Ok(out)
    }

    /// Fills `out` with `N*(v)` without allocating (given grown capacity):
    /// the base neighborhood lands in `out` via the client's zero-copy
    /// path, then the overlay delta is applied in place.
    fn overlay_neighbors_into(&mut self, v: NodeId, out: &mut Vec<NodeId>) -> Result<()> {
        self.client.fetch_neighbors_into(v, out)?;
        self.overlay.adjust_neighbors_in_place(v, out);
        Ok(())
    }

    /// Whether the overlay currently contains the edge `(a, b)`; both
    /// endpoints may be unqueried (falls back to the delta plus a base
    /// lookup through `a` if cached, else through `b`, else queries `a`).
    fn overlay_has_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool> {
        // Probe through the endpoint most likely cached, preserving the
        // historical preference order: a if known, else b if known, else a.
        let (through, target) =
            if self.client.known_degree(a).is_some() || self.client.known_degree(b).is_none() {
                (a, b)
            } else {
                (b, a)
            };
        // Bill the probe lookup, then search the cached list — borrowed
        // from the arena when possible, via the scratch buffer otherwise.
        self.client.fetch_degree(through)?;
        let base_has = if let Some(base) = self.client.known_neighbors(through) {
            base.binary_search(&target).is_ok()
        } else {
            let mut probe = std::mem::take(&mut self.buf_probe);
            self.client.cached_neighbors_into(through, &mut probe);
            let has = probe.binary_search(&target).is_ok();
            self.buf_probe = probe;
            has
        };
        Ok(self.overlay.has_edge(base_has, a, b))
    }

    /// Theorem 3/5 check for the edge `(u, v)`. `nu`/`nv` must be the
    /// neighborhoods in the configured [`CriterionView`]; the Theorem 5
    /// degree oracle reads the same view.
    fn edge_is_removable(&self, nu: &[NodeId], nv: &[NodeId]) -> bool {
        if self.config.extension {
            is_removable_with_history(nu, nv, |w| {
                let base = self.client.known_degree(w)?;
                Some(match self.config.criterion_view {
                    CriterionView::Original => base,
                    CriterionView::Overlay => self.overlay.adjust_degree(w, base),
                })
            })
        } else {
            is_removable_from_neighborhoods(nu, nv)
        }
    }

    /// Theorem 3/5 check for edge `(a, b)` fetching neighborhoods in the
    /// configured view (no min-degree guard — that is a walk-safety
    /// concern, not part of the criterion).
    fn edge_removable_in_view(&mut self, a: NodeId, b: NodeId) -> Result<bool> {
        // Bill both endpoints up front (same lookup order as materializing
        // each neighborhood would); afterwards both are cached and the
        // criterion can usually run on borrowed arena slices with zero
        // copies — only an overlay-touched endpoint, or a client that
        // cannot hand out borrows, goes through the scratch buffers.
        self.client.fetch_degree(a)?;
        self.client.fetch_degree(b)?;
        let mut na = std::mem::take(&mut self.buf_a);
        let mut nb = std::mem::take(&mut self.buf_b);
        let view = self.config.criterion_view;
        let (removable, scanned) = {
            let sa = criterion_slice(&self.client, &self.overlay, view, a, &mut na);
            let sb = criterion_slice(&self.client, &self.overlay, view, b, &mut nb);
            let scanned = (sa.len() + sb.len()) as u64;
            (self.edge_is_removable(sa, sb), scanned)
        };
        self.probe.record(scanned);
        self.buf_a = na;
        self.buf_b = nb;
        Ok(removable)
    }

    /// Estimates `k*_v` under `mode`.
    pub fn overlay_degree_estimate(&mut self, v: NodeId, mode: OverlayDegreeMode) -> Result<f64> {
        let mut nv = std::mem::take(&mut self.buf_deg);
        let estimate = self.degree_estimate_with(v, mode, &mut nv);
        self.buf_deg = nv;
        estimate
    }

    fn degree_estimate_with(
        &mut self,
        v: NodeId,
        mode: OverlayDegreeMode,
        nv: &mut Vec<NodeId>,
    ) -> Result<f64> {
        self.overlay_neighbors_into(v, nv)?;
        let discovered = nv.len() as f64;
        match mode {
            OverlayDegreeMode::Discovered => Ok(discovered.max(1.0)),
            OverlayDegreeMode::ExactRemoval => {
                let mut kept = 0usize;
                for &w in nv.iter() {
                    if self.overlay.is_added(v, w) {
                        kept += 1; // replacement edges are never removable
                        continue;
                    }
                    if !self.edge_removable_in_view(v, w)? {
                        kept += 1;
                    }
                }
                Ok((kept as f64).max(1.0))
            }
            OverlayDegreeMode::SampledRemoval(m) => {
                if nv.is_empty() {
                    return Ok(1.0);
                }
                let m = m.max(1).min(nv.len());
                // Sample without replacement via partial Fisher–Yates.
                let mut pool: Vec<NodeId> = nv.clone();
                let mut removable = 0usize;
                for i in 0..m {
                    let j = self.rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                    let w = pool[i];
                    if self.overlay.is_added(v, w) {
                        continue;
                    }
                    if self.edge_removable_in_view(v, w)? {
                        removable += 1;
                    }
                }
                let frac = removable as f64 / m as f64;
                Ok((discovered * (1.0 - frac)).max(1.0))
            }
        }
    }

    /// One candidate-selection pass: picks a neighbor, applies removal /
    /// replacement, and returns the surviving candidate (`None` when every
    /// pick was removed and `N*(u)` emptied — a degenerate graph).
    fn select_candidate(&mut self) -> Result<Option<NodeId>> {
        let mut nbrs_u = std::mem::take(&mut self.buf_u);
        let mut nbrs_v = std::mem::take(&mut self.buf_v);
        let picked = self.select_candidate_with(&mut nbrs_u, &mut nbrs_v);
        self.buf_u = nbrs_u;
        self.buf_v = nbrs_v;
        picked
    }

    fn select_candidate_with(
        &mut self,
        nbrs_u: &mut Vec<NodeId>,
        nbrs_v: &mut Vec<NodeId>,
    ) -> Result<Option<NodeId>> {
        // Bounded by the overlay degree of `u`: each removal strictly
        // shrinks N*(u). A defensive cap guards against logic errors.
        for _ in 0..10_000 {
            self.overlay_neighbors_into(self.current, nbrs_u)?;
            if nbrs_u.is_empty() {
                return Ok(None);
            }
            let v = nbrs_u[self.rng.gen_range(0..nbrs_u.len())];
            self.overlay_neighbors_into(v, nbrs_v)?;

            // Step 1: removal. Replacement-created edges are exempt —
            // Theorem 3 reasons about the original common-neighbor
            // structure, and deleting a Theorem 4 edge would undo its
            // conductance gain. Two safety guards accompany the criterion:
            //  * min-degree: both endpoints stay walkable;
            //  * overlay common neighbor ≥ 1: a u–w–v path survives the
            //    removal, so overlay connectivity is preserved inductively
            //    (the Original criterion view would otherwise be able to
            //    shatter a clique into disjoint cycles).
            let guard_ok = nbrs_u.len() > self.config.min_overlay_degree
                && nbrs_v.len() > self.config.min_overlay_degree
                && sorted_lists_intersect(nbrs_u, nbrs_v);
            if self.config.removal
                && guard_ok
                && !self.overlay.is_added(self.current, v)
                && self.edge_removable_in_view(self.current, v)?
            {
                self.overlay.remove_edge(self.current, v);
                self.stats.removals += 1;
                continue;
            }

            // Step 2: replacement around the degree-3 pivot `v`.
            if self.config.replacement
                && nbrs_v.len() == PIVOT_DEGREE
                && self.rng.gen::<f64>() < self.config.replace_prob
            {
                // Collect eligibility before borrowing `self` mutably in
                // the closure: check overlay adjacency of u to each target.
                self.eligible.clear();
                for i in 0..nbrs_v.len() {
                    let w = nbrs_v[i];
                    if w != self.current && !self.overlay_has_edge(self.current, w)? {
                        self.eligible.push(w);
                    }
                }
                if self.eligible.is_empty() {
                    self.stats.replacement_rejections += 1;
                } else {
                    let pick = self.eligible[self.rng.gen_range(0..self.eligible.len())];
                    let eligible = &self.eligible;
                    let current = self.current;
                    let plan = plan_replacement(
                        current,
                        v,
                        nbrs_v,
                        |w| !eligible.contains(&w) && w != current,
                        |_| pick,
                    )
                    .expect("eligibility already established");
                    self.overlay.remove_edge(plan.u, plan.v);
                    self.overlay.add_edge(plan.u, plan.w);
                    self.stats.replacements += 1;
                    return Ok(Some(plan.w));
                }
            }

            return Ok(Some(v));
        }
        unreachable!("candidate selection exceeded the defensive iteration cap");
    }
}

/// Neighborhood of `v` in the requested criterion view, assuming `v` is
/// already cached (billed by the caller). Returns a borrowed arena slice
/// whenever possible; falls back to filling `buf` when the overlay has
/// touched `v` or the client cannot expose borrows (e.g. lock-guarded).
fn criterion_slice<'a, C: QueryClient>(
    client: &'a C,
    overlay: &OverlayDelta,
    view: CriterionView,
    v: NodeId,
    buf: &'a mut Vec<NodeId>,
) -> &'a [NodeId] {
    if let Some(base) = client.known_neighbors(v) {
        match view {
            CriterionView::Original => return base,
            CriterionView::Overlay if !overlay.touches(v) => return base,
            CriterionView::Overlay => {
                overlay.adjust_neighbors_into(v, base, buf);
                return buf;
            }
        }
    }
    client.cached_neighbors_into(v, buf);
    if matches!(view, CriterionView::Overlay) {
        overlay.adjust_neighbors_in_place(v, buf);
    }
    buf
}

/// Whether two sorted neighbor lists share at least one element
/// (early-exit — the connectivity guard only needs existence).
fn sorted_lists_intersect(a: &[NodeId], b: &[NodeId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl<C: QueryClient> Walker for MtoSampler<C> {
    fn name(&self) -> &'static str {
        "MTO"
    }

    fn current(&self) -> NodeId {
        self.current
    }

    fn step(&mut self) -> Result<NodeId> {
        if let Some(candidate) = self.select_candidate()? {
            // Lazy coin: move or stay.
            if !self.config.lazy || self.rng.gen_bool(0.5) {
                // Arrival query keeps the invariant that the current node
                // is always cached; degree-only, so nothing is copied.
                self.client.fetch_degree(candidate)?;
                self.current = candidate;
            }
        }
        self.history.push(self.current);
        Ok(self.current)
    }

    fn history(&self) -> &[NodeId] {
        &self.history
    }

    fn query_cost(&self) -> u64 {
        self.client.unique_queries()
    }

    fn importance_weight(&mut self, v: NodeId) -> Result<f64> {
        let k_star = self.overlay_degree_estimate(v, OverlayDegreeMode::Discovered)?;
        Ok(1.0 / k_star)
    }

    fn prefetch_candidates(&self) -> Vec<NodeId> {
        // Candidate selection draws from N*(u): the overlay-adjusted
        // neighborhood of the current node. Both the removal criterion
        // (which needs N*(v) of the pick) and the arrival query land
        // there, so those nodes are the highest-value speculation.
        match self.client.cached_neighbors(self.current) {
            Some(base) => self.overlay.adjust_neighbors(self.current, &base),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::{complete_graph, paper_barbell};
    use mto_osn::{CachedClient, OsnService};

    fn sampler_on(
        g: &mto_graph::Graph,
        start: NodeId,
        config: MtoConfig,
    ) -> MtoSampler<CachedClient<OsnService>> {
        let client = CachedClient::new(OsnService::with_defaults(g));
        MtoSampler::new(client, start, config).unwrap()
    }

    #[test]
    fn walk_moves_only_on_overlay_edges() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        let mut prev = s.current();
        for _ in 0..300 {
            let next = s.step().unwrap();
            if next != prev {
                let base_has = g.has_edge(prev, next);
                assert!(
                    s.overlay().has_edge(base_has, prev, next),
                    "moved along non-overlay edge {prev} → {next}"
                );
            }
            prev = next;
        }
    }

    #[test]
    fn prefetch_candidates_track_the_overlay_neighborhood() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        for _ in 0..500 {
            s.step().unwrap();
        }
        let candidates = s.prefetch_candidates();
        assert!(!candidates.is_empty(), "current node is cached, so candidates exist");
        // Candidates are exactly N*(current): the overlay view, not the
        // base neighborhood.
        let base = s.client().cached(s.current()).unwrap().neighbors.clone();
        assert_eq!(candidates, s.overlay().adjust_neighbors(s.current(), &base));
        // Free: enumerating candidates never issues queries.
        let before = s.query_cost();
        let _ = s.prefetch_candidates();
        assert_eq!(s.query_cost(), before);
    }

    #[test]
    fn removals_happen_on_the_barbell() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::removal_only());
        for _ in 0..500 {
            s.step().unwrap();
        }
        let stats = s.stats();
        assert!(stats.removals > 10, "dense cliques must shed edges, got {stats:?}");
        assert_eq!(stats.replacements, 0);
    }

    #[test]
    fn bridge_edge_is_never_removed() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        for _ in 0..2000 {
            s.step().unwrap();
        }
        assert!(
            !s.overlay().is_removed(NodeId(0), NodeId(11)),
            "the only cross-cutting edge must survive"
        );
    }

    #[test]
    fn overlay_stays_connected_on_barbell() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        for _ in 0..2000 {
            s.step().unwrap();
        }
        let overlay = s.overlay().materialize(&g);
        let comps = mto_graph::algo::connected_components(&overlay);
        assert_eq!(comps.num_components(), 1, "rewiring must preserve connectivity");
    }

    #[test]
    fn removal_never_fires_without_common_neighbors() {
        // Cycle edges share no common neighbors, so Theorem 3 never fires.
        // (Contrast K8, where common = 6, k = 7 ⇒ removable.)
        let g = mto_graph::generators::cycle_graph(12);
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::removal_only());
        for _ in 0..500 {
            s.step().unwrap();
        }
        assert_eq!(s.stats().removals, 0, "cycle edges share no common neighbors");
    }

    #[test]
    fn replacement_requires_degree_three_pivot() {
        // On K6 every node has degree 5; removal-only=false, replacement
        // alone can never fire.
        let g = complete_graph(6);
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::replacement_only());
        for _ in 0..300 {
            s.step().unwrap();
        }
        assert_eq!(s.stats().replacements, 0);
    }

    #[test]
    fn replacement_fires_once_removals_create_degree3_pivots() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        for _ in 0..5000 {
            s.step().unwrap();
        }
        // Removals thin the cliques toward degree 3, then replacements kick
        // in with probability 0.5 per eligible encounter.
        let stats = s.stats();
        assert!(stats.removals > 20, "{stats:?}");
        assert!(stats.replacements > 0, "{stats:?}");
    }

    #[test]
    fn overlay_degrees_stay_positive() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        for _ in 0..3000 {
            s.step().unwrap();
        }
        let overlay = s.overlay().materialize(&g);
        assert!(overlay.min_degree() >= 1, "no node may be stranded");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = paper_barbell();
        let cfg = MtoConfig { seed: 99, ..Default::default() };
        let mut a = sampler_on(&g, NodeId(0), cfg);
        let mut b = sampler_on(&g, NodeId(0), cfg);
        for _ in 0..500 {
            assert_eq!(a.step().unwrap(), b.step().unwrap());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn resume_replays_to_identical_state() {
        let g = paper_barbell();
        let cfg = MtoConfig { seed: 5, ..Default::default() };
        let mut full = sampler_on(&g, NodeId(0), cfg);
        for _ in 0..400 {
            full.step().unwrap();
        }
        let mut resumed = MtoSampler::resume(
            CachedClient::new(OsnService::with_defaults(&g)),
            NodeId(0),
            cfg,
            250,
        )
        .unwrap();
        for _ in 0..150 {
            resumed.step().unwrap();
        }
        assert_eq!(resumed.history(), full.history());
        assert_eq!(resumed.stats(), full.stats());
        assert_eq!(resumed.current(), full.current());
        assert_eq!(resumed.overlay(), full.overlay());
    }

    #[test]
    fn importance_weight_uses_overlay_degree() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        for _ in 0..2000 {
            s.step().unwrap();
        }
        // Pick a node with known removals incident.
        let v = NodeId(1);
        let k_star = s.overlay_degree_estimate(v, OverlayDegreeMode::Discovered).unwrap();
        let w = s.importance_weight(v).unwrap();
        assert!((w - 1.0 / k_star).abs() < 1e-12);
        assert!(k_star >= 1.0, "clamped below by 1");
    }

    #[test]
    fn exact_removal_mode_counts_kept_edges() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::removal_only());
        // Before any steps: every intra-clique edge of node 1 is removable,
        // so ExactRemoval sees k* = 1 only when all 10 intra-clique edges
        // are removable... node 1 has 10 edges, all intra-clique, all
        // removable → kept = 0 → clamped to 1.
        let k = s.overlay_degree_estimate(NodeId(1), OverlayDegreeMode::ExactRemoval).unwrap();
        assert_eq!(k, 1.0);
        // Bridge endpoint keeps the bridge: 10 removable + 1 kept.
        let k0 = s.overlay_degree_estimate(NodeId(0), OverlayDegreeMode::ExactRemoval).unwrap();
        assert_eq!(k0, 1.0, "only the bridge survives at node 0");
    }

    #[test]
    fn sampled_removal_mode_is_bounded_and_sane() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::removal_only());
        let k = s.overlay_degree_estimate(NodeId(1), OverlayDegreeMode::SampledRemoval(5)).unwrap();
        assert!((1.0..=10.0).contains(&k), "got {k}");
    }

    #[test]
    fn non_lazy_walk_always_moves_on_connected_graph() {
        let g = complete_graph(6);
        let cfg =
            MtoConfig { lazy: false, removal: false, replacement: false, ..Default::default() };
        let mut s = sampler_on(&g, NodeId(0), cfg);
        let mut prev = s.current();
        for _ in 0..100 {
            let next = s.step().unwrap();
            assert_ne!(next, prev, "non-lazy MTO on K6 must always move");
            prev = next;
        }
    }

    #[test]
    fn query_cost_is_bounded_by_visited_plus_probed() {
        let g = paper_barbell();
        let mut s = sampler_on(&g, NodeId(0), MtoConfig::default());
        for _ in 0..100 {
            s.step().unwrap();
        }
        assert!(s.query_cost() <= 22, "cannot exceed the node count");
    }
}
