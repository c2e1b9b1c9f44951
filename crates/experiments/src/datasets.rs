//! Dataset stand-ins for the paper's Table I snapshots and the Google Plus
//! online graph.
//!
//! The SNAP archives the paper downloads (Epinions, Slashdot Feb/Nov 2009)
//! are not available offline, so each dataset is *synthesized* to match
//! the properties the experiments actually exercise:
//!
//! * node/edge scale (Table I: 26,588/100,120 … 70,999/436,453),
//! * a heavy-tailed degree distribution (Chung–Lu with power-law weights),
//! * pronounced community structure — the cause of the low conductance
//!   that motivates the whole paper — planted by splitting each node's
//!   expected degree into an intra-community and a global share,
//! * a small 90% effective diameter (~4.5, Table I).
//!
//! * near-clique **social circles** — trust/friendship snapshots like
//!   Epinions are triangle-dense (clustering ≈ 0.2–0.3), and those
//!   almost-complete ego neighborhoods are exactly what the Theorem 3
//!   removal criterion (`|N(u)∩N(v)| ≳ max(k)−2`) consumes. Without them
//!   MTO degenerates to replacement-only.
//!
//! The construction: community sizes follow a power law; within each
//! community, members are grouped into dense circles (size 4–9, ~95%
//! internal edge probability) whose edges dominate a typical node's
//! degree; the node's *residual* expected degree is realized by Chung–Lu
//! passes — `(1 − mixing)` of it inside the community, `mixing` globally.
//! Everything is merged, deduplicated, reduced to the largest connected
//! component, and served behind the `mto-osn` interface.

use mto_graph::algo::largest_component;
use mto_graph::generators::{chung_lu_graph, power_law_weights, ChungLuSpec};
use mto_graph::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Recipe for one synthetic social network.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset label (matches the paper's).
    pub name: &'static str,
    /// Target node count (before largest-component extraction).
    pub nodes: usize,
    /// Target *average degree* (calibrates edge count).
    pub target_avg_degree: f64,
    /// Power-law exponent of the degree distribution.
    pub exponent: f64,
    /// Fraction of each node's degree spent on global (inter-community)
    /// edges. Smaller = stronger communities = lower conductance.
    pub mixing: f64,
    /// Number of communities.
    pub communities: usize,
    /// Social-circle size range (near-cliques dominating typical nodes'
    /// degree; drives the triangle density Theorem 3 feeds on).
    pub circle_size: (usize, usize),
    /// Probability of each within-circle edge.
    pub circle_edge_prob: f64,
    /// Fraction of circles that are **whiskers**: dense attachments whose
    /// members reach the rest of the graph only through one gateway
    /// member. Whiskers are the low-conductance structure Leskovec et
    /// al. (\[16\] in the paper) measured in real social networks and the
    /// main reason their mixing times are so long (\[18\]) — and they are
    /// near-cliques, so Theorem 3 can dissolve them.
    pub whisker_fraction: f64,
    /// RNG seed (datasets are fully deterministic).
    pub seed: u64,
    /// Paper-reported statistics for side-by-side reporting:
    /// `(nodes, edges, diameter90)`.
    pub paper_reference: (usize, usize, f64),
}

impl DatasetSpec {
    /// Epinions-like: 26,588 nodes / 100,120 edges / 4.8 diameter.
    pub fn epinions() -> Self {
        DatasetSpec {
            name: "Epinions",
            nodes: 26_588,
            target_avg_degree: 2.0 * 100_120.0 / 26_588.0,
            exponent: 2.3,
            mixing: 0.22,
            communities: 60,
            circle_size: (4, 8),
            circle_edge_prob: 0.95,
            whisker_fraction: 0.6,
            seed: 0xE91,
            paper_reference: (26_588, 100_120, 4.8),
        }
    }

    /// Slashdot-A-like: 70,068 nodes / 428,714 edges / 4.5 diameter.
    pub fn slashdot_a() -> Self {
        DatasetSpec {
            name: "Slashdot A",
            nodes: 70_068,
            target_avg_degree: 2.0 * 428_714.0 / 70_068.0,
            exponent: 2.4,
            mixing: 0.25,
            communities: 90,
            circle_size: (5, 9),
            circle_edge_prob: 0.95,
            whisker_fraction: 0.55,
            seed: 0x51A,
            paper_reference: (70_068, 428_714, 4.5),
        }
    }

    /// Slashdot-B-like: 70,999 nodes / 436,453 edges / 4.5 diameter.
    pub fn slashdot_b() -> Self {
        DatasetSpec {
            name: "Slashdot B",
            nodes: 70_999,
            target_avg_degree: 2.0 * 436_453.0 / 70_999.0,
            exponent: 2.4,
            mixing: 0.25,
            communities: 90,
            circle_size: (5, 9),
            circle_edge_prob: 0.95,
            whisker_fraction: 0.55,
            seed: 0x51B,
            paper_reference: (70_999, 436_453, 4.5),
        }
    }

    /// Google-Plus-like: the paper accessed 240,276 users through the live
    /// API (no ground truth existed for the full 85M-user network; like
    /// the paper we treat the converged estimate as the reference).
    pub fn google_plus() -> Self {
        DatasetSpec {
            name: "Google Plus",
            nodes: 240_276,
            target_avg_degree: 12.0,
            exponent: 2.2,
            mixing: 0.2,
            communities: 250,
            circle_size: (4, 9),
            circle_edge_prob: 0.95,
            whisker_fraction: 0.55,
            seed: 0x6006,
            paper_reference: (240_276, 0, 0.0),
        }
    }

    /// A `1/scale` miniature preserving density and structure — used by
    /// unit tests and reduced experiment runs.
    pub fn scaled_down(&self, scale: usize) -> DatasetSpec {
        assert!(scale >= 1, "scale must be positive");
        DatasetSpec {
            nodes: (self.nodes / scale).max(200),
            communities: (self.communities / scale).max(4),
            ..self.clone()
        }
    }

    /// All three Table I datasets.
    pub fn table1() -> Vec<DatasetSpec> {
        vec![DatasetSpec::slashdot_a(), DatasetSpec::slashdot_b(), DatasetSpec::epinions()]
    }
}

/// Builds the dataset: returns the largest connected component, densely
/// relabelled.
pub fn build_dataset(spec: &DatasetSpec) -> Graph {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = spec.nodes;

    // Power-law expected degrees, rescaled to the target mean. The cap is
    // the Chung–Lu feasibility limit √W = √(n·k̄): real snapshots carry
    // hubs of thousands of friends, and a lighter cap would flatten the
    // tail and flatter the uniform-target samplers (MHRW/RJ) unfairly.
    let weight_cap = (n as f64 * spec.target_avg_degree).sqrt();
    let cl = ChungLuSpec::new(n, spec.exponent, 1.0, weight_cap);
    let mut weights = power_law_weights(&cl, &mut rng);
    let mean_w: f64 = weights.iter().sum::<f64>() / n as f64;
    let scale = spec.target_avg_degree / mean_w;
    for w in &mut weights {
        *w = (*w * scale).min(weight_cap);
    }

    // Power-law community sizes.
    let membership = assign_communities(n, spec.communities, &mut rng);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); spec.communities];
    for (node, &c) in membership.iter().enumerate() {
        members[c].push(node as u32);
    }

    let mut builder = GraphBuilder::with_nodes(n);
    // Mirrors the builder's connectivity so whisker gateways can be
    // steered into the largest realized component below.
    let mut dsu = UnionFind::new(n);

    // Social circles: chop each community into dense near-cliques. A
    // typical (low-weight) node's degree is dominated by its circle, which
    // creates the `common ≈ k − 2` neighborhoods the removal criterion
    // needs. Each circle edge consumes expected degree, tracked per node
    // so the Chung–Lu passes only realize the residual.
    let (lo, hi) = spec.circle_size;
    assert!(2 <= lo && lo <= hi, "invalid circle size range {lo}..={hi}");
    assert!((0.0..=1.0).contains(&spec.whisker_fraction), "whisker fraction outside [0,1]");
    let mut circle_degree = vec![0.0f64; n];
    // Whisker members (gateway included) get no external residual; each
    // whisker is re-attached by exactly one gateway edge after the
    // Chung–Lu passes.
    let mut external_blocked = vec![false; n];
    let mut whisker_gateways: Vec<(u32, usize)> = Vec::new();
    for (community_index, community) in members.iter().enumerate() {
        let mut pool: Vec<u32> = community.clone();
        // Shuffle so circles don't correlate with node weight.
        for i in (1..pool.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool.swap(i, j);
        }
        let mut idx = 0usize;
        while pool.len() - idx >= lo {
            let size = rng.gen_range(lo..=hi).min(pool.len() - idx);
            let circle = &pool[idx..idx + size];
            for a in 0..size {
                for b in (a + 1)..size {
                    if rng.gen::<f64>() < spec.circle_edge_prob {
                        builder.add_edge_u32(circle[a], circle[b]);
                        dsu.union(circle[a], circle[b]);
                        circle_degree[circle[a] as usize] += 1.0;
                        circle_degree[circle[b] as usize] += 1.0;
                    }
                }
            }
            if rng.gen::<f64>() < spec.whisker_fraction {
                // Whisker: the whole circle is sealed off from the
                // Chung–Lu passes and re-attached to the core by exactly
                // one gateway edge below — the canonical single-edge
                // whisker of Leskovec et al., whose cut conductance
                // (1 / circle volume) is strictly deeper than any
                // chance-attached circle.
                let gateway = circle[rng.gen_range(0..size)];
                for &member in circle {
                    external_blocked[member as usize] = true;
                }
                whisker_gateways.push((gateway, community_index));
            }
            idx += size;
        }
    }

    // Residual expected degree feeds the Chung–Lu passes. Sealed whisker
    // members get nothing (their gateway edge is added explicitly below);
    // everyone else keeps what the circles did not consume.
    let mut residual: Vec<f64> = weights
        .iter()
        .zip(&circle_degree)
        .enumerate()
        .map(|(v, (w, c))| if external_blocked[v] { 0.0 } else { (w - c).max(0.2) })
        .collect();

    // Rescale the residual pool so the realized mean degree still tracks
    // the Table I target despite the sealed whisker members.
    let circle_mean = circle_degree.iter().sum::<f64>() / n as f64;
    let residual_mean = residual.iter().sum::<f64>() / n as f64;
    let needed_mean = (spec.target_avg_degree - circle_mean).max(0.1);
    if residual_mean > 0.0 {
        let boost = needed_mean / residual_mean;
        for r in &mut residual {
            *r = (*r * boost).min(weight_cap);
        }
    }

    // Intra-community share of the residual.
    for community in &members {
        if community.len() < 2 {
            continue;
        }
        let local_weights: Vec<f64> =
            community.iter().map(|&v| residual[v as usize] * (1.0 - spec.mixing)).collect();
        if local_weights.iter().sum::<f64>() <= 0.0 {
            // Every member sealed into whiskers: nothing to realize (a
            // high `whisker_fraction` can consume a small community
            // entirely; its circles are attached by gateway edges below).
            continue;
        }
        let local = chung_lu_graph(&local_weights, &mut rng);
        for e in local.edges() {
            builder.add_edge_u32(community[e.small().index()], community[e.large().index()]);
            dsu.union(community[e.small().index()], community[e.large().index()]);
        }
    }

    // Global share of the residual.
    let global_weights: Vec<f64> = residual.iter().map(|w| w * spec.mixing).collect();
    let global = chung_lu_graph(&global_weights, &mut rng);
    for e in global.edges() {
        builder.add_edge_u32(e.small().0, e.large().0);
        dsu.union(e.small().0, e.large().0);
    }

    // Attach each whisker to the core by exactly one gateway edge —
    // preferably inside its own community, falling back to any core node
    // when the community was chopped into whiskers entirely. Targets are
    // restricted to the *largest realized component* (tracked by the
    // union-find above), so the whisker provably survives the
    // largest-component extraction and its cut is the Φ ≈ 1/volume
    // structure the spec promises — an unsealed node with zero realized
    // Chung–Lu edges would otherwise drag the whisker out of the LCC.
    let open_roots: Vec<u32> =
        (0..n as u32).filter(|&v| !external_blocked[v as usize]).map(|v| dsu.find(v)).collect();
    let core_root = open_roots.into_iter().max_by_key(|&r| dsu.component_size(r));
    let open: Vec<u32> = match core_root {
        Some(root) => (0..n as u32)
            .filter(|&v| !external_blocked[v as usize] && dsu.find(v) == root)
            .collect(),
        None => Vec::new(),
    };
    for &(gateway, community) in &whisker_gateways {
        let candidates: Vec<u32> = members[community]
            .iter()
            .copied()
            .filter(|&v| !external_blocked[v as usize] && Some(dsu.find(v)) == core_root)
            .collect();
        let target = if !candidates.is_empty() {
            candidates[rng.gen_range(0..candidates.len())]
        } else if !open.is_empty() {
            open[rng.gen_range(0..open.len())]
        } else if gateway != 0 {
            // Degenerate spec (every node whiskered): chain to node 0.
            NodeId(0).0
        } else {
            continue;
        };
        builder.add_edge_u32(gateway, target);
    }

    let merged = builder.build();
    largest_component(&merged).0
}

/// Size-tracking union-find over node ids, mirroring realized edges so
/// whisker gateways can target the largest component deterministically.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }

    /// Size of the component rooted at `root` (callers pass `find(v)`).
    fn component_size(&self, root: u32) -> u32 {
        self.size[root as usize]
    }
}

/// Assigns nodes to communities with power-law sizes (Zipf-ish weights).
fn assign_communities<R: Rng + ?Sized>(n: usize, communities: usize, rng: &mut R) -> Vec<usize> {
    assert!(communities >= 1);
    // Community attraction ∝ rank^{-0.8}: a few big, many small.
    let attractions: Vec<f64> = (1..=communities).map(|r| (r as f64).powf(-0.8)).collect();
    let total: f64 = attractions.iter().sum();
    let mut cumulative = Vec::with_capacity(communities);
    let mut acc = 0.0;
    for a in &attractions {
        acc += a / total;
        cumulative.push(acc);
    }
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            cumulative.iter().position(|&c| u <= c).unwrap_or(communities - 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::algo::{connected_components, DegreeStats};

    fn mini(spec: DatasetSpec) -> (DatasetSpec, Graph) {
        let s = spec.scaled_down(20);
        let g = build_dataset(&s);
        (s, g)
    }

    #[test]
    fn mini_epinions_has_expected_shape() {
        let (s, g) = mini(DatasetSpec::epinions());
        assert!(g.num_nodes() > s.nodes / 2, "LCC keeps most nodes: {}", g.num_nodes());
        let avg = g.average_degree();
        assert!(
            (avg - s.target_avg_degree).abs() / s.target_avg_degree < 0.35,
            "avg degree {avg} vs target {}",
            s.target_avg_degree
        );
        assert_eq!(connected_components(&g).num_components(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let (_, g) = mini(DatasetSpec::slashdot_a());
        let stats = DegreeStats::of(&g);
        assert!(stats.max as f64 > 6.0 * stats.mean, "hub {} vs mean {}", stats.max, stats.mean);
        assert!(stats.min >= 1);
    }

    #[test]
    fn communities_lower_conductance() {
        // Compare the sweep-cut conductance of the community graph against
        // a degree-matched Chung–Lu graph without communities. Whiskers
        // are disabled so the community mixing knob is what's isolated
        // (whisker cuts otherwise dominate both graphs equally).
        use mto_spectral::conductance::sweep_conductance;
        let spec = DatasetSpec { mixing: 0.08, whisker_fraction: 0.0, ..DatasetSpec::epinions() }
            .scaled_down(40);
        let clustered = build_dataset(&spec);
        let flat_spec = DatasetSpec { mixing: 0.999, ..spec.clone() };
        let flat = build_dataset(&flat_spec);
        let (phi_clustered, _) = sweep_conductance(&clustered);
        let (phi_flat, _) = sweep_conductance(&flat);
        assert!(
            phi_clustered < phi_flat,
            "communities must hurt conductance: {phi_clustered} vs {phi_flat}"
        );
    }

    #[test]
    fn whiskers_lower_conductance_further() {
        use mto_spectral::conductance::sweep_conductance;
        let base = DatasetSpec { whisker_fraction: 0.0, ..DatasetSpec::epinions() }.scaled_down(40);
        let whiskered =
            DatasetSpec { whisker_fraction: 0.8, ..DatasetSpec::epinions() }.scaled_down(40);
        let (phi_base, _) = sweep_conductance(&build_dataset(&base));
        let (phi_whiskered, _) = sweep_conductance(&build_dataset(&whiskered));
        assert!(
            phi_whiskered < phi_base,
            "whiskers are the low-conductance structure: {phi_whiskered} vs {phi_base}"
        );
    }

    #[test]
    fn datasets_are_deterministic() {
        let spec = DatasetSpec::epinions().scaled_down(40);
        let a = build_dataset(&spec);
        let b = build_dataset(&spec);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn distinct_seeds_give_distinct_graphs() {
        let a = build_dataset(&DatasetSpec::epinions().scaled_down(40));
        let b =
            build_dataset(&DatasetSpec { seed: 123, ..DatasetSpec::epinions() }.scaled_down(40));
        assert_ne!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn community_assignment_is_skewed() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = assign_communities(10_000, 20, &mut rng);
        let mut sizes = [0usize; 20];
        for &c in &m {
            sizes[c] += 1;
        }
        assert!(sizes[0] > sizes[19], "rank-1 community should dominate rank-20");
        assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn table1_lists_three_datasets() {
        let specs = DatasetSpec::table1();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[2].name, "Epinions");
    }

    #[test]
    fn scaled_down_shrinks() {
        let s = DatasetSpec::slashdot_b().scaled_down(10);
        assert_eq!(s.nodes, 7_099);
        assert_eq!(s.communities, 9);
        // Density target unchanged.
        assert_eq!(s.target_avg_degree, DatasetSpec::slashdot_b().target_avg_degree);
    }
}
