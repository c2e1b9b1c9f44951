//! Graph conductance under the paper's Definition 3, exact cross-cutting
//! edge identification (Definition 4), and a spectral sweep heuristic for
//! graphs beyond brute force.
//!
//! The paper's conductance divides the cut size by the number of edges with
//! at least one endpoint on the smaller side (each edge counted once):
//!
//! ```text
//! Φ(G) = min_S  |∂S| / min(|E(S,V)|, |E(S̄,V)|)
//! ```
//!
//! For the barbell running example this gives `Φ = 1/(C(11,2)+1) = 1/56 ≈
//! 0.018`, matching the paper exactly.
//!
//! Exact minimization enumerates all bipartitions with a Gray-code sweep —
//! one vertex flips per step, so each step costs `O(deg)` instead of
//! `O(m)`. By complement symmetry only `2^{n-1}` masks are visited. This is
//! exponential and gated at [`MAX_EXACT_NODES`] nodes; the paper-scale toy
//! graphs (barbell: 22 nodes) are comfortably inside.

use std::collections::BTreeSet;

use mto_graph::{Edge, Graph, NodeId};

/// Largest graph (in nodes) accepted by the exact brute-force routines.
pub const MAX_EXACT_NODES: usize = 26;

/// Cap on how many minimizing cuts [`exact_conductance`] records.
pub const MAX_ARGMIN_CUTS: usize = 4096;

/// Edge counts of one bipartition `(S, S̄)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutMetrics {
    /// Edges crossing the cut.
    pub cut: usize,
    /// Edges fully inside `S`.
    pub within_s: usize,
    /// Edges fully inside `S̄`.
    pub within_t: usize,
}

impl CutMetrics {
    /// Edges with at least one endpoint in `S`.
    pub fn touching_s(&self) -> usize {
        self.within_s + self.cut
    }

    /// Edges with at least one endpoint in `S̄`.
    pub fn touching_t(&self) -> usize {
        self.within_t + self.cut
    }

    /// `ϕ(S)` per Definition 3/4, or `None` when the denominator is zero
    /// (a side with no incident edges at all).
    pub fn phi(&self) -> Option<f64> {
        let denom = self.touching_s().min(self.touching_t());
        if denom == 0 {
            None
        } else {
            Some(self.cut as f64 / denom as f64)
        }
    }

    /// Exact rational comparison `ϕ(self) < ϕ(other)`; `None` denominators
    /// sort last.
    pub fn phi_less_than(&self, other: &CutMetrics) -> bool {
        let d1 = self.touching_s().min(self.touching_t());
        let d2 = other.touching_s().min(other.touching_t());
        match (d1, d2) {
            (0, _) => false,
            (_, 0) => true,
            _ => (self.cut as u128) * (d2 as u128) < (other.cut as u128) * (d1 as u128),
        }
    }

    /// Exact rational equality of the two ratios.
    pub fn phi_equals(&self, other: &CutMetrics) -> bool {
        let d1 = self.touching_s().min(self.touching_t());
        let d2 = other.touching_s().min(other.touching_t());
        match (d1, d2) {
            (0, 0) => true,
            (0, _) | (_, 0) => false,
            _ => (self.cut as u128) * (d2 as u128) == (other.cut as u128) * (d1 as u128),
        }
    }
}

/// Computes the metrics of an explicit bipartition given by membership
/// flags (`true` = in `S`).
///
/// # Panics
/// Panics if `in_s.len() != g.num_nodes()`.
pub fn cut_metrics(g: &Graph, in_s: &[bool]) -> CutMetrics {
    assert_eq!(in_s.len(), g.num_nodes(), "membership vector length mismatch");
    let mut m = CutMetrics { cut: 0, within_s: 0, within_t: 0 };
    for e in g.edges() {
        let (u, v) = e.endpoints();
        match (in_s[u.index()], in_s[v.index()]) {
            (true, true) => m.within_s += 1,
            (false, false) => m.within_t += 1,
            _ => m.cut += 1,
        }
    }
    m
}

/// Number of edges crossing the bipartition — the combinatorial core that
/// Theorem 3's "dragging" argument manipulates.
pub fn edge_boundary(g: &Graph, in_s: &[bool]) -> usize {
    cut_metrics(g, in_s).cut
}

/// Result of exact conductance minimization.
#[derive(Clone, Debug)]
pub struct ExactConductance {
    /// The minimum `ϕ(S)` over all nontrivial bipartitions with nonzero
    /// denominators; `f64::INFINITY` when no bipartition qualifies
    /// (edge-free graphs).
    pub phi: f64,
    /// A bitmask (bit `v` set ⇔ `v ∈ S`) achieving the minimum.
    pub best_cut: u64,
    /// All minimizing bitmasks (each recorded once with vertex `n-1` on the
    /// `S̄` side), possibly truncated at [`MAX_ARGMIN_CUTS`].
    pub argmin_cuts: Vec<u64>,
    /// Whether `argmin_cuts` hit the cap.
    pub truncated: bool,
}

/// Expands a bitmask into a membership vector.
pub fn mask_to_membership(mask: u64, n: usize) -> Vec<bool> {
    (0..n).map(|v| mask >> v & 1 == 1).collect()
}

/// Exact conductance by Gray-code enumeration of all bipartitions.
///
/// # Panics
/// Panics for graphs larger than [`MAX_EXACT_NODES`] nodes or without edges.
pub fn exact_conductance(g: &Graph) -> ExactConductance {
    let n = g.num_nodes();
    assert!(n >= 2, "conductance needs at least two nodes");
    assert!(
        n <= MAX_EXACT_NODES,
        "exact conductance is exponential; {n} nodes exceeds the {MAX_EXACT_NODES}-node cap"
    );
    assert!(g.num_edges() > 0, "conductance of an edge-free graph is undefined");

    let m = g.num_edges();
    // State: S = set bits of `mask`; updated incrementally.
    let mut in_s = vec![false; n];
    let mut metrics = CutMetrics { cut: 0, within_s: 0, within_t: m };
    let mut mask: u64 = 0;

    let mut best: Option<CutMetrics> = None;
    let mut best_masks: Vec<u64> = Vec::new();
    let mut truncated = false;

    // Gray-code walk over the 2^(n-1) subsets of {0, .., n-2}; vertex n-1
    // stays in S̄, which covers all bipartitions up to complement.
    let steps: u64 = 1u64 << (n - 1);
    for i in 1..steps {
        let flip = i.trailing_zeros() as usize;
        let v = NodeId::from_index(flip);
        let entering = !in_s[flip];
        for &u in g.neighbors(v) {
            let u_in_s = in_s[u.index()];
            if entering {
                if u_in_s {
                    metrics.cut -= 1;
                    metrics.within_s += 1;
                } else {
                    metrics.within_t -= 1;
                    metrics.cut += 1;
                }
            } else if u_in_s {
                metrics.within_s -= 1;
                metrics.cut += 1;
            } else {
                metrics.cut -= 1;
                metrics.within_t += 1;
            }
        }
        in_s[flip] = entering;
        mask ^= 1u64 << flip;

        if metrics.phi().is_none() {
            continue;
        }
        match &best {
            Some(b) if metrics.phi_equals(b) => {
                if best_masks.len() < MAX_ARGMIN_CUTS {
                    best_masks.push(mask);
                } else {
                    truncated = true;
                }
            }
            Some(b) if !metrics.phi_less_than(b) => {}
            _ => {
                best = Some(metrics);
                best_masks.clear();
                best_masks.push(mask);
                truncated = false;
            }
        }
    }

    match best {
        Some(b) => ExactConductance {
            phi: b.phi().expect("best cut has nonzero denominator"),
            best_cut: best_masks[0],
            argmin_cuts: best_masks,
            truncated,
        },
        None => ExactConductance {
            phi: f64::INFINITY,
            best_cut: 0,
            argmin_cuts: Vec::new(),
            truncated: false,
        },
    }
}

/// The cross-cutting edges of Definition 4: edges crossing *some*
/// conductance-minimizing bipartition.
///
/// # Panics
/// Panics when the argmin enumeration was truncated (pathologically many
/// minimizing cuts) — results would be incomplete.
pub fn cross_cutting_edges(g: &Graph) -> BTreeSet<Edge> {
    let result = exact_conductance(g);
    assert!(
        !result.truncated,
        "too many minimizing cuts ({}+) to enumerate cross-cutting edges exactly",
        MAX_ARGMIN_CUTS
    );
    let mut edges = BTreeSet::new();
    for &mask in &result.argmin_cuts {
        for e in g.edges() {
            let (u, v) = e.endpoints();
            if (mask >> u.index() & 1) != (mask >> v.index() & 1) {
                edges.insert(e);
            }
        }
    }
    edges
}

/// Whether the edge `(u, v)` is cross-cutting (Definition 4).
///
/// # Panics
/// As [`cross_cutting_edges`]; additionally if the edge is absent.
pub fn is_cross_cutting(g: &Graph, u: NodeId, v: NodeId) -> bool {
    assert!(g.has_edge(u, v), "({u}, {v}) is not an edge");
    cross_cutting_edges(g).contains(&Edge::new(u, v))
}

/// Conductance upper bound by a spectral sweep cut.
///
/// Computes the second eigenvector of the lazy symmetrized walk matrix by
/// deflated power iteration, orders vertices by `x(u)/√k_u`, and sweeps all
/// prefixes, returning the best `ϕ` seen and its membership vector. This is
/// the classic Cheeger-rounding certificate: always an upper bound on Φ,
/// usually tight on community-structured graphs.
///
/// # Panics
/// Panics on graphs with isolated nodes or fewer than 2 nodes.
pub fn sweep_conductance(g: &Graph) -> (f64, Vec<bool>) {
    use crate::power::{second_eigenvector_lazy, PowerIterationOptions};
    let n = g.num_nodes();
    assert!(n >= 2, "conductance needs at least two nodes");
    let (_lambda, x) = second_eigenvector_lazy(g, PowerIterationOptions::default());

    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by(|&a, &b| {
        let sa = x[a.index()] / (g.degree(a) as f64).sqrt();
        let sb = x[b.index()] / (g.degree(b) as f64).sqrt();
        sa.partial_cmp(&sb).expect("eigenvector has no NaN")
    });

    let m = g.num_edges();
    let mut in_s = vec![false; n];
    let mut metrics = CutMetrics { cut: 0, within_s: 0, within_t: m };
    let mut best_phi = f64::INFINITY;
    let mut best_prefix = 0usize;

    for (prefix, &v) in order.iter().enumerate().take(n - 1) {
        for &u in g.neighbors(v) {
            if in_s[u.index()] {
                metrics.cut -= 1;
                metrics.within_s += 1;
            } else {
                metrics.within_t -= 1;
                metrics.cut += 1;
            }
        }
        in_s[v.index()] = true;
        if let Some(phi) = metrics.phi() {
            if phi < best_phi {
                best_phi = phi;
                best_prefix = prefix + 1;
            }
        }
    }

    let mut best_membership = vec![false; n];
    for &v in order.iter().take(best_prefix) {
        best_membership[v.index()] = true;
    }
    (best_phi, best_membership)
}

/// Best-effort conductance: exact below [`MAX_EXACT_NODES`] nodes, spectral
/// sweep (upper bound) above.
pub fn conductance_estimate(g: &Graph) -> f64 {
    if g.num_nodes() <= MAX_EXACT_NODES {
        exact_conductance(g).phi
    } else {
        sweep_conductance(g).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::{
        barbell_graph, complete_graph, cycle_graph, paper_barbell, path_graph, BarbellSpec,
    };

    #[test]
    fn barbell_conductance_matches_paper() {
        let g = paper_barbell();
        let result = exact_conductance(&g);
        assert!(
            (result.phi - 1.0 / 56.0).abs() < 1e-12,
            "paper: Φ(G) = 1/56 ≈ 0.018, got {}",
            result.phi
        );
    }

    #[test]
    fn barbell_minimizing_cut_is_the_clique_split() {
        let g = paper_barbell();
        let result = exact_conductance(&g);
        // The paper says the minimizing S/S̄ pair is unique: the two cliques.
        assert_eq!(result.argmin_cuts.len(), 1);
        let members = mask_to_membership(result.best_cut, 22);
        let side_a: usize = members.iter().filter(|&&b| b).count();
        assert_eq!(side_a, 11);
        // All of one clique on one side.
        let first = members[0];
        for v in 0..11 {
            assert_eq!(members[v], first);
        }
    }

    #[test]
    fn barbell_cross_cutting_edge_is_the_bridge() {
        let g = paper_barbell();
        let cc = cross_cutting_edges(&g);
        assert_eq!(cc.len(), 1);
        assert!(cc.contains(&Edge::new(NodeId(0), NodeId(11))));
        assert!(is_cross_cutting(&g, NodeId(0), NodeId(11)));
        assert!(!is_cross_cutting(&g, NodeId(0), NodeId(1)));
    }

    #[test]
    fn adding_a_bridge_raises_conductance_as_paper_says() {
        // Paper running example: one extra cross-clique edge lifts Φ from
        // 0.018 to 0.035.
        let one = barbell_graph(BarbellSpec { clique_size: 11, bridges: 1 });
        let two = barbell_graph(BarbellSpec { clique_size: 11, bridges: 2 });
        let phi1 = exact_conductance(&one).phi;
        let phi2 = exact_conductance(&two).phi;
        assert!((phi1 - 1.0 / 56.0).abs() < 1e-12);
        assert!((phi2 - 2.0 / 57.0).abs() < 1e-12, "got {phi2}");
        assert!((phi2 - 0.035).abs() < 5e-4, "paper reports 0.035");
    }

    #[test]
    fn complete_graph_conductance() {
        // K_n: the minimizing split is as balanced as possible. For K_6 and
        // |S|=3: cut 9, touching each side 3+9=12 ⇒ ϕ = 0.75.
        let g = complete_graph(6);
        let phi = exact_conductance(&g).phi;
        assert!((phi - 0.75).abs() < 1e-12, "got {phi}");
    }

    #[test]
    fn path_conductance_cuts_in_the_middle() {
        // P_4 (3 edges): S = half line: cut 1, touching = 2 each ⇒ 0.5.
        let g = path_graph(4);
        let phi = exact_conductance(&g).phi;
        assert!((phi - 0.5).abs() < 1e-12, "got {phi}");
    }

    #[test]
    fn cycle_conductance() {
        // C_8: opposite-arc split: cut 2, each side touches 3+2=5 ⇒ 0.4.
        let g = cycle_graph(8);
        let phi = exact_conductance(&g).phi;
        assert!((phi - 0.4).abs() < 1e-12, "got {phi}");
    }

    #[test]
    fn disconnected_graph_has_zero_conductance() {
        let g = Graph::from_edges([(0u32, 1u32), (2, 3)]).unwrap();
        let result = exact_conductance(&g);
        assert_eq!(result.phi, 0.0);
    }

    #[test]
    fn cut_metrics_by_hand() {
        let g = paper_barbell();
        let mut in_s = vec![false; 22];
        for v in 0..11 {
            in_s[v] = true;
        }
        let m = cut_metrics(&g, &in_s);
        assert_eq!(m.cut, 1);
        assert_eq!(m.within_s, 55);
        assert_eq!(m.within_t, 55);
        assert_eq!(m.touching_s(), 56);
        assert_eq!(m.phi(), Some(1.0 / 56.0));
        assert_eq!(edge_boundary(&g, &in_s), 1);
    }

    #[test]
    fn phi_comparisons_are_exact() {
        let a = CutMetrics { cut: 1, within_s: 55, within_t: 55 }; // 1/56
                                                                   // b: touching_s = 112, touching_t = 2 ⇒ Φ = 2/2 = 1.
        let b = CutMetrics { cut: 2, within_s: 110, within_t: 0 };
        assert!(a.phi_less_than(&b));
        assert!(!b.phi_less_than(&a));
        let c = CutMetrics { cut: 2, within_s: 110, within_t: 110 }; // 2/112 = 1/56
        assert!(a.phi_equals(&c));
        let zero = CutMetrics { cut: 0, within_s: 0, within_t: 0 };
        assert_eq!(zero.phi(), None);
        assert!(!zero.phi_less_than(&a));
        assert!(a.phi_less_than(&zero));
    }

    #[test]
    fn sweep_matches_exact_on_barbell() {
        let g = paper_barbell();
        let (phi, membership) = sweep_conductance(&g);
        assert!((phi - 1.0 / 56.0).abs() < 1e-9, "sweep found {phi}");
        let s_size = membership.iter().filter(|&&b| b).count();
        assert_eq!(s_size, 11);
    }

    #[test]
    fn sweep_is_an_upper_bound_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..5u64 {
            let g = mto_graph::generators::gnp_graph(14, 0.4, &mut StdRng::seed_from_u64(seed));
            let (g, _) = mto_graph::algo::largest_component(&g);
            if g.num_nodes() < 4 || g.min_degree() == 0 {
                continue;
            }
            let exact = exact_conductance(&g).phi;
            let (sweep, _) = sweep_conductance(&g);
            assert!(sweep >= exact - 1e-9, "sweep {sweep} below exact {exact} (seed {seed})");
        }
    }

    #[test]
    fn conductance_estimate_dispatches() {
        let g = paper_barbell();
        assert!((conductance_estimate(&g) - 1.0 / 56.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn exact_rejects_large_graphs() {
        let g = complete_graph(MAX_EXACT_NODES + 1);
        let _ = exact_conductance(&g);
    }

    #[test]
    #[should_panic(expected = "edge-free")]
    fn exact_rejects_edge_free() {
        let _ = exact_conductance(&Graph::with_nodes(3));
    }

    use mto_graph::Graph;
}
