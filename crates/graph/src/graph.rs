//! The mutable adjacency-list graph at the heart of the substrate.
//!
//! [`Graph`] models the *simple undirected* graphs the paper works with
//! (Section II-A: "Consider the social-network topology as an undirected
//! graph G(V, E)"). Adjacency lists are kept sorted so that membership tests
//! are `O(log deg)` and common-neighbor counting — the workhorse of the
//! Theorem 3 removal criterion — is a linear merge.

use crate::error::{GraphError, Result};
use crate::node::{Edge, NodeId};

/// A simple undirected graph with dense `u32` node ids and sorted adjacency.
///
/// Invariants maintained by every method:
/// * no self-loops, no parallel edges;
/// * each adjacency list is strictly sorted;
/// * `(u, v) ∈ E ⇔ (v, u) ∈ E`.
#[derive(Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph with zero nodes.
    pub fn new() -> Self {
        Graph { adj: Vec::new(), num_edges: 0 }
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], num_edges: 0 }
    }

    /// Builds a graph from an iterator of `(u, v)` pairs.
    ///
    /// Nodes are created as needed (the node count becomes one plus the
    /// largest id seen). Duplicate pairs and reversed duplicates are
    /// rejected; use [`crate::GraphBuilder`] for forgiving construction.
    pub fn from_edges<I, E>(edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        let mut g = Graph::new();
        for pair in edges {
            let (u, v) = pair.into();
            let (u, v) = (NodeId(u), NodeId(v));
            let needed = u.index().max(v.index()) + 1;
            if needed > g.adj.len() {
                g.adj.resize(needed, Vec::new());
            }
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Whether `v` is a valid node of this graph.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.adj.len()
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.adj.len());
        self.adj.push(Vec::new());
        id
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if self.contains_node(v) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds { node: v, num_nodes: self.adj.len() })
        }
    }

    /// Inserts the undirected edge `(u, v)`.
    ///
    /// Errors on self-loops, unknown endpoints and duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check_node(u)?;
        self.check_node(v)?;
        let pos_u = match self.adj[u.index()].binary_search(&v) {
            Ok(_) => return Err(GraphError::DuplicateEdge(u, v)),
            Err(pos) => pos,
        };
        self.adj[u.index()].insert(pos_u, v);
        let pos_v = self.adj[v.index()]
            .binary_search(&u)
            .expect_err("adjacency symmetry violated: (v,u) present without (u,v)");
        self.adj[v.index()].insert(pos_v, u);
        self.num_edges += 1;
        Ok(())
    }

    /// Inserts `(u, v)` if absent; returns whether an insertion happened.
    pub fn add_edge_if_absent(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        match self.add_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Removes the undirected edge `(u, v)`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        let pos_u =
            self.adj[u.index()].binary_search(&v).map_err(|_| GraphError::MissingEdge(u, v))?;
        self.adj[u.index()].remove(pos_u);
        let pos_v = self.adj[v.index()]
            .binary_search(&u)
            .expect("adjacency symmetry violated: (u,v) present without (v,u)");
        self.adj[v.index()].remove(pos_v);
        self.num_edges -= 1;
        Ok(())
    }

    /// Whether the undirected edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v
            && self.contains_node(u)
            && self.contains_node(v)
            && self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// The sorted neighborhood `N(v)` — exactly what the OSN interface's
    /// query `q(v)` exposes to a third party.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    /// The degree `k_v = |N(v)|`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::from_index)
    }

    /// Iterates over all undirected edges, each reported once in canonical
    /// `(small, large)` orientation.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(move |(ui, nbrs)| {
            let u = NodeId::from_index(ui);
            nbrs.iter().filter(move |&&v| u < v).map(move |&v| Edge::new(u, v))
        })
    }

    /// Counts `|N(u) ∩ N(v)|` with a sorted merge.
    ///
    /// This is the quantity the Theorem 3 removal criterion keys on.
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        sorted_intersection_count(&self.adj[u.index()], &self.adj[v.index()])
    }

    /// Materializes `N(u) ∩ N(v)` (sorted).
    pub fn common_neighbors(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        sorted_intersection(&self.adj[u.index()], &self.adj[v.index()])
    }

    /// Sum of degrees of the whole graph: `vol(V) = 2|E|`.
    #[inline]
    pub fn volume(&self) -> usize {
        2 * self.num_edges
    }

    /// Largest degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Smallest degree, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Average degree `2|E| / |V|`, or 0.0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            self.volume() as f64 / self.adj.len() as f64
        }
    }

    /// The degree sequence, indexed by node.
    pub fn degree_sequence(&self) -> Vec<usize> {
        self.adj.iter().map(Vec::len).collect()
    }

    /// Extracts the subgraph induced by `keep`, relabelling nodes densely in
    /// the order they appear in `keep`. Returns the subgraph and the mapping
    /// `new id -> old id`.
    ///
    /// # Panics
    /// Panics if `keep` references unknown nodes or contains duplicates.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut old_to_new: Vec<Option<NodeId>> = vec![None; self.adj.len()];
        for (new_idx, &old) in keep.iter().enumerate() {
            assert!(self.contains_node(old), "unknown node {old} in induced_subgraph");
            assert!(old_to_new[old.index()].is_none(), "duplicate node {old} in induced_subgraph");
            old_to_new[old.index()] = Some(NodeId::from_index(new_idx));
        }
        let mut sub = Graph::with_nodes(keep.len());
        for (new_idx, &old) in keep.iter().enumerate() {
            let nu = NodeId::from_index(new_idx);
            for &old_nbr in self.neighbors(old) {
                if let Some(nv) = old_to_new[old_nbr.index()] {
                    if nu < nv {
                        sub.add_edge(nu, nv).expect("induced edge must be fresh");
                    }
                }
            }
        }
        (sub, keep.to_vec())
    }

    /// Assembles a graph from pre-validated parts. Crate-internal: callers
    /// (the builder, CSR round-trips) must guarantee sorted, symmetric,
    /// loop-free adjacency with an accurate edge count.
    pub(crate) fn assemble(adj: Vec<Vec<NodeId>>, num_edges: usize) -> Graph {
        Graph { adj, num_edges }
    }

    /// Checks internal invariants; used by tests and debug assertions.
    pub fn validate(&self) -> Result<()> {
        let mut count = 0usize;
        for (ui, nbrs) in self.adj.iter().enumerate() {
            let u = NodeId::from_index(ui);
            let mut prev: Option<NodeId> = None;
            for &v in nbrs {
                if v == u {
                    return Err(GraphError::SelfLoop(u));
                }
                self.check_node(v)?;
                if let Some(p) = prev {
                    if p >= v {
                        return Err(GraphError::DuplicateEdge(u, v));
                    }
                }
                prev = Some(v);
                if self.adj[v.index()].binary_search(&u).is_err() {
                    return Err(GraphError::MissingEdge(v, u));
                }
                count += 1;
            }
        }
        debug_assert_eq!(count % 2, 0);
        if count / 2 != self.num_edges {
            return Err(GraphError::Parse {
                line: 0,
                message: format!(
                    "edge count mismatch: counted {}, recorded {}",
                    count / 2,
                    self.num_edges
                ),
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.num_nodes(), self.num_edges())
    }
}

/// Counts elements common to two strictly sorted slices.
pub(crate) fn sorted_intersection_count(a: &[NodeId], b: &[NodeId]) -> usize {
    // Galloping pays off when one list is much shorter (hub nodes in
    // power-law graphs); a plain merge is best for comparable lengths.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    if long.len() / short.len() >= 16 {
        short.iter().filter(|x| long.binary_search(x).is_ok()).count()
    } else {
        let mut i = 0;
        let mut j = 0;
        let mut n = 0;
        while i < short.len() && j < long.len() {
            match short[i].cmp(&long[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

/// Materializes the intersection of two strictly sorted slices.
pub(crate) fn sorted_intersection(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges([(0u32, 1u32), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn from_edges_builds_expected_topology() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
        g.validate().unwrap();
    }

    #[test]
    fn add_remove_edge_roundtrip() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
        g.remove_edge(NodeId(3), NodeId(0)).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(NodeId(0)), 0);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_and_self_loop_rejected() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(g.add_edge(NodeId(1), NodeId(0)), Err(GraphError::DuplicateEdge(..))));
        assert!(matches!(g.add_edge(NodeId(2), NodeId(2)), Err(GraphError::SelfLoop(_))));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(9)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn add_edge_if_absent_is_idempotent() {
        let mut g = Graph::with_nodes(2);
        assert!(g.add_edge_if_absent(NodeId(0), NodeId(1)).unwrap());
        assert!(!g.add_edge_if_absent(NodeId(0), NodeId(1)).unwrap());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn remove_missing_edge_errors() {
        let mut g = Graph::with_nodes(2);
        assert!(matches!(g.remove_edge(NodeId(0), NodeId(1)), Err(GraphError::MissingEdge(..))));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges([(0u32, 5u32), (0, 2), (0, 9), (0, 1)]).unwrap();
        let nbrs: Vec<u32> = g.neighbors(NodeId(0)).iter().map(|n| n.0).collect();
        assert_eq!(nbrs, vec![1, 2, 5, 9]);
    }

    #[test]
    fn edges_iterates_each_once_canonically() {
        let g = triangle();
        let mut edges: Vec<(u32, u32)> = g.edges().map(|e| (e.small().0, e.large().0)).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn common_neighbors_of_triangle_plus_pendant() {
        // 0-1-2-0 triangle plus pendant 3 attached to 0.
        let g = Graph::from_edges([(0u32, 1u32), (1, 2), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.common_neighbor_count(NodeId(0), NodeId(1)), 1);
        assert_eq!(g.common_neighbors(NodeId(0), NodeId(1)), vec![NodeId(2)]);
        assert_eq!(g.common_neighbor_count(NodeId(3), NodeId(2)), 1); // via 0
        assert_eq!(g.common_neighbor_count(NodeId(3), NodeId(0)), 0);
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges([(0u32, 1u32), (1, 2), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.volume(), 8);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.degree_sequence(), vec![3, 2, 2, 1]);
    }

    #[test]
    fn empty_graph_statistics() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn induced_subgraph_relabels_densely() {
        let g = Graph::from_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 0)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2); // 1-2 and 2-3 survive; 3-0 and 0-1 cut
        assert!(sub.has_edge(NodeId(0), NodeId(1))); // old 1-2
        assert!(sub.has_edge(NodeId(1), NodeId(2))); // old 2-3
        assert_eq!(map, vec![NodeId(1), NodeId(2), NodeId(3)]);
        sub.validate().unwrap();
    }

    #[test]
    fn intersection_helpers_agree_with_naive() {
        let a: Vec<NodeId> = [1u32, 3, 5, 7, 9, 11].into_iter().map(NodeId).collect();
        let b: Vec<NodeId> = [2u32, 3, 5, 8, 11, 20].into_iter().map(NodeId).collect();
        assert_eq!(sorted_intersection_count(&a, &b), 3);
        assert_eq!(sorted_intersection(&a, &b), vec![NodeId(3), NodeId(5), NodeId(11)]);
        // Galloping path: long list >> short list.
        let long: Vec<NodeId> = (0u32..1000).map(NodeId).collect();
        let short = vec![NodeId(5), NodeId(999), NodeId(1001)];
        assert_eq!(sorted_intersection_count(&short, &long), 2);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut g = triangle();
        // Corrupt: remove one direction only.
        g.adj[0].retain(|&v| v != NodeId(1));
        assert!(g.validate().is_err());
    }
}
