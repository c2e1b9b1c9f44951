//! The simple random walk baseline (Definition 1).
//!
//! From the current node `v`, pick a neighbor uniformly at random and move
//! there; each step costs exactly one query (the arrival's neighborhood
//! fetch, cached thereafter). The stationary distribution is
//! `π(v) = k_v / 2|E|`, so estimates of uniform-node aggregates are
//! reweighted by `1/k_v` (importance sampling).

use mto_graph::NodeId;
use mto_osn::{QueryClient, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::walk::walker::Walker;

/// Configuration of a [`SimpleRandomWalk`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SrwConfig {
    /// RNG seed (every run is deterministic given the seed).
    pub seed: u64,
    /// Lazy variant: stay put with probability ½ each step. The paper's
    /// baseline SRW is non-lazy.
    pub lazy: bool,
}

impl Default for SrwConfig {
    fn default() -> Self {
        SrwConfig { seed: 1, lazy: false }
    }
}

/// Simple random walk over a [`QueryClient`].
pub struct SimpleRandomWalk<C> {
    client: C,
    current: NodeId,
    rng: StdRng,
    history: Vec<NodeId>,
    lazy: bool,
    /// Reusable neighbor scratch — warm-cache stepping allocates nothing.
    buf: Vec<NodeId>,
}

impl<C: QueryClient> SimpleRandomWalk<C> {
    /// Starts a walk at `start` (queried immediately — the walk needs its
    /// neighborhood to move).
    pub fn new(mut client: C, start: NodeId, config: SrwConfig) -> Result<Self> {
        client.fetch_degree(start)?;
        Ok(SimpleRandomWalk {
            client,
            current: start,
            rng: StdRng::seed_from_u64(config.seed),
            history: vec![start],
            lazy: config.lazy,
            buf: Vec::new(),
        })
    }

    /// Access to the underlying client (for estimators needing cached
    /// profiles).
    pub fn client(&self) -> &C {
        &self.client
    }

    /// Mutable access to the underlying client.
    pub fn client_mut(&mut self) -> &mut C {
        &mut self.client
    }
}

impl<C: QueryClient> Walker for SimpleRandomWalk<C> {
    fn name(&self) -> &'static str {
        "SRW"
    }

    fn current(&self) -> NodeId {
        self.current
    }

    fn step(&mut self) -> Result<NodeId> {
        if !self.lazy || self.rng.gen_bool(0.5) {
            let mut nbrs = std::mem::take(&mut self.buf);
            let fetched = self.client.fetch_neighbors_into(self.current, &mut nbrs);
            let next = match &fetched {
                Ok(()) if !nbrs.is_empty() => Some(nbrs[self.rng.gen_range(0..nbrs.len())]),
                _ => None,
            };
            self.buf = nbrs;
            fetched?;
            if let Some(next) = next {
                // Arrival query: ensures the node's degree is known for
                // weighting and the next transition.
                self.client.fetch_degree(next)?;
                self.current = next;
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
        let k = self.client.fetch_degree(v)?;
        // π(v) ∝ k_v ⇒ w(v) ∝ 1/k_v. Degree 0 cannot be visited.
        Ok(1.0 / k.max(1) as f64)
    }

    fn prefetch_candidates(&self) -> Vec<NodeId> {
        // The next step queries a uniform neighbor of the current node.
        self.client.cached_neighbors(self.current).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::{paper_barbell, path_graph};
    use mto_osn::{CachedClient, OsnService};

    fn walk_on(
        g: &mto_graph::Graph,
        start: NodeId,
        seed: u64,
    ) -> SimpleRandomWalk<CachedClient<OsnService>> {
        let client = CachedClient::new(OsnService::with_defaults(g));
        SimpleRandomWalk::new(client, start, SrwConfig { seed, lazy: false }).unwrap()
    }

    #[test]
    fn walk_moves_along_edges_only() {
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(0), 7);
        let mut prev = w.current();
        for _ in 0..200 {
            let next = w.step().unwrap();
            assert!(g.has_edge(prev, next), "teleported {prev} → {next}");
            prev = next;
        }
    }

    #[test]
    fn history_grows_per_step() {
        let g = path_graph(5);
        let mut w = walk_on(&g, NodeId(2), 3);
        for _ in 0..10 {
            w.step().unwrap();
        }
        assert_eq!(w.history().len(), 11);
        assert_eq!(w.history()[0], NodeId(2));
    }

    #[test]
    fn query_cost_counts_distinct_nodes_only() {
        let g = path_graph(3); // walk shuttles among 3 nodes forever
        let mut w = walk_on(&g, NodeId(1), 5);
        for _ in 0..50 {
            w.step().unwrap();
        }
        assert_eq!(w.query_cost(), 3, "only 3 unique queries possible");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = paper_barbell();
        let mut a = walk_on(&g, NodeId(0), 42);
        let mut b = walk_on(&g, NodeId(0), 42);
        for _ in 0..100 {
            assert_eq!(a.step().unwrap(), b.step().unwrap());
        }
    }

    #[test]
    fn stationary_distribution_is_degree_proportional() {
        // On the barbell, bridge endpoints (degree 11) must be visited more
        // often than plain clique nodes (degree 10), proportionally.
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(3), 11);
        let mut visits = [0u64; 22];
        for _ in 0..400_000 {
            let v = w.step().unwrap();
            visits[v.index()] += 1;
        }
        let total: u64 = visits.iter().sum();
        let vol = 222.0;
        for v in g.nodes() {
            let expected = g.degree(v) as f64 / vol;
            let got = visits[v.index()] as f64 / total as f64;
            assert!(
                (got - expected).abs() < 0.2 * expected,
                "node {v}: visited {got:.4}, stationary {expected:.4}"
            );
        }
    }

    #[test]
    fn importance_weight_is_reciprocal_degree() {
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(0), 1);
        assert!((w.importance_weight(NodeId(0)).unwrap() - 1.0 / 11.0).abs() < 1e-12);
        assert!((w.importance_weight(NodeId(1)).unwrap() - 1.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_walk_stays_roughly_half_the_time() {
        let g = paper_barbell();
        let client = CachedClient::new(OsnService::with_defaults(&g));
        let mut w =
            SimpleRandomWalk::new(client, NodeId(0), SrwConfig { seed: 3, lazy: true }).unwrap();
        let mut stays = 0;
        let mut prev = w.current();
        let n = 4000;
        for _ in 0..n {
            let next = w.step().unwrap();
            if next == prev {
                stays += 1;
            }
            prev = next;
        }
        let frac = stays as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "stay fraction {frac}");
    }

    #[test]
    fn isolated_start_stays_forever() {
        let mut g = path_graph(2);
        let isolated = g.add_node();
        let mut w = walk_on(&g, isolated, 1);
        for _ in 0..5 {
            assert_eq!(w.step().unwrap(), isolated);
        }
    }
}
