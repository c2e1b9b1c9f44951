//! Metropolis–Hastings random walk baseline.
//!
//! MHRW targets the *uniform* stationary distribution: from `u`, propose
//! `v ~ Uniform(N(u))` and accept with probability `min(1, k_u / k_v)`.
//! Accepted or not, the proposal's degree must be learned, so each step can
//! cost a query even when the walk stays put — exactly why the paper (and
//! \[10\], \[14\]) finds MHRW less query-efficient than reweighted SRW.

use mto_graph::NodeId;
use mto_osn::{QueryClient, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::walk::walker::Walker;

/// Configuration of a [`MetropolisHastingsWalk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MhrwConfig {
    /// RNG seed.
    pub seed: u64,
}

impl Default for MhrwConfig {
    fn default() -> Self {
        MhrwConfig { seed: 1 }
    }
}

/// Metropolis–Hastings random walk with uniform target distribution.
pub struct MetropolisHastingsWalk<C> {
    client: C,
    current: NodeId,
    rng: StdRng,
    history: Vec<NodeId>,
    accepted: u64,
    proposed: u64,
    /// Reusable neighbor scratch — warm-cache stepping allocates nothing.
    buf: Vec<NodeId>,
}

impl<C: QueryClient> MetropolisHastingsWalk<C> {
    /// Starts at `start` (queried immediately).
    pub fn new(mut client: C, start: NodeId, config: MhrwConfig) -> Result<Self> {
        client.fetch_degree(start)?;
        Ok(MetropolisHastingsWalk {
            client,
            current: start,
            rng: StdRng::seed_from_u64(config.seed),
            history: vec![start],
            accepted: 0,
            proposed: 0,
            buf: Vec::new(),
        })
    }

    /// Proposals drawn so far (each cost a degree query).
    pub fn proposals(&self) -> u64 {
        self.proposed
    }

    /// Proposals rejected so far — the MH queries "wasted" on staying put.
    pub fn rejections(&self) -> u64 {
        self.proposed - self.accepted
    }

    /// Fraction of proposals accepted so far.
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            return 0.0;
        }
        self.accepted as f64 / self.proposed as f64
    }

    /// Access to the underlying client.
    pub fn client(&self) -> &C {
        &self.client
    }
}

impl<C: QueryClient> Walker for MetropolisHastingsWalk<C> {
    fn name(&self) -> &'static str {
        "MHRW"
    }

    fn current(&self) -> NodeId {
        self.current
    }

    fn step(&mut self) -> Result<NodeId> {
        let mut nbrs = std::mem::take(&mut self.buf);
        let fetched = self.client.fetch_neighbors_into(self.current, &mut nbrs);
        let pick = match &fetched {
            Ok(()) if !nbrs.is_empty() => {
                let ku = nbrs.len();
                Some((ku, nbrs[self.rng.gen_range(0..ku)]))
            }
            _ => None,
        };
        self.buf = nbrs;
        fetched?;
        if let Some((ku, proposal)) = pick {
            // Learning k_v requires querying the proposal — this is the
            // query MHRW "wastes" on rejections.
            let kv = self.client.fetch_degree(proposal)?;
            self.proposed += 1;
            let accept = ku as f64 / kv.max(1) as f64;
            if self.rng.gen::<f64>() < accept {
                self.accepted += 1;
                self.current = proposal;
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

    fn importance_weight(&mut self, _v: NodeId) -> Result<f64> {
        // Uniform stationary distribution: already unbiased.
        Ok(1.0)
    }

    fn prefetch_candidates(&self) -> Vec<NodeId> {
        // The next step must learn k_v of a uniform neighbor proposal.
        self.client.cached_neighbors(self.current).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::{paper_barbell, star_graph};
    use mto_osn::{CachedClient, OsnService};

    fn walk_on(
        g: &mto_graph::Graph,
        start: NodeId,
        seed: u64,
    ) -> MetropolisHastingsWalk<CachedClient<OsnService>> {
        let client = CachedClient::new(OsnService::with_defaults(g));
        MetropolisHastingsWalk::new(client, start, MhrwConfig { seed }).unwrap()
    }

    #[test]
    fn moves_follow_edges_or_stay() {
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(0), 2);
        let mut prev = w.current();
        for _ in 0..300 {
            let next = w.step().unwrap();
            assert!(next == prev || g.has_edge(prev, next));
            prev = next;
        }
    }

    #[test]
    fn stationary_distribution_is_uniform() {
        // On the star graph SRW spends half its time at the hub; MHRW must
        // spend ~1/n of its time there.
        let g = star_graph(11);
        let mut w = walk_on(&g, NodeId(0), 5);
        let mut hub_visits = 0u64;
        let n = 200_000;
        for _ in 0..n {
            if w.step().unwrap() == NodeId(0) {
                hub_visits += 1;
            }
        }
        let frac = hub_visits as f64 / n as f64;
        assert!(
            (frac - 1.0 / 11.0).abs() < 0.02,
            "hub fraction {frac}, uniform would be {:.4}",
            1.0 / 11.0
        );
    }

    #[test]
    fn acceptance_from_hub_to_leaf_is_rare() {
        // From the star hub (degree n−1) to a leaf (degree 1) the move is
        // always accepted? No — reversed: hub→leaf acceptance is
        // min(1, k_hub/k_leaf) = 1; leaf→hub is min(1, 1/k_hub) — rare.
        // Net effect: the chain leaves the hub instantly but re-enters
        // seldom, yielding near-uniform occupancy. Just sanity-check that
        // acceptance bookkeeping runs.
        let g = star_graph(8);
        let mut w = walk_on(&g, NodeId(0), 9);
        for _ in 0..500 {
            w.step().unwrap();
        }
        let rate = w.acceptance_rate();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
    }

    #[test]
    fn rejected_proposals_still_cost_queries() {
        let g = star_graph(30);
        // Start at a leaf: nearly every step proposes the hub and accepts
        // with prob 1/29 — yet the hub gets queried on the very first
        // proposal.
        let mut w = walk_on(&g, NodeId(3), 4);
        w.step().unwrap();
        assert!(w.query_cost() >= 2, "proposal query must be charged");
    }

    #[test]
    fn importance_weight_is_flat() {
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(0), 1);
        assert_eq!(w.importance_weight(NodeId(0)).unwrap(), 1.0);
        assert_eq!(w.importance_weight(NodeId(5)).unwrap(), 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = paper_barbell();
        let mut a = walk_on(&g, NodeId(0), 77);
        let mut b = walk_on(&g, NodeId(0), 77);
        for _ in 0..100 {
            assert_eq!(a.step().unwrap(), b.step().unwrap());
        }
    }
}
