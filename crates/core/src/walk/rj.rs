//! Random Jump baseline: MHRW plus uniform teleports.
//!
//! Following \[11\] (Albatross sampling), the walk performs a Metropolis–
//! Hastings step most of the time but, with a fixed probability (the paper
//! uses 0.5 in its experiments), jumps to a user id drawn uniformly from
//! the whole id space. Both components preserve the uniform distribution,
//! so RJ is unbiased for uniform-node aggregates without reweighting.
//!
//! The paper notes the caveat (footnote 5): the jump needs the global id
//! space, which not every provider exposes — [`RandomJumpWalk::new`] fails
//! when the provider publishes no user count.

use mto_graph::NodeId;
use mto_osn::{OsnError, QueryClient, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::walk::walker::Walker;

/// Configuration of a [`RandomJumpWalk`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RjConfig {
    /// RNG seed.
    pub seed: u64,
    /// Probability of teleporting instead of taking an MHRW step (the
    /// paper's experiments use 0.5).
    pub jump_probability: f64,
}

impl Default for RjConfig {
    fn default() -> Self {
        RjConfig { seed: 1, jump_probability: 0.5 }
    }
}

/// Random-jump sampler.
pub struct RandomJumpWalk<C> {
    client: C,
    current: NodeId,
    rng: StdRng,
    history: Vec<NodeId>,
    jump_probability: f64,
    id_space: usize,
    jumps: u64,
    /// Reusable neighbor scratch — warm-cache stepping allocates nothing.
    buf: Vec<NodeId>,
}

impl<C: QueryClient> RandomJumpWalk<C> {
    /// Starts at `start`.
    ///
    /// Fails with [`OsnError::UnknownUser`] if `start` is invalid, and
    /// panics if the provider does not publish a user count (the paper's
    /// footnote 5 caveat — RJ is simply not applicable there).
    pub fn new(mut client: C, start: NodeId, config: RjConfig) -> Result<Self> {
        assert!(
            (0.0..=1.0).contains(&config.jump_probability),
            "jump probability {} outside [0, 1]",
            config.jump_probability
        );
        let id_space = client
            .num_users_hint()
            .expect("Random Jump requires the provider-published user-id space (paper footnote 5)");
        client.fetch_degree(start)?;
        Ok(RandomJumpWalk {
            client,
            current: start,
            rng: StdRng::seed_from_u64(config.seed),
            history: vec![start],
            jump_probability: config.jump_probability,
            id_space,
            jumps: 0,
            buf: Vec::new(),
        })
    }

    /// Number of teleports taken.
    pub fn jumps(&self) -> u64 {
        self.jumps
    }

    /// Access to the underlying client.
    pub fn client(&self) -> &C {
        &self.client
    }
}

impl<C: QueryClient> Walker for RandomJumpWalk<C> {
    fn name(&self) -> &'static str {
        "RJ"
    }

    fn current(&self) -> NodeId {
        self.current
    }

    fn step(&mut self) -> Result<NodeId> {
        if self.rng.gen::<f64>() < self.jump_probability {
            // Uniform teleport over the advertised id space.
            let target = NodeId(self.rng.gen_range(0..self.id_space as u32));
            match self.client.fetch_degree(target) {
                Ok(_) => {
                    self.jumps += 1;
                    self.current = target;
                }
                // A sparse id space can contain holes; treat as a no-op
                // (the query still cost quota at the service).
                Err(OsnError::UnknownUser(_)) => {}
                Err(e) => return Err(e),
            }
        } else {
            // MHRW step toward the uniform target.
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
                let kv = self.client.fetch_degree(proposal)?;
                if self.rng.gen::<f64>() < ku as f64 / kv.max(1) as f64 {
                    self.current = proposal;
                }
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
        // Uniform stationary distribution.
        Ok(1.0)
    }

    fn prefetch_candidates(&self) -> Vec<NodeId> {
        // Teleport targets are unpredictable; the walk branch proposes a
        // uniform neighbor of the current node, so speculate on those.
        self.client.cached_neighbors(self.current).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::{paper_barbell, star_graph};
    use mto_osn::{CachedClient, OsnService, OsnServiceConfig};

    fn walk_on(
        g: &mto_graph::Graph,
        start: NodeId,
        seed: u64,
        jump: f64,
    ) -> RandomJumpWalk<CachedClient<OsnService>> {
        let client = CachedClient::new(OsnService::with_defaults(g));
        RandomJumpWalk::new(client, start, RjConfig { seed, jump_probability: jump }).unwrap()
    }

    #[test]
    fn jumps_happen_at_the_configured_rate() {
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(0), 3, 0.5);
        let n = 4000;
        for _ in 0..n {
            w.step().unwrap();
        }
        let frac = w.jumps() as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "jump fraction {frac}");
    }

    #[test]
    fn zero_jump_probability_reduces_to_mhrw_moves() {
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(0), 3, 0.0);
        let mut prev = w.current();
        for _ in 0..200 {
            let next = w.step().unwrap();
            assert!(next == prev || g.has_edge(prev, next), "illegal move");
            prev = next;
        }
        assert_eq!(w.jumps(), 0);
    }

    #[test]
    fn jumps_escape_the_barbell_bottleneck() {
        // Pure MHRW started in clique A rarely reaches clique B quickly;
        // RJ with p=0.5 crosses almost immediately.
        let g = paper_barbell();
        let mut w = walk_on(&g, NodeId(1), 9, 0.5);
        let mut reached_b = false;
        for _ in 0..50 {
            if w.step().unwrap().index() >= 11 {
                reached_b = true;
                break;
            }
        }
        assert!(reached_b, "50 RJ steps should cross with ~universal probability");
    }

    #[test]
    fn stationary_distribution_is_uniform_on_star() {
        let g = star_graph(11);
        let mut w = walk_on(&g, NodeId(0), 5, 0.3);
        let mut hub_visits = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if w.step().unwrap() == NodeId(0) {
                hub_visits += 1;
            }
        }
        let frac = hub_visits as f64 / n as f64;
        assert!((frac - 1.0 / 11.0).abs() < 0.02, "hub fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "user-id space")]
    fn requires_published_user_count() {
        let g = paper_barbell();
        let svc = OsnService::new(
            &g,
            OsnServiceConfig { publishes_user_count: false, ..Default::default() },
        );
        let _ = RandomJumpWalk::new(CachedClient::new(svc), NodeId(0), RjConfig::default());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_jump_probability() {
        let g = paper_barbell();
        let _ = walk_on(&g, NodeId(0), 1, 1.5);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = paper_barbell();
        let mut a = walk_on(&g, NodeId(0), 11, 0.4);
        let mut b = walk_on(&g, NodeId(0), 11, 0.4);
        for _ in 0..100 {
            assert_eq!(a.step().unwrap(), b.step().unwrap());
        }
    }
}
