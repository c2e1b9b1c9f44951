//! History-calibrated cost prediction.
//!
//! The paper bills unique queries and PR 3 priced them in virtual time;
//! this module predicts *both* before a job runs, which is what
//! admission control and the budget ledger key on. Two observations
//! drive the model:
//!
//! * crawl history predicts future cost ("Leveraging History for Faster
//!   Sampling of OSNs", arXiv:1505.00079): a job started over a warm
//!   [`HistoryStore`] only pays for nodes nobody has seen, so the
//!   predicted bill is discounted by the store's **coverage** of the
//!   job's frontier — and the discount is *monotone*: more warm history
//!   never raises a predicted bill;
//! * the real bill is time under quota ("Walk, Not Wait",
//!   arXiv:1410.7833): a predicted query count converts to virtual
//!   seconds at the provider's effective per-query rate — the larger of
//!   its mean service latency and its quota refill interval.
//!
//! Predictions start from per-algorithm priors (unique queries per
//! step) and are **calibrated online**: as quanta complete, callers feed
//! observed `(steps, unique demand)` pairs back through
//! [`CostPredictor::observe`], and the per-algorithm rate converges to
//! the measured discovery rate. Every input is deterministic, so equal
//! observation streams give equal predictions — the property the fleet's
//! cross-`W` determinism contract leans on.

use mto_net::ProviderProfile;
use mto_serve::history::HistoryStore;
use mto_serve::session::JobSpec;

/// Smoothing weight (in steps) of the per-algorithm prior: observations
/// dominate once a job has run a few quanta, but a handful of early
/// steps cannot whipsaw the rate.
const PRIOR_WEIGHT_STEPS: u64 = 64;

/// Per-query virtual seconds assumed when no provider profile is given
/// (the plain 50 ms constant-latency stand-in used across the stack).
const DEFAULT_SECS_PER_QUERY: f64 = 0.05;

/// The prior unique-demand rate (new distinct nodes requested per step)
/// of one walk algorithm on a cold cache. Rewiring and jumping walks
/// touch fresh nodes faster than the lazy baselines.
fn prior_rate(algo: &str) -> f64 {
    match algo {
        "mto" => 0.7,
        "rj" => 0.8,
        "srw" => 0.5,
        "mhrw" => 0.4,
        _ => 0.6,
    }
}

fn algo_slot(algo: &str) -> usize {
    match algo {
        "mto" => 0,
        "srw" => 1,
        "mhrw" => 2,
        "rj" => 3,
        _ => 4,
    }
}

/// Predicts a job's remaining unique-query bill and virtual-time cost
/// from its spec, the warm history, and online calibration.
#[derive(Clone, Debug, PartialEq)]
pub struct CostPredictor {
    /// Published user count of the network (caps every prediction).
    num_users: Option<usize>,
    /// Per-algorithm `(observed steps, observed unique demand)` totals,
    /// indexed by [`algo_slot`].
    observed: [(u64, u64); 5],
    /// Effective virtual seconds per unique query.
    secs_per_query: f64,
}

impl CostPredictor {
    /// A predictor for a network publishing `num_users` accounts (when
    /// known), assuming the default 50 ms provider.
    pub fn new(num_users: Option<usize>) -> Self {
        CostPredictor { num_users, observed: [(0, 0); 5], secs_per_query: DEFAULT_SECS_PER_QUERY }
    }

    /// Prices virtual time against `profile`: the effective per-query
    /// cost is the larger of the mean service latency and the quota
    /// refill interval (overlap hides latency, it cannot mint tokens).
    pub fn with_provider(mut self, profile: &ProviderProfile) -> Self {
        let refill_interval = if profile.policy.refill_per_sec > 0.0 {
            1.0 / profile.policy.refill_per_sec
        } else {
            0.0
        };
        self.secs_per_query = profile.latency.mean().max(refill_interval);
        self
    }

    /// Virtual seconds one unique query is assumed to cost.
    pub fn secs_per_query(&self) -> f64 {
        self.secs_per_query
    }

    /// Feeds back a completed quantum: `steps` walked, `unique_demand`
    /// distinct new nodes requested. Calibration is cumulative and
    /// deterministic — equal observation streams, equal predictions.
    pub fn observe(&mut self, algo: &str, steps: u64, unique_demand: u64) {
        let slot = &mut self.observed[algo_slot(algo)];
        slot.0 += steps;
        slot.1 += unique_demand;
    }

    /// The calibrated unique-demand rate of `algo`: the prior blended
    /// with every observation so far (prior-weighted so early quanta
    /// cannot whipsaw it), clamped to at most one distinct node per
    /// step plus the constant start-node query.
    pub fn rate(&self, algo: &str) -> f64 {
        let (steps, unique) = self.observed[algo_slot(algo)];
        let prior = prior_rate(algo);
        let blended = (prior * PRIOR_WEIGHT_STEPS as f64 + unique as f64)
            / (PRIOR_WEIGHT_STEPS + steps) as f64;
        blended.clamp(0.0, 1.0)
    }

    /// How much of `spec`'s cost the warm `store` already covers, in
    /// `[0, 1]`. The blend of global coverage (fraction of the network
    /// cached) and frontier coverage (the start node's neighborhood,
    /// when cached) — both monotone under adding history, so the
    /// discount never shrinks as the store grows.
    pub fn coverage(&self, spec: &JobSpec, store: Option<&HistoryStore>) -> f64 {
        let Some(store) = store else { return 0.0 };
        let global = match self.num_users.or(store.num_users) {
            Some(n) if n > 0 => (store.num_responses() as f64 / n as f64).min(1.0),
            _ => 0.0,
        };
        // Responses are sorted by node id (export_snapshot, merge,
        // decode and journal replay all guarantee it), so both lookups
        // are binary.
        let frontier = store
            .cache
            .responses
            .binary_search_by_key(&spec.start, |r| r.user)
            .ok()
            .map(|i| &store.cache.responses[i])
            .map(|r| {
                let cached = r
                    .neighbors
                    .iter()
                    .filter(|v| store.cache.responses.binary_search_by_key(v, |x| &x.user).is_ok())
                    .count();
                (1 + cached) as f64 / (1 + r.neighbors.len()) as f64
            })
            .unwrap_or(0.0);
        global.max(frontier)
    }

    /// The predicted remaining unique-query bill of `steps` more walk
    /// steps of `algo` from `spec`'s position, over `store`.
    /// Monotone: more warm history never raises the prediction.
    pub fn predict_remaining_queries(
        &self,
        spec: &JobSpec,
        remaining_steps: usize,
        store: Option<&HistoryStore>,
    ) -> u64 {
        if remaining_steps == 0 {
            return 0;
        }
        let base = 1.0 + self.rate(spec.algo.name()) * remaining_steps as f64;
        let base = match self.num_users {
            Some(n) => base.min(n as f64),
            None => base,
        };
        (base * (1.0 - self.coverage(spec, store))).ceil() as u64
    }

    /// The predicted total unique-query bill of `spec` run to its full
    /// step budget.
    pub fn predict_queries(&self, spec: &JobSpec, store: Option<&HistoryStore>) -> u64 {
        self.predict_remaining_queries(spec, spec.step_budget, store)
    }

    /// Converts a predicted query count to predicted virtual seconds.
    pub fn predict_secs(&self, queries: u64) -> f64 {
        queries as f64 * self.secs_per_query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_core::mto::MtoConfig;
    use mto_graph::generators::paper_barbell;
    use mto_graph::NodeId;
    use mto_osn::{CachedClient, OsnService};
    use mto_serve::session::AlgoSpec;

    fn job(steps: usize) -> JobSpec {
        JobSpec {
            id: "p".into(),
            algo: AlgoSpec::Mto(MtoConfig::default()),
            start: NodeId(0),
            step_budget: steps,
            deadline: None,
            ess: None,
        }
    }

    fn store_of(nodes: &[u32]) -> HistoryStore {
        let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for &v in nodes {
            client.query(NodeId(v)).unwrap();
        }
        HistoryStore::from_client(&client)
    }

    #[test]
    fn cold_predictions_scale_with_steps_and_cap_at_the_network() {
        let p = CostPredictor::new(Some(22));
        let small = p.predict_queries(&job(10), None);
        let big = p.predict_queries(&job(100), None);
        assert!(small < big, "{small} vs {big}");
        assert_eq!(p.predict_queries(&job(1_000_000), None), 22, "capped at |V|");
        assert_eq!(p.predict_queries(&job(0), None), 0);
    }

    #[test]
    fn warm_history_discounts_and_never_raises_the_bill() {
        let p = CostPredictor::new(Some(22));
        let cold = p.predict_queries(&job(200), None);
        let half = p.predict_queries(&job(200), Some(&store_of(&[0, 1, 2, 3, 4])));
        let full = p.predict_queries(&job(200), Some(&store_of(&(0..22).collect::<Vec<_>>())));
        assert!(half < cold, "warm {half} must beat cold {cold}");
        assert!(full <= half);
        assert_eq!(full, 0, "a fully crawled network costs nothing new");
    }

    #[test]
    fn frontier_coverage_beats_global_coverage_near_the_start() {
        let p = CostPredictor::new(Some(22));
        // Node 0's full neighborhood cached vs the same *count* of
        // far-away nodes: the frontier job must be predicted cheaper.
        let near = store_of(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let far = store_of(&[11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21]);
        let at_frontier = p.predict_queries(&job(50), Some(&near));
        let elsewhere = p.predict_queries(&job(50), Some(&far));
        assert!(at_frontier < elsewhere, "{at_frontier} vs {elsewhere}");
    }

    #[test]
    fn observation_calibrates_the_rate_deterministically() {
        let mut a = CostPredictor::new(Some(1000));
        let mut b = CostPredictor::new(Some(1000));
        assert!((a.rate("mto") - 0.7).abs() < 1e-12, "prior before any observation");
        for _ in 0..10 {
            a.observe("mto", 100, 10);
            b.observe("mto", 100, 10);
        }
        assert!(a.rate("mto") < 0.2, "observed 0.1 demand/step must pull the rate down");
        assert_eq!(a, b, "equal observation streams, equal predictors");
        a.observe("mto", 10, 10);
        assert!(a.rate("mto") > b.rate("mto"), "high-demand quanta pull it back up");
    }

    #[test]
    fn provider_pricing_uses_the_quota_floor_when_it_dominates() {
        let p = CostPredictor::new(Some(22));
        assert_eq!(p.predict_secs(10), 0.5, "default 50 ms provider");
        let tw = CostPredictor::new(Some(22)).with_provider(&ProviderProfile::twitter());
        // Twitter's 350/hour refill interval (~10.3 s) dwarfs its
        // sub-second latency: quota is the real price of a query.
        assert!(tw.secs_per_query() > 5.0, "got {}", tw.secs_per_query());
        let fb = CostPredictor::new(Some(22)).with_provider(&ProviderProfile::facebook());
        assert!(fb.secs_per_query() < tw.secs_per_query());
    }
}
