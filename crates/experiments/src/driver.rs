//! Shared experiment driver: build a sampler, run it to Geweke
//! convergence, then collect post-convergence samples and estimate traces.
//!
//! This is the common protocol of Figs 7, 8, 9 and 11: all samplers use
//! the degree attribute for the Geweke indicator (the paper's choice: "a
//! commonly used one is degree that applies to every graph"), then keep
//! sampling to feed the estimator and the bias measurements.

use std::sync::Arc;

use mto_core::estimate::Aggregate;
use mto_core::mto::{MtoConfig, MtoSampler};
use mto_core::walk::{
    MetropolisHastingsWalk, MhrwConfig, RandomJumpWalk, RjConfig, SimpleRandomWalk, SrwConfig,
    StepSample, Walker,
};
use mto_graph::NodeId;
use mto_obs::quality::GewekeStream;
use mto_osn::{CachedClient, OsnService, Result};

/// The four algorithms compared in Fig 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Simple random walk (baseline).
    Srw,
    /// MTO-Sampler (the paper's contribution).
    Mto,
    /// Metropolis–Hastings random walk.
    Mhrw,
    /// Random Jump (MHRW + uniform teleports at probability 0.5).
    Rj,
}

impl Algorithm {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Srw => "SRW",
            Algorithm::Mto => "MTO",
            Algorithm::Mhrw => "MHRW",
            Algorithm::Rj => "RJ",
        }
    }

    /// All four, in the paper's legend order.
    pub fn all() -> [Algorithm; 4] {
        [Algorithm::Srw, Algorithm::Mto, Algorithm::Mhrw, Algorithm::Rj]
    }

    /// Constructs the sampler over a shared service.
    pub fn build(
        &self,
        service: Arc<OsnService>,
        start: NodeId,
        seed: u64,
    ) -> Result<Box<dyn Walker>> {
        let client = CachedClient::new(service);
        Ok(match self {
            Algorithm::Srw => {
                Box::new(SimpleRandomWalk::new(client, start, SrwConfig { seed, lazy: false })?)
            }
            Algorithm::Mto => Box::new(MtoSampler::new(client, start, mto_config(seed))?),
            Algorithm::Mhrw => {
                Box::new(MetropolisHastingsWalk::new(client, start, MhrwConfig { seed })?)
            }
            Algorithm::Rj => Box::new(RandomJumpWalk::new(
                client,
                start,
                RjConfig { seed, jump_probability: 0.5 },
            )?),
        })
    }
}

/// The MTO configuration the estimation experiments use.
///
/// Two deliberate deviations from `MtoConfig::default()` (both documented
/// in EXPERIMENTS.md):
/// * `lazy = false` — the ½ self-loop of Algorithm 1 exists for
///   aperiodicity in the analysis; at a fixed sample budget it halves the
///   effective sample rate, which is a pure handicap against the non-lazy
///   SRW baseline on non-bipartite graphs;
/// * `min_overlay_degree = 4` — caps `k/k*` so the importance-weight
///   spread (hence estimator variance) stays bounded, while keeping ~90%
///   of the removals. The conductance experiments (running example,
///   Fig 10) use the paper-faithful floor of 2.
pub fn mto_config(seed: u64) -> MtoConfig {
    MtoConfig { seed, lazy: false, min_overlay_degree: 4, ..Default::default() }
}

/// Protocol parameters for one converged run.
#[derive(Clone, Copy, Debug)]
pub struct RunProtocol {
    /// Geweke convergence threshold (paper default 0.1).
    pub geweke_threshold: f64,
    /// Hard cap on burn-in steps before giving up on convergence.
    pub max_burn_in_steps: usize,
    /// Post-convergence samples to collect.
    pub sample_steps: usize,
}

impl Default for RunProtocol {
    fn default() -> Self {
        RunProtocol { geweke_threshold: 0.1, max_burn_in_steps: 50_000, sample_steps: 2_000 }
    }
}

/// Everything one converged run produces.
#[derive(Clone, Debug)]
pub struct ConvergedRun {
    /// Step at which the Geweke monitor latched (`None` = cap reached; the
    /// run still reports whatever it collected).
    pub converged_at: Option<usize>,
    /// Unique-query cost when convergence latched.
    pub burn_in_cost: u64,
    /// Post-convergence samples with the unique-query cost after each.
    pub samples: Vec<(StepSample, u64)>,
    /// Total unique-query cost at the end.
    pub total_cost: u64,
}

impl ConvergedRun {
    /// Final self-normalized estimate over the post-convergence samples.
    pub fn final_estimate(&self) -> Option<f64> {
        let mut est = mto_core::estimate::ImportanceEstimator::new();
        for (s, _) in &self.samples {
            est.push_sample(s);
        }
        est.estimate()
    }

    /// Running-estimate trace: `(query cost, estimate)` after each sample.
    pub fn estimate_trace(&self) -> Vec<(u64, f64)> {
        let mut est = mto_core::estimate::ImportanceEstimator::new();
        let mut out = Vec::with_capacity(self.samples.len());
        for (s, cost) in &self.samples {
            est.push_sample(s);
            if let Some(e) = est.estimate() {
                out.push((*cost, e));
            }
        }
        out
    }

    /// The query cost after which the running estimate's relative error
    /// stays at or below `epsilon` forever (within this run) — the Fig 7
    /// y-axis. `None` when the run never settles under `epsilon`.
    pub fn cost_to_reach(&self, epsilon: f64, truth: f64) -> Option<u64> {
        let trace = self.estimate_trace();
        let mut last_bad_cost: Option<u64> = None;
        let mut seen_good = false;
        for &(cost, estimate) in &trace {
            let err = (estimate - truth).abs() / truth.abs();
            if err > epsilon {
                last_bad_cost = Some(cost);
                seen_good = false;
            } else {
                seen_good = true;
            }
        }
        if !seen_good {
            return None;
        }
        match last_bad_cost {
            // Settled under epsilon right away: the burn-in cost dominates.
            None => Some(self.burn_in_cost),
            Some(c) => Some(c),
        }
    }
}

/// Runs a sampler per the protocol: burn-in until Geweke latches on the
/// degree series, then collect `sample_steps` weighted samples of
/// `aggregate`.
///
/// The aggregate value of a visited node is read through the walker's own
/// importance weight plus the service's ground truth for `f(v)` — the
/// walker queried `v` on arrival, so the value is information the third
/// party already paid for; reading it from the service does not distort
/// the query accounting.
pub fn run_converged(
    walker: &mut dyn Walker,
    service: &OsnService,
    aggregate: Aggregate,
    protocol: RunProtocol,
) -> Result<ConvergedRun> {
    // Geweke's test on the degree series, at every 100th sample from
    // the 200th on.
    let mut degrees = GewekeStream::new();
    let mut converged_at = None;
    for step in 1..=protocol.max_burn_in_steps {
        let v = walker.step()?;
        degrees.push(service.query_degree_free(v) as f64);
        if step >= 200
            && step % 100 == 0
            && degrees.z().is_some_and(|z| z <= protocol.geweke_threshold)
        {
            converged_at = Some(step);
            break;
        }
    }
    let burn_in_cost = walker.query_cost();

    let mut raw: Vec<(NodeId, f64, u64)> = Vec::with_capacity(protocol.sample_steps);
    for _ in 0..protocol.sample_steps {
        let v = walker.step()?;
        let value = aggregate_value(service, v, aggregate);
        raw.push((v, value, walker.query_cost()));
    }

    // Retrospective weighting, as the paper does ("After collecting
    // samples, we use Importance Sampling…"): weights are evaluated once
    // the run — and hence the MTO overlay — has settled. For the static
    // baselines this is identical to sample-time weighting; for MTO it
    // removes the bias of partially-discovered overlay degrees.
    let mut weight_of: std::collections::HashMap<NodeId, f64> = std::collections::HashMap::new();
    let mut samples = Vec::with_capacity(raw.len());
    for (v, value, cost) in raw {
        let weight = match weight_of.entry(v) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => *e.insert(walker.importance_weight(v)?),
        };
        samples.push((StepSample { node: v, value, weight }, cost));
    }

    Ok(ConvergedRun { converged_at, burn_in_cost, samples, total_cost: walker.query_cost() })
}

/// Evaluates `f(v)` against ground truth (the walker has already queried
/// `v`; see [`run_converged`] for why this is accounting-neutral).
pub fn aggregate_value(service: &OsnService, v: NodeId, aggregate: Aggregate) -> f64 {
    match aggregate {
        Aggregate::AverageDegree => service.ground_truth().degree(v) as f64,
        _ => {
            let p = &service.ground_truth_profiles()[v.index()];
            match aggregate {
                Aggregate::AverageDescriptionLength => p.self_description_len as f64,
                Aggregate::AverageAge => p.age as f64,
                Aggregate::AveragePosts => p.num_posts as f64,
                Aggregate::PublicProportion => {
                    if p.is_public {
                        1.0
                    } else {
                        0.0
                    }
                }
                Aggregate::AverageDegree => unreachable!(),
            }
        }
    }
}

/// Free degree lookup used by the Geweke monitor (the walker just visited
/// the node, so its degree is cached client-side).
trait FreeDegree {
    fn query_degree_free(&self, v: NodeId) -> usize;
}

impl FreeDegree for OsnService {
    fn query_degree_free(&self, v: NodeId) -> usize {
        self.ground_truth().degree(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{build_dataset, DatasetSpec};

    fn mini_service() -> Arc<OsnService> {
        let g = build_dataset(&DatasetSpec::epinions().scaled_down(40));
        Arc::new(OsnService::with_defaults(&g))
    }

    #[test]
    fn all_four_algorithms_construct_and_run() {
        let service = mini_service();
        for alg in Algorithm::all() {
            let mut w = alg.build(service.clone(), NodeId(0), 7).unwrap();
            assert_eq!(w.name(), alg.label());
            w.run(20).unwrap();
            assert!(w.query_cost() > 0, "{} issued no queries", alg.label());
        }
    }

    #[test]
    fn converged_run_produces_samples_and_costs() {
        let service = mini_service();
        let mut w = Algorithm::Srw.build(service.clone(), NodeId(0), 1).unwrap();
        let protocol =
            RunProtocol { geweke_threshold: 0.3, max_burn_in_steps: 5_000, sample_steps: 500 };
        let run = run_converged(w.as_mut(), &service, Aggregate::AverageDegree, protocol).unwrap();
        assert_eq!(run.samples.len(), 500);
        assert!(run.total_cost >= run.burn_in_cost);
        // Costs are monotone along the run.
        for pair in run.samples.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn convergence_is_tested_at_every_100th_sample_from_the_200th() {
        let service = mini_service();
        let converged_at = |threshold: f64| {
            let mut w = Algorithm::Srw.build(service.clone(), NodeId(0), 1).unwrap();
            let protocol = RunProtocol {
                geweke_threshold: threshold,
                max_burn_in_steps: 5_000,
                sample_steps: 0,
            };
            let run = run_converged(w.as_mut(), &service, Aggregate::AverageDegree, protocol);
            run.unwrap().converged_at
        };
        assert_eq!(converged_at(f64::INFINITY), Some(200), "no test before the 200th sample");
        let at = converged_at(0.3).expect("the walk converges");
        assert!(at >= 200 && at % 100 == 0, "converged at {at}");
    }

    #[test]
    fn srw_estimate_approaches_true_average_degree() {
        let service = mini_service();
        let truth = service.true_average_degree();
        let mut w = Algorithm::Srw.build(service.clone(), NodeId(0), 3).unwrap();
        let protocol =
            RunProtocol { geweke_threshold: 0.2, max_burn_in_steps: 20_000, sample_steps: 8_000 };
        let run = run_converged(w.as_mut(), &service, Aggregate::AverageDegree, protocol).unwrap();
        let est = run.final_estimate().unwrap();
        let err = (est - truth).abs() / truth;
        assert!(err < 0.25, "estimate {est} vs truth {truth} (err {err:.3})");
    }

    #[test]
    fn mto_estimate_also_converges() {
        let service = mini_service();
        let truth = service.true_average_degree();
        let mut w = Algorithm::Mto.build(service.clone(), NodeId(0), 3).unwrap();
        let protocol =
            RunProtocol { geweke_threshold: 0.2, max_burn_in_steps: 20_000, sample_steps: 8_000 };
        let run = run_converged(w.as_mut(), &service, Aggregate::AverageDegree, protocol).unwrap();
        let est = run.final_estimate().unwrap();
        let err = (est - truth).abs() / truth;
        assert!(err < 0.3, "estimate {est} vs truth {truth} (err {err:.3})");
    }

    #[test]
    fn cost_to_reach_semantics() {
        // Construct a synthetic run: estimates 5, 11, 10, 10 with truth 10.
        let samples = vec![
            (StepSample { node: NodeId(0), value: 5.0, weight: 1.0 }, 10),
            (StepSample { node: NodeId(0), value: 17.0, weight: 1.0 }, 20),
            (StepSample { node: NodeId(0), value: 8.0, weight: 1.0 }, 30),
            (StepSample { node: NodeId(0), value: 10.0, weight: 1.0 }, 40),
        ];
        // Running estimates: 5, 11, 10, 10 → errors 0.5, 0.1, 0, 0.
        let run = ConvergedRun { converged_at: Some(1), burn_in_cost: 5, samples, total_cost: 40 };
        assert_eq!(run.cost_to_reach(0.2, 10.0), Some(10));
        assert_eq!(run.cost_to_reach(0.05, 10.0), Some(20));
        assert_eq!(run.cost_to_reach(0.6, 10.0), Some(5), "never bad → burn-in cost");
        // Trace: last error is 0 ≤ any epsilon, so always Some here.
        assert!(run.cost_to_reach(0.001, 10.0).is_some());
    }

    #[test]
    fn estimate_trace_is_cumulative() {
        let samples = vec![
            (StepSample { node: NodeId(0), value: 2.0, weight: 1.0 }, 1),
            (StepSample { node: NodeId(0), value: 4.0, weight: 1.0 }, 2),
        ];
        let run = ConvergedRun { converged_at: None, burn_in_cost: 0, samples, total_cost: 2 };
        let trace = run.estimate_trace();
        assert_eq!(trace, vec![(1, 2.0), (2, 3.0)]);
    }
}
