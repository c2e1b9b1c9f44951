//! Deterministic admission control over predicted cost.
//!
//! Before a fleet spends a single query, [`review`] checks every job
//! against two constraints:
//!
//! * **deadline feasibility** — a job asking to finish in `deadline`
//!   virtual seconds whose predicted completion time already exceeds it
//!   is admitted flagged [`AdmissionVerdict::AtRisk`] (prediction is a
//!   model, the walk may beat it);
//! * **fleet budget** — jobs claim the shared unique-query budget in
//!   deadline order (earliest first, best-effort last, ties by
//!   submission index); jobs whose predicted cost no longer fits are
//!   deferred rather than admitted to be starved mid-walk.
//!
//! Every decision is a pure function of `(jobs, history, budget)` — no
//! clocks, no randomness — so admission commutes with sharding: the
//! fleet can compute it once, before placement, and every `W` sees the
//! same admitted set. That is the first half of how `budget` + `shards`
//! stays bit-identical across `W` (the [`crate::BudgetLedger`] is the
//! second).

use mto_serve::history::HistoryStore;
use mto_serve::session::JobSpec;

use crate::predictor::CostPredictor;

/// What admission decided for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Run it.
    Admit,
    /// Run it, but its deadline is predicted unmeetable.
    AtRisk,
    /// Do not run it this round: the fleet budget is already fully
    /// claimed by earlier-deadline work.
    Defer,
}

impl AdmissionVerdict {
    /// Whether the job runs.
    pub fn admitted(&self) -> bool {
        matches!(self, AdmissionVerdict::Admit | AdmissionVerdict::AtRisk)
    }

    /// Wire name (`admit` / `at-risk` / `defer`).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionVerdict::Admit => "admit",
            AdmissionVerdict::AtRisk => "at-risk",
            AdmissionVerdict::Defer => "defer",
        }
    }
}

/// One job's admission review.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionDecision {
    /// Index of the job in the submitted list.
    pub job_index: usize,
    /// The job's id.
    pub id: String,
    /// Predicted unique-query bill at admission time.
    pub predicted_queries: u64,
    /// Predicted completion cost in virtual seconds.
    pub predicted_secs: f64,
    /// The verdict.
    pub verdict: AdmissionVerdict,
    /// Human-readable grounds for a non-`Admit` verdict.
    pub reason: Option<String>,
}

/// Reviews `jobs` (in submission order) over the warm history and an
/// optional fleet-wide unique-query budget. Decisions come back in
/// submission order; the review itself claims budget in deadline order
/// (earliest deadline first, best-effort last, ties by submission index)
/// so urgent work is never crowded out by best-effort jobs submitted
/// earlier.
pub fn review(
    predictor: &CostPredictor,
    jobs: &[JobSpec],
    store: Option<&HistoryStore>,
    fleet_budget: Option<u64>,
) -> Vec<AdmissionDecision> {
    let mut decisions: Vec<AdmissionDecision> = jobs
        .iter()
        .enumerate()
        .map(|(job_index, spec)| {
            let predicted_queries = predictor.predict_queries(spec, store);
            let predicted_secs = predictor.predict_secs(predicted_queries);
            let (verdict, reason) = match spec.deadline {
                Some(d) if predicted_secs > d => (
                    AdmissionVerdict::AtRisk,
                    Some(format!(
                        "predicted completion {predicted_secs:.1}s exceeds the {d:.1}s deadline"
                    )),
                ),
                _ => (AdmissionVerdict::Admit, None),
            };
            AdmissionDecision {
                job_index,
                id: spec.id.clone(),
                predicted_queries,
                predicted_secs,
                verdict,
                reason,
            }
        })
        .collect();

    if let Some(budget) = fleet_budget {
        // Budget is claimed in deadline order, ties by index.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            // total_cmp: a NaN deadline (rejected by JobSpec validation,
            // but this is a pub API) must not panic the sort — it orders
            // after every finite deadline.
            let d = |i: usize| jobs[i].deadline.unwrap_or(f64::INFINITY);
            d(a).total_cmp(&d(b)).then(a.cmp(&b))
        });
        let mut claimed: u64 = 0;
        for i in order {
            if claimed >= budget {
                decisions[i].verdict = AdmissionVerdict::Defer;
                decisions[i].reason = Some(format!(
                    "fleet budget {budget} already claimed ({claimed} predicted by \
                     earlier-deadline jobs)"
                ));
            } else {
                // Jobs are admitted while predicted demand has not yet
                // filled the budget; the last admit may claim past it —
                // the ledger enforces the actual cap, and a nonzero
                // budget never admits an empty set.
                claimed = claimed.saturating_add(decisions[i].predicted_queries);
            }
        }
    }
    decisions
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_core::mto::MtoConfig;
    use mto_core::walk::SrwConfig;
    use mto_graph::NodeId;
    use mto_serve::session::AlgoSpec;

    fn job(id: &str, steps: usize, deadline: Option<f64>) -> JobSpec {
        JobSpec {
            id: id.into(),
            algo: AlgoSpec::Mto(MtoConfig::default()),
            start: NodeId(0),
            step_budget: steps,
            deadline,
            ess: None,
        }
    }

    #[test]
    fn unconstrained_jobs_are_admitted_with_predictions_attached() {
        let predictor = CostPredictor::new(Some(1000));
        let decisions = review(&predictor, &[job("a", 100, None), job("b", 50, None)], None, None);
        assert_eq!(decisions.len(), 2);
        assert!(decisions.iter().all(|d| d.verdict == AdmissionVerdict::Admit));
        assert!(decisions[0].predicted_queries > decisions[1].predicted_queries);
        assert!(decisions[0].predicted_secs > 0.0);
    }

    #[test]
    fn hopeless_deadlines_reject_strictly_or_flag_optimistically() {
        let predictor = CostPredictor::new(Some(100_000));
        // ~7000 predicted queries at 50 ms each ≈ 350 s — a 1 s deadline
        // is hopeless.
        let jobs = vec![job("tight", 10_000, Some(1.0)), job("loose", 10, Some(1e6))];
        let decisions = review(&predictor, &jobs, None, None);
        assert_eq!(decisions[0].verdict, AdmissionVerdict::AtRisk);
        assert!(decisions[0].reason.as_deref().unwrap().contains("deadline"));
        assert!(decisions[0].verdict.admitted(), "at-risk jobs still run");
        assert_eq!(decisions[1].verdict, AdmissionVerdict::Admit);
    }

    #[test]
    fn budget_is_claimed_in_deadline_order_not_submission_order() {
        let predictor = CostPredictor::new(None);
        // Submission order: a best-effort hog first, then a deadline job.
        // The deadline job must claim the budget first; the hog defers.
        let jobs = vec![
            JobSpec {
                id: "hog".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 1, lazy: false }),
                start: NodeId(0),
                step_budget: 1000,
                deadline: None,
                ess: None,
            },
            job("urgent", 1000, Some(1e9)),
        ];
        let urgent_cost = predictor.predict_queries(&jobs[1], None);
        let decisions = review(&predictor, &jobs, None, Some(urgent_cost));
        assert_eq!(decisions[1].verdict, AdmissionVerdict::Admit, "deadline job claims first");
        assert_eq!(decisions[0].verdict, AdmissionVerdict::Defer);
        assert!(decisions[0].reason.as_deref().unwrap().contains("budget"));
    }

    #[test]
    fn the_first_claimant_is_admitted_even_over_budget() {
        let predictor = CostPredictor::new(None);
        let decisions = review(&predictor, &[job("only", 1000, None)], None, Some(1));
        assert_eq!(decisions[0].verdict, AdmissionVerdict::Admit, "never admit nothing");
        // …except under an explicit zero budget, which runs nothing.
        let decisions = review(&predictor, &[job("only", 1000, None)], None, Some(0));
        assert_eq!(decisions[0].verdict, AdmissionVerdict::Defer);
    }

    #[test]
    fn admission_fills_the_budget_before_deferring() {
        // Predicted ~22 per job on the 22-user network: a 30-unit budget
        // admits two claimants (0 < 30, 22 < 30) and defers the third
        // (44 ≥ 30) — the ledger, not admission, enforces the exact cap.
        let predictor = CostPredictor::new(Some(22));
        let jobs = vec![job("a", 400, None), job("b", 300, None), job("c", 250, None)];
        let decisions = review(&predictor, &jobs, None, Some(30));
        assert_eq!(decisions[0].verdict, AdmissionVerdict::Admit);
        assert_eq!(decisions[1].verdict, AdmissionVerdict::Admit);
        assert_eq!(decisions[2].verdict, AdmissionVerdict::Defer);
    }

    #[test]
    fn review_is_deterministic() {
        let predictor = CostPredictor::new(Some(500));
        let jobs = vec![job("a", 300, Some(20.0)), job("b", 300, None), job("c", 300, Some(5.0))];
        let a = review(&predictor, &jobs, None, Some(100));
        let b = review(&predictor, &jobs, None, Some(100));
        assert_eq!(a, b);
    }
}
