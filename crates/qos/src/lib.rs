//! # mto-qos — deadline-aware admission control and the fleet budget
//! ledger
//!
//! The stack below this crate knows how to *spend* well: one process
//! shares a cache (`mto-serve`), a fleet gossips history (`mto-fleet`
//! sits above), and the network layer prices every query in virtual
//! time (`mto-net`). What nothing decides is **which work deserves the
//! budget**. This crate is that brain — the QoS layer between sessions
//! and the fleet (DAG position: `mto-serve ← mto-qos ← mto-fleet`):
//!
//! * [`predictor::CostPredictor`] — predicts a job's remaining
//!   unique-query bill and virtual-time cost from its walker config and
//!   the warm [`mto_serve::HistoryStore`]'s coverage of its frontier
//!   (history predicts cost, arXiv:1505.00079; time is the real bill,
//!   arXiv:1410.7833), calibrated online as quanta complete, with a
//!   monotone guarantee: more warm history never raises a prediction;
//! * [`admission::review`] — deterministically admits or defers jobs
//!   against a fleet budget, claiming budget in deadline order, and
//!   flags jobs whose deadlines are predicted unmeetable;
//! * [`planner::plan_epoch`] — earliest-deadline-first-with-aging
//!   allocation of each lockstep epoch's step capacity, computed
//!   centrally from shard-invariant state (the fleet-side face of
//!   [`mto_serve::scheduler::SchedulePolicy::EarliestDeadlineFirst`]);
//! * [`ledger::BudgetLedger`] — the resolution of the `budget` +
//!   `shards` rejection: the fleet-wide unique-query budget is split at
//!   admission proportional to predicted cost, spent per job against
//!   shard-invariant unique demand, and rebalanced deterministically at
//!   epoch barriers (unspent returns to the pool, over-demand is cut
//!   proportionally), so global budgets compose with
//!   `FleetCoordinator` and results stay bit-identical across `W`.
//!
//! ## Example: review, split, rebalance
//!
//! ```
//! use mto_core::mto::MtoConfig;
//! use mto_graph::NodeId;
//! use mto_qos::{review, BudgetLedger, CostPredictor};
//! use mto_serve::session::{AlgoSpec, JobSpec};
//!
//! let jobs: Vec<JobSpec> = (0..3)
//!     .map(|i: u32| JobSpec {
//!         id: format!("job-{i}"),
//!         algo: AlgoSpec::Mto(MtoConfig { seed: i as u64 + 1, ..Default::default() }),
//!         start: NodeId(0),
//!         step_budget: 200,
//!         deadline: (i == 0).then_some(30.0),
//!         ess: None,
//!     })
//!     .collect();
//! let predictor = CostPredictor::new(Some(1000));
//! let decisions = review(&predictor, &jobs, None, Some(500));
//! let predicted: Vec<u64> = decisions.iter().map(|d| d.predicted_queries).collect();
//!
//! let mut ledger = BudgetLedger::split(500, &predicted);
//! assert!(ledger.conserves());
//! ledger.charge(0, 40);
//! let outcome = ledger.rebalance(&[0], &[(1, 25)]);
//! assert!(ledger.conserves(), "split + rebalance never mint or leak budget");
//! assert!(outcome.reclaimed > 0);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod ledger;
pub mod planner;
pub mod predictor;

pub use admission::{review, AdmissionDecision, AdmissionVerdict};
pub use ledger::{BudgetLedger, LedgerAccount, RebalanceOutcome};
pub use planner::{plan_epoch, LiveJob, PlannerConfig};
pub use predictor::CostPredictor;
