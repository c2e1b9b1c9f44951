//! Property suite for the QoS layer (ISSUE 5, satellite 4):
//!
//! * **ledger conservation** — no sequence of split / charge / release /
//!   rebalance operations ever mints or leaks budget: the pool plus
//!   every account's allowance always sums to the initial total;
//! * **EDF determinism** — `SchedulePolicy::EarliestDeadlineFirst`
//!   produces results identical to round-robin's across scheduler
//!   worker counts *and* fleet shard counts, for arbitrary job mixes
//!   with arbitrary deadlines (and budgeted fleets stay bit-identical
//!   across `W`, bill and all);
//! * **predictor monotonicity** — growing the warm history never raises
//!   a predicted bill.

use proptest::collection::vec;
use proptest::prelude::*;

use mto_core::mto::MtoConfig;
use mto_core::walk::{MhrwConfig, SrwConfig};
use mto_fleet::{FleetConfig, FleetCoordinator};
use mto_graph::generators::paper_barbell;
use mto_graph::NodeId;
use mto_osn::{CachedClient, OsnService};
use mto_qos::{BudgetLedger, CostPredictor};
use mto_serve::history::HistoryStore;
use mto_serve::scheduler::{JobScheduler, SchedulePolicy, SchedulerConfig};
use mto_serve::session::{AlgoSpec, JobSpec};

/// One proptest-generated job: `(algo selector, seed, start, steps,
/// deci-deadline)` — the deadline applies only when the flag is set
/// (the vendored proptest has no `option::of`).
type RawJob = (u8, u64, u32, usize, (bool, u32));

fn job_strategy() -> impl Strategy<Value = RawJob> {
    (0u8..3, 1u64..1_000, 0u32..22, 20usize..160, (any::<bool>(), 1u32..600))
}

fn build_jobs(raw: &[RawJob]) -> Vec<JobSpec> {
    raw.iter()
        .enumerate()
        .map(|(i, &(algo, seed, start, steps, (with_deadline, deadline)))| JobSpec {
            id: format!("job-{i}"),
            algo: match algo {
                0 => AlgoSpec::Mto(MtoConfig { seed, ..Default::default() }),
                1 => AlgoSpec::Srw(SrwConfig { seed, lazy: false }),
                _ => AlgoSpec::Mhrw(MhrwConfig { seed }),
            },
            start: NodeId(start),
            step_budget: steps,
            deadline: with_deadline.then_some(deadline as f64 / 10.0),
            ess: None,
        })
        .collect()
}

fn run_fleet(
    jobs: Vec<JobSpec>,
    shards: usize,
    quantum: usize,
    policy: SchedulePolicy,
    fleet_budget: Option<u64>,
) -> mto_fleet::FleetReport {
    FleetCoordinator::new(
        |_| OsnService::with_defaults(&paper_barbell()),
        FleetConfig { shards, epoch_quantum: quantum, policy, fleet_budget, ..Default::default() },
    )
    .run(jobs)
    .expect("fleet run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ledger_conservation_survives_any_operation_sequence(
        total in 0u64..10_000,
        predicted in vec(0u64..500, 1..9),
        ops in vec((0usize..8, 0u64..600, any::<bool>()), 0..40),
    ) {
        let mut ledger = BudgetLedger::split(total, &predicted);
        prop_assert!(ledger.conserves(), "split minted or leaked");
        prop_assert_eq!(
            ledger.pool() + (0..ledger.len()).map(|i| ledger.account(i).allowance).sum::<u64>(),
            total
        );
        for (slot, amount, release) in ops {
            let i = slot % predicted.len();
            if release {
                ledger.release(i);
            } else {
                ledger.charge(i, amount);
            }
            // A rebalance after every operation, claiming for every
            // account that has run dry.
            let claims: Vec<(usize, u64)> = (0..ledger.len())
                .filter(|&j| ledger.account(j).exhausted())
                .map(|j| (j, 1 + amount / 2))
                .collect();
            ledger.rebalance(&[], &claims);
            prop_assert!(
                ledger.conserves(),
                "operation (account {i}, amount {amount}, release {release}) broke conservation"
            );
        }
    }

    #[test]
    fn edf_results_match_round_robin_across_quanta_and_shards(
        raw in vec(job_strategy(), 1..6),
        edf_quantum in 8usize..64,
        shards in 1usize..5,
        quantum in 8usize..64,
    ) {
        let jobs = build_jobs(&raw);

        // Scheduler: EDF at any quantum reproduces fair results.
        let serve = |policy, quantum| {
            JobScheduler::new(
                OsnService::with_defaults(&paper_barbell()),
                SchedulerConfig { quantum, policy, ..Default::default() },
            )
            .run(jobs.clone())
            .expect("scheduler run")
        };
        let fair = serve(SchedulePolicy::RoundRobin, quantum);
        let edf = serve(SchedulePolicy::EarliestDeadlineFirst, edf_quantum);
        for (a, b) in fair.outcomes.iter().zip(&edf.outcomes) {
            prop_assert_eq!(&a.history, &b.history, "scheduler EDF diverged for {}", a.id);
            prop_assert_eq!(a.stats, b.stats);
            prop_assert_eq!((a.steps, a.completed), (b.steps, b.completed));
        }

        // Fleet: EDF at any shard count keeps the digest of W=1 fair.
        let reference =
            run_fleet(jobs.clone(), 1, quantum, SchedulePolicy::RoundRobin, None).results_digest();
        for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::EarliestDeadlineFirst] {
            let digest =
                run_fleet(jobs.clone(), shards, quantum, policy, None).results_digest();
            prop_assert_eq!(
                &digest, &reference,
                "fleet {} diverged at W={}", policy.name(), shards
            );
        }
    }

    #[test]
    fn budgeted_fleets_are_bit_identical_across_shard_counts(
        raw in vec(job_strategy(), 2..6),
        budget in 4u64..60,
        quantum in 8usize..48,
    ) {
        let jobs = build_jobs(&raw);
        let reference = run_fleet(jobs.clone(), 1, quantum, SchedulePolicy::RoundRobin, Some(budget));
        let ref_ledger = reference.ledger.expect("budgeted run carries a ledger");
        for shards in [2, 4] {
            let report =
                run_fleet(jobs.clone(), shards, quantum, SchedulePolicy::RoundRobin, Some(budget));
            prop_assert_eq!(
                report.results_digest(),
                reference.results_digest(),
                "budget cuts diverged at W={}", shards
            );
            let ledger = report.ledger.expect("budgeted run carries a ledger");
            prop_assert_eq!(ledger.spent, ref_ledger.spent, "spend diverged at W={}", shards);
            prop_assert_eq!(ledger.reclaimed, ref_ledger.reclaimed);
            prop_assert_eq!(ledger.granted, ref_ledger.granted);
            prop_assert_eq!(ledger.cut_jobs, ref_ledger.cut_jobs);
        }
    }

    #[test]
    fn predictions_never_rise_as_warm_history_grows(
        crawl_a in vec(0u32..22, 0..12),
        extra in vec(0u32..22, 1..12),
        steps in 1usize..2_000,
        start in 0u32..22,
        algo in 0u8..3,
    ) {
        // Two crawls of the barbell where the second is a superset of
        // the first: the predicted bill must not rise.
        let crawl = |nodes: &[u32]| {
            let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
            for &v in nodes {
                client.query(NodeId(v)).expect("barbell node");
            }
            HistoryStore::from_client(&client)
        };
        let smaller = crawl(&crawl_a);
        let mut union: Vec<u32> = crawl_a.clone();
        union.extend(&extra);
        let larger = crawl(&union);

        let spec = JobSpec {
            id: "probe".into(),
            algo: match algo {
                0 => AlgoSpec::Mto(MtoConfig::default()),
                1 => AlgoSpec::Srw(SrwConfig { seed: 1, lazy: false }),
                _ => AlgoSpec::Mhrw(MhrwConfig { seed: 1 }),
            },
            start: NodeId(start),
            step_budget: steps,
            deadline: None,
            ess: None,
        };
        let predictor = CostPredictor::new(Some(22));
        let cold = predictor.predict_queries(&spec, None);
        let warm = predictor.predict_queries(&spec, Some(&smaller));
        let warmer = predictor.predict_queries(&spec, Some(&larger));
        prop_assert!(warm <= cold, "any history must discount: {warm} > {cold}");
        prop_assert!(
            warmer <= warm,
            "more history raised the bill: {warmer} > {warm} \
             (crawl {crawl_a:?} + {extra:?}, start {start}, steps {steps})"
        );
    }
}
