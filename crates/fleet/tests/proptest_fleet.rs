//! Property suite for the fleet determinism contract (ISSUE 4,
//! satellite 4):
//!
//! * fleet **results** (samples, estimates, rewire stats) are invariant
//!   to shard count, epoch quantum (worker interleaving granularity),
//!   gossip on/off, and gossip merge order — for arbitrary heterogeneous
//!   job mixes;
//! * `W = 1` exactly reproduces the single-client
//!   [`mto_serve::scheduler::JobScheduler`] path, outcome by outcome;
//! * gossip never *increases* the fleet bill, and the per-epoch
//!   accounting is internally consistent (cumulative bills, monotone
//!   makespans, adopted totals).

use proptest::collection::vec;
use proptest::prelude::*;

use mto_core::mto::MtoConfig;
use mto_core::walk::{MhrwConfig, SrwConfig};
use mto_fleet::{FleetConfig, FleetCoordinator, MergeOrder};
use mto_graph::generators::paper_barbell;
use mto_graph::NodeId;
use mto_osn::OsnService;
use mto_serve::scheduler::{JobScheduler, SchedulerConfig};
use mto_serve::session::{AlgoSpec, JobSpec};

/// One proptest-generated job: `(algo selector, seed, start, steps)`.
fn job_strategy() -> impl Strategy<Value = (u8, u64, u32, usize)> {
    (0u8..3, 1u64..1_000, 0u32..22, 20usize..160)
}

fn build_jobs(raw: &[(u8, u64, u32, usize)]) -> Vec<JobSpec> {
    raw.iter()
        .enumerate()
        .map(|(i, &(algo, seed, start, steps))| JobSpec {
            id: format!("job-{i}"),
            algo: match algo {
                0 => AlgoSpec::Mto(MtoConfig { seed, ..Default::default() }),
                1 => AlgoSpec::Srw(SrwConfig { seed, lazy: false }),
                _ => AlgoSpec::Mhrw(MhrwConfig { seed }),
            },
            start: NodeId(start),
            step_budget: steps,
            deadline: None,
            ess: None,
        })
        .collect()
}

fn run_fleet(jobs: Vec<JobSpec>, config: FleetConfig) -> mto_fleet::FleetReport {
    FleetCoordinator::new(|_| OsnService::with_defaults(&paper_barbell()), config)
        .run(jobs)
        .expect("fleet run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn results_are_invariant_to_sharding_quantum_gossip_and_merge_order(
        raw in vec(job_strategy(), 1..7),
        shards in 1usize..6,
        quantum in 1usize..80,
    ) {
        let jobs = build_jobs(&raw);
        let reference = run_fleet(
            jobs.clone(),
            FleetConfig { shards: 1, epoch_quantum: 64, ..Default::default() },
        )
        .results_digest();
        for (gossip, order) in [
            (true, MergeOrder::Forward),
            (true, MergeOrder::Reverse),
            (false, MergeOrder::Forward),
        ] {
            let digest = run_fleet(
                jobs.clone(),
                FleetConfig {
                    shards,
                    epoch_quantum: quantum,
                    gossip,
                    merge_order: order,
                    ..Default::default()
                },
            )
            .results_digest();
            prop_assert_eq!(
                &digest, &reference,
                "W={} quantum={} gossip={} {:?} diverged", shards, quantum, gossip, order
            );
        }
    }

    #[test]
    fn single_shard_reproduces_the_scheduler_exactly(
        raw in vec(job_strategy(), 1..6),
        quantum in 1usize..80,
        scheduler_quantum in 1usize..80,
    ) {
        let jobs = build_jobs(&raw);
        let fleet = run_fleet(
            jobs.clone(),
            FleetConfig { shards: 1, epoch_quantum: quantum, ..Default::default() },
        );
        let scheduler = JobScheduler::new(
            OsnService::with_defaults(&paper_barbell()),
            SchedulerConfig { quantum: scheduler_quantum, ..Default::default() },
        );
        let serve = scheduler.run(jobs).expect("scheduler run");
        prop_assert_eq!(fleet.outcomes.len(), serve.outcomes.len());
        for (f, s) in fleet.outcomes.iter().zip(&serve.outcomes) {
            prop_assert_eq!(&f.id, &s.id);
            prop_assert_eq!(&f.history, &s.history, "job {} diverged", f.id);
            prop_assert_eq!(f.stats, s.stats);
            prop_assert_eq!(f.avg_degree_estimate, s.avg_degree_estimate);
            prop_assert_eq!((f.steps, f.completed), (s.steps, s.completed));
        }
        prop_assert_eq!(fleet.total_unique_queries, serve.total_unique_queries);
    }

    #[test]
    fn gossip_never_costs_more_and_epoch_accounting_is_consistent(
        raw in vec(job_strategy(), 2..7),
        shards in 2usize..6,
        quantum in 4usize..40,
    ) {
        let jobs = build_jobs(&raw);
        let config = FleetConfig { shards, epoch_quantum: quantum, ..Default::default() };
        let gossiped = run_fleet(jobs.clone(), config);
        let isolated =
            run_fleet(jobs, FleetConfig { gossip: false, ..config });
        prop_assert!(
            gossiped.total_unique_queries <= isolated.total_unique_queries,
            "gossip raised the bill: {} > {}",
            gossiped.total_unique_queries,
            isolated.total_unique_queries
        );
        prop_assert_eq!(
            gossiped.gossip_adopted_responses,
            gossiped.epochs.iter().map(|e| e.adopted_responses).sum::<u64>()
        );
        for w in gossiped.epochs.windows(2) {
            prop_assert!(w[1].fleet_unique_queries >= w[0].fleet_unique_queries);
            prop_assert!(w[1].makespan_secs >= w[0].makespan_secs);
            prop_assert_eq!(w[1].epoch, w[0].epoch + 1);
        }
        // Honest shards crawling one network never conflict.
        prop_assert_eq!(gossiped.merge_conflicts, 0);
    }
}
