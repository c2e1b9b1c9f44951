//! Cross-crate integration of the fleet layer through the umbrella
//! crate: sharded crawling with epoch gossip, journal-backed crash
//! safety, and the W=1 ↔ scheduler equivalence — everything wired
//! together the way a consumer of `mto_sampler` sees it.

use std::collections::BTreeSet;

use mto_sampler::core::mto::MtoConfig;
use mto_sampler::core::walk::SrwConfig;
use mto_sampler::fleet::{FleetConfig, FleetCoordinator, MergeOrder};
use mto_sampler::graph::generators::gnp_graph;
use mto_sampler::graph::{Graph, NodeId};
use mto_sampler::osn::OsnService;
use mto_sampler::serve::journal::HistoryJournal;
use mto_sampler::serve::scheduler::{JobScheduler, SchedulerConfig};
use mto_sampler::serve::session::{AlgoSpec, JobSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 200-node sparse network: big enough that no shard can crawl it all
/// before the first gossip barrier (the paper barbell's 22 nodes would
/// be fully cached in a handful of MTO steps).
fn network() -> Graph {
    gnp_graph(200, 0.04, &mut StdRng::seed_from_u64(7))
}

fn jobs() -> Vec<JobSpec> {
    mto_jobs(6)
}

fn mto_jobs(count: u64) -> Vec<JobSpec> {
    (0..count)
        .map(|i| JobSpec {
            id: format!("w{i}"),
            algo: AlgoSpec::Mto(MtoConfig { seed: i + 1, ..Default::default() }),
            start: NodeId((17 * i as u32) % 200),
            step_budget: 400,
            deadline: None,
            ess: None,
        })
        .collect()
}

fn fleet(config: FleetConfig) -> impl FnOnce(Vec<JobSpec>) -> mto_sampler::fleet::FleetReport {
    move |jobs| {
        let graph = network();
        FleetCoordinator::new(|_| OsnService::with_defaults(&graph), config)
            .run(jobs)
            .expect("fleet run")
    }
}

#[test]
fn gossip_cuts_the_bill_without_touching_results() {
    let gossiped =
        fleet(FleetConfig { shards: 3, epoch_quantum: 25, ..Default::default() })(jobs());
    let isolated =
        fleet(FleetConfig { shards: 3, epoch_quantum: 25, gossip: false, ..Default::default() })(
            jobs(),
        );
    assert!(
        gossiped.total_unique_queries < isolated.total_unique_queries,
        "gossip {} vs isolated {}",
        gossiped.total_unique_queries,
        isolated.total_unique_queries
    );
    assert_eq!(gossiped.results_digest(), isolated.results_digest());
    assert!(gossiped.gossip_adopted_responses > 0);
    assert_eq!(gossiped.merge_conflicts, 0, "honest shards never conflict");
}

#[test]
fn fleet_results_survive_every_knob() {
    let reference = fleet(FleetConfig { shards: 1, ..Default::default() })(jobs());
    let scheduler =
        JobScheduler::new(OsnService::with_defaults(&network()), SchedulerConfig::default())
            .run(jobs())
            .unwrap();
    for (f, s) in reference.outcomes.iter().zip(&scheduler.outcomes) {
        assert_eq!(f.history, s.history, "W=1 must be the scheduler, exactly");
        assert_eq!(f.avg_degree_estimate, s.avg_degree_estimate);
    }
    for shards in [2, 4, 6] {
        for order in [MergeOrder::Forward, MergeOrder::Reverse] {
            let report = fleet(FleetConfig {
                shards,
                merge_order: order,
                epoch_quantum: 45,
                ..Default::default()
            })(jobs());
            assert_eq!(report.results_digest(), reference.results_digest(), "W={shards} {order:?}");
        }
    }
}

#[test]
fn union_store_journals_and_warm_starts_the_next_fleet() {
    let path =
        std::env::temp_dir().join(format!("mto-fleet-integration-{}.journal", std::process::id()));
    let first = fleet(FleetConfig { shards: 4, epoch_quantum: 40, ..Default::default() })(jobs());

    let mut journal = HistoryJournal::create(&path).unwrap();
    journal.absorb(&first.union_store).unwrap();
    journal.sync().unwrap();
    drop(journal);

    let (journal, recovery) = HistoryJournal::open(&path).unwrap();
    assert!(!recovery.recovered);
    let graph = network();
    let warm = FleetCoordinator::new(
        |_| OsnService::with_defaults(&graph),
        FleetConfig { shards: 4, epoch_quantum: 40, ..Default::default() },
    )
    .with_warm_start(journal.store().clone())
    .run(jobs())
    .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(warm.total_unique_queries, 0, "the union store covers every node the jobs visit");
    assert_eq!(warm.results_digest(), first.results_digest());
}

#[test]
fn honest_gossip_rewrites_nothing_a_shard_already_holds() {
    for shards in [2, 4, 8] {
        let report =
            fleet(FleetConfig { shards, epoch_quantum: 25, obs: true, ..Default::default() })(
                mto_jobs(8),
            );
        assert_eq!(report.shards, shards);
        assert!(report.gossip_adopted_responses > 0, "W={shards}: shards must trade history");
        let registry = &report.obs.as_ref().expect("obs was requested").registry;
        assert_eq!(registry.counter("arena-rewrites-in-place"), 0, "W={shards}");
    }
}

#[test]
fn start_node_queries_are_gossiped_at_the_first_barrier_and_never_replayed() {
    // An SRW pays for exactly the nodes it visits. Two of them on two
    // shards start where the other walk does not go in epoch 0.
    let srw = |seed: u64, start: u32| JobSpec {
        id: format!("srw-{seed}"),
        algo: AlgoSpec::Srw(SrwConfig { seed, lazy: false }),
        start: NodeId(start),
        step_budget: 60,
        deadline: None,
        ess: None,
    };
    let report =
        fleet(FleetConfig { shards: 2, epoch_quantum: 20, obs: true, ..Default::default() })(vec![
            srw(1, 0),
            srw(2, 100),
        ]);
    let epoch0: Vec<BTreeSet<NodeId>> =
        report.outcomes.iter().map(|o| o.history[..=20].iter().copied().collect()).collect();
    assert!(!epoch0[0].contains(&NodeId(100)) && !epoch0[1].contains(&NodeId(0)));
    // Each shard adopts everything the other paid for in epoch 0, the
    // start node its session opened on included.
    let exchanged = epoch0[0].symmetric_difference(&epoch0[1]).count() as u64;
    assert_eq!(report.epochs[0].adopted_responses, exchanged);
    assert_eq!(exchanged, 30);
    // The pipelines replay every paid node except the two start nodes.
    let registry = &report.obs.as_ref().expect("obs was requested").registry;
    let completions = registry.counter("pipeline-completions");
    assert_eq!(completions, report.total_unique_queries - 2);
    assert_eq!(completions, 84);
}
