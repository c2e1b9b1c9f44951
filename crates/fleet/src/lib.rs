//! # mto-fleet — the deterministic sharded crawl fleet
//!
//! One [`mto_serve::scheduler::JobScheduler`] spends crawl history well
//! *inside* a process: every job shares one client, so a neighborhood
//! paid for by one walker is free for all. But it steps every job on
//! one thread over one client — the architecture stops scaling exactly
//! where the ROADMAP's production north star begins. This crate is the
//! coordination layer that adds threads without giving up the
//! history: many shard workers, each with a **private** cache, private
//! [`mto_net::QueryPipeline`] and private [`mto_osn::VirtualClock`], run
//! in lockstep **epochs**; at every barrier the shards **gossip** the
//! responses each paid for since the last barrier, merged into one
//! [`mto_serve::HistoryStore`] delta that every shard imports, so shards
//! stop re-paying for each other's queries (history reuse à la
//! arXiv:1505.00079, applied *between* concurrent crawlers).
//!
//! * [`plan`] — [`ShardPlan`]: deterministic round-robin job
//!   partitioning;
//! * [`coordinator`] — [`FleetCoordinator`]: scoped-thread epochs,
//!   barrier gossip via keep-first [`mto_serve::HistoryStore::merge`]
//!   (conflicts counted and surfaced), per-shard wall-clock accounting
//!   through the query pipeline;
//! * [`report`] — [`FleetReport`] / [`EpochReport`]: per-epoch unique
//!   queries, gossip dedup savings, merge conflicts, and makespan (max
//!   per-shard virtual seconds), plus [`FleetReport::results_digest`],
//!   the byte-comparable witness of the determinism contract;
//! * the `mto_serve` **binary** (request file in, results out) — fleet
//!   mode behind `shards W` / `epochs N` directives, crash-safe
//!   journaling behind `journal FILE`.
//!
//! ## Determinism contract
//!
//! Fleet *results* — samples, estimates, rewire stats — are
//! bit-identical regardless of shard count, worker interleaving, and
//! gossip merge order, and `W = 1` reproduces the single-client
//! scheduler exactly (walkers are pure functions of their configs and
//! the network's responses; sharding and gossip only change who pays
//! for which response). The *bill* and the *makespan* are what sharding
//! changes — [`FleetReport`] measures both.
//!
//! ## Example
//!
//! ```
//! use mto_core::mto::MtoConfig;
//! use mto_fleet::{FleetConfig, FleetCoordinator};
//! use mto_graph::generators::paper_barbell;
//! use mto_graph::NodeId;
//! use mto_osn::OsnService;
//! use mto_serve::session::{AlgoSpec, JobSpec};
//!
//! let jobs: Vec<JobSpec> = (0..4)
//!     .map(|i: u32| JobSpec {
//!         id: format!("walker-{i}"),
//!         algo: AlgoSpec::Mto(MtoConfig { seed: i as u64 + 1, ..Default::default() }),
//!         start: NodeId(5 * i),
//!         step_budget: 200,
//!         deadline: None,
//!         ess: None,
//!     })
//!     .collect();
//! let fleet = FleetCoordinator::new(
//!     |_| OsnService::with_defaults(&paper_barbell()),
//!     FleetConfig { shards: 2, epoch_quantum: 50, ..Default::default() },
//! );
//! let report = fleet.run(jobs).unwrap();
//! assert_eq!(report.outcomes.len(), 4);
//! assert!(report.makespan_secs > 0.0, "per-shard pipelines bill virtual time");
//! // Two shards share one 22-node network: with gossip, the fleet-wide
//! // bill stays at most one crawl of the graph per shard.
//! assert!(report.total_unique_queries <= 44);
//! ```

#![warn(missing_docs)]

pub mod coordinator;
pub mod plan;
pub mod report;

pub use coordinator::{FleetConfig, FleetCoordinator, MergeOrder};
pub use plan::ShardPlan;
pub use report::{EpochReport, FleetObsData, FleetReport, LedgerSummary};
