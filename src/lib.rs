//! # mto-sampler — Faster Random Walks By Rewiring Online Social Networks On-The-Fly
//!
//! A full Rust reproduction of Zhou, Zhang, Gong & Das (ICDE 2013).
//!
//! Online social networks only expose a per-user query `q(v)` returning one
//! user's profile and neighbor list, under tight rate limits. Third-party
//! analytics therefore sample via random walks — whose burn-in cost is
//! governed by the graph conductance, and real OSNs have *low* conductance.
//! The **MTO-Sampler** rewires a virtual overlay while it walks: it deletes
//! edges that are provably not cross-cutting (Theorem 3, strengthened by
//! the local degree history per Theorem 5) and re-routes edges around
//! degree-3 pivots (Theorem 4); both moves can only raise conductance, so
//! the walk mixes faster and every sample costs fewer queries.
//!
//! This umbrella crate re-exports the library layers:
//!
//! * [`graph`] (`mto-graph`) — graph substrate: structures, generators
//!   (including the paper's barbell running example and latent-space
//!   model), algorithms, IO;
//! * [`spectral`] (`mto-spectral`) — conductance (the paper's Definition
//!   3, exactly), SLEM, mixing-time machinery;
//! * [`osn`] (`mto-osn`) — the simulated restrictive web interface with
//!   caching, rate limits and profiles;
//! * [`core`] (`mto-core`) — the samplers: MTO plus the SRW/MHRW/RJ
//!   baselines, estimators and diagnostics;
//! * [`net`] (`mto-net`) — the deterministic discrete-event network
//!   engine: latency models with provider presets, the K-in-flight query
//!   pipeline over a virtual clock, and the walk-not-wait driver that
//!   multiplexes walker pools and prefetches speculatively;
//! * [`serve`] (`mto-serve`) — the service layer: resumable sampler
//!   sessions, the persistent crawl-history store (with a crash-safe
//!   append-only journal) and cross-run warm starts, and the multi-job
//!   scheduler;
//! * [`qos`] (`mto-qos`) — the quality-of-service layer: history-
//!   calibrated cost prediction, deadline-aware admission control,
//!   EDF-with-aging quantum planning, and the fleet-wide budget ledger;
//! * [`fleet`] (`mto-fleet`) — the deterministic sharded crawl fleet:
//!   epoch-based history gossip between shard workers, per-shard query
//!   pipelines on virtual clocks, crash-safe journaling, QoS-governed
//!   budgets and deadlines, and the `mto_serve` front-end binary;
//! * [`experiments`] (`mto-experiments`) — regenerates every table and
//!   figure of the paper's evaluation (see EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use mto_sampler::core::mto::{MtoConfig, MtoSampler};
//! use mto_sampler::core::walk::Walker;
//! use mto_sampler::graph::generators::paper_barbell;
//! use mto_sampler::graph::NodeId;
//! use mto_sampler::osn::{CachedClient, OsnService};
//!
//! // A simulated social network behind the restrictive interface…
//! let service = OsnService::with_defaults(&paper_barbell());
//! // …walked by the rewiring sampler.
//! let mut sampler =
//!     MtoSampler::new(CachedClient::new(service), NodeId(0), MtoConfig::default()).unwrap();
//! for _ in 0..1000 {
//!     sampler.step().unwrap();
//! }
//! println!(
//!     "removed {} edges, replaced {}, spent {} queries",
//!     sampler.stats().removals,
//!     sampler.stats().replacements,
//!     sampler.query_cost()
//! );
//! ```
//!
//! Run the paper's experiments with
//! `cargo run --release -p mto-experiments --bin mto-lab -- all`.
//!
//! See the repository `README.md` for the workspace layout, the crate
//! dependency DAG, and how to regenerate each paper figure.

#![warn(missing_docs)]

pub use mto_core as core;
pub use mto_experiments as experiments;
pub use mto_fleet as fleet;
pub use mto_graph as graph;
pub use mto_net as net;
pub use mto_obs as obs;
pub use mto_osn as osn;
pub use mto_qos as qos;
pub use mto_serve as serve;
pub use mto_spectral as spectral;

/// The most commonly used items across all layers.
pub mod prelude {
    pub use mto_core::estimate::{Aggregate, ImportanceEstimator};
    pub use mto_core::mto::{MtoConfig, MtoSampler, OverlayDegreeMode};
    pub use mto_core::walk::{
        MetropolisHastingsWalk, RandomJumpWalk, SimpleRandomWalk, SrwConfig, Walker,
    };
    pub use mto_fleet::{FleetConfig, FleetCoordinator, FleetReport};
    pub use mto_graph::{Edge, Graph, GraphBuilder, NodeId};
    pub use mto_net::{LatencyModel, ProviderProfile, QueryPipeline, VirtualClock};
    pub use mto_obs::{Histogram, MetricsRegistry, TraceSink};
    pub use mto_osn::{CachedClient, OsnService, QueryClient, SocialNetworkInterface};
    pub use mto_qos::{BudgetLedger, CostPredictor};
    pub use mto_serve::{HistoryJournal, HistoryStore, JobScheduler, JobSpec, SamplerSession};
    pub use mto_spectral::conductance::exact_conductance;
}
