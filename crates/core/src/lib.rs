//! # mto-core — the MTO-Sampler and its baselines
//!
//! The primary contribution of *"Faster Random Walks By Rewiring Online
//! Social Networks On-The-Fly"* (Zhou, Zhang, Gong & Das, ICDE 2013),
//! implemented against the restrictive interface of `mto-osn`:
//!
//! * [`mto::MtoSampler`] — Algorithm 1: a lazy random walk that *rewires a
//!   virtual overlay* as it goes, removing provably non-cross-cutting
//!   edges (Theorem 3, extended by Theorem 5) and replacing edges around
//!   degree-3 pivots (Theorem 4), both of which can only raise the graph
//!   conductance and therefore shrink the mixing time;
//! * [`walk`] — the baselines: simple random walk, Metropolis–Hastings,
//!   and Random Jump;
//! * [`rewire`] — the removal/replacement criteria and the overlay delta;
//! * [`estimate`] — self-normalized importance sampling over the paper's
//!   aggregates (average degree, profile attributes, COUNT with known
//!   `|V|`);
//! * [`diagnostics`] — the symmetric-KL bias measure and auxiliary
//!   distances. The Geweke convergence indicator (Eq. 14) is
//!   `mto_obs::quality::GewekeStream`.
//!
//! ## Example: rewiring the paper's barbell
//!
//! ```
//! use mto_core::mto::{MtoConfig, MtoSampler};
//! use mto_core::walk::Walker;
//! use mto_graph::generators::paper_barbell;
//! use mto_graph::NodeId;
//! use mto_osn::{CachedClient, OsnService};
//!
//! let service = OsnService::with_defaults(&paper_barbell());
//! let mut sampler =
//!     MtoSampler::new(CachedClient::new(service), NodeId(0), MtoConfig::default()).unwrap();
//! for _ in 0..500 {
//!     sampler.step().unwrap();
//! }
//! assert!(sampler.stats().removals > 0, "the dense cliques shed edges");
//! ```

#![warn(missing_docs)]

pub mod diagnostics;
pub mod estimate;
pub mod mto;
pub mod rewire;
pub mod walk;

pub use mto::{CriterionView, MtoConfig, MtoSampler, OverlayDegreeMode, RewireStats};
pub use rewire::{materialize_removal_overlay, materialize_removal_overlay_with, OverlayDelta};
pub use walk::{
    MetropolisHastingsWalk, MhrwConfig, RandomJumpWalk, RjConfig, SimpleRandomWalk, SrwConfig,
    Walker,
};
