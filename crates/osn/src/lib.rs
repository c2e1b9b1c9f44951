//! # mto-osn — the simulated restrictive online-social-network interface
//!
//! The paper's access model (Section II-A): a third party may only issue
//! `q(v)`, which returns one user's profile and neighbor list, under a
//! provider-imposed rate limit, with no global topology endpoint. This
//! crate builds that world:
//!
//! * [`interface::SocialNetworkInterface`] — the `q(v)` trait;
//! * [`service::OsnService`] — an in-memory network (topology + synthetic
//!   profiles) behind the interface, with optional transient-failure
//!   injection; the stand-in for the retired Google Plus API and for the
//!   paper's simulated local-dataset interface;
//! * [`cache::CachedClient`] — the client-side cache implementing the
//!   paper's cost model (duplicate queries are free) and the Section III-D
//!   degree history that powers Theorem 5;
//! * [`rate_limit`] — token-bucket quotas over a virtual clock, with the
//!   Facebook/Twitter policies the paper quotes;
//! * [`clock`] — the one shared [`clock::VirtualClock`] that rate limiting
//!   and the `mto-net` discrete-event engine both advance.
//!
//! ## Example
//!
//! ```
//! use mto_graph::generators::paper_barbell;
//! use mto_osn::cache::CachedClient;
//! use mto_osn::service::OsnService;
//! use mto_graph::NodeId;
//!
//! let service = OsnService::with_defaults(&paper_barbell());
//! let mut client = CachedClient::new(service);
//! let response = client.query(NodeId(0)).unwrap();
//! assert_eq!(response.degree(), 11);
//! client.query(NodeId(0)).unwrap(); // cache hit
//! assert_eq!(client.unique_queries(), 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod clock;
pub mod error;
pub mod interface;
pub mod profile;
pub mod rate_limit;
pub mod service;

pub use cache::{CacheSnapshot, CachedClient, NeighborArena};
pub use client::{QueryClient, SharedClient};
pub use clock::VirtualClock;
pub use error::{OsnError, Result};
pub use interface::{QueryResponse, SocialNetworkInterface};
pub use profile::{ProfileGenerator, UserProfile};
pub use rate_limit::{RateLimitPolicy, RateLimitedInterface, TokenBucket};
pub use service::{OsnService, OsnServiceConfig};
