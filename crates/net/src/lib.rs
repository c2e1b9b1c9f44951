//! # mto-net — the deterministic discrete-event network engine
//!
//! The paper's cost model (Section II-B) counts *unique queries*, but
//! against a live provider the real bill is **wall-clock time**:
//! per-request latency plus rate-limit stalls, during which a blocking
//! walker does nothing. "Walk, Not Wait: Faster Sampling Over Online
//! Social Networks" (Nazi et al., arXiv:1410.7833) shows that keeping
//! many requests in flight and speculatively advancing converts that
//! dead time into progress. This crate models all of it *virtually* — no
//! thread ever sleeps, and every run is a pure function of its seed:
//!
//! * [`latency`] — per-request service-time distributions (constant /
//!   uniform / log-normal), timeout injection, and the
//!   Facebook/Twitter/Google-Plus [`ProviderProfile`] presets;
//! * [`event`] — the binary-heap event queue with a `(time, seq)` total
//!   order, the determinism backbone;
//! * [`pipeline`] — [`QueryPipeline`]: up to `K` requests in flight over
//!   any [`mto_osn::SocialNetworkInterface`], completing in
//!   simulated-time order on the shared [`VirtualClock`];
//! * [`timed`] — [`TimedInterface`]: the blocking (serial) provider
//!   simulation the `mto-serve` scheduler wraps to report virtual
//!   wall-clock alongside unique queries;
//! * [`demand`] / [`driver`] — the **walk-not-wait driver**: records
//!   each walker's demand trace, then replays the pool through the
//!   pipeline under [`driver::DriverMode::Serial`] / `Pipelined` /
//!   `WalkNotWait`, issuing speculative prefetches from the walkers' own
//!   overlay-adjusted frontiers while they stall.
//!
//! The clock is `mto-osn`'s [`VirtualClock`] (re-exported here): rate
//! limiting and event simulation advance one unified timeline, so "this
//! crawl would have taken N hours" composes across both layers.
//!
//! ## Example
//!
//! ```
//! use mto_graph::generators::paper_barbell;
//! use mto_graph::NodeId;
//! use mto_net::latency::LatencyModel;
//! use mto_net::pipeline::{PipelineConfig, QueryPipeline};
//! use mto_osn::OsnService;
//!
//! let service = OsnService::with_defaults(&paper_barbell());
//! let mut pipeline = QueryPipeline::new(
//!     service,
//!     PipelineConfig {
//!         max_in_flight: 4,
//!         latency: LatencyModel::Constant { secs: 0.1 },
//!         ..Default::default()
//!     },
//! );
//! for v in 0..8u32 {
//!     pipeline.submit(NodeId(v));
//! }
//! let done = pipeline.drain();
//! // Eight 100 ms requests over four connections: 200 ms, not 800 ms.
//! assert!((pipeline.clock().now() - 0.2).abs() < 1e-6);
//! assert_eq!(done.len(), 8);
//! ```

#![warn(missing_docs)]

pub mod demand;
pub mod driver;
pub mod event;
pub mod latency;
pub mod pipeline;
pub mod timed;

pub use event::{Event, EventQueue};
pub use latency::{FaultModel, LatencyModel, ProviderProfile};
pub use pipeline::{
    Completion, PipelineConfig, PipelineObs, PipelineStats, QueryPipeline, RequestId,
};
pub use timed::TimedInterface;

// One clock for the whole stack: defined in mto-osn (the lowest layer
// that needs it — the token bucket refills on it), re-exported here as
// the event engine's clock.
pub use mto_osn::VirtualClock;

pub use demand::{record_traces, PoolJob, WalkTrace, WalkerSpec};
pub use driver::{replay_pool, run_pool, DriverConfig, DriverMode, PoolReport, WalkerOutcome};
