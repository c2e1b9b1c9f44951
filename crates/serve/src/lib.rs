//! # mto-serve — the session-based sampling service layer
//!
//! Every experiment below this crate is one-shot: build a client, walk,
//! estimate, throw the cache and overlay away. This crate turns the
//! samplers into a **long-lived service**, the deployment shape the
//! paper's cost model rewards (every unique query is precious, so crawl
//! history must outlive the job that paid for it — cf. "Leveraging
//! History for Faster Sampling of Online Social Networks",
//! arXiv:1505.00079, and the service framing of "Walk, Not Wait",
//! arXiv:1410.7833):
//!
//! * [`session::SamplerSession`] — a resumable lifecycle (create → step in
//!   increments → pause → snapshot → resume) around any sampler, with
//!   verified event-sourced resume;
//! * [`history::HistoryStore`] — a versioned, checksummed, hand-rolled
//!   text codec persisting the query cache, remembered degrees, and
//!   overlay deltas, so later runs **warm-start** and only pay for nodes
//!   nobody has visited;
//! * [`scheduler::JobScheduler`] — many heterogeneous jobs stepped in
//!   fair round-robin quanta on the calling thread over one shared
//!   client and budget, so results, the bill and budget cuts never
//!   depend on thread timing;
//! * [`request`] — the request-file format the `mto_serve` binary serves.
//!
//! ## Example: pause, persist, resume
//!
//! ```
//! use mto_core::mto::MtoConfig;
//! use mto_core::walk::Walker;
//! use mto_graph::generators::paper_barbell;
//! use mto_graph::NodeId;
//! use mto_osn::{CachedClient, OsnService, SharedClient};
//! use mto_serve::session::{AlgoSpec, JobSpec, SamplerSession, SessionSnapshot};
//!
//! let client = || {
//!     SharedClient::new(CachedClient::new(OsnService::with_defaults(&paper_barbell())))
//! };
//! let job = JobSpec {
//!     id: "demo".into(),
//!     algo: AlgoSpec::Mto(MtoConfig::default()),
//!     start: NodeId(0),
//!     step_budget: 200,
//!     deadline: None,
//!     ess: None,
//! };
//! let mut session = SamplerSession::create(client(), job).unwrap();
//! session.advance(80).unwrap();
//! let frozen = session.snapshot().encode(); // → disk, another process…
//!
//! let thawed = SessionSnapshot::decode(&frozen).unwrap();
//! let mut resumed = SamplerSession::restore(client(), &thawed).unwrap();
//! resumed.run_to_completion().unwrap();
//! assert_eq!(resumed.walker().history().len(), 201);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod history;
pub mod journal;
pub mod request;
pub mod scheduler;
pub mod session;

pub use error::{HistoryCodecError, Result, ServeError};
pub use history::{CrawlCounters, HistoryStore, MergeOutcome};
pub use journal::{HistoryJournal, JournalRecovery};
pub use request::{NetworkSpec, ServeRequest};
pub use scheduler::{
    finalize_session, JobOutcome, JobScheduler, SchedulePolicy, SchedulerConfig, ServeReport,
};
pub use session::{
    format_job_line, parse_job_line, AlgoSpec, JobSpec, SamplerSession, SessionSnapshot,
    SessionState, SessionWalker,
};
