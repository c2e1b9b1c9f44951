//! Per-layer probes on the workload's own graph: one public call timed in
//! a tight loop, outside any request. Each probe reports the median of a
//! few batches, in nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use mto_core::mto::{MtoConfig, MtoSampler};
use mto_core::walk::{SimpleRandomWalk, SrwConfig, Walker};
use mto_graph::NodeId;
use mto_osn::{CachedClient, OsnService, SharedClient};
use mto_qos::{plan_epoch, LiveJob, PlannerConfig};
use mto_serve::request::ServeRequest;
use mto_serve::session::{AlgoSpec, JobSpec, SamplerSession};

use crate::serve::Server;
use crate::stats::median;

const BATCHES: usize = 5;

pub struct Probes {
    /// `CachedClient::query` on uncached nodes.
    pub cold_query_ns: f64,
    /// Warm `MtoSampler::step`.
    pub mto_step_ns: f64,
    /// Warm `SimpleRandomWalk::step`.
    pub srw_step_ns: f64,
    /// Warm single-thread `SamplerSession::advance` (MTO) over a
    /// `SharedClient`, per step.
    pub session_step_ns: f64,
    /// `mto_qos::plan_epoch` at the request's job shape.
    pub plan_epoch_ns: f64,
}

/// Median over [`BATCHES`] of `batch`'s nanoseconds per unit of work.
fn per_call(units: u64, mut batch: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    median(&samples)
}

/// A client that has already queried every node: steps never reach the
/// service.
fn warm_client(server: &Server) -> CachedClient<std::sync::Arc<OsnService>> {
    let mut client = CachedClient::new(server.service.clone());
    for v in 0..server.graph.num_nodes() as u32 {
        client.query(NodeId(v)).expect("every node of the built graph answers");
    }
    client
}

pub fn run(server: &Server, request: &ServeRequest) -> Probes {
    let start = request.jobs[0].start;
    let nodes = server.graph.num_nodes().min(20_000) as u32;
    let mut cold = Vec::new();
    for _ in 0..BATCHES {
        let mut client = CachedClient::new(server.service.clone());
        let t = Instant::now();
        for v in 0..nodes {
            black_box(client.query(NodeId(v)).expect("node exists"));
        }
        cold.push(t.elapsed().as_nanos() as f64 / f64::from(nodes));
    }

    const STEPS: u64 = 100_000;
    let mut mto = MtoSampler::new(warm_client(server), start, MtoConfig::default())
        .expect("MTO starts on a generated start node");
    mto.run(STEPS as usize).expect("warm steps never fail");
    let mto_step_ns = per_call(STEPS, || {
        black_box(mto.run(STEPS as usize).expect("warm steps never fail"));
    });
    drop(mto);

    let mut srw = SimpleRandomWalk::new(warm_client(server), start, SrwConfig::default())
        .expect("SRW starts on a generated start node");
    srw.run(STEPS as usize).expect("warm steps never fail");
    let srw_step_ns = per_call(STEPS, || {
        black_box(srw.run(STEPS as usize).expect("warm steps never fail"));
    });
    drop(srw);

    let spec = JobSpec {
        id: "probe".into(),
        algo: AlgoSpec::Mto(MtoConfig::default()),
        start,
        step_budget: usize::MAX / 2,
        deadline: None,
        ess: None,
    };
    let mut session = SamplerSession::create(SharedClient::new(warm_client(server)), spec)
        .expect("session starts on a generated start node");
    session.advance(STEPS as usize).expect("warm steps never fail");
    let session_step_ns = per_call(STEPS, || {
        black_box(session.advance(STEPS as usize).expect("warm steps never fail"));
    });
    drop(session);

    let quantum = match request.epochs {
        Some(epochs) => {
            let max_budget = request.jobs.iter().map(|j| j.step_budget).max().unwrap_or(0);
            max_budget.div_ceil(epochs).max(1)
        }
        None => request.scheduler.quantum,
    };
    let planner = PlannerConfig { quantum, ..Default::default() };
    let live: Vec<LiveJob> = request
        .jobs
        .iter()
        .map(|j| LiveJob {
            remaining_steps: j.step_budget,
            deadline: j.deadline,
            starved_epochs: 0,
            suspended: false,
        })
        .collect();
    const PLANS: u64 = 20_000;
    let plan_epoch_ns = per_call(PLANS, || {
        for _ in 0..PLANS {
            black_box(plan_epoch(request.scheduler.policy, &planner, black_box(&live)));
        }
    });

    Probes {
        cold_query_ns: median(&cold),
        mto_step_ns,
        srw_step_ns,
        session_step_ns,
        plan_epoch_ns,
    }
}
