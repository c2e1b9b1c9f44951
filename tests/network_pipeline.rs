//! Cross-layer integration: the `mto-net` discrete-event engine driving
//! the full stack through the umbrella crate.
//!
//! Covers the seams the crate-local suites cannot: the unified
//! [`VirtualClock`] spanning `mto-osn` rate limiting and `mto-net`
//! simulation, the walk-not-wait driver over the Epinions-scale
//! stand-in, and the scheduler reporting virtual wall-clock through a
//! `TimedInterface`-wrapped service.

use mto_sampler::core::mto::MtoConfig;
use mto_sampler::graph::generators::paper_barbell;
use mto_sampler::graph::NodeId;
use mto_sampler::net::demand::{PoolJob, WalkerSpec};
use mto_sampler::net::driver::{run_pool, DriverConfig, DriverMode};
use mto_sampler::net::pipeline::PipelineConfig;
use mto_sampler::net::{ProviderProfile, TimedInterface};
use mto_sampler::osn::{
    OsnService, RateLimitPolicy, RateLimitedInterface, SocialNetworkInterface, VirtualClock,
};
use mto_sampler::serve::session::AlgoSpec;
use mto_sampler::serve::{JobScheduler, JobSpec, SchedulePolicy, SchedulerConfig};

fn barbell_service() -> OsnService {
    OsnService::with_defaults(&paper_barbell())
}

#[test]
fn one_clock_spans_rate_limiting_and_event_simulation() {
    // A rate-limited interface and an externally advanced clock share a
    // timeline: latency elapsing in the event engine refills the bucket.
    let clock = VirtualClock::new();
    let limited = RateLimitedInterface::with_clock(
        barbell_service(),
        RateLimitPolicy { burst: 2, refill_per_sec: 1.0 },
        clock.clone(),
    );
    limited.query(NodeId(0)).unwrap();
    limited.query(NodeId(1)).unwrap(); // bucket empty
    clock.advance(30.0); // pipeline latency elapsing elsewhere
    limited.query(NodeId(2)).unwrap();
    assert_eq!(limited.stalls(), 0, "external time covered the refill");
    assert!(limited.virtual_now() >= 30.0);
}

#[test]
fn walk_not_wait_beats_serial_on_the_barbell() {
    let jobs: Vec<PoolJob> = (0..4u64)
        .map(|i| PoolJob {
            spec: WalkerSpec::Mto(MtoConfig { seed: 77 + i, ..Default::default() }),
            start: NodeId((i as u32 * 11) % 22),
            steps: 150,
        })
        .collect();
    let profile = ProviderProfile::facebook();
    let run = |mode| {
        let config = DriverConfig {
            mode,
            pipeline: PipelineConfig {
                max_in_flight: if mode == DriverMode::Serial { 1 } else { 4 },
                latency: profile.latency,
                faults: profile.faults,
                rate_limit: Some(profile.policy),
                seed: 0xBEEF,
                ..Default::default()
            },
            unique_query_budget: Some(22),
        };
        run_pool(barbell_service(), &jobs, &config).unwrap()
    };
    let serial = run(DriverMode::Serial);
    let wnw = run(DriverMode::WalkNotWait);
    assert!(
        wnw.virtual_secs < serial.virtual_secs,
        "walk-not-wait {} vs serial {}",
        wnw.virtual_secs,
        serial.virtual_secs
    );
    for (a, b) in serial.walkers.iter().zip(&wnw.walkers) {
        assert_eq!(a.history, b.history, "overlap changed the samples");
    }
    assert!(wnw.unique_queries <= 22 && serial.unique_queries <= 22, "equal budget respected");
}

#[test]
fn scheduler_reports_virtual_wall_clock_through_the_timed_interface() {
    let timed = TimedInterface::new(barbell_service(), ProviderProfile::google_plus(), 3);
    let clock = timed.clock().clone();
    let scheduler = JobScheduler::new(
        timed,
        SchedulerConfig {
            quantum: 32,
            policy: SchedulePolicy::BudgetProportional,
            ..Default::default()
        },
    )
    .with_virtual_clock(clock);
    let jobs = vec![
        JobSpec {
            id: "big".into(),
            algo: AlgoSpec::Mto(MtoConfig { seed: 1, ..Default::default() }),
            start: NodeId(0),
            step_budget: 600,
            deadline: None,
            ess: None,
        },
        JobSpec {
            id: "small".into(),
            algo: AlgoSpec::Mto(MtoConfig { seed: 2, ..Default::default() }),
            start: NodeId(11),
            step_budget: 100,
            deadline: None,
            ess: None,
        },
    ];
    let report = scheduler.run(jobs).unwrap();
    let secs = report.virtual_secs.expect("clock attached");
    assert!(secs > 0.0, "latency must surface in the report");
    // Google Plus preset: uniform latency in [0.04, 0.09] per unique
    // query, generous quota — the bill is latency, not stalls.
    let unique = report.total_unique_queries as f64;
    assert!(
        secs >= 0.04 * unique && secs <= 0.09 * unique,
        "virtual {secs:.3}s outside the latency envelope for {unique} queries"
    );
    assert!(report.outcomes.iter().all(|o| o.completed));
}
