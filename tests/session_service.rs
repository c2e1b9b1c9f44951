//! Cross-layer integration tests of the `mto-serve` service layer: the
//! snapshot → resume fidelity guarantee and the scheduler/warm-start
//! behavior of ISSUE 2's acceptance criteria, exercised through the
//! umbrella crate like any consumer would.

use mto_sampler::core::mto::MtoConfig;
use mto_sampler::core::walk::{SrwConfig, Walker};
use mto_sampler::experiments::{build_dataset, DatasetSpec};
use mto_sampler::graph::NodeId;
use mto_sampler::osn::{CachedClient, OsnService, SharedClient};
use mto_sampler::serve::session::{AlgoSpec, SessionSnapshot, SessionState};
use mto_sampler::serve::{HistoryStore, JobScheduler, JobSpec, SamplerSession, SchedulerConfig};

fn mini_service() -> OsnService {
    OsnService::with_defaults(&build_dataset(&DatasetSpec::epinions().scaled_down(40)))
}

fn shared_client() -> SharedClient<OsnService> {
    SharedClient::new(CachedClient::new(mini_service()))
}

fn mto_job(id: &str, start: u32, steps: usize, seed: u64) -> JobSpec {
    JobSpec {
        id: id.into(),
        algo: AlgoSpec::Mto(MtoConfig { seed, ..Default::default() }),
        start: NodeId(start),
        step_budget: steps,
        deadline: None,
        ess: None,
    }
}

/// ISSUE 2 acceptance: a session paused at step k, snapshotted to disk,
/// and resumed produces the same visited history, estimates, and
/// unique-query count as an uninterrupted run with the same seed.
#[test]
fn snapshot_to_disk_and_resume_matches_uninterrupted_run() {
    let spec = mto_job("fidelity", 0, 900, 0xFEED);

    // The uninterrupted reference run.
    let mut reference = SamplerSession::create(shared_client(), spec.clone()).unwrap();
    reference.run_to_completion().unwrap();
    let ref_estimate = reference.average_degree_estimate().unwrap().unwrap();

    // The interrupted run: pause at step 317, freeze to disk, thaw,
    // restore against a *fresh* service instance, finish.
    let mut interrupted = SamplerSession::create(shared_client(), spec).unwrap();
    interrupted.advance(317).unwrap();
    interrupted.pause();
    assert_eq!(interrupted.state(), SessionState::Paused);
    let path =
        std::env::temp_dir().join(format!("mto-session-fidelity-{}.session", std::process::id()));
    interrupted.snapshot().save(&path).unwrap();

    let thawed = SessionSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut resumed = SamplerSession::restore(shared_client(), &thawed).unwrap();
    assert_eq!(resumed.steps_taken(), 317);
    resumed.run_to_completion().unwrap();

    assert_eq!(resumed.walker().history(), reference.walker().history(), "visited history");
    assert_eq!(resumed.unique_queries(), reference.unique_queries(), "unique-query count");
    let res_estimate = resumed.average_degree_estimate().unwrap().unwrap();
    assert!(
        (res_estimate - ref_estimate).abs() < 1e-12,
        "estimates diverged: {res_estimate} vs {ref_estimate}"
    );
    assert_eq!(
        resumed.walker().rewire_stats(),
        reference.walker().rewire_stats(),
        "rewiring stats"
    );
}

/// Replaying a snapshot against the wrong network must fail loudly, not
/// silently produce a different walk.
#[test]
fn resume_against_wrong_network_is_rejected() {
    let mut session = SamplerSession::create(shared_client(), mto_job("w", 0, 400, 7)).unwrap();
    session.advance(200).unwrap();
    let snap = session.snapshot();
    // A barbell is not the Epinions stand-in.
    let wrong = SharedClient::new(CachedClient::new(OsnService::with_defaults(
        &mto_sampler::graph::generators::paper_barbell(),
    )));
    assert!(SamplerSession::restore(wrong, &snap).is_err());
}

/// The scheduler runs heterogeneous jobs over one shared budget and its
/// results do not depend on the quantum, i.e. on how the jobs interleave.
#[test]
fn scheduler_shares_budget_and_is_deterministic() {
    let jobs = || {
        vec![
            mto_job("a", 0, 500, 1),
            mto_job("b", 9, 400, 2),
            JobSpec {
                id: "srw".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 3, lazy: false }),
                start: NodeId(4),
                step_budget: 300,
                deadline: None,
                ess: None,
            },
        ]
    };
    let run = |quantum| {
        let scheduler =
            JobScheduler::new(mini_service(), SchedulerConfig { quantum, ..Default::default() });
        scheduler.run(jobs()).unwrap()
    };
    let coarse = run(37);
    let fine = run(5);
    assert_eq!(coarse.total_unique_queries, fine.total_unique_queries);
    for (a, b) in coarse.outcomes.iter().zip(&fine.outcomes) {
        assert_eq!(a.id, b.id);
        assert!(a.completed && b.completed);
        assert_eq!(a.history, b.history, "job {} depends on interleaving", a.id);
        assert_eq!(a.stats, b.stats);
    }
    // One shared cache: total cost is far below the sum of independent runs.
    let independent: u64 = jobs()
        .into_iter()
        .map(|j| {
            let mut s = SamplerSession::create(shared_client(), j).unwrap();
            s.run_to_completion().unwrap();
            s.unique_queries()
        })
        .sum();
    assert!(
        coarse.total_unique_queries < independent,
        "shared {} vs independent {}",
        coarse.total_unique_queries,
        independent
    );
}

/// ISSUE 2 acceptance: a second scheduler warm-started from a persisted
/// HistoryStore spends strictly fewer unique queries on the same jobs.
#[test]
fn warm_started_scheduler_is_strictly_cheaper() {
    let jobs = || vec![mto_job("x", 0, 600, 11), mto_job("y", 2, 600, 13)];
    let cold = JobScheduler::new(mini_service(), SchedulerConfig::default());
    let cold_report = cold.run(jobs()).unwrap();

    let path = std::env::temp_dir().join(format!("mto-sched-warm-{}.hist", std::process::id()));
    cold.client().with(|c| HistoryStore::from_client(c)).save(&path).unwrap();
    let store = HistoryStore::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let warm =
        JobScheduler::warm_start(mini_service(), &store, SchedulerConfig::default()).unwrap();
    let warm_report = warm.run(jobs()).unwrap();
    assert!(
        warm_report.total_unique_queries < cold_report.total_unique_queries,
        "warm {} must be strictly below cold {}",
        warm_report.total_unique_queries,
        cold_report.total_unique_queries
    );
    // Identical walks either way: history only changes the bill.
    for (c, w) in cold_report.outcomes.iter().zip(&warm_report.outcomes) {
        assert_eq!(c.history, w.history);
    }
}

/// A global query budget interrupts jobs cleanly: every job still reports,
/// interrupted ones are marked incomplete.
#[test]
fn global_query_budget_interrupts_cleanly() {
    let scheduler = JobScheduler::new(
        mini_service(),
        SchedulerConfig { quantum: 16, global_query_budget: Some(25), ..Default::default() },
    );
    let report = scheduler.run(vec![mto_job("a", 0, 3_000, 5), mto_job("b", 1, 3_000, 6)]).unwrap();
    assert_eq!(report.outcomes.len(), 2, "interrupted jobs still report");
    assert!(report.outcomes.iter().any(|o| !o.completed), "budget must cut someone off");
    for o in &report.outcomes {
        assert_eq!(o.history.len(), o.steps + 1, "history stays consistent when interrupted");
    }
}
