//! Central EDF-with-aging quantum planning for lockstep fleets.
//!
//! The fleet steps its shards in lockstep epochs. Under the fair
//! round-robin policy every live job advances one quantum per epoch —
//! simple, but a job due in 30 virtual seconds waits behind best-effort
//! bulk work. [`plan_epoch`] reallocates each epoch's *fleet-wide step
//! capacity* (one quantum per live job) by earliest-deadline-first:
//! urgent jobs draw up to [`BURST_QUANTA`] quanta per epoch and finish
//! in earlier epochs — at earlier virtual times — while best-effort jobs
//! wait, protected from starvation by aging (a job passed over
//! [`AGING_EPOCHS`] epochs in a row is served ahead of every deadline
//! next epoch).
//!
//! The plan is computed **centrally from shard-invariant state** (step
//! counts, deadlines, starvation counters — never clocks or shard
//! composition) and ties break by job index, so the same job list gets
//! the same grants at every `W`: scheduling stays inside the fleet's
//! bit-identical determinism contract.

use mto_serve::scheduler::SchedulePolicy;

/// Most quanta one job may draw in a single epoch under EDF — the burst
/// that lets urgent jobs finish early without one job swallowing a whole
/// epoch.
pub const BURST_QUANTA: usize = 2;

/// Epochs a runnable job may be passed over before aging promotes it
/// ahead of every deadline.
pub const AGING_EPOCHS: u32 = 4;

/// Planner tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannerConfig {
    /// The per-job base quantum (steps per epoch under round-robin).
    pub quantum: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { quantum: 64 }
    }
}

/// One live job as the planner sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveJob {
    /// Steps left in the job's budget.
    pub remaining_steps: usize,
    /// The job's deadline in virtual seconds (`None` = best-effort).
    pub deadline: Option<f64>,
    /// Consecutive epochs this job was runnable but granted nothing.
    pub starved_epochs: u32,
    /// Whether the job is suspended (ledger exhausted) and must not be
    /// granted steps this epoch.
    pub suspended: bool,
}

impl LiveJob {
    fn runnable(&self) -> bool {
        !self.suspended && self.remaining_steps > 0
    }
}

/// Grants per job (aligned with `jobs`) for one epoch under `policy`.
///
/// * Fair policies grant every runnable job one quantum (lockstep —
///   exactly the pre-QoS fleet behavior).
/// * [`SchedulePolicy::EarliestDeadlineFirst`] pools the same total
///   capacity (`quantum ×` runnable jobs) and deals it out in priority
///   order: aged jobs first (by index), then deadline jobs by
///   `(deadline, index)`, then best-effort jobs by index — each drawing
///   up to `BURST_QUANTA × quantum` steps, bounded by its remaining
///   budget and the capacity left.
pub fn plan_epoch(policy: SchedulePolicy, config: &PlannerConfig, jobs: &[LiveJob]) -> Vec<usize> {
    let quantum = config.quantum.max(1);
    if policy != SchedulePolicy::EarliestDeadlineFirst {
        return jobs
            .iter()
            .map(|j| if j.runnable() { quantum.min(j.remaining_steps) } else { 0 })
            .collect();
    }
    let runnable: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].runnable()).collect();
    let mut capacity = quantum.saturating_mul(runnable.len());
    let burst = quantum.saturating_mul(BURST_QUANTA);

    // Priority order: (not aged, deadline with None last, index) — a
    // total order (f64::total_cmp, so even a NaN deadline cannot panic
    // a pub API; it sorts after every finite one), deterministic for
    // any job list.
    let mut order = runnable;
    order.sort_by(|&a, &b| {
        let aged = |i: usize| jobs[i].starved_epochs < AGING_EPOCHS;
        let d = |i: usize| jobs[i].deadline.unwrap_or(f64::INFINITY);
        aged(a).cmp(&aged(b)).then(d(a).total_cmp(&d(b))).then(a.cmp(&b))
    });

    let mut grants = vec![0usize; jobs.len()];
    for i in order {
        if capacity == 0 {
            break;
        }
        let grant = jobs[i].remaining_steps.min(burst).min(capacity);
        grants[i] = grant;
        capacity -= grant;
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(remaining: usize, deadline: Option<f64>) -> LiveJob {
        LiveJob { remaining_steps: remaining, deadline, starved_epochs: 0, suspended: false }
    }

    #[test]
    fn fair_policies_grant_one_quantum_each() {
        let config = PlannerConfig { quantum: 50 };
        let jobs = vec![live(200, None), live(30, Some(4.0)), live(0, None)];
        for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::BudgetProportional] {
            assert_eq!(
                plan_epoch(policy, &config, &jobs),
                vec![50, 30, 0],
                "lockstep grants, clamped to remaining budgets"
            );
        }
    }

    #[test]
    fn edf_front_loads_deadline_jobs_within_the_same_capacity() {
        let config = PlannerConfig { quantum: 50 };
        let jobs =
            vec![live(500, None), live(500, Some(9.0)), live(500, Some(3.0)), live(500, None)];
        let grants = plan_epoch(SchedulePolicy::EarliestDeadlineFirst, &config, &jobs);
        // Capacity 4 × 50 = 200; the two deadline jobs burst to 100
        // each, the best-effort jobs wait.
        assert_eq!(grants, vec![0, 100, 100, 0]);
        assert_eq!(grants.iter().sum::<usize>(), 200, "EDF spends the same capacity");
    }

    #[test]
    fn aging_promotes_starved_best_effort_work() {
        let config = PlannerConfig { quantum: 10 };
        let mut jobs = vec![live(500, Some(1.0)), live(500, None)];
        jobs[1].starved_epochs = AGING_EPOCHS;
        let grants = plan_epoch(SchedulePolicy::EarliestDeadlineFirst, &config, &jobs);
        assert_eq!(grants[1], 20, "the aged job is served first");
        assert_eq!(grants[0], 0, "the deadline job waits one epoch");
    }

    #[test]
    fn suspended_jobs_draw_nothing_and_free_no_capacity() {
        let config = PlannerConfig { quantum: 10 };
        let mut jobs = vec![live(500, Some(1.0)), live(500, Some(2.0))];
        jobs[0].suspended = true;
        let grants = plan_epoch(SchedulePolicy::EarliestDeadlineFirst, &config, &jobs);
        assert_eq!(grants[0], 0);
        assert_eq!(grants[1], 10, "capacity is one quantum per *runnable* job");
    }

    #[test]
    fn ties_break_by_job_index_and_grants_clamp_to_remaining() {
        let config = PlannerConfig { quantum: 10 };
        let jobs = vec![live(5, Some(2.0)), live(500, Some(2.0))];
        let grants = plan_epoch(SchedulePolicy::EarliestDeadlineFirst, &config, &jobs);
        assert_eq!(grants[0], 5, "earlier index first, clamped to its budget");
        assert_eq!(grants[1], 15, "the rest of the capacity");
    }
}
