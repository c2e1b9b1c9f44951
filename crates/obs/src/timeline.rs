//! `mto-trace timeline`: fixed-width ASCII epoch lanes, one row per job.
//!
//! A cheap visual complement to [`crate::critpath`]: the same
//! [`FleetModel`] rendered as one character per `(job, epoch)` cell, so
//! a starved or budget-stalled job is visible as a run of `w`/`s` cells
//! at a glance. The rendering is a pure function of the model, hence —
//! like everything else in this crate — byte-identical across shard
//! counts for the same workload.
//!
//! Cell legend (also printed under the lanes):
//!
//! * `#` — the job took steps this epoch;
//! * `G` — took steps *and* adopted gossiped responses at this barrier;
//! * `F` — took steps and was observed finished at this barrier;
//! * `w` — runnable but granted nothing (queue-wait);
//! * `s` — suspended on an exhausted budget slice;
//! * `X` — suspended and later cut by the budget;
//! * `.` — already done.

use crate::critpath::{EpochState, FleetModel};

/// Renders the model as fixed-width lanes. Returns `None` for a model
/// with no epochs or no jobs (flat scheduler traces have no lanes to
/// draw).
pub fn render(model: &FleetModel) -> Option<String> {
    use std::fmt::Write as _;
    if model.epochs == 0 || model.jobs.is_empty() {
        return None;
    }
    let label = model.jobs.iter().map(|j| j.id.len()).max().unwrap_or(0).max("epoch".len());
    let mut out = String::new();
    writeln!(
        out,
        "# epoch timeline: {} epochs x {} jobs (1 virtual second per epoch)",
        model.epochs,
        model.jobs.len()
    )
    .expect("string write");
    // Ruler row: the epoch ordinal's last digit.
    write!(out, "{:>label$} |", "epoch").expect("string write");
    for e in 0..model.epochs {
        out.push(char::from_digit((e % 10) as u32, 10).expect("digit"));
    }
    out.push_str("|\n");
    for lane in &model.jobs {
        write!(out, "{:>label$} |", lane.id).expect("string write");
        for (e, state) in lane.states.iter().enumerate() {
            let adopted_here = model
                .gossip
                .iter()
                .any(|g| g.epoch == Some(e) && g.to == format!("job-{}", lane.id));
            let cell = match state {
                EpochState::Ran(_) if lane.finish_epoch == Some(e) => 'F',
                EpochState::Ran(_) if adopted_here => 'G',
                EpochState::Ran(_) => '#',
                EpochState::Starved => 'w',
                EpochState::Suspended if lane.cut => 'X',
                EpochState::Suspended => 's',
                EpochState::Done => '.',
            };
            out.push(cell);
        }
        out.push_str("|\n");
    }
    out.push_str(
        "# legend: # ran  G ran+adopted  F finished  w queue-wait  s budget-stall  X cut  . done\n",
    );
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::FleetModel;
    use crate::trace::TraceSink;

    #[test]
    fn lanes_are_fixed_width_and_legend_cells_appear() {
        let mut sink = TraceSink::new();
        sink.point(0, "suspend-long-id", 5);
        sink.enter(0, "epoch-0");
        sink.enter(0, "job-a");
        sink.exit(0, 10);
        sink.point(0, "finish-a", 10);
        sink.point(0, "resume-long-id", 3);
        sink.exit(0, 0);
        sink.enter(1_000_000, "epoch-1");
        sink.enter(1_000_000, "job-long-id");
        sink.exit(1_000_000, 7);
        sink.gossip(1_000_000, "job-a", "job-long-id", 4);
        sink.point(1_000_000, "finish-long-id", 7);
        sink.exit(1_000_000, 0);
        let model = FleetModel::from_records(sink.events()).unwrap();
        let text = render(&model).unwrap();
        let lanes: Vec<&str> =
            text.lines().filter(|l| l.ends_with('|') && l.contains(" |")).collect();
        assert_eq!(lanes.len(), 3, "ruler + two jobs: {text}");
        let width = lanes[0].len();
        assert!(lanes.iter().all(|l| l.len() == width), "fixed-width lanes:\n{text}");
        assert!(text.contains("|F.|\n"), "a finished then done:\n{text}");
        assert!(text.contains("|sF|\n"), "long-id stalls then finishes:\n{text}");
        assert_eq!(render(&model).unwrap(), text, "rendering is deterministic");
    }

    #[test]
    fn flat_traces_have_no_lanes() {
        let mut sink = TraceSink::new();
        sink.enter(0, "serve");
        sink.exit(0, 5);
        let model = FleetModel::from_records(sink.events()).unwrap();
        assert!(render(&model).is_none());
    }
}
