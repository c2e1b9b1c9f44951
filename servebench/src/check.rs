//! Output checks on every request, and the `job` lines the fidelity check
//! compares with the release `mto_serve run`.

use std::fmt::Write as _;

use mto_obs::fnv1a64;

use crate::gen::Workload;
use crate::serve::Served;

/// The seed whose results digests are pinned in `golden.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Golden results digests (`fnv1a64` of `FleetReport::results_digest`),
/// one `<workload> <seed> <hex>` line each.
const GOLDEN: &str = include_str!("../golden.txt");

fn golden(workload: Workload, seed: u64) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, hex) = (f.next()?, f.next()?, f.next()?);
        if w == workload.name() && s.parse() == Ok(seed) {
            u64::from_str_radix(hex, 16).ok()
        } else {
            None
        }
    })
}

/// Checks one request's output. `first` is the digest of the run's first
/// successful request; every later one must match it.
pub fn check(
    workload: Workload,
    seed: u64,
    served: &Served,
    digest: u64,
    first: Option<u64>,
) -> Result<(), String> {
    if let Some(first) = first {
        if digest != first {
            return Err(format!(
                "results digest {digest:016x} differs from the run's {first:016x}"
            ));
        }
    }
    if seed == DEFAULT_SEED {
        match golden(workload, seed) {
            Some(g) if g == digest => {}
            Some(g) => return Err(format!("results digest {digest:016x} != golden {g:016x}")),
            None => return Err(format!("no golden digest for the default seed ({digest:016x})")),
        }
    }
    if workload == Workload::WarmRestart {
        // Conservation: the pool moves only by releases and grants, and
        // the allowances left beside it (total − pool) never exceed what
        // the jobs spent. `spent + pool == total` is the special case of
        // no overshoot; a job may overshoot its slice by one quantum's
        // discoveries, which this request shape does.
        let l = served.ledger.ok_or("budgeted request reported no ledger")?;
        if l.reclaimed.checked_sub(l.granted) != Some(l.pool)
            || l.pool > l.total
            || l.total - l.pool > l.spent
        {
            return Err(format!(
                "ledger does not conserve: total={} spent={} pool={} reclaimed={} granted={}",
                l.total, l.spent, l.pool, l.reclaimed, l.granted
            ));
        }
    }
    if served.outcomes.len() != served.jobs.len() {
        return Err(format!("{} outcomes for {} jobs", served.outcomes.len(), served.jobs.len()));
    }
    Ok(())
}

pub fn digest_hash(served: &Served) -> u64 {
    fnv1a64(served.digest().as_bytes())
}

/// The `job` lines of an `mto_serve run` report, rendered from the
/// outcomes exactly as the binary renders them.
pub fn job_lines(served: &Served) -> String {
    let mut out = String::new();
    for (o, spec) in served.outcomes.iter().zip(&served.jobs) {
        write!(
            out,
            "job {} algo={} steps={} completed={} final={} visits={}",
            o.id,
            o.algorithm,
            o.steps,
            u8::from(o.completed),
            o.final_node,
            o.history.len()
        )
        .expect("string write");
        if let Some(est) = o.avg_degree_estimate {
            write!(out, " est-avg-degree={est:.4}").expect("string write");
        }
        if let Some(s) = o.stats {
            write!(out, " removals={} replacements={}", s.removals, s.replacements)
                .expect("string write");
        }
        if let Some(d) = spec.deadline {
            if let Some(t) = o.finished_secs {
                write!(out, " finished-at={t:.3}").expect("string write");
            }
            write!(out, " deadline={d:.3}").expect("string write");
            if o.finished_secs.is_some() || !o.completed {
                write!(out, " deadline-met={}", u8::from(o.deadline_met(d))).expect("string write");
            }
        }
        let figures = served.quality.as_ref().and_then(|q| q.jobs.get(&o.id));
        if let Some(q) = figures.filter(|q| q.target_ess.is_some()) {
            write!(out, " quality-met={}", u8::from(q.met)).expect("string write");
        }
        out.push('\n');
    }
    out
}
