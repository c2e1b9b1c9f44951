//! Property suite for the request-file parser.
//!
//! Request texts are generated from `network` lines of every kind, with
//! field values drawn inside, at and past their valid ranges (0, -1,
//! `usize::MAX`, NaN, odd `k`, `k ≥ n`), `job` lines with random
//! algorithms, starts, budgets and probabilities, and junk lines. The
//! contract under test:
//!
//! * [`ServeRequest::parse`] never panics, and every error it returns is
//!   a request error naming a line the text has (0 = the whole file);
//! * a request it accepts is runnable: for every accepted request of at
//!   most 400 nodes, [`NetworkSpec::build`] and
//!   [`SamplerSession::create`] for each job over an `OsnService` return
//!   without panicking, and every session starts.
//!
//! [`NetworkSpec::build`]: mto_serve::request::NetworkSpec::build

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use mto_osn::{CachedClient, OsnService, SharedClient};
use mto_serve::error::ServeError;
use mto_serve::request::ServeRequest;
use mto_serve::session::SamplerSession;

/// Largest accepted network the runnable property builds.
const MAX_BUILT_NODES: usize = 400;

/// Lines that are not a `network` or a well-formed `job` directive.
const JUNK: &[&str] = &[
    "",
    "# a comment",
    "frobnicate 3",
    "metrics",
    "quality",
    "workers 2",
    "workers x",
    "quantum 0",
    "shards 0",
    "shards 2",
    "epochs 3",
    "budget -1",
    "budget 50",
    "policy edf",
    "policy lottery",
    "provider facebook",
    "provider myspace",
    "network",
    "job",
    "job id=z",
    "=",
];

/// A count field: mostly drawn from `0..max`, sometimes negative,
/// `usize::MAX` (past every `u32` field) or not a number.
fn count(max: usize) -> BoxedStrategy<String> {
    (0usize..30, 0..max)
        .prop_map(|(pick, n)| match pick {
            0 => "-1".to_string(),
            1 => usize::MAX.to_string(),
            2 => "x".to_string(),
            _ => n.to_string(),
        })
        .boxed()
}

/// A probability field: mostly its bounds or a draw from [0, 1),
/// sometimes NaN, infinite, -1 or a draw from [-0.5, 1.5).
fn probability() -> BoxedStrategy<String> {
    (0usize..30, 0.0f64..1.0, -0.5f64..1.5)
        .prop_map(|(pick, inside, wide)| match pick {
            0 => "NaN".to_string(),
            1 => "inf".to_string(),
            2 => "-1".to_string(),
            3 | 4 => wide.to_string(),
            5 | 6 => "0".to_string(),
            7 | 8 => "1".to_string(),
            _ => inside.to_string(),
        })
        .boxed()
}

fn network_line() -> BoxedStrategy<String> {
    (0usize..7, (count(48), count(6), count(12)), (probability(), probability()), any::<u64>())
        .prop_map(|(kind, (n, blocks, k), (p, q), seed)| match kind {
            0 => "network barbell".to_string(),
            1 => format!("network complete n={n}"),
            2 => format!("network cycle n={n}"),
            3 => format!("network gnp n={n} p={p} seed={seed}"),
            4 => {
                format!("network sbm blocks={blocks} block-size={k} p-in={p} p-out={q} seed={seed}")
            }
            5 => format!("network ws n={n} k={k} beta={p} seed={seed}"),
            _ => format!("network lattice n={n}"),
        })
        .boxed()
}

fn job_line() -> BoxedStrategy<String> {
    (0usize..40, 0usize..13, (count(8), count(500)), any::<u64>(), (0usize..8, probability()))
        .prop_map(|(id, algo, (start, steps), seed, (extra, p))| {
            let algo = match algo {
                0..=3 => "mto",
                4..=6 => "srw",
                7 | 8 => "mhrw",
                9..=11 => "rj",
                _ => "bogus",
            };
            // The algorithm's own probability field, a deadline, or a
            // field only `rj` takes.
            let extra = match (extra, algo) {
                (0..=2, "mto") => format!(" replace_prob={p}"),
                (0..=2, "rj") => format!(" jump={p}"),
                (3, _) => format!(" deadline={p}"),
                (4, _) => format!(" jump={p}"),
                _ => String::new(),
            };
            format!("job id=j{id} algo={algo} start={start} steps={steps} seed={seed}{extra}")
        })
        .boxed()
}

/// A request text: usually a `network` line, then one to three jobs,
/// with at most one junk line inserted anywhere.
fn request_text() -> BoxedStrategy<String> {
    (0u8..8, network_line(), vec(job_line(), 1..4), vec((0..JUNK.len(), 0usize..8), 0..2))
        .prop_map(|(drop_network, network, jobs, junk)| {
            let mut lines = Vec::new();
            if drop_network != 0 {
                lines.push(network);
            }
            lines.extend(jobs);
            for (which, at) in junk {
                lines.insert(at.min(lines.len()), JUNK[which].to_string());
            }
            lines.join("\n")
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_and_errors_name_a_line_of_the_text(text in request_text()) {
        let parsed = catch_unwind(|| ServeRequest::parse(&text));
        prop_assert!(parsed.is_ok(), "parse panicked on {:?}", text);
        match parsed.unwrap() {
            Ok(_) => {}
            Err(ServeError::Request { line, message }) => {
                let lines = text.lines().count();
                prop_assert!(line <= lines, "line {} of {}: {} in {:?}", line, lines, message, text);
            }
            Err(other) => prop_assert!(false, "not a request error: {} in {:?}", other, text),
        }
    }

    #[test]
    fn accepted_requests_build_and_start_every_job(text in request_text()) {
        let Ok(request) = ServeRequest::parse(&text) else { return Ok(()) };
        if request.network.num_nodes() > MAX_BUILT_NODES {
            return Ok(());
        }
        let started = catch_unwind(AssertUnwindSafe(|| {
            let service = OsnService::with_defaults(&request.network.build());
            let client = SharedClient::new(CachedClient::new(service));
            request
                .jobs
                .iter()
                .map(|job| SamplerSession::create(client.clone(), job.clone()).map(|_| ()))
                .collect::<Result<Vec<()>, ServeError>>()
        }));
        prop_assert!(started.is_ok(), "building or starting panicked on {:?}", text);
        let started = started.unwrap();
        prop_assert!(started.is_ok(), "{} on {:?}", started.unwrap_err(), text);
    }
}
