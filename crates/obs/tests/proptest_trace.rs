//! Property suite for the `mto-trace/v2` codec (ISSUE 8, satellite 3):
//!
//! * **round-trip**: any sink-produced record stream — span nests with
//!   ids and parent links, points, gossip edges, even underflowing
//!   exits — encodes and decodes back to the identical records;
//! * **truncation**: every strict prefix of a document that cuts into
//!   the trailer or body is rejected, never mis-decoded;
//! * **corruption**: flipping any single byte of the body is detected
//!   (checksum mismatch, or a record/header error when the flip lands
//!   in structure);
//! * **analyses**: on fleet-shaped traces (epoch and job spans, budget
//!   and quality points, gossip edges) every analysis `mto-trace` runs
//!   returns, and the critical path covers its epochs once each.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use mto_obs::critpath::{critical_path, flat_fallback, FleetModel};
use mto_obs::mix::{cross_check, MixModel};
use mto_obs::prom::PromSample;
use mto_obs::{decode_trace, encode_trace, TraceCodecError, TraceSink};

const NAMES: [&str; 4] = ["epoch-0", "job-a", "ledger-pool", "walk step"];
const JOBS: [&str; 3] = ["job-a", "job-b", "job-c"];

/// One sink operation: `(kind % 4, name selector, value)`.
fn op_strategy() -> impl Strategy<Value = (u8, u8, u64)> {
    (0u8..4, 0u8..12, 0u64..1u64 << 48)
}

fn build(ops: &[(u8, u8, u64)]) -> TraceSink {
    let mut sink = TraceSink::new();
    for &(kind, name, value) in ops {
        let t_us = value % 1_000_000_007;
        match kind {
            0 => {
                sink.enter(t_us, NAMES[name as usize % NAMES.len()]);
            }
            1 => sink.exit(t_us, value),
            2 => sink.point(t_us, NAMES[name as usize % NAMES.len()], value),
            _ => sink.gossip(
                t_us,
                JOBS[name as usize % JOBS.len()],
                JOBS[(name as usize + 1) % JOBS.len()],
                value,
            ),
        }
    }
    sink
}

const FLEET_JOBS: [&str; 3] = ["a", "b", "c"];

/// One fleet event: `(kind, job selector, value)`.
fn fleet_op() -> impl Strategy<Value = (u8, u8, u64)> {
    (0u8..7, 0u8..3, 0u64..1000)
}

fn fleet_event(sink: &mut TraceSink, t_us: u64, (kind, job, value): (u8, u8, u64)) {
    let id = FLEET_JOBS[job as usize % FLEET_JOBS.len()];
    let other = FLEET_JOBS[(job as usize + 1) % FLEET_JOBS.len()];
    match kind {
        0 => {
            sink.enter(t_us, &format!("job-{id}"));
            sink.exit(t_us, value);
        }
        1 => sink.point(t_us, &format!("suspend-{id}"), value),
        2 => sink.point(t_us, &format!("resume-{id}"), value),
        3 => sink.point(t_us, &format!("finish-{id}"), value),
        4 => sink.point(t_us, &format!("cut-{id}"), value),
        5 => match value % 4 {
            0 => sink.point(t_us, &format!("quality-ess-{id}"), value),
            1 => sink.point(t_us, &format!("quality-z-{id}"), value),
            2 => sink.point(t_us, &format!("quality-met-{id}"), value),
            _ => sink.point(t_us, "quality-rhat", value),
        },
        _ => sink.gossip(t_us, &format!("job-{other}"), &format!("job-{id}"), value),
    }
}

/// Barrier events before the first epoch, then one `epoch-N` span per
/// event list, stamped at `N` virtual seconds like the fleet's.
fn fleet_trace(before: &[(u8, u8, u64)], epochs: &[Vec<(u8, u8, u64)>]) -> TraceSink {
    let mut sink = TraceSink::new();
    for &op in before {
        fleet_event(&mut sink, 0, op);
    }
    for (epoch, ops) in epochs.iter().enumerate() {
        let t_us = epoch as u64 * 1_000_000;
        sink.enter(t_us, &format!("epoch-{epoch}"));
        for &op in ops {
            fleet_event(&mut sink, t_us, op);
        }
        sink.exit(t_us, 0);
    }
    sink
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_is_the_identity_on_sink_streams(ops in vec(op_strategy(), 0..60)) {
        let sink = build(&ops);
        let text = encode_trace(&sink);
        prop_assert!(text.starts_with("mto-trace v2\n"));
        let decoded = decode_trace(&text).expect("sink output must decode");
        prop_assert_eq!(decoded.as_slice(), sink.events());
        // Encoding is deterministic: same records, same bytes.
        prop_assert_eq!(encode_trace(&sink), text);
    }

    #[test]
    fn every_truncation_is_rejected(ops in vec(op_strategy(), 1..40), cut in 0usize..200) {
        let sink = build(&ops);
        let text = encode_trace(&sink);
        // Cut somewhere strictly inside the document.
        let cut = cut % text.len().max(1);
        if cut == 0 {
            return Ok(());
        }
        prop_assert!(text.is_ascii(), "the codec emits ASCII for these names");
        let torn = &text[..cut];
        prop_assert!(
            decode_trace(torn).is_err(),
            "prefix of {} bytes decoded: {torn:?}",
            torn.len()
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected(ops in vec(op_strategy(), 1..30), pos in 0usize..4096) {
        let sink = build(&ops);
        let text = encode_trace(&sink);
        let mut bytes = text.clone().into_bytes();
        let pos = pos % bytes.len();
        // Flip within printable ASCII so the result stays a str.
        bytes[pos] = if bytes[pos] == b'x' { b'y' } else { b'x' };
        let corrupted = String::from_utf8(bytes).expect("printable flip");
        if corrupted == text {
            return Ok(());
        }
        let result = decode_trace(&corrupted);
        prop_assert!(result.is_err(), "corrupt byte {pos} decoded anyway");
        // A flip in the body is a checksum mismatch; a flip inside the
        // trailer is a mismatch or a bad literal — never silence.
        if let Err(TraceCodecError::ChecksumMismatch { computed, stored }) = result {
            prop_assert!(computed != stored);
        }
    }

    #[test]
    fn underflowing_streams_still_round_trip(
        exits in 1usize..5,
        ops in vec(op_strategy(), 0..20),
    ) {
        // Lead with bare exits: they must be counted, not recorded, and
        // the recorded remainder must still round-trip.
        let mut sink = TraceSink::new();
        for _ in 0..exits {
            sink.exit(0, 7);
        }
        prop_assert_eq!(sink.underflows(), exits as u64);
        for &(kind, name, value) in &ops {
            match kind {
                0 => { sink.enter(0, NAMES[name as usize % NAMES.len()]); }
                1 => sink.exit(0, value),
                2 => sink.point(0, NAMES[name as usize % NAMES.len()], value),
                _ => sink.gossip(0, "job-a", "job-b", value),
            }
        }
        let decoded = decode_trace(&encode_trace(&sink)).expect("underflow never poisons");
        prop_assert_eq!(decoded.as_slice(), sink.events());
    }
}

proptest! {
    // Jobs that are suspended and finish at one barrier, the case that
    // once cycled the critical-path walk, are rare among random traces.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_analysis_returns_on_fleet_traces(
        before in vec(fleet_op(), 0..8),
        epochs in vec(vec(fleet_op(), 0..12), 0..6),
    ) {
        let records = decode_trace(&encode_trace(&fleet_trace(&before, &epochs)))
            .expect("sink output must decode");
        mto_obs::flame::fold(&records);

        let model = FleetModel::from_records(&records).expect("epochs are sequential");
        prop_assert_eq!(model.epochs, epochs.len());
        match critical_path(&model) {
            Some(path) => {
                prop_assert!(path.epochs <= model.epochs);
                let mut next = 0;
                for segment in &path.segments {
                    prop_assert_eq!(segment.start, next, "segments tile the path in order");
                    prop_assert!(segment.end >= segment.start);
                    next = segment.end + 1;
                }
                prop_assert_eq!(next, path.epochs);
                mto_obs::critpath::render(&path);
            }
            None => {
                prop_assert!(model.epochs == 0 || model.jobs.is_empty());
                flat_fallback(&records);
            }
        }
        let lanes = mto_obs::timeline::render(&model);
        prop_assert_eq!(lanes.is_some(), model.epochs > 0 && !model.jobs.is_empty());

        prop_assert!(mto_obs::diff::first_divergence(&records, &records).is_none());
        if let Some((_, head)) = records.split_last() {
            let d = mto_obs::diff::first_divergence(&records, head).expect("a dropped event");
            prop_assert_eq!(d.index, head.len());
            mto_obs::diff::render(&d);
        }

        let samples: Vec<PromSample> = (0..=model.epochs)
            .map(|epoch| PromSample {
                name: "mto_wall_nanos_total".to_string(),
                labels: BTreeMap::from([
                    ("phase".to_string(), "shard-service".to_string()),
                    ("epoch".to_string(), epoch.to_string()),
                ]),
                value: 10 + epoch as u64,
            })
            .collect();
        let gap = mto_obs::gap::render(&model, &samples);
        let total: u64 = samples.iter().map(|s| s.value).sum();
        prop_assert!(gap.contains(&format!("\nepochs {}\n", model.epochs)), "{}", gap);
        prop_assert!(gap.ends_with(&format!("total wall-ns {total}\n")), "{}", gap);

        if let Ok(mix) = MixModel::from_records(&records) {
            mix.render();
            let report: String = mix
                .jobs
                .iter()
                .filter_map(|(id, t)| t.final_ess_mil().map(|ess| (id, ess)))
                .map(|(id, ess)| format!("metric quality-{id}-ess-mil {ess}\n"))
                .collect();
            let every_job_traced = mix.jobs.values().all(|t| t.final_ess_mil().is_some());
            let checked = cross_check(&mix, &report);
            prop_assert_eq!(checked.is_ok(), every_job_traced && !report.is_empty());
        }
    }
}
