//! Property suite for the history codec's record parser.
//!
//! `proptest_serve` damages encodings without resealing them, so every
//! mutation there stops at the checksum and the record parser never
//! runs. Here a damaged body is resealed with `fnv1a64` first:
//!
//! * random stores, with ids and counters over their whole range,
//!   survive encode then decode unchanged;
//! * one record line changed — a byte replaced, deleted or duplicated —
//!   and resealed either decodes or fails with a `BadRecord` whose line
//!   lies inside the body, and never panics;
//! * a random truncation fails cleanly.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use mto_graph::NodeId;
use mto_osn::{CacheSnapshot, QueryResponse, UserProfile};
use mto_serve::error::HistoryCodecError;
use mto_serve::history::{fnv1a64, CrawlCounters, HistoryStore};

/// One generated response: id, profile fields, neighbor ids.
type RawResponse = (u32, (u32, u32, u32, bool), Vec<u32>);

/// Generated overlay edges: removed, then added.
type RawEdges = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Wide ids and narrow ones, so both long digit runs and collisions
/// between the generated ids occur.
fn id() -> impl Strategy<Value = u32> {
    (any::<u32>(), any::<bool>()).prop_map(|(v, wide)| if wide { v } else { v % 64 })
}

fn response() -> impl Strategy<Value = RawResponse> {
    (id(), (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()), vec(id(), 0..6))
}

/// A store as encoders leave it: responses and hints ascending by
/// unique id; overlay edges and crawls in any order.
fn store(
    responses: Vec<RawResponse>,
    hints: Vec<(u32, u32)>,
    edges: RawEdges,
    counters: (u64, u64, u64),
    users: Option<u32>,
) -> HistoryStore {
    let responses: BTreeMap<u32, RawResponse> = responses.into_iter().map(|r| (r.0, r)).collect();
    let hints: BTreeMap<u32, u32> = hints.into_iter().collect();
    let pairs = |edges: Vec<(u32, u32)>| edges.into_iter().map(|(u, v)| (NodeId(u), NodeId(v)));
    let (unique_queries, total_lookups, transient_retries) = counters;
    HistoryStore {
        cache: CacheSnapshot {
            responses: responses
                .into_values()
                .map(|(user, (age, desc, posts, is_public), neighbors)| QueryResponse {
                    user: NodeId(user),
                    neighbors: neighbors.into_iter().map(NodeId).collect(),
                    profile: UserProfile {
                        age,
                        self_description_len: desc,
                        num_posts: posts,
                        is_public,
                    },
                })
                .collect(),
            degree_hints: hints.into_iter().map(|(v, d)| (NodeId(v), d as usize)).collect(),
            unique_queries,
            total_lookups,
            transient_retries,
        },
        removed: pairs(edges.0).collect(),
        added: pairs(edges.1).collect(),
        num_users: users.map(|n| n as usize),
        crawls: vec![CrawlCounters { unique_queries, total_lookups, transient_retries }; 2],
    }
}

/// `body` sealed as the encoder seals it.
fn seal(body: &str) -> String {
    format!("{body}checksum {:016x}", fnv1a64(body.as_bytes()))
}

/// The body of an encoding: everything before its checksum trailer.
fn body(text: &str) -> &str {
    &text[..text.rfind("\nchecksum ").expect("an encoding has a trailer") + 1]
}

/// Bytes a replacement draws from: the record grammar's own bytes, bad
/// ones, and line breaks that split the record.
const REPLACEMENTS: &[u8] = b"0123456789 ,+-x\r\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_stores_round_trip(
        responses in vec(response(), 0..12),
        hints in vec((id(), any::<u32>()), 0..6),
        edges in (vec((id(), id()), 0..6), vec((id(), id()), 0..6)),
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        users in (any::<bool>(), any::<u32>()),
    ) {
        let store = store(responses, hints, edges, counters, users.0.then_some(users.1));
        let decoded = HistoryStore::decode(&store.encode());
        prop_assert_eq!(decoded.as_ref(), Ok(&store));
    }

    #[test]
    fn a_resealed_damaged_record_decodes_or_names_its_line(
        responses in vec(response(), 1..8),
        hints in vec((id(), any::<u32>()), 0..4),
        edges in (vec((id(), id()), 0..4), vec((id(), id()), 0..4)),
        damage in (any::<usize>(), any::<usize>(), 0u8..3, any::<usize>()),
    ) {
        let store = store(responses, hints, edges, (5, 9, 1), Some(1 << 20));
        let text = store.encode();
        let mut lines: Vec<Vec<u8>> =
            body(&text).lines().map(|l| l.as_bytes().to_vec()).collect();
        // Any record line: every line but the header.
        let (line, at, kind, pick) = damage;
        let line = 1 + line % (lines.len() - 1);
        let record = &mut lines[line];
        let at = at % record.len();
        match kind {
            0 => record[at] = REPLACEMENTS[pick % REPLACEMENTS.len()],
            1 => {
                record.remove(at);
            }
            _ => record.insert(at, record[at]),
        }
        let damaged: Vec<u8> = lines.iter().flat_map(|l| l.iter().chain(b"\n")).copied().collect();
        let damaged = String::from_utf8(damaged).expect("ASCII stays UTF-8");
        let last_line = damaged.lines().count();
        match HistoryStore::decode(&seal(&damaged)) {
            Ok(_) => {}
            Err(HistoryCodecError::BadRecord { line, message }) => prop_assert!(
                (2..=last_line).contains(&line),
                "line {} outside the body's records 2..={}: {}", line, last_line, message
            ),
            Err(other) => prop_assert!(false, "not a record error: {:?}", other),
        }
    }

    #[test]
    fn a_random_truncation_fails_cleanly(
        responses in vec(response(), 1..8),
        edges in (vec((id(), id()), 0..4), vec((id(), id()), 0..4)),
        cut in any::<usize>(),
    ) {
        let text = store(responses, Vec::new(), edges, (1, 2, 3), None).encode();
        let prefix = &text[..cut % text.len()];
        match HistoryStore::decode(prefix) {
            Err(HistoryCodecError::Truncated | HistoryCodecError::ChecksumMismatch { .. }) => {}
            Err(HistoryCodecError::BadRecord { line, .. }) => {
                prop_assert!((1..=prefix.lines().count()).contains(&line), "line {}", line)
            }
            other => prop_assert!(false, "a {}-byte prefix gave {:?}", prefix.len(), other),
        }
    }
}
