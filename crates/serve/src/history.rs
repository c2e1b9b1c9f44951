//! The persistent crawl-history store and its hand-rolled codec.
//!
//! The paper's cost model makes every *unique* query precious, and its
//! Section III-D "local database" of remembered degrees is the seed of
//! this module: a [`HistoryStore`] persists everything a sampling run
//! learned — the full query cache, the degree hints, and the overlay
//! delta — so a *later* run against the same network can warm-start from
//! it and pay only for nodes nobody has visited before (the dominant cost
//! lever identified by "Leveraging History for Faster Sampling of Online
//! Social Networks", arXiv:1505.00079).
//!
//! ## On-disk format
//!
//! The build environment is offline (no serde), so the codec is a
//! hand-rolled, versioned, line-oriented text format — debuggable with
//! `cat`, strict to parse, and integrity-checked end to end:
//!
//! ```text
//! mto-history v1
//! users 22
//! unique 5
//! lookups 12
//! retries 0
//! node 3 34 120 7 1 1,2,5
//! degree 9 14
//! removed 1 2
//! added 0 12
//! checksum 91b0f3e86e6f35e6
//! ```
//!
//! * `users <n>` — the provider-published user count (when available;
//!   verified before any import);
//! * `node <id> <age> <desc-len> <posts> <public> <neighbors>` — one cached
//!   [`QueryResponse`] (`-` encodes an empty neighbor list);
//! * `degree <id> <k>` — a remembered degree without a neighborhood;
//! * `removed` / `added <u> <v>` — one overlay-delta edge;
//! * `crawl <unique> <lookups> <retries>` — one entry of the per-crawl
//!   accounting ledger (see [`CrawlCounters`]): how much of the store's
//!   total bill one distinct absorbing run contributed;
//! * the trailing `checksum` line is an FNV-1a 64 hash of every preceding
//!   byte. Truncated input loses the trailer and decodes to
//!   [`HistoryCodecError::Truncated`]; a flipped byte decodes to
//!   [`HistoryCodecError::ChecksumMismatch`]. The decoder never panics.

use std::path::Path;

use mto_core::rewire::OverlayDelta;
use mto_graph::NodeId;
use mto_osn::{CacheSnapshot, CachedClient, QueryResponse, SocialNetworkInterface, UserProfile};

use crate::error::{HistoryCodecError, Result};

/// Magic of standalone history files.
pub const HISTORY_MAGIC: &str = "mto-history";
/// Magic of session-snapshot files (see [`crate::session::SessionSnapshot`]).
pub const SESSION_MAGIC: &str = "mto-session";
/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Everything a sampling run learned about one network, in persistable
/// form: the query cache, the remembered degrees, and the overlay delta.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistoryStore {
    /// The client cache: responses, degree hints, and cost counters.
    pub cache: CacheSnapshot,
    /// Overlay edges removed by rewiring, as `(u, v)` pairs.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Overlay edges added by rewiring, as `(u, v)` pairs.
    pub added: Vec<(NodeId, NodeId)>,
    /// The provider-published user count of the network the history was
    /// crawled from, when available. Checked on import so a history is
    /// never silently applied to the wrong network.
    pub num_users: Option<usize>,
    /// The per-crawl accounting ledger: one [`CrawlCounters`] entry per
    /// distinct absorbing run (maintained by
    /// [`crate::journal::HistoryJournal`]; empty for stores captured
    /// straight from a client). When non-empty, the entries sum to the
    /// cache counters minus any legacy pre-ledger base — the breakdown
    /// that lets counters *sum* per crawl instead of collapsing max-wise.
    pub crawls: Vec<CrawlCounters>,
}

/// The cost counters one distinct crawl contributed to a shared journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrawlCounters {
    /// Unique queries the crawl paid.
    pub unique_queries: u64,
    /// Total lookups (cache hits included) the crawl performed.
    pub total_lookups: u64,
    /// Transient failures the crawl retried.
    pub transient_retries: u64,
}

impl CrawlCounters {
    /// Captures a cache snapshot's counters.
    pub fn of(cache: &CacheSnapshot) -> Self {
        CrawlCounters {
            unique_queries: cache.unique_queries,
            total_lookups: cache.total_lookups,
            transient_retries: cache.transient_retries,
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == CrawlCounters::default()
    }

    /// Field-wise saturating difference (`self − other`).
    pub fn saturating_sub(&self, other: &CrawlCounters) -> CrawlCounters {
        CrawlCounters {
            unique_queries: self.unique_queries.saturating_sub(other.unique_queries),
            total_lookups: self.total_lookups.saturating_sub(other.total_lookups),
            transient_retries: self.transient_retries.saturating_sub(other.transient_retries),
        }
    }

    /// Field-wise maximum.
    pub fn max(&self, other: &CrawlCounters) -> CrawlCounters {
        CrawlCounters {
            unique_queries: self.unique_queries.max(other.unique_queries),
            total_lookups: self.total_lookups.max(other.total_lookups),
            transient_retries: self.transient_retries.max(other.transient_retries),
        }
    }
}

impl HistoryStore {
    /// Captures a client's cache, with no overlay.
    pub fn from_client<I: SocialNetworkInterface>(client: &CachedClient<I>) -> Self {
        HistoryStore {
            cache: client.export_snapshot(),
            removed: Vec::new(),
            added: Vec::new(),
            num_users: client.num_users_hint(),
            crawls: Vec::new(),
        }
    }

    /// Captures a client's cache plus a walker's overlay delta.
    pub fn from_parts<I: SocialNetworkInterface>(
        client: &CachedClient<I>,
        overlay: Option<&OverlayDelta>,
    ) -> Self {
        let mut store = Self::from_client(client);
        if let Some(delta) = overlay {
            store.removed = delta.removed_edges().map(|e| (e.small(), e.large())).collect();
            store.added = delta.added_edges().map(|e| (e.small(), e.large())).collect();
        }
        store
    }

    /// Rebuilds the overlay delta recorded in this store.
    pub fn overlay_delta(&self) -> OverlayDelta {
        let mut delta = OverlayDelta::new();
        for &(u, v) in &self.removed {
            delta.remove_edge(u, v);
        }
        for &(u, v) in &self.added {
            delta.add_edge(u, v);
        }
        delta
    }

    /// Checks that this history is plausibly a crawl of the network behind
    /// `inner_hint` (its published user count, when available): recorded
    /// and published counts must agree, and every recorded node id must be
    /// in range. Imported responses *shadow* the backing interface, so a
    /// mismatched history would silently poison every later walk — and an
    /// out-of-range id in a hand-edited file would make the dense slot map
    /// attempt an enormous allocation. `Err` carries a description.
    pub fn validate_against(&self, inner_hint: Option<usize>) -> std::result::Result<(), String> {
        if let (Some(recorded), Some(published)) = (self.num_users, inner_hint) {
            if recorded != published {
                return Err(format!(
                    "history was crawled from a {recorded}-user network, \
                     this provider publishes {published}"
                ));
            }
        }
        if let Some(n) = inner_hint.or(self.num_users) {
            for r in &self.cache.responses {
                if r.user.index() >= n {
                    return Err(format!(
                        "cached response for node {} outside the {n}-user id space",
                        r.user
                    ));
                }
            }
            if let Some(&(v, _)) = self.cache.degree_hints.iter().find(|&&(v, _)| v.index() >= n) {
                return Err(format!("degree hint for node {v} outside the {n}-user id space"));
            }
        }
        Ok(())
    }

    /// Builds a **warm-started** client over `inner`: all cached knowledge
    /// imported, cost counters at zero — the cross-run reuse path, where
    /// the new job only pays for nodes the history has never seen. Fails
    /// with [`ServeError::SnapshotMismatch`](crate::error::ServeError::SnapshotMismatch)
    /// when the history does not belong to this network (see
    /// [`HistoryStore::validate_against`]).
    pub fn warm_start<I: SocialNetworkInterface>(&self, inner: I) -> Result<CachedClient<I>> {
        self.validate_against(inner.num_users_hint())
            .map_err(crate::error::ServeError::SnapshotMismatch)?;
        let mut client = CachedClient::new(inner);
        client.import_entries(&self.cache);
        Ok(client)
    }

    /// Builds a **restored** client over `inner`: cached knowledge *and*
    /// cost counters imported — the session-resume path, accounting as if
    /// the original run had never stopped.
    pub fn restore_client<I: SocialNetworkInterface>(&self, inner: I) -> Result<CachedClient<I>> {
        let mut client = self.warm_start(inner)?;
        client.restore_counters(&self.cache);
        Ok(client)
    }

    /// Number of cached responses.
    pub fn num_responses(&self) -> usize {
        self.cache.responses.len()
    }

    /// Merges `other` into `self`: the **union of two persisted crawls**
    /// of the same network (the compaction path — many incremental crawl
    /// stores folded into one master store). Policy:
    ///
    /// * cache entries and degree hints: union, **keep-first** on
    ///   conflict (an entry present in both with *different* content
    ///   keeps `self`'s version and bumps the conflict count; identical
    ///   duplicates are not conflicts);
    /// * a degree hint shadowed by a full response (either side) is
    ///   dropped — the response supersedes it, hint mismatches against a
    ///   response's true degree count as conflicts;
    /// * overlay deltas: see [`HistoryStore::merge_overlay`];
    /// * cost counters: summed — the merged store documents the combined
    ///   bill both crawls paid;
    /// * `num_users`: must agree when both sides recorded it (`Err`
    ///   otherwise — unions across different networks would poison every
    ///   later warm start).
    ///
    /// Lookups binary-search the responses, which leave every merge
    /// ascending: a merge costs one pass over this store's responses plus
    /// what `other` brings, and builds no map over this store.
    ///
    /// Returns how much was merged and how many conflicts were resolved
    /// keep-first.
    pub fn merge(&mut self, other: &HistoryStore) -> std::result::Result<MergeOutcome, String> {
        if let (Some(a), Some(b)) = (self.num_users, other.num_users) {
            if a != b {
                return Err(format!(
                    "cannot merge: this store was crawled from a {a}-user network, \
                     the other from a {b}-user network"
                ));
            }
        }
        self.num_users = self.num_users.or(other.num_users);
        let mut outcome = MergeOutcome::default();

        // Responses: keep-first union by node id.
        self.cache.responses.sort_unstable_by_key(|r| r.user);
        let mut adopted: Vec<QueryResponse> = Vec::new();
        for r in &other.cache.responses {
            match self.response(r.user) {
                Some(mine) => {
                    if mine != r {
                        outcome.conflicts += 1;
                    }
                }
                None => adopted.push(r.clone()),
            }
        }
        outcome.merged_responses = adopted.len();
        if !adopted.is_empty() {
            self.cache.responses.extend(adopted);
            self.cache.responses.sort_unstable_by_key(|r| r.user);
        }

        // Degree hints: keep-first union; responses supersede hints. A
        // response adopted from `other` may shadow one of our hints.
        outcome.conflicts += self.drop_shadowed_hints();
        let mine: std::collections::HashMap<NodeId, usize> =
            self.cache.degree_hints.iter().copied().collect();
        for &(v, d) in &other.cache.degree_hints {
            match (self.response(v), mine.get(&v)) {
                (Some(r), _) => {
                    if d != r.neighbors.len() {
                        outcome.conflicts += 1;
                    }
                }
                (None, Some(&have)) => {
                    if have != d {
                        outcome.conflicts += 1;
                    }
                }
                (None, None) => {
                    outcome.merged_hints += 1;
                    self.cache.degree_hints.push((v, d));
                }
            }
        }
        self.cache.degree_hints.sort_unstable_by_key(|&(v, _)| v);

        let overlay = self.merge_overlay(&other.removed, &other.added);
        outcome.conflicts += overlay.conflicts;
        outcome.merged_overlay_edges = overlay.merged_overlay_edges;

        // Counters: the combined bill of both crawls. The per-crawl
        // ledgers concatenate — each entry still describes one run.
        self.cache.unique_queries += other.cache.unique_queries;
        self.cache.total_lookups += other.cache.total_lookups;
        self.cache.transient_retries += other.cache.transient_retries;
        self.crawls.extend(other.crawls.iter().copied());
        Ok(outcome)
    }

    /// The overlay part of [`HistoryStore::merge`]: unions `removed` and
    /// `added` into this store's overlay delta. An edge `removed` on one
    /// side and `added` on the other keeps this store's disposition and
    /// counts as a conflict. Touches nothing else, so it costs in
    /// proportion to the overlays, not to the cache. Returns the
    /// conflicts and the edges adopted.
    pub fn merge_overlay(
        &mut self,
        removed: &[(NodeId, NodeId)],
        added: &[(NodeId, NodeId)],
    ) -> MergeOutcome {
        let mut outcome = MergeOutcome::default();
        let my_removed: std::collections::HashSet<(NodeId, NodeId)> =
            self.removed.iter().copied().collect();
        let my_added: std::collections::HashSet<(NodeId, NodeId)> =
            self.added.iter().copied().collect();
        for &e in removed {
            if my_added.contains(&e) {
                outcome.conflicts += 1;
            } else if !my_removed.contains(&e) {
                outcome.merged_overlay_edges += 1;
                self.removed.push(e);
            }
        }
        for &e in added {
            if my_removed.contains(&e) {
                outcome.conflicts += 1;
            } else if !my_added.contains(&e) {
                outcome.merged_overlay_edges += 1;
                self.added.push(e);
            }
        }
        self.removed.sort_unstable();
        self.added.sort_unstable();
        outcome
    }

    /// Drops every degree hint that a response shadows, as
    /// [`HistoryStore::merge`] does: the response supersedes it. Returns
    /// how many dropped hints disagreed with their response's degree —
    /// conflicts. Responses must be ascending by node id, as every
    /// constructor, [`HistoryStore::decode`] and `merge` leave them.
    pub fn drop_shadowed_hints(&mut self) -> u64 {
        let responses = &self.cache.responses;
        let mut conflicts = 0;
        self.cache.degree_hints.retain(|&(v, d)| {
            let Ok(i) = responses.binary_search_by_key(&v, |r| r.user) else { return true };
            conflicts += u64::from(d != responses[i].neighbors.len());
            false
        });
        conflicts
    }

    /// The response for `v`, if this store holds one (responses
    /// ascending).
    fn response(&self, v: NodeId) -> Option<&QueryResponse> {
        let responses = &self.cache.responses;
        responses.binary_search_by_key(&v, |r| r.user).ok().map(|i| &responses[i])
    }

    /// Serializes to the versioned text format, checksum trailer included.
    ///
    /// The buffer is pre-sized from a computed capacity and every record
    /// is written straight into it — no per-record intermediate strings
    /// (a 10k-response store encodes through this loop in the perf
    /// ledger's `hotpath/codec-10k` bench).
    pub fn encode(&self) -> String {
        let mut body = String::with_capacity(self.estimated_encoded_len());
        body.push_str(HISTORY_MAGIC);
        body.push_str(" v");
        push_u64(&mut body, u64::from(FORMAT_VERSION));
        body.push('\n');
        write_history_body(self, &mut body);
        seal(body)
    }

    /// Upper-ish estimate of [`HistoryStore::encode`]'s output size: node
    /// ids on the networks we crawl are short, so budgeting 8 bytes per
    /// numeric field lands within a few percent of the real length
    /// without a counting pre-pass.
    fn estimated_encoded_len(&self) -> usize {
        let c = &self.cache;
        let mut len = 128; // header, counters, checksum trailer
        for r in &c.responses {
            len += 40 + 8 * r.neighbors.len();
        }
        len += 24 * (c.degree_hints.len() + self.removed.len() + self.added.len());
        len += 32 * self.crawls.len();
        len
    }

    /// Parses the text format produced by [`HistoryStore::encode`].
    /// Responses and degree hints come back ascending by node id, as
    /// binary searches over them expect, whatever order the file holds
    /// them in.
    pub fn decode(text: &str) -> std::result::Result<Self, HistoryCodecError> {
        let body = verify_checksum(text)?;
        let mut lines = body.lines().enumerate();
        expect_header(lines.next(), HISTORY_MAGIC)?;
        let mut acc = HistoryAccumulator::default();
        for (idx, line) in lines {
            let lineno = idx + 1;
            let (keyword, rest) = split_keyword(line, lineno)?;
            if !acc.consume(keyword, rest, lineno)? {
                return Err(HistoryCodecError::BadRecord {
                    line: lineno,
                    message: format!("unknown record keyword {keyword:?}"),
                });
            }
        }
        Ok(acc.finish())
    }

    /// Writes the encoded store to `path`.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads and decodes a store from `path`.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::decode(&text)?)
    }
}

/// What a [`HistoryStore::merge`] accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Entries present in both stores with *different* content, resolved
    /// keep-first (a warning count — a nonzero value means the two
    /// crawls disagreed about the network).
    pub conflicts: u64,
    /// Responses adopted from the other store.
    pub merged_responses: usize,
    /// Degree hints adopted from the other store.
    pub merged_hints: usize,
    /// Overlay edges (removed + added) adopted from the other store.
    pub merged_overlay_edges: usize,
}

/// FNV-1a 64-bit hash — the integrity check of the history codec, the
/// per-record seal of [`crate::journal::HistoryJournal`], and the digest
/// primitive fleet determinism checks build on. The same function seals
/// `mto-trace` documents.
pub use mto_obs::fnv1a64;

/// Appends the checksum trailer (no trailing newline, so *any* strict
/// prefix of the output is detectably damaged).
pub(crate) fn seal(mut body: String) -> String {
    use std::fmt::Write;
    let checksum = fnv1a64(body.as_bytes());
    write!(body, "checksum {checksum:016x}").expect("string write");
    body
}

/// Splits off and verifies the checksum trailer, returning the body.
/// The trailer's line number is counted only to report an error.
pub(crate) fn verify_checksum(text: &str) -> std::result::Result<&str, HistoryCodecError> {
    let pos = text.rfind("\nchecksum ").ok_or(HistoryCodecError::Truncated)?;
    let body = &text[..pos + 1];
    let trailer = text[pos + 1..].trim_end_matches('\n');
    let at_trailer =
        |message: String| HistoryCodecError::BadRecord { line: body.lines().count() + 1, message };
    if trailer.contains('\n') {
        return Err(at_trailer("data after the checksum trailer".into()));
    }
    let hex = trailer.strip_prefix("checksum ").expect("rfind matched this prefix");
    let stored = u64::from_str_radix(hex, 16)
        .map_err(|e| at_trailer(format!("bad checksum literal {hex:?}: {e}")))?;
    let computed = fnv1a64(body.as_bytes());
    if computed != stored {
        return Err(HistoryCodecError::ChecksumMismatch { computed, stored });
    }
    Ok(body)
}

/// Validates the `<magic> v<version>` header line.
pub(crate) fn expect_header(
    first: Option<(usize, &str)>,
    magic: &str,
) -> std::result::Result<(), HistoryCodecError> {
    let (_, line) = first.ok_or_else(|| HistoryCodecError::BadHeader(String::new()))?;
    let version = line
        .strip_prefix(magic)
        .and_then(|rest| rest.strip_prefix(" v"))
        .ok_or_else(|| HistoryCodecError::BadHeader(line.to_string()))?;
    let version: u32 =
        version.parse().map_err(|_| HistoryCodecError::BadHeader(line.to_string()))?;
    if version != FORMAT_VERSION {
        return Err(HistoryCodecError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Splits a record line into its keyword and payload.
pub(crate) fn split_keyword(
    line: &str,
    lineno: usize,
) -> std::result::Result<(&str, &str), HistoryCodecError> {
    let line = line.trim_end_matches('\r');
    match line.split_once(' ') {
        Some((k, rest)) if !k.is_empty() => Ok((k, rest)),
        _ => Err(HistoryCodecError::BadRecord {
            line: lineno,
            message: format!("expected `<keyword> <payload>`, got {line:?}"),
        }),
    }
}

pub(crate) fn bad_record(lineno: usize, message: impl Into<String>) -> HistoryCodecError {
    HistoryCodecError::BadRecord { line: lineno, message: message.into() }
}

pub(crate) fn parse_num<T: std::str::FromStr>(
    token: &str,
    what: &str,
    lineno: usize,
) -> std::result::Result<T, HistoryCodecError>
where
    T::Err: std::fmt::Display,
{
    token.parse().map_err(|e| bad_record(lineno, format!("bad {what} {token:?}: {e}")))
}

/// Appends a decimal integer without going through `core::fmt`. The
/// encode hot loop emits hundreds of thousands of small integers, and
/// formatter machinery — not byte copying — is where the naive
/// `format!`-per-record codec spent its time.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Appends one `node` record (no newline) straight into `out`.
pub(crate) fn write_node_record(out: &mut String, r: &QueryResponse) {
    out.push_str("node ");
    push_u64(out, u64::from(r.user.0));
    out.push(' ');
    push_u64(out, u64::from(r.profile.age));
    out.push(' ');
    push_u64(out, u64::from(r.profile.self_description_len));
    out.push(' ');
    push_u64(out, u64::from(r.profile.num_posts));
    out.push(' ');
    push_u64(out, u64::from(u8::from(r.profile.is_public)));
    if r.neighbors.is_empty() {
        out.push_str(" -");
    } else {
        let mut sep = ' ';
        for n in &r.neighbors {
            out.push(sep);
            push_u64(out, u64::from(n.0));
            sep = ',';
        }
    }
}

/// One `node` record line (no newline) — the owned-string form the
/// append-only journal writes record-at-a-time.
pub(crate) fn node_record(r: &QueryResponse) -> String {
    let mut out = String::with_capacity(40 + 8 * r.neighbors.len());
    write_node_record(&mut out, r);
    out
}

/// One `degree` record line (no newline).
pub(crate) fn degree_record(v: NodeId, d: usize) -> String {
    format!("degree {} {}", v.0, d)
}

/// One overlay-edge record line (no newline); `keyword` is `removed` or
/// `added`.
pub(crate) fn overlay_record(keyword: &str, u: NodeId, v: NodeId) -> String {
    format!("{keyword} {} {}", u.0, v.0)
}

/// One per-crawl ledger record line (no newline).
pub(crate) fn crawl_record(c: &CrawlCounters) -> String {
    format!("crawl {} {} {}", c.unique_queries, c.total_lookups, c.transient_retries)
}

/// Parses the payload of a `crawl` record.
pub(crate) fn parse_crawl_record(
    rest: &str,
    lineno: usize,
) -> std::result::Result<CrawlCounters, HistoryCodecError> {
    let parts: Vec<&str> = rest.split(' ').collect();
    if parts.len() != 3 {
        return Err(bad_record(lineno, "crawl record needs three counters"));
    }
    Ok(CrawlCounters {
        unique_queries: parse_num(parts[0], "unique counter", lineno)?,
        total_lookups: parse_num(parts[1], "lookup counter", lineno)?,
        transient_retries: parse_num(parts[2], "retry counter", lineno)?,
    })
}

/// Serializes the record body shared by history and session files. Every
/// record is pushed straight into `out` — no intermediate strings, no
/// `core::fmt` in the per-record loops.
pub(crate) fn write_history_body(store: &HistoryStore, out: &mut String) {
    let c = &store.cache;
    if let Some(n) = store.num_users {
        out.push_str("users ");
        push_u64(out, n as u64);
        out.push('\n');
    }
    out.push_str("unique ");
    push_u64(out, c.unique_queries);
    out.push_str("\nlookups ");
    push_u64(out, c.total_lookups);
    out.push_str("\nretries ");
    push_u64(out, c.transient_retries);
    out.push('\n');
    for r in &c.responses {
        write_node_record(out, r);
        out.push('\n');
    }
    for &(v, d) in &c.degree_hints {
        out.push_str("degree ");
        push_u64(out, u64::from(v.0));
        out.push(' ');
        push_u64(out, d as u64);
        out.push('\n');
    }
    for &(u, v) in &store.removed {
        push_edge_record(out, "removed", u, v);
    }
    for &(u, v) in &store.added {
        push_edge_record(out, "added", u, v);
    }
    for c in &store.crawls {
        out.push_str("crawl ");
        push_u64(out, c.unique_queries);
        out.push(' ');
        push_u64(out, c.total_lookups);
        out.push(' ');
        push_u64(out, c.transient_retries);
        out.push('\n');
    }
}

fn push_edge_record(out: &mut String, keyword: &str, u: NodeId, v: NodeId) {
    out.push_str(keyword);
    out.push(' ');
    push_u64(out, u64::from(u.0));
    out.push(' ');
    push_u64(out, u64::from(v.0));
    out.push('\n');
}

/// Incremental parser for the shared history records; session decoding
/// feeds it the lines its own vocabulary does not claim.
#[derive(Default)]
pub(crate) struct HistoryAccumulator {
    pub(crate) store: HistoryStore,
    seen_nodes: SeenIds,
    seen_hints: SeenIds,
}

/// The ids of one record kind seen so far, for the duplicate check.
/// While ids arrive ascending, as every encoder writes them, the last
/// one is enough; the first id out of order switches to a set of all.
#[derive(Default)]
struct SeenIds {
    last: Option<u32>,
    /// Every id seen, once one arrived out of order.
    unordered: Option<std::collections::HashSet<u32>>,
}

impl SeenIds {
    /// Records `id`; `false` if it was seen before. `earlier` lists the
    /// ids recorded so far; it is read once, at the first id out of
    /// order.
    fn insert(&mut self, id: u32, earlier: impl Iterator<Item = u32>) -> bool {
        if self.unordered.is_none() && self.last.map_or(true, |last| id > last) {
            self.last = Some(id);
            return true;
        }
        self.unordered.get_or_insert_with(|| earlier.collect()).insert(id)
    }
}

impl HistoryAccumulator {
    /// The decoded store, with responses and degree hints ascending by
    /// node id: sorted here only when the input held them out of order.
    pub(crate) fn finish(mut self) -> HistoryStore {
        let cache = &mut self.store.cache;
        if self.seen_nodes.unordered.is_some() {
            cache.responses.sort_unstable_by_key(|r| r.user);
        }
        if self.seen_hints.unordered.is_some() {
            cache.degree_hints.sort_unstable_by_key(|&(v, _)| v);
        }
        self.store
    }

    /// Tries to consume one record line; `Ok(false)` means the keyword is
    /// not part of the history vocabulary.
    pub(crate) fn consume(
        &mut self,
        keyword: &str,
        rest: &str,
        lineno: usize,
    ) -> std::result::Result<bool, HistoryCodecError> {
        match keyword {
            "users" => self.store.num_users = Some(parse_num(rest, "user count", lineno)?),
            "unique" => self.store.cache.unique_queries = parse_num(rest, "counter", lineno)?,
            "lookups" => self.store.cache.total_lookups = parse_num(rest, "counter", lineno)?,
            "retries" => self.store.cache.transient_retries = parse_num(rest, "counter", lineno)?,
            "node" => {
                let response = parse_node_record(rest, lineno)?;
                let user = response.user.0;
                let earlier = self.store.cache.responses.iter().map(|r| r.user.0);
                if !self.seen_nodes.insert(user, earlier) {
                    return Err(bad_record(lineno, format!("duplicate node record for {user}")));
                }
                self.store.cache.responses.push(response);
            }
            "degree" => {
                let (v, d) = parse_pair::<usize>(rest, lineno)?;
                let earlier = self.store.cache.degree_hints.iter().map(|&(v, _)| v.0);
                if !self.seen_hints.insert(v, earlier) {
                    return Err(bad_record(lineno, format!("duplicate degree hint for {v}")));
                }
                self.store.cache.degree_hints.push((NodeId(v), d));
            }
            "removed" => {
                let (u, v) = parse_pair::<u32>(rest, lineno)?;
                self.store.removed.push((NodeId(u), NodeId(v)));
            }
            "added" => {
                let (u, v) = parse_pair::<u32>(rest, lineno)?;
                self.store.added.push((NodeId(u), NodeId(v)));
            }
            "crawl" => {
                // Snapshot semantics: the `unique`/`lookups`/`retries`
                // records already carry the totals, so a crawl line only
                // records the breakdown. (The journal replay path adds to
                // the totals itself — see `HistoryJournal::open`.)
                self.store.crawls.push(parse_crawl_record(rest, lineno)?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parses the payload of a `node` record byte by byte: no `str`
/// splitting and no `parse::<u32>`. It accepts and rejects what reading
/// the payload with `split(' ')` and `parse::<u32>` did, with the same
/// messages: six fields split at single spaces, `u32` fields as
/// [`parse_u32`] reads them, a `0`/`1` public flag, and a neighbor list
/// that is `-` or comma-separated ids.
fn parse_node_record(
    rest: &str,
    lineno: usize,
) -> std::result::Result<QueryResponse, HistoryCodecError> {
    let mut fields = Fields { text: rest, start: Some(0) };
    let mut next =
        |what: &str| fields.next().ok_or_else(|| bad_record(lineno, format!("missing {what}")));
    let number = |token: &str, what: &str| {
        parse_u32(token).map_err(|e| bad_record(lineno, format!("bad {what} {token:?}: {e}")))
    };
    let user = number(next("user id")?, "user id")?;
    let age = number(next("age")?, "age")?;
    let self_description_len = number(next("description length")?, "length")?;
    let num_posts = number(next("post count")?, "count")?;
    let is_public = match next("public flag")? {
        "0" => false,
        "1" => true,
        other => return Err(bad_record(lineno, format!("bad public flag {other:?}"))),
    };
    let list = fields.rest().ok_or_else(|| bad_record(lineno, "missing neighbor list"))?;
    let neighbors = if list == "-" { Vec::new() } else { parse_neighbor_ids(list, lineno)? };
    Ok(QueryResponse {
        user: NodeId(user),
        neighbors,
        profile: UserProfile { age, self_description_len, num_posts, is_public },
    })
}

/// The neighbor ids of a `node` record; `list` is the rest of the
/// payload. The `Vec` is sized by counting commas, then each id is read
/// in one pass over its digits. Anything but plain digits — a `+`, bad
/// input, or a space that starts a trailing token — goes through
/// [`parse_u32`], after the trailing-token check that `split(' ')` made
/// first.
fn parse_neighbor_ids(
    list: &str,
    lineno: usize,
) -> std::result::Result<Vec<NodeId>, HistoryCodecError> {
    let bytes = list.as_bytes();
    let mut ids = Vec::with_capacity(1 + bytes.iter().filter(|&&b| b == b',').count());
    let mut start = 0;
    loop {
        let mut end = start;
        let mut value = 0u64;
        while end < bytes.len() && bytes[end].is_ascii_digit() && value <= u64::from(u32::MAX) {
            value = value * 10 + u64::from(bytes[end] - b'0');
            end += 1;
        }
        let plain = end > start && value <= u64::from(u32::MAX);
        if !(plain && bytes.get(end).map_or(true, |&b| b == b',')) {
            if list.contains(' ') {
                return Err(bad_record(lineno, "trailing tokens on node record"));
            }
            end = bytes[start..].iter().position(|&b| b == b',').map_or(bytes.len(), |n| start + n);
            let token = &list[start..end];
            value = u64::from(
                parse_u32(token)
                    .map_err(|e| bad_record(lineno, format!("bad neighbor id {token:?}: {e}")))?,
            );
        }
        ids.push(NodeId(value as u32));
        if end == bytes.len() {
            return Ok(ids);
        }
        start = end + 1;
    }
}

/// The fields of a record payload between single spaces, as
/// `split(' ')` would yield them, found by scanning bytes.
struct Fields<'a> {
    text: &'a str,
    /// Start of the next field; `None` once the last one was taken.
    start: Option<usize>,
}

impl<'a> Fields<'a> {
    /// Everything from the next field to the end, spaces included.
    fn rest(&mut self) -> Option<&'a str> {
        self.start.take().map(|start| &self.text[start..])
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let start = self.start?;
        match self.text.as_bytes()[start..].iter().position(|&b| b == b' ') {
            Some(len) => {
                self.start = Some(start + len + 1);
                Some(&self.text[start..start + len])
            }
            None => self.rest(),
        }
    }
}

/// Reads a `u32` digit by digit with an overflow check. It accepts what
/// `str::parse::<u32>` accepts — decimal digits after an optional `+` —
/// and fails with the text of the `ParseIntError` that would give.
fn parse_u32(token: &str) -> std::result::Result<u32, &'static str> {
    const INVALID: &str = "invalid digit found in string";
    let digits = match token.as_bytes() {
        [] => return Err("cannot parse integer from empty string"),
        [b'+'] => return Err(INVALID),
        [b'+', digits @ ..] => digits,
        digits => digits,
    };
    let mut value: u32 = 0;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return Err(INVALID);
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u32::from(digit)))
            .ok_or("number too large to fit in target type")?;
    }
    Ok(value)
}

fn parse_pair<B: std::str::FromStr>(
    rest: &str,
    lineno: usize,
) -> std::result::Result<(u32, B), HistoryCodecError>
where
    B::Err: std::fmt::Display,
{
    let (a, b) = rest
        .split_once(' ')
        .ok_or_else(|| bad_record(lineno, format!("expected two fields, got {rest:?}")))?;
    if b.contains(' ') {
        return Err(bad_record(lineno, "trailing tokens on record"));
    }
    Ok((parse_num(a, "id", lineno)?, parse_num(b, "value", lineno)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_graph::generators::paper_barbell;
    use mto_osn::OsnService;

    fn sample_store() -> HistoryStore {
        let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for v in [0u32, 5, 11, 21] {
            client.query(NodeId(v)).unwrap();
        }
        client.remember_degree(NodeId(7), 10);
        let mut delta = OverlayDelta::new();
        delta.remove_edge(NodeId(0), NodeId(5));
        delta.add_edge(NodeId(0), NodeId(12));
        HistoryStore::from_parts(&client, Some(&delta))
    }

    #[test]
    fn encode_decode_round_trips() {
        let store = sample_store();
        let text = store.encode();
        assert!(text.starts_with("mto-history v1\n"));
        assert_eq!(HistoryStore::decode(&text).unwrap(), store);
    }

    #[test]
    fn fast_encode_matches_the_naive_rendering() {
        // The pre-sized push-based encoder must be byte-identical to the
        // original one-`format!`-per-record codec: persisted histories,
        // journals, and every digest built on them depend on the bytes.
        let mut store = sample_store();
        store.crawls.push(CrawlCounters {
            unique_queries: 4,
            total_lookups: 17,
            transient_retries: 1,
        });
        let mut body = format!("{HISTORY_MAGIC} v{FORMAT_VERSION}\n");
        if let Some(n) = store.num_users {
            body.push_str(&format!("users {n}\n"));
        }
        body.push_str(&format!("unique {}\n", store.cache.unique_queries));
        body.push_str(&format!("lookups {}\n", store.cache.total_lookups));
        body.push_str(&format!("retries {}\n", store.cache.transient_retries));
        for r in &store.cache.responses {
            let nbrs = if r.neighbors.is_empty() {
                "-".to_string()
            } else {
                r.neighbors.iter().map(|n| n.0.to_string()).collect::<Vec<_>>().join(",")
            };
            body.push_str(&format!(
                "node {} {} {} {} {} {nbrs}\n",
                r.user.0,
                r.profile.age,
                r.profile.self_description_len,
                r.profile.num_posts,
                u8::from(r.profile.is_public)
            ));
        }
        for &(v, d) in &store.cache.degree_hints {
            body.push_str(&format!("degree {} {d}\n", v.0));
        }
        for &(u, v) in &store.removed {
            body.push_str(&format!("removed {} {}\n", u.0, v.0));
        }
        for &(u, v) in &store.added {
            body.push_str(&format!("added {} {}\n", u.0, v.0));
        }
        for c in &store.crawls {
            body.push_str(&format!(
                "crawl {} {} {}\n",
                c.unique_queries, c.total_lookups, c.transient_retries
            ));
        }
        assert_eq!(store.encode(), seal(body));
    }

    #[test]
    fn empty_store_round_trips() {
        let store = HistoryStore::default();
        assert_eq!(HistoryStore::decode(&store.encode()).unwrap(), store);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let store = sample_store();
        let path = std::env::temp_dir()
            .join(format!("mto-serve-history-test-{}.hist", std::process::id()));
        store.save(&path).unwrap();
        let loaded = HistoryStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, store);
    }

    #[test]
    fn truncated_input_is_a_clean_error() {
        let text = sample_store().encode();
        for cut in [0, 1, 14, text.len() / 2, text.len() - 1] {
            let err = HistoryStore::decode(&text[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    HistoryCodecError::Truncated
                        | HistoryCodecError::ChecksumMismatch { .. }
                        | HistoryCodecError::BadRecord { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn flipped_byte_is_detected() {
        let text = sample_store().encode();
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let corrupt = String::from_utf8(bytes).unwrap();
        assert!(HistoryStore::decode(&corrupt).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let other = seal("mto-nonsense v1\n".to_string());
        assert!(matches!(
            HistoryStore::decode(&other).unwrap_err(),
            HistoryCodecError::BadHeader(_)
        ));
        let future = seal(format!("{HISTORY_MAGIC} v99\n"));
        assert_eq!(
            HistoryStore::decode(&future).unwrap_err(),
            HistoryCodecError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn garbage_inputs_never_panic() {
        for garbage in ["", "\n\n\n", "checksum zz", "mto-history v1", "node", "\u{1F980}"] {
            assert!(HistoryStore::decode(garbage).is_err(), "accepted {garbage:?}");
        }
    }

    #[test]
    fn duplicate_node_records_are_rejected() {
        let body =
            format!("{HISTORY_MAGIC} v{FORMAT_VERSION}\nnode 1 20 0 0 1 -\nnode 1 20 0 0 1 -\n");
        let err = HistoryStore::decode(&seal(body)).unwrap_err();
        assert!(matches!(err, HistoryCodecError::BadRecord { line: 3, .. }), "{err:?}");
        // Out of order, a duplicate is still caught at its second line.
        for (records, line) in [
            ("node 5 1 0 0 1 -\nnode 1 1 0 0 1 -\nnode 5 1 0 0 1 -\n", 4),
            ("degree 5 1\ndegree 1 1\ndegree 3 1\ndegree 1 2\n", 5),
        ] {
            let body = format!("{HISTORY_MAGIC} v{FORMAT_VERSION}\n{records}");
            let err = HistoryStore::decode(&seal(body)).unwrap_err();
            assert!(
                matches!(err, HistoryCodecError::BadRecord { line: l, .. } if l == line),
                "{err:?}"
            );
        }
    }

    #[test]
    fn a_reordered_history_decodes_to_the_original_store() {
        // Node and degree records in reverse: the decoded store is the
        // original, responses and hints ascending.
        let mut store = sample_store();
        store.cache.degree_hints.push((NodeId(9), 4));
        store.cache.degree_hints.push((NodeId(14), 2));
        let text = store.encode();
        let body = &text[..text.rfind("\nchecksum ").unwrap() + 1];
        let lines: Vec<&str> = body.lines().collect();
        let of = |keyword: &str| -> Vec<&str> {
            lines.iter().copied().filter(|l| l.starts_with(keyword)).rev().collect()
        };
        let (nodes, hints) = (of("node "), of("degree "));
        assert!(nodes.len() > 2 && hints.len() > 2);
        let rest: Vec<&str> =
            lines.iter().copied().filter(|l| !nodes.contains(l) && !hints.contains(l)).collect();
        let (head, tail) = rest.split_at(5);
        let reordered: String =
            [head, &hints, &nodes, tail].concat().iter().map(|l| format!("{l}\n")).collect();
        assert_ne!(reordered, body);
        assert_eq!(HistoryStore::decode(&seal(reordered)).unwrap(), store);
    }

    /// The `node` payload reader [`parse_node_record`] replaced, kept as
    /// its reference: `split(' ')`, `split(',')` and `parse::<u32>`.
    fn split_and_parse_node_record(
        rest: &str,
        lineno: usize,
    ) -> std::result::Result<QueryResponse, HistoryCodecError> {
        let mut tok = rest.split(' ');
        let mut next =
            |what: &str| tok.next().ok_or_else(|| bad_record(lineno, format!("missing {what}")));
        let user: u32 = parse_num(next("user id")?, "user id", lineno)?;
        let age: u32 = parse_num(next("age")?, "age", lineno)?;
        let desc: u32 = parse_num(next("description length")?, "length", lineno)?;
        let posts: u32 = parse_num(next("post count")?, "count", lineno)?;
        let is_public = match next("public flag")? {
            "0" => false,
            "1" => true,
            other => return Err(bad_record(lineno, format!("bad public flag {other:?}"))),
        };
        let nbr_field = next("neighbor list")?;
        if tok.next().is_some() {
            return Err(bad_record(lineno, "trailing tokens on node record"));
        }
        let neighbors = if nbr_field == "-" {
            Vec::new()
        } else {
            nbr_field
                .split(',')
                .map(|t| parse_num::<u32>(t, "neighbor id", lineno).map(NodeId))
                .collect::<std::result::Result<Vec<_>, _>>()?
        };
        Ok(QueryResponse {
            user: NodeId(user),
            neighbors,
            profile: UserProfile { age, self_description_len: desc, num_posts: posts, is_public },
        })
    }

    #[test]
    fn node_records_parse_as_split_and_parse_read_them() {
        // Every outcome, accepted or rejected with its message, equals
        // the reference's: edge cases by hand, then random payloads over
        // the bytes that matter to the grammar.
        let mut payloads: Vec<String> = [
            "1 2 3 4 1 5,6",
            "+1 2 3 4 0 -",
            "007 2 3 4 1 +5,06",
            "4294967295 0 0 0 0 4294967295",
            "",
            "1",
            "1 2 3 4 1",
            "1 2 3 4 1 ",
            "1 2 3 4 2 5",
            "1 2 3 4 1 5,,6",
            "1 2 3 4 1 5,",
            "1 2 3 4 1 ,5",
            "1 2 3 4 1 - 5",
            "1 2 3 4 1 -,5",
            "1 2 3 4 1 x 5",
            "1 2 3 4 1 5 6",
            "1 2 3 4 1 5x,6 7",
            "4294967296 0 0 0 0 -",
            "1 2 3 4 1 4294967296",
            "1 2 3 4 1 99999999999x",
            "1 2 3 4 1 7,42949672950",
            "1  2 3 4 1 5",
            "-1 2 3 4 1 5",
            "1 2 3 4 1 +",
            "1 2 3 4 1 5,+",
            "1 2 3 4 1 ++5",
            "1 2 3 4 1 5\r6",
            "1 2 3 4 1 5,\u{e9}",
        ]
        .iter()
        .map(|p| p.to_string())
        .collect();
        let alphabet = b"0123456789 ,+-x";
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5000 {
            let mut payload = String::from("1 2 3 4 1 ");
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            for _ in 0..(state >> 60) + 1 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pick = (state >> 33) as usize;
                // Mostly digits and commas, so most payloads get far.
                let byte = if pick % 4 == 0 {
                    alphabet[pick % alphabet.len()]
                } else {
                    b'0' + (pick % 10) as u8
                };
                payload.push(byte as char);
            }
            // Damage the fixed prefix now and then, too.
            if state % 5 == 0 {
                let at = (state >> 40) as usize % 10;
                payload.replace_range(at..at + 1, if state % 3 == 0 { " " } else { "+" });
            }
            payloads.push(payload);
        }
        for payload in &payloads {
            assert_eq!(
                parse_node_record(payload, 7),
                split_and_parse_node_record(payload, 7),
                "{payload:?}"
            );
        }
    }

    #[test]
    fn overlay_delta_round_trips() {
        let store = sample_store();
        let delta = store.overlay_delta();
        assert!(delta.is_removed(NodeId(0), NodeId(5)));
        assert!(delta.is_added(NodeId(0), NodeId(12)));
        let again = HistoryStore::from_parts(
            &store.restore_client(OsnService::with_defaults(&paper_barbell())).unwrap(),
            Some(&delta),
        );
        assert_eq!(again, store);
    }

    /// A store from a crawl of `nodes`, with one degree hint and a small
    /// overlay delta.
    fn crawl(nodes: &[u32], hint: (u32, usize), removed: (u32, u32)) -> HistoryStore {
        let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for &v in nodes {
            client.query(NodeId(v)).unwrap();
        }
        client.remember_degree(NodeId(hint.0), hint.1);
        let mut delta = OverlayDelta::new();
        delta.remove_edge(NodeId(removed.0), NodeId(removed.1));
        HistoryStore::from_parts(&client, Some(&delta))
    }

    #[test]
    fn merge_unions_two_crawls_and_round_trips() {
        // Two crawls of the same barbell touching overlapping node sets.
        let mut a = crawl(&[0, 1, 2, 5], (20, 11), (0, 5));
        let b = crawl(&[2, 3, 11], (19, 10), (1, 2));
        let (ua, ub) = (a.cache.unique_queries, b.cache.unique_queries);

        let outcome = a.merge(&b).unwrap();
        assert_eq!(outcome.conflicts, 0, "honest crawls of one network never conflict");
        assert_eq!(outcome.merged_responses, 2, "nodes 3 and 11 adopted");
        assert_eq!(outcome.merged_hints, 1);
        assert_eq!(outcome.merged_overlay_edges, 1);
        let ids: Vec<u32> = a.cache.responses.iter().map(|r| r.user.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 5, 11], "union, ascending");
        assert_eq!(a.cache.unique_queries, ua + ub, "combined bill");
        assert!(a.overlay_delta().is_removed(NodeId(0), NodeId(5)));
        assert!(a.overlay_delta().is_removed(NodeId(1), NodeId(2)));

        // The merged store round-trips through the codec…
        let decoded = HistoryStore::decode(&a.encode()).unwrap();
        assert_eq!(decoded, a);
        // …and warm-starts a client that knows the union for free.
        let warm = decoded.warm_start(OsnService::with_defaults(&paper_barbell())).unwrap();
        assert_eq!(warm.num_cached(), 6);
        assert_eq!(warm.known_degree(NodeId(19)), Some(10), "hint adopted from b");
        assert_eq!(warm.known_degree(NodeId(20)), Some(11), "own hint kept");
    }

    #[test]
    fn merge_conflicts_keep_first_and_are_counted() {
        let mut a = crawl(&[0, 1], (20, 9), (0, 5));
        let mut b = crawl(&[1], (20, 7), (0, 3));
        // Sabotage b: same node id, different content; and an overlay
        // disagreement (a removed (0,5), b *added* it).
        b.cache.responses[0].profile.age += 1;
        b.removed.clear();
        b.added = vec![(NodeId(0), NodeId(5))];

        let outcome = a.merge(&b).unwrap();
        assert_eq!(
            outcome.conflicts, 3,
            "response content, degree hint, and overlay disposition all disagreed"
        );
        assert_eq!(outcome.merged_responses, 0);
        // Keep-first: a's versions survive everywhere.
        let node1 = a.cache.responses.iter().find(|r| r.user == NodeId(1)).unwrap();
        assert_eq!(node1.profile, crawl(&[1], (0, 0), (2, 3)).cache.responses[0].profile);
        assert_eq!(a.cache.degree_hints, vec![(NodeId(20), 9)]);
        assert!(a.overlay_delta().is_removed(NodeId(0), NodeId(5)));
        assert!(!a.overlay_delta().is_added(NodeId(0), NodeId(5)));
    }

    #[test]
    fn merge_drops_hints_shadowed_by_responses() {
        // a knows node 5's degree only as a (wrong) hint; b cached the
        // full response. The response wins, the wrong hint is a conflict.
        let mut a = crawl(&[0], (5, 3), (0, 1));
        let b = crawl(&[5], (20, 11), (0, 1));
        let outcome = a.merge(&b).unwrap();
        assert_eq!(outcome.conflicts, 1, "hint 3 contradicts true degree 10");
        assert!(a.cache.degree_hints.iter().all(|&(v, _)| v != NodeId(5)));
        let warm = a.warm_start(OsnService::with_defaults(&paper_barbell())).unwrap();
        assert_eq!(warm.known_degree(NodeId(5)), Some(10), "true degree from the response");
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = crawl(&[0, 1, 7], (20, 11), (0, 5));
        let snapshot = a.clone();
        let outcome = a.merge(&snapshot).unwrap();
        assert_eq!(outcome, MergeOutcome::default(), "self-merge adopts nothing");
        // Counters double (both "crawls" paid), content is unchanged.
        assert_eq!(a.cache.unique_queries, 2 * snapshot.cache.unique_queries);
        assert_eq!(a.cache.responses, snapshot.cache.responses);
        assert_eq!(a.removed, snapshot.removed);
    }

    #[test]
    fn merge_refuses_stores_from_different_networks() {
        let mut a = crawl(&[0], (20, 11), (0, 5));
        let mut client =
            CachedClient::new(OsnService::with_defaults(&mto_graph::generators::complete_graph(5)));
        client.query(NodeId(0)).unwrap();
        let b = HistoryStore::from_client(&client);
        let err = a.merge(&b).unwrap_err();
        assert!(err.contains("22") && err.contains("5"), "{err}");
    }

    #[test]
    fn warm_start_rejects_history_from_another_network() {
        let store = sample_store(); // crawled from the 22-user barbell
        let other = OsnService::with_defaults(&mto_graph::generators::complete_graph(5));
        assert!(store.warm_start(other).is_err(), "user counts 22 vs 5 must not mix");
    }

    #[test]
    fn warm_start_rejects_out_of_range_ids() {
        // A hand-edited store claiming a node outside the id space would
        // make the dense slot map allocate past the network size.
        let mut store = sample_store();
        store.cache.degree_hints.push((NodeId(400), 3));
        assert!(store.warm_start(OsnService::with_defaults(&paper_barbell())).is_err());
        store.cache.degree_hints.clear();
        store.cache.responses[0].user = NodeId(4_000_000);
        assert!(store.warm_start(OsnService::with_defaults(&paper_barbell())).is_err());
    }

    #[test]
    fn warm_start_zeroes_the_bill_and_restore_resumes_it() {
        let store = sample_store();
        let g = paper_barbell();
        let warm = store.warm_start(OsnService::with_defaults(&g)).unwrap();
        assert_eq!(warm.unique_queries(), 0);
        assert_eq!(warm.num_cached(), 4);
        assert_eq!(warm.known_degree(NodeId(7)), Some(10), "degree hint survived");
        let restored = store.restore_client(OsnService::with_defaults(&g)).unwrap();
        assert_eq!(restored.unique_queries(), store.cache.unique_queries);
    }
}
