//! Client-side cache with unique-query accounting.
//!
//! The paper's cost model (Section II-B): *"we consider the number of
//! unique queries one has to issue for the sampling process, as any
//! duplicate query can be answered from local cache without consuming the
//! query limit"*. [`CachedClient`] is that local cache — it also doubles as
//! the "local database" of Section III-D whose remembered degrees power the
//! Theorem 5 extension.
//!
//! Storage layout: node ids are dense (`OsnService` assigns `0..n`), so the
//! cache is a [`NeighborArena`] — a CSR-style flat store holding **every**
//! cached neighbor list in one contiguous `Vec<NodeId>`, with a dense
//! per-node `(offset, len)` span table beside it. The hot-path lookup is
//! one bounds check plus an indexed load yielding a *borrowed*
//! `&[NodeId]`, with no hashing, no per-node heap allocation, and no
//! response clone (`bench_hotpath`'s `hotpath/arena` group measures the
//! win over the previous one-`Vec`-per-node slot map). Degrees remembered
//! *without* a full neighborhood (e.g. imported from an older crawl whose
//! responses were discarded) live in a sparse side table.
//!
//! The whole history is exportable as a [`CacheSnapshot`] and re-importable
//! into a fresh client — the hook `mto-serve`'s persistent `HistoryStore`
//! builds on for cross-run warm starts.

use std::collections::HashMap;

use mto_graph::NodeId;

use crate::error::Result;
use crate::interface::{QueryResponse, SocialNetworkInterface};
use crate::profile::UserProfile;

/// Location of one cached neighbor list inside the arena's flat data.
#[derive(Clone, Copy, Debug)]
struct Span {
    offset: usize,
    len: u32,
}

/// CSR-style flat neighborhood storage: all cached neighbor lists live
/// concatenated in one contiguous `Vec<NodeId>`, addressed by a dense
/// per-node span table. Reads borrow straight out of the arena —
/// steady-state walking never clones a neighbor list.
///
/// Re-inserting a node whose new list fits its old span overwrites in
/// place; a longer list is appended and the old span becomes garbage
/// (bounded by re-import churn, which honest workloads do at most once
/// per node — [`NeighborArena::data_len`] exposes the raw size so tests
/// can watch for pathological growth).
#[derive(Debug, Default)]
pub struct NeighborArena {
    /// Every cached neighbor list, concatenated in first-insertion order.
    data: Vec<NodeId>,
    /// Dense slot map: `slots[v.index()]` locates `v`'s list and profile.
    slots: Vec<Option<(Span, UserProfile)>>,
    /// Number of occupied slots.
    cached: usize,
    /// Re-inserts that fit their old span and overwrote in place.
    rewrites_in_place: u64,
    /// `NodeId`s orphaned by append-and-leak replacements — the churn
    /// signal the observability layer reports as arena compaction debt.
    leaked_ids: u64,
}

impl NeighborArena {
    /// An empty arena.
    pub fn new() -> Self {
        NeighborArena::default()
    }

    /// Borrowed neighbor list of `v`, if cached.
    #[inline]
    pub fn neighbors_of(&self, v: NodeId) -> Option<&[NodeId]> {
        let (span, _) = self.slots.get(v.index())?.as_ref()?;
        Some(&self.data[span.offset..span.offset + span.len as usize])
    }

    /// Borrowed profile of `v`, if cached.
    #[inline]
    pub fn profile_of(&self, v: NodeId) -> Option<&UserProfile> {
        let (_, profile) = self.slots.get(v.index())?.as_ref()?;
        Some(profile)
    }

    /// Degree of `v`, if cached (no slice construction).
    #[inline]
    pub fn degree_of(&self, v: NodeId) -> Option<usize> {
        let (span, _) = self.slots.get(v.index())?.as_ref()?;
        Some(span.len as usize)
    }

    /// Whether `v` has a cached neighborhood.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.slots.get(v.index()).is_some_and(Option::is_some)
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.cached
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.cached == 0
    }

    /// Total `NodeId`s in the flat store, including any leaked spans.
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Re-inserts that overwrote their old span in place.
    pub fn rewrites_in_place(&self) -> u64 {
        self.rewrites_in_place
    }

    /// `NodeId`s orphaned by append-and-leak replacements.
    pub fn leaked_ids(&self) -> u64 {
        self.leaked_ids
    }

    /// Cached nodes, ascending id.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Inserts (or replaces) `v`'s neighborhood and profile.
    pub fn insert(&mut self, v: NodeId, neighbors: &[NodeId], profile: UserProfile) {
        let i = v.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let span = match self.slots[i].take() {
            // Overwrite in place when the replacement fits the old span.
            Some((old, _)) if neighbors.len() <= old.len as usize => {
                let dst = &mut self.data[old.offset..old.offset + neighbors.len()];
                dst.copy_from_slice(neighbors);
                self.rewrites_in_place += 1;
                Span { offset: old.offset, len: neighbors.len() as u32 }
            }
            existing => {
                // First insert, or a longer replacement: append. A
                // replaced node's old span is leaked (bounded by re-import
                // churn; `data_len` keeps it visible to tests).
                match existing {
                    None => self.cached += 1,
                    Some((old, _)) => self.leaked_ids += u64::from(old.len),
                }
                let offset = self.data.len();
                self.data.extend_from_slice(neighbors);
                Span { offset, len: neighbors.len() as u32 }
            }
        };
        self.slots[i] = Some((span, profile));
    }
}

/// Caching wrapper around any [`SocialNetworkInterface`].
pub struct CachedClient<I> {
    inner: I,
    /// Flat CSR-style neighborhood store (see [`NeighborArena`]).
    arena: NeighborArena,
    /// Degrees known *without* a cached neighborhood (sparse; a full
    /// response in the arena always takes precedence).
    degree_hints: HashMap<NodeId, usize>,
    /// Every node a request reached the backing interface for, in
    /// payment order — the delta a fleet shard gossips. Imports never
    /// append: they are history, not payments.
    paid: Vec<NodeId>,
    /// Requests that reached the backing interface (unique query cost).
    unique_queries: u64,
    /// All `query` calls, including cache hits.
    total_lookups: u64,
    /// Retries spent on transient failures (these do not consume quota).
    transient_retries: u64,
    /// Hard cap on consecutive transient retries per query.
    max_retries: u32,
}

/// A portable export of everything a [`CachedClient`] has learned: the
/// cached responses, the remembered degrees, and the cost counters.
///
/// Snapshots are deterministic (responses sorted by node id, hints sorted
/// by node id) so two clients with the same history export byte-identical
/// snapshots — which is what makes the `mto-serve` history codec's
/// round-trip guarantees testable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheSnapshot {
    /// Cached responses, ascending node id.
    pub responses: Vec<QueryResponse>,
    /// Degrees remembered without a neighborhood, ascending node id.
    pub degree_hints: Vec<(NodeId, usize)>,
    /// Unique queries charged when the snapshot was taken.
    pub unique_queries: u64,
    /// Total lookups (including cache hits) when the snapshot was taken.
    pub total_lookups: u64,
    /// Transient retries performed when the snapshot was taken.
    pub transient_retries: u64,
}

impl<I: SocialNetworkInterface> CachedClient<I> {
    /// Wraps an interface.
    pub fn new(inner: I) -> Self {
        CachedClient {
            inner,
            arena: NeighborArena::new(),
            degree_hints: HashMap::new(),
            paid: Vec::new(),
            unique_queries: 0,
            total_lookups: 0,
            transient_retries: 0,
            max_retries: 16,
        }
    }

    /// One billed lookup: makes sure `v` is cached, retrying transient
    /// failures up to the configured cap. Every `query*` accessor funnels
    /// through here so the lookup accounting is identical regardless of
    /// which shape of answer the caller wants.
    fn ensure(&mut self, v: NodeId) -> Result<()> {
        self.total_lookups += 1;
        if !self.arena.contains(v) {
            let mut attempt = 0u32;
            let response = loop {
                match self.inner.query(v) {
                    Ok(r) => break r,
                    Err(crate::error::OsnError::Transient { .. }) if attempt < self.max_retries => {
                        attempt += 1;
                        self.transient_retries += 1;
                    }
                    Err(e) => return Err(e),
                }
            };
            self.unique_queries += 1;
            self.paid.push(v);
            self.arena.insert(v, &response.neighbors, response.profile);
        }
        Ok(())
    }

    /// Issues `q(v)`, served from cache when possible, returning an owned
    /// response materialized from the arena. Transient failures are
    /// retried up to the configured cap. Hot paths should prefer the
    /// borrowing [`CachedClient::query_neighbors`] /
    /// [`CachedClient::query_degree`], which never allocate.
    pub fn query(&mut self, v: NodeId) -> Result<QueryResponse> {
        self.ensure(v)?;
        Ok(QueryResponse {
            user: v,
            neighbors: self.arena.neighbors_of(v).expect("ensured above").to_vec(),
            profile: self.arena.profile_of(v).expect("ensured above").clone(),
        })
    }

    /// Issues `q(v)` (cached) and returns the neighbor list **borrowed
    /// from the arena** — the zero-allocation hot path.
    pub fn query_neighbors(&mut self, v: NodeId) -> Result<&[NodeId]> {
        self.ensure(v)?;
        Ok(self.arena.neighbors_of(v).expect("ensured above"))
    }

    /// Issues `q(v)` (cached) and returns only the degree.
    pub fn query_degree(&mut self, v: NodeId) -> Result<usize> {
        self.ensure(v)?;
        Ok(self.arena.degree_of(v).expect("ensured above"))
    }

    /// The paper's query cost: unique queries issued so far.
    pub fn unique_queries(&self) -> u64 {
        self.unique_queries
    }

    /// Every node this client paid a unique query for, in payment order.
    /// Imports never append, so a warm-started client's log holds only
    /// its own payments.
    pub fn paid_log(&self) -> &[NodeId] {
        &self.paid
    }

    /// All lookups including cache hits.
    pub fn total_lookups(&self) -> u64 {
        self.total_lookups
    }

    /// Transient-failure retries performed.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// Whether `v` has been queried (and thus its full neighborhood and
    /// degree are known locally).
    pub fn is_cached(&self, v: NodeId) -> bool {
        self.arena.contains(v)
    }

    /// Number of users whose neighborhoods are cached.
    pub fn num_cached(&self) -> usize {
        self.arena.len()
    }

    /// Degree of `v` **if known from history** — the Theorem 5 `N*`
    /// lookup. Free: no request is issued. A cached neighborhood wins over
    /// a remembered degree hint.
    pub fn known_degree(&self, v: NodeId) -> Option<usize> {
        match self.arena.degree_of(v) {
            Some(d) => Some(d),
            None => self.degree_hints.get(&v).copied(),
        }
    }

    /// Records that `v` has degree `degree` without a cached neighborhood —
    /// the Section III-D "local database" entry an older crawl may have
    /// left behind. A no-op when the full response is already cached.
    pub fn remember_degree(&mut self, v: NodeId, degree: usize) {
        if !self.arena.contains(v) {
            self.degree_hints.insert(v, degree);
        }
    }

    /// Cached neighbor list of `v`, borrowed from the arena (free).
    #[inline]
    pub fn neighbors_of(&self, v: NodeId) -> Option<&[NodeId]> {
        self.arena.neighbors_of(v)
    }

    /// Cached profile of `v`, borrowed from the arena (free).
    #[inline]
    pub fn profile_of(&self, v: NodeId) -> Option<&UserProfile> {
        self.arena.profile_of(v)
    }

    /// Cached response for `v`, if any, materialized from the arena
    /// (free of queries, but allocates; prefer
    /// [`CachedClient::neighbors_of`] on hot paths).
    pub fn cached(&self, v: NodeId) -> Option<QueryResponse> {
        Some(QueryResponse {
            user: v,
            neighbors: self.arena.neighbors_of(v)?.to_vec(),
            profile: self.arena.profile_of(v)?.clone(),
        })
    }

    /// Read access to the flat neighborhood store.
    pub fn arena(&self) -> &NeighborArena {
        &self.arena
    }

    /// Exports everything learned so far (see [`CacheSnapshot`]).
    /// Responses are built straight from the arena spans — no
    /// intermediate response clone.
    pub fn export_snapshot(&self) -> CacheSnapshot {
        let responses: Vec<QueryResponse> = self
            .arena
            .nodes()
            .map(|v| QueryResponse {
                user: v,
                neighbors: self.arena.neighbors_of(v).expect("enumerated node").to_vec(),
                profile: self.arena.profile_of(v).expect("enumerated node").clone(),
            })
            .collect();
        let mut degree_hints: Vec<(NodeId, usize)> =
            self.degree_hints.iter().map(|(&v, &d)| (v, d)).collect();
        degree_hints.sort_unstable_by_key(|&(v, _)| v);
        CacheSnapshot {
            responses,
            degree_hints,
            unique_queries: self.unique_queries,
            total_lookups: self.total_lookups,
            transient_retries: self.transient_retries,
        }
    }

    /// Imports the cache *contents* (responses and degree hints) of a
    /// snapshot. Counters and the paid log are untouched: a warm-started
    /// client begins with the knowledge paid for by an earlier run but its
    /// own bill at zero. Use [`CachedClient::restore_counters`] to also
    /// resume the bill. A response the client already holds verbatim is
    /// skipped, so the arena only rewrites entries whose content differs.
    pub fn import_entries(&mut self, snapshot: &CacheSnapshot) {
        for r in &snapshot.responses {
            let held = self.arena.neighbors_of(r.user) == Some(r.neighbors.as_slice())
                && self.arena.profile_of(r.user) == Some(&r.profile);
            if !held {
                self.arena.insert(r.user, &r.neighbors, r.profile.clone());
            }
        }
        for &(v, d) in &snapshot.degree_hints {
            self.remember_degree(v, d);
        }
    }

    /// Restores the cost counters of a snapshot — the session-resume path,
    /// where the client must account as if the original run had never
    /// stopped.
    pub fn restore_counters(&mut self, snapshot: &CacheSnapshot) {
        self.unique_queries = snapshot.unique_queries;
        self.total_lookups = snapshot.total_lookups;
        self.transient_retries = snapshot.transient_retries;
    }

    /// Access to the wrapped interface.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Total user count hint from the provider.
    pub fn num_users_hint(&self) -> Option<usize> {
        self.inner.num_users_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{OsnService, OsnServiceConfig};
    use mto_graph::generators::paper_barbell;

    fn client() -> CachedClient<OsnService> {
        CachedClient::new(OsnService::with_defaults(&paper_barbell()))
    }

    #[test]
    fn duplicate_queries_are_free() {
        let mut c = client();
        c.query(NodeId(0)).unwrap();
        c.query(NodeId(0)).unwrap();
        c.query(NodeId(0)).unwrap();
        assert_eq!(c.unique_queries(), 1);
        assert_eq!(c.total_lookups(), 3);
        assert_eq!(c.inner().requests_served(), 1, "backend saw one request");
    }

    #[test]
    fn distinct_queries_each_cost_one() {
        let mut c = client();
        for v in [0u32, 1, 2, 1, 0, 3] {
            c.query(NodeId(v)).unwrap();
        }
        assert_eq!(c.unique_queries(), 4);
        assert_eq!(c.num_cached(), 4);
    }

    #[test]
    fn known_degree_only_after_query() {
        let mut c = client();
        assert_eq!(c.known_degree(NodeId(5)), None);
        c.query(NodeId(5)).unwrap();
        assert_eq!(c.known_degree(NodeId(5)), Some(10));
        assert!(c.is_cached(NodeId(5)));
        assert!(!c.is_cached(NodeId(6)));
    }

    #[test]
    fn cached_returns_without_cost() {
        let mut c = client();
        assert!(c.cached(NodeId(1)).is_none());
        c.query(NodeId(1)).unwrap();
        let before = c.unique_queries();
        let r = c.cached(NodeId(1)).expect("cached");
        assert_eq!(r.user, NodeId(1));
        assert_eq!(c.unique_queries(), before);
    }

    #[test]
    fn borrowing_accessors_match_the_owned_response() {
        let mut c = client();
        let owned = c.query(NodeId(3)).unwrap();
        assert_eq!(c.neighbors_of(NodeId(3)).unwrap(), owned.neighbors.as_slice());
        assert_eq!(c.profile_of(NodeId(3)).unwrap(), &owned.profile);
        assert_eq!(c.query_degree(NodeId(3)).unwrap(), owned.degree());
        assert_eq!(c.query_neighbors(NodeId(3)).unwrap(), owned.neighbors.as_slice());
        assert_eq!(c.neighbors_of(NodeId(4)), None, "unqueried node stays unknown");
    }

    #[test]
    fn query_shapes_share_one_lookup_accounting() {
        let mut c = client();
        c.query(NodeId(0)).unwrap();
        c.query_neighbors(NodeId(0)).unwrap();
        c.query_degree(NodeId(0)).unwrap();
        c.query_degree(NodeId(1)).unwrap();
        assert_eq!(c.unique_queries(), 2);
        assert_eq!(c.total_lookups(), 4, "each accessor shape bills one lookup");
    }

    #[test]
    fn unknown_user_error_propagates() {
        let mut c = client();
        assert!(c.query(NodeId(404)).is_err());
        // Failed queries are not cached.
        assert!(!c.is_cached(NodeId(404)));
    }

    #[test]
    fn transient_failures_are_retried() {
        let g = paper_barbell();
        let svc = OsnService::new(
            &g,
            OsnServiceConfig { transient_failure_rate: 0.4, ..Default::default() },
        );
        let mut c = CachedClient::new(svc);
        // All queries must eventually succeed despite 40% failure rate.
        for v in 0..22u32 {
            c.query(NodeId(v)).unwrap();
        }
        assert_eq!(c.unique_queries(), 22);
        assert!(c.transient_retries() > 0, "expected some retries at 40% failure rate");
    }

    #[test]
    fn paid_log_records_payments_in_order_and_never_imports() {
        let mut c = client();
        for v in [7u32, 2, 7, 9, 2] {
            c.query(NodeId(v)).unwrap();
        }
        assert_eq!(c.paid_log(), &[NodeId(7), NodeId(2), NodeId(9)], "cache hits are not paid");
        assert_eq!(c.paid_log().len() as u64, c.unique_queries());

        let mut warm = client();
        warm.import_entries(&c.export_snapshot());
        warm.query(NodeId(2)).unwrap();
        assert!(warm.paid_log().is_empty(), "imported nodes are history, not payments");
        warm.query(NodeId(3)).unwrap();
        assert_eq!(warm.paid_log(), &[NodeId(3)]);
    }

    #[test]
    fn importing_held_responses_rewrites_nothing() {
        let mut a = client();
        for v in [0u32, 5, 11] {
            a.query(NodeId(v)).unwrap();
        }
        let mut snap = a.export_snapshot();
        a.import_entries(&snap);
        assert_eq!(a.arena().rewrites_in_place(), 0, "verbatim entries are skipped");
        // A response with different content is overwritten.
        snap.responses[1].neighbors.truncate(1);
        a.import_entries(&snap);
        assert_eq!(a.arena().rewrites_in_place(), 1);
        assert_eq!(a.neighbors_of(NodeId(5)).unwrap(), snap.responses[1].neighbors.as_slice());
    }

    #[test]
    fn cached_nodes_enumerates_history() {
        let mut c = client();
        c.query(NodeId(7)).unwrap();
        c.query(NodeId(2)).unwrap();
        let nodes: Vec<u32> = c.export_snapshot().responses.iter().map(|r| r.user.0).collect();
        assert_eq!(nodes, vec![2, 7], "span table yields ascending ids");
    }

    #[test]
    fn out_of_order_inserts_grow_the_slot_map() {
        let mut c = client();
        c.query(NodeId(21)).unwrap();
        c.query(NodeId(0)).unwrap();
        assert_eq!(c.num_cached(), 2);
        assert!(c.is_cached(NodeId(21)) && c.is_cached(NodeId(0)));
        assert!(!c.is_cached(NodeId(10)), "hole in the span table stays empty");
    }

    #[test]
    fn arena_reinsert_in_place_and_append() {
        let mut arena = NeighborArena::new();
        let p = UserProfile { age: 30, self_description_len: 0, num_posts: 0, is_public: true };
        arena.insert(NodeId(0), &[NodeId(1), NodeId(2), NodeId(3)], p.clone());
        let base = arena.data_len();
        // Shorter replacement reuses the span: no arena growth.
        arena.insert(NodeId(0), &[NodeId(4)], p.clone());
        assert_eq!(arena.neighbors_of(NodeId(0)).unwrap(), &[NodeId(4)]);
        assert_eq!(arena.data_len(), base, "in-place overwrite does not grow the arena");
        assert_eq!(arena.len(), 1);
        // Longer replacement appends; the old span is leaked but visible.
        arena.insert(NodeId(0), &[NodeId(5); 7], p);
        assert_eq!(arena.neighbors_of(NodeId(0)).unwrap().len(), 7);
        assert_eq!(arena.data_len(), base + 7);
        assert_eq!(arena.len(), 1, "still one cached node");
    }

    #[test]
    fn degree_hints_answer_without_a_cached_neighborhood() {
        let mut c = client();
        c.remember_degree(NodeId(4), 9);
        assert_eq!(c.known_degree(NodeId(4)), Some(9));
        assert!(!c.is_cached(NodeId(4)), "a hint is not a cached response");
        // The real response supersedes the hint.
        c.query(NodeId(4)).unwrap();
        assert_eq!(c.known_degree(NodeId(4)), Some(10));
        // Hints never overwrite a cached response.
        c.remember_degree(NodeId(4), 1);
        assert_eq!(c.known_degree(NodeId(4)), Some(10));
    }

    #[test]
    fn snapshot_round_trips_through_a_fresh_client() {
        let mut a = client();
        for v in [3u32, 0, 9, 15] {
            a.query(NodeId(v)).unwrap();
        }
        a.remember_degree(NodeId(20), 11);
        let snap = a.export_snapshot();
        assert_eq!(snap.responses.len(), 4);
        assert_eq!(snap.unique_queries, 4);

        let mut b = client();
        b.import_entries(&snap);
        b.restore_counters(&snap);
        assert_eq!(b.export_snapshot(), snap, "import → export is the identity");
    }

    #[test]
    fn warm_started_client_pays_nothing_for_imported_nodes() {
        let mut a = client();
        for v in 0..22u32 {
            a.query(NodeId(v)).unwrap();
        }
        let snap = a.export_snapshot();

        let mut warm = client();
        warm.import_entries(&snap);
        assert_eq!(warm.unique_queries(), 0, "warm start begins with a zero bill");
        warm.query(NodeId(11)).unwrap();
        assert_eq!(warm.unique_queries(), 0, "imported node is a cache hit");
        assert_eq!(warm.inner().requests_served(), 0, "backend never touched");
    }
}
