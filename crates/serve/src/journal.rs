//! Crash-safe append-only journaling for the crawl history.
//!
//! [`crate::history::HistoryStore`]'s snapshot codec seals a whole file
//! under one trailing checksum — perfect integrity, but a process that
//! dies mid-save loses *everything* since the last save. The
//! [`HistoryJournal`] is the incremental complement: knowledge is
//! **appended as it arrives**, one self-sealed record per line, so a
//! crash costs at most the torn tail of the final record. Opening a
//! journal replays it; a damaged tail decodes to a *clean recovery*
//! (the valid prefix survives, the torn bytes are dropped), while damage
//! *before* intact records — which no crash can produce — is rejected as
//! corruption. [`HistoryJournal::compact`] rewrites the accumulated
//! store into the existing checksummed snapshot format, and
//! [`HistoryJournal::open`] accepts either format (a snapshot is
//! converted back to journal form so appends can continue), closing the
//! journal → compact → journal cycle.
//!
//! ## On-disk format
//!
//! ```text
//! mto-journal v1
//! users 22 ~<fnv64>
//! node 3 34 120 7 1 1,2,5 ~<fnv64>
//! degree 9 14 ~<fnv64>
//! crawl 5 12 0 ~<fnv64>
//! ```
//!
//! Records reuse the snapshot vocabulary (`users`, `node`, `degree`,
//! `removed`, `added`). Cost accounting is **per crawl**: every
//! absorbing run appends one `crawl <unique> <lookups> <retries>` record
//! with the counters *that run* contributed, and replay *sums* the crawl
//! records — so several distinct crawls absorbing into one journal bill
//! correctly instead of collapsing max-wise (the pre-ledger undercount).
//! Legacy journals' `unique`/`lookups`/`retries` records still replay
//! last-write-wins as the pre-ledger base, and new crawl records add on
//! top of it. Each line carries a trailing ` ~<hex>` FNV-1a 64 seal over
//! the record text; a torn write fails its seal and marks the damaged
//! tail.

use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};

use mto_graph::NodeId;

use crate::error::{HistoryCodecError, Result, ServeError};
use crate::history::{
    crawl_record, degree_record, expect_header, fnv1a64, node_record, overlay_record,
    parse_crawl_record, split_keyword, CrawlCounters, HistoryAccumulator, HistoryStore,
    FORMAT_VERSION, HISTORY_MAGIC,
};

/// Magic of append-only journal files.
pub const JOURNAL_MAGIC: &str = "mto-journal";

/// What [`HistoryJournal::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Records successfully replayed from the valid prefix.
    pub replayed_records: u64,
    /// Whether a damaged tail (a torn final write) was dropped. The file
    /// is truncated back to the valid prefix before any new append.
    pub recovered: bool,
    /// Bytes of damaged tail dropped (0 when `recovered` is false).
    pub dropped_bytes: usize,
}

/// An open append-only history journal: the replayed [`HistoryStore`]
/// plus an append handle positioned at the end of the valid prefix.
#[derive(Debug)]
pub struct HistoryJournal {
    path: PathBuf,
    file: std::fs::File,
    store: HistoryStore,
    seen_nodes: HashSet<u32>,
    seen_hints: HashSet<u32>,
    seen_removed: HashSet<(NodeId, NodeId)>,
    seen_added: HashSet<(NodeId, NodeId)>,
    /// The highest counters this *instance* has absorbed so far — the
    /// baseline its next `crawl` delta record is computed against. A
    /// fresh instance starts at zero, so each journal session (one
    /// absorbing run) bills as its own crawl; repeated absorbs of one
    /// growing client within a session append only the growth.
    absorbed: CrawlCounters,
    records: u64,
}

/// Seals one record line: `<record> ~<fnv64 hex>`.
fn seal_record(record: &str) -> String {
    format!("{record} ~{:016x}\n", fnv1a64(record.as_bytes()))
}

/// Splits and verifies a sealed line, returning the record text.
fn unseal(line: &str) -> Option<&str> {
    let (record, hex) = line.rsplit_once(" ~")?;
    let stored = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a64(record.as_bytes()) == stored).then_some(record)
}

impl HistoryJournal {
    /// Creates a fresh journal at `path` (truncating anything there).
    pub fn create(path: &Path) -> Result<Self> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(format!("{JOURNAL_MAGIC} v{FORMAT_VERSION}\n").as_bytes())?;
        file.sync_all()?;
        Ok(HistoryJournal {
            path: path.to_path_buf(),
            file,
            store: HistoryStore::default(),
            seen_nodes: HashSet::new(),
            seen_hints: HashSet::new(),
            seen_removed: HashSet::new(),
            seen_added: HashSet::new(),
            absorbed: CrawlCounters::default(),
            records: 0,
        })
    }

    /// Opens `path`, replaying whatever is there:
    ///
    /// * a **journal** file replays record by record — a torn tail is
    ///   dropped and reported as a recovery, damage *before* intact
    ///   records is corruption and rejected;
    /// * a **snapshot** file ([`HistoryStore`] format, e.g. the output of
    ///   [`HistoryJournal::compact`]) is decoded under its checksum and
    ///   rewritten in journal form so appends can continue.
    pub fn open(path: &Path) -> Result<(Self, JournalRecovery)> {
        let bytes = std::fs::read(path)?;
        // Torn writes can only truncate ASCII records, but be defensive:
        // non-UTF-8 bytes become U+FFFD, fail their seal, and land in the
        // damaged-tail path like any other torn data.
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let header = text.lines().next().unwrap_or("");
        if header.starts_with(HISTORY_MAGIC) {
            let store = HistoryStore::decode(&text)?;
            let records = count_records(&store);
            // Convert snapshot → journal *atomically* (build the journal
            // form beside the snapshot, then rename over it): a crash
            // mid-conversion must leave either the old snapshot or the
            // new journal on disk, never a truncated file. The rename
            // keeps the open handle valid (same inode, new name).
            let tmp = path.with_extension("journal-tmp");
            let mut journal = Self::create(&tmp)?;
            journal.absorb_preserving_ledger(&store)?;
            journal.sync()?;
            std::fs::rename(&tmp, path)?;
            journal.path = path.to_path_buf();
            // The converted journal starts a *new* crawl session: its
            // next absorb must bill from zero, not from the snapshot's
            // historical totals.
            journal.absorbed = CrawlCounters::default();
            return Ok((
                journal,
                JournalRecovery { replayed_records: records, ..Default::default() },
            ));
        }

        // Only newline-terminated lines are *complete* writes; trailing
        // bytes without a final newline are a torn tail even when they
        // happen to seal (the record's own newline never landed).
        let body_end = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let mut lines = text[..body_end].lines().enumerate();
        expect_header(lines.next(), JOURNAL_MAGIC)?;
        let mut acc = HistoryAccumulator::default();
        let mut replayed = 0u64;
        let mut valid_bytes = header.len() + 1; // header + its newline
        let mut lineno = 1;
        let mut damaged_at: Option<(usize, usize)> = None; // (lineno, byte offset)
        for (idx, line) in lines {
            lineno = idx + 1;
            let parsed = unseal(line).and_then(|record| {
                let (keyword, rest) = split_keyword(record, lineno).ok()?;
                if keyword == "crawl" {
                    // Journal semantics: every crawl record is one run's
                    // *increment*, so the totals are the ledger's sum
                    // (plus any legacy last-write-wins base records).
                    let c = parse_crawl_record(rest, lineno).ok()?;
                    acc.store.crawls.push(c);
                    acc.store.cache.unique_queries += c.unique_queries;
                    acc.store.cache.total_lookups += c.total_lookups;
                    acc.store.cache.transient_retries += c.transient_retries;
                    return Some(());
                }
                acc.consume(keyword, rest, lineno).ok().filter(|&known| known).map(|_| ())
            });
            if parsed.is_none() {
                damaged_at = Some((lineno, valid_bytes));
                break;
            }
            replayed += 1;
            valid_bytes += line.len() + 1;
        }
        if damaged_at.is_none() && body_end < text.len() {
            damaged_at = Some((lineno + 1, body_end));
        }

        let mut recovery =
            JournalRecovery { replayed_records: replayed, recovered: false, dropped_bytes: 0 };
        if let Some((lineno, offset)) = damaged_at {
            // A crash tears only the *final* write. If any later line
            // still verifies its seal, the damage is mid-file corruption,
            // not a torn tail — refuse to silently drop good records.
            if text[offset..].lines().skip(1).any(|l| unseal(l).is_some()) {
                return Err(ServeError::Codec(HistoryCodecError::BadRecord {
                    line: lineno,
                    message: "damaged record with intact records after it (corruption, \
                              not a torn tail)"
                        .into(),
                }));
            }
            recovery.recovered = true;
            recovery.dropped_bytes = bytes.len() - offset;
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }

        let store = acc.finish();
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        let mut journal = HistoryJournal {
            path: path.to_path_buf(),
            file,
            seen_nodes: store.cache.responses.iter().map(|r| r.user.0).collect(),
            seen_hints: store.cache.degree_hints.iter().map(|&(v, _)| v.0).collect(),
            seen_removed: store.removed.iter().copied().collect(),
            seen_added: store.added.iter().copied().collect(),
            // A reopened journal is a *new* crawl: its first absorb
            // starts billing from zero, summing onto the replayed ledger.
            absorbed: CrawlCounters::default(),
            records: replayed,
            store,
        };
        // Canonical in-memory order, matching what absorb() maintains —
        // a reopened journal's store must compare equal to the store the
        // writing process held (records land on disk in arrival order;
        // `finish` already sorted the responses and hints).
        journal.store.removed.sort_unstable();
        journal.store.added.sort_unstable();
        Ok((journal, recovery))
    }

    /// The journal's on-disk location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The replayed-plus-appended store (content records and the last
    /// appended counters).
    pub fn store(&self) -> &HistoryStore {
        &self.store
    }

    /// Records in the journal (replayed + appended this session).
    pub fn records(&self) -> u64 {
        self.records
    }

    fn append_record(&mut self, record: &str) -> Result<()> {
        self.file.write_all(seal_record(record).as_bytes())?;
        self.records += 1;
        Ok(())
    }

    /// Appends everything `other` knows that the journal does not:
    /// responses, degree hints, overlay edges, the user count — plus one
    /// `crawl` ledger record carrying the counters this absorbing run
    /// contributed, so distinct crawls **sum** into the journal's bill.
    /// Repeated absorbs of one *growing* crawl (counters field-wise ≥
    /// the previous absorb's) append only their growth; a store whose
    /// counters regressed cannot be the same crawl and bills in full.
    /// (A distinct crawl whose counters happen to dominate the previous
    /// absorb's is indistinguishable from growth — reopen the journal,
    /// or use one instance per crawl as the `mto_serve` binary does, to
    /// bill it exactly.) Returns how many records were appended.
    /// Refuses stores from a different network.
    pub fn absorb(&mut self, other: &HistoryStore) -> Result<u64> {
        let before = self.records;
        self.absorb_content(other)?;
        let counters = CrawlCounters::of(&other.cache);
        let grown = counters.max(&self.absorbed) == counters;
        let delta = if grown {
            // The same crawl, further along: bill the growth.
            counters.saturating_sub(&self.absorbed)
        } else {
            // Counters regressed somewhere: a distinct crawl, billed in
            // full (the fix for the max-wise undercount).
            counters
        };
        if !delta.is_zero() {
            self.append_crawl(delta)?;
        }
        self.absorbed = counters;
        self.sort_store();
        Ok(self.records - before)
    }

    /// The snapshot → journal conversion path: absorbs `other`'s content
    /// and re-appends its **existing per-crawl ledger** entry by entry
    /// (plus one entry for any pre-ledger remainder), so compaction does
    /// not collapse the breakdown.
    fn absorb_preserving_ledger(&mut self, other: &HistoryStore) -> Result<u64> {
        let before = self.records;
        self.absorb_content(other)?;
        let mut carried = CrawlCounters::default();
        for &c in &other.crawls {
            self.append_crawl(c)?;
            carried.unique_queries += c.unique_queries;
            carried.total_lookups += c.total_lookups;
            carried.transient_retries += c.transient_retries;
        }
        // Counters beyond the ledger sum (a plain snapshot with no
        // ledger, or a legacy base) become one more crawl entry.
        let remainder = CrawlCounters::of(&other.cache).saturating_sub(&carried);
        if !remainder.is_zero() {
            self.append_crawl(remainder)?;
        }
        self.absorbed = self.absorbed.max(&CrawlCounters::of(&other.cache));
        self.sort_store();
        Ok(self.records - before)
    }

    /// Appends the content records (everything except the cost ledger).
    fn absorb_content(&mut self, other: &HistoryStore) -> Result<()> {
        if let (Some(mine), Some(theirs)) = (self.store.num_users, other.num_users) {
            if mine != theirs {
                return Err(ServeError::SnapshotMismatch(format!(
                    "journal was crawled from a {mine}-user network, \
                     the absorbed store from a {theirs}-user network"
                )));
            }
        }
        if self.store.num_users.is_none() {
            if let Some(n) = other.num_users {
                self.append_record(&format!("users {n}"))?;
                self.store.num_users = Some(n);
            }
        }
        for r in &other.cache.responses {
            if self.seen_nodes.insert(r.user.0) {
                self.append_record(&node_record(r))?;
                self.store.cache.responses.push(r.clone());
            }
        }
        for &(v, d) in &other.cache.degree_hints {
            if !self.seen_nodes.contains(&v.0) && self.seen_hints.insert(v.0) {
                self.append_record(&degree_record(v, d))?;
                self.store.cache.degree_hints.push((v, d));
            }
        }
        for &(u, v) in &other.removed {
            if self.seen_removed.insert((u, v)) {
                self.append_record(&overlay_record("removed", u, v))?;
                self.store.removed.push((u, v));
            }
        }
        for &(u, v) in &other.added {
            if self.seen_added.insert((u, v)) {
                self.append_record(&overlay_record("added", u, v))?;
                self.store.added.push((u, v));
            }
        }
        Ok(())
    }

    /// Appends one per-crawl ledger record and folds it into the totals.
    fn append_crawl(&mut self, c: CrawlCounters) -> Result<()> {
        self.append_record(&crawl_record(&c))?;
        self.store.crawls.push(c);
        self.store.cache.unique_queries += c.unique_queries;
        self.store.cache.total_lookups += c.total_lookups;
        self.store.cache.transient_retries += c.transient_retries;
        Ok(())
    }

    /// Canonical in-memory order (crawl ledger entries keep arrival
    /// order — they are a log, not a set).
    fn sort_store(&mut self) {
        self.store.cache.responses.sort_unstable_by_key(|r| r.user);
        self.store.cache.degree_hints.sort_unstable_by_key(|&(v, _)| v);
        self.store.removed.sort_unstable();
        self.store.added.sort_unstable();
    }

    /// Flushes appended records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Rewrites the journal as a checksummed [`HistoryStore`] snapshot
    /// (atomically: temp file + rename) and returns the store. Reopening
    /// the compacted file with [`HistoryJournal::open`] converts it back
    /// to journal form, so the journal → compact → journal cycle is
    /// closed.
    pub fn compact(mut self) -> Result<HistoryStore> {
        self.sync()?;
        let tmp = self.path.with_extension("compact-tmp");
        std::fs::write(&tmp, self.store.encode())?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(self.store)
    }
}

fn count_records(store: &HistoryStore) -> u64 {
    (store.cache.responses.len()
        + store.cache.degree_hints.len()
        + store.removed.len()
        + store.added.len()
        + store.crawls.len()
        + usize::from(store.num_users.is_some())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_core::rewire::OverlayDelta;
    use mto_graph::generators::paper_barbell;
    use mto_osn::{CachedClient, OsnService};

    fn temp(name: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("mto-journal-{name}-{}-{n}.journal", std::process::id()))
    }

    fn crawl_store(nodes: &[u32]) -> HistoryStore {
        let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for &v in nodes {
            client.query(NodeId(v)).unwrap();
        }
        client.remember_degree(NodeId(20), 11);
        let mut delta = OverlayDelta::new();
        delta.remove_edge(NodeId(0), NodeId(5));
        HistoryStore::from_parts(&client, Some(&delta))
    }

    #[test]
    fn append_then_open_replays_the_same_store() {
        let path = temp("roundtrip");
        let store = crawl_store(&[0, 1, 5, 11]);
        let mut j = HistoryJournal::create(&path).unwrap();
        let appended = j.absorb(&store).unwrap();
        assert!(appended >= 6, "4 nodes + hint + overlay + users + counters");
        j.sync().unwrap();

        let (reopened, recovery) = HistoryJournal::open(&path).unwrap();
        assert!(!recovery.recovered);
        assert_eq!(recovery.replayed_records, j.records());
        assert_eq!(reopened.store(), j.store());
        assert_eq!(reopened.store(), &{
            let mut expect = store.clone();
            expect.cache.responses.sort_unstable_by_key(|r| r.user);
            // One absorbing run = one per-crawl ledger entry.
            expect.crawls = vec![CrawlCounters::of(&store.cache)];
            expect
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absorbing_the_same_store_twice_appends_nothing() {
        let path = temp("dedup");
        let store = crawl_store(&[0, 3]);
        let mut j = HistoryJournal::create(&path).unwrap();
        j.absorb(&store).unwrap();
        let records = j.records();
        assert_eq!(j.absorb(&store).unwrap(), 0, "idempotent absorb");
        assert_eq!(j.records(), records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_absorbs_reopen_to_the_same_store() {
        // Overlay edges (and responses) arrive on disk in append order;
        // reopening must canonicalize to exactly the in-memory order the
        // writing process held, or round-trip equality silently breaks.
        let path = temp("unordered");
        let mut j = HistoryJournal::create(&path).unwrap();
        let mut late = HistoryStore::default();
        late.removed.push((NodeId(5), NodeId(9)));
        late.added.push((NodeId(7), NodeId(8)));
        j.absorb(&late).unwrap();
        let mut early = HistoryStore::default();
        early.removed.push((NodeId(0), NodeId(2)));
        early.added.push((NodeId(1), NodeId(3)));
        j.absorb(&early).unwrap();
        j.absorb(&crawl_store(&[11, 0])).unwrap();
        j.sync().unwrap();
        let in_memory = j.store().clone();
        drop(j);
        let (reopened, recovery) = HistoryJournal::open(&path).unwrap();
        assert!(!recovery.recovered);
        assert_eq!(reopened.store(), &in_memory, "reopen must match the pre-crash store");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_absorbs_keep_counters_un_double_counted() {
        let path = temp("counters");
        let mut client = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        let mut j = HistoryJournal::create(&path).unwrap();
        client.query(NodeId(0)).unwrap();
        j.absorb(&HistoryStore::from_client(&client)).unwrap();
        client.query(NodeId(1)).unwrap();
        client.query(NodeId(2)).unwrap();
        j.absorb(&HistoryStore::from_client(&client)).unwrap();
        assert_eq!(
            j.store().cache.unique_queries,
            3,
            "one growing crawl bills only its growth, never double"
        );
        let (reopened, _) = HistoryJournal::open(&path).unwrap();
        assert_eq!(reopened.store().cache.unique_queries, 3, "ledger entries sum to the bill");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn distinct_crawls_sum_within_one_instance_too() {
        // Two distinct stores absorbed through ONE journal instance: the
        // second store's smaller counters prove it is not the first
        // crawl grown further, so it must bill in full (3 + 2 = 5), not
        // delta-against-a-max (which would bill 0).
        let path = temp("oneinstance");
        let mut j = HistoryJournal::create(&path).unwrap();
        let mut a = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for v in [0u32, 1, 2] {
            a.query(NodeId(v)).unwrap();
        }
        let mut b = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for v in [11u32, 12] {
            b.query(NodeId(v)).unwrap();
        }
        j.absorb(&HistoryStore::from_client(&a)).unwrap();
        j.absorb(&HistoryStore::from_client(&b)).unwrap();
        assert_eq!(j.store().cache.unique_queries, 5, "3 + 2 within one instance");
        // And crawl B growing afterwards bills only its growth.
        b.query(NodeId(13)).unwrap();
        j.absorb(&HistoryStore::from_client(&b)).unwrap();
        assert_eq!(j.store().cache.unique_queries, 6, "B's growth is 1, not re-billed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn distinct_crawls_sum_into_the_ledger_instead_of_collapsing_max_wise() {
        // The pre-ledger undercount (ROADMAP open item): two *distinct*
        // runs paying 3 and 2 unique queries used to collapse to
        // max(3, 2) = 3. With per-crawl records they must sum to 5.
        let path = temp("percrawl");
        let mut j = HistoryJournal::create(&path).unwrap();
        let mut first = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for v in [0u32, 1, 2] {
            first.query(NodeId(v)).unwrap();
        }
        j.absorb(&HistoryStore::from_client(&first)).unwrap();
        j.sync().unwrap();
        drop(j);

        // A second run in a fresh process: its client was warm-started,
        // so its final store carries only its own (smaller) bill.
        let (mut j2, _) = HistoryJournal::open(&path).unwrap();
        let mut second = CachedClient::new(OsnService::with_defaults(&paper_barbell()));
        for v in [11u32, 12] {
            second.query(NodeId(v)).unwrap();
        }
        j2.absorb(&HistoryStore::from_client(&second)).unwrap();
        assert_eq!(j2.store().cache.unique_queries, 5, "3 + 2, not max(3, 2)");
        assert_eq!(
            j2.store().crawls.iter().map(|c| c.unique_queries).collect::<Vec<_>>(),
            vec![3, 2],
            "one ledger entry per absorbing run"
        );
        j2.sync().unwrap();
        drop(j2);
        let (reopened, _) = HistoryJournal::open(&path).unwrap();
        assert_eq!(reopened.store().cache.unique_queries, 5, "the sum survives replay");
        assert_eq!(reopened.store().crawls.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let path = temp("torn");
        let mut j = HistoryJournal::create(&path).unwrap();
        j.absorb(&crawl_store(&[0, 1, 5, 11, 16])).unwrap();
        j.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        let full_records = j.records();
        drop(j);
        // Tear the final record mid-line, as a crash during a write would.
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();

        let (recovered, recovery) = HistoryJournal::open(&path).unwrap();
        assert!(recovery.recovered, "torn tail must be reported");
        assert!(recovery.dropped_bytes > 0);
        assert_eq!(recovery.replayed_records, full_records - 1, "only the torn record is lost");
        // The file was truncated to the valid prefix: a second open is
        // clean, and appends continue from there.
        drop(recovered);
        let (again, recovery2) = HistoryJournal::open(&path).unwrap();
        assert!(!recovery2.recovered);
        assert_eq!(recovery2.replayed_records, full_records - 1);
        drop(again);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_rejected_not_recovered() {
        let path = temp("corrupt");
        let mut j = HistoryJournal::create(&path).unwrap();
        j.absorb(&crawl_store(&[0, 1, 5, 11])).unwrap();
        j.sync().unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the file, leaving valid sealed
        // records after it — no crash produces this shape.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = HistoryJournal::open(&path).unwrap_err();
        assert!(err.to_string().contains("corruption"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_seals_a_snapshot_and_open_converts_it_back() {
        let path = temp("compact");
        let store = crawl_store(&[0, 1, 2, 5]);
        let mut j = HistoryJournal::create(&path).unwrap();
        j.absorb(&store).unwrap();
        let expected = j.store().clone();
        let compacted = j.compact().unwrap();
        assert_eq!(compacted, expected);

        // The file is now a plain checksummed snapshot…
        let loaded = HistoryStore::load(&path).unwrap();
        assert_eq!(loaded, expected);
        // …and open() converts it back to an appendable journal.
        let (mut j2, recovery) = HistoryJournal::open(&path).unwrap();
        assert!(!recovery.recovered);
        assert_eq!(j2.store(), &expected);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("mto-journal v1\n"), "rewritten as a journal");
        // The counters and the per-crawl ledger survive the cycle…
        assert_eq!(j2.store().cache.unique_queries, expected.cache.unique_queries);
        assert_eq!(j2.store().crawls, expected.crawls, "compact preserves the ledger");
        // …and a further absorb bills as its own crawl on top.
        let before = j2.store().cache.unique_queries;
        j2.absorb(&crawl_store(&[7])).unwrap();
        assert!(j2.store().cache.responses.iter().any(|r| r.user == NodeId(7)));
        assert!(
            j2.store().cache.unique_queries > before,
            "a distinct run after compaction must add to the bill"
        );
        assert_eq!(j2.store().crawls.len(), expected.crawls.len() + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absorb_refuses_a_store_from_another_network() {
        let path = temp("crossnet");
        let mut j = HistoryJournal::create(&path).unwrap();
        j.absorb(&crawl_store(&[0])).unwrap();
        let mut client =
            CachedClient::new(OsnService::with_defaults(&mto_graph::generators::complete_graph(5)));
        client.query(NodeId(0)).unwrap();
        let err = j.absorb(&HistoryStore::from_client(&client)).unwrap_err();
        assert!(err.to_string().contains("22") && err.to_string().contains("5"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_files_are_rejected_cleanly() {
        for garbage in ["", "mto-nonsense v1\n", "mto-journal v99\nnode 1 ~00"] {
            let path = temp("garbage");
            std::fs::write(&path, garbage).unwrap();
            assert!(HistoryJournal::open(&path).is_err(), "accepted {garbage:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn journal_store_warm_starts_a_client() {
        let path = temp("warm");
        let mut j = HistoryJournal::create(&path).unwrap();
        j.absorb(&crawl_store(&[0, 1, 5])).unwrap();
        j.sync().unwrap();
        drop(j);
        let (j, _) = HistoryJournal::open(&path).unwrap();
        let warm = j.store().warm_start(OsnService::with_defaults(&paper_barbell())).unwrap();
        assert_eq!(warm.num_cached(), 3);
        assert_eq!(warm.unique_queries(), 0, "journal knowledge is free on warm start");
        std::fs::remove_file(&path).ok();
    }
}
