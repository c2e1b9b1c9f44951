//! The wall-clock telemetry plane: real time, kept strictly apart from
//! virtual time.
//!
//! Everything else in this crate is stamped with *virtual* microseconds
//! and is part of the bit-identical determinism contract. This module is
//! the deliberate exception: it measures what the hardware actually
//! spends — wall nanoseconds per phase, allocation counts and bytes
//! (opt-in, see below), barrier-wait time — and records it into a
//! [`WallClockRegistry`] that is **excluded from digests, traces, and
//! `metric` lines by construction**. Nothing in the deterministic plane
//! ever reads a figure from this one; the only coupling allowed is an
//! `if enabled` branch around a [`WallClockScope`], which cannot perturb
//! results because scopes only *observe* time around work that runs
//! identically either way.
//!
//! Threading model: there are no global registries and no locks on the
//! hot path. Each fleet shard thread accumulates into its own registry
//! or raw nanosecond cell; owners merge serially at the same barriers
//! where deterministic state merges. Merging is a
//! plain per-key sum — associative and commutative — so the *schema* of
//! a wall dump is stable even though its figures, being real time, never
//! are.
//!
//! Allocation accounting needs a global allocator hook, so it is gated
//! behind the `wall-alloc` feature: when enabled, a binary may install
//! [`CountingAllocator`] as its `#[global_allocator]` and every
//! [`WallClockScope`] picks up alloc/byte deltas for free. Without the
//! feature the snapshot helpers return zeros and scopes record only
//! time. Counters are process-wide relaxed atomics (not thread-local:
//! the allocator is reentrant from any thread, including ones this crate
//! never sees), so per-phase attribution of allocations is approximate
//! under concurrency — fine for the "where does memory churn come from"
//! question the plane answers, and exactly as approximate as any
//! sampling profiler.

use std::collections::BTreeMap;
use std::time::Instant;

/// Totals for one wall-clock phase: how many times it ran, wall
/// nanoseconds, and (with `wall-alloc`) allocation count/bytes observed
/// while it ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallStats {
    /// Times the phase was recorded.
    pub count: u64,
    /// Total wall nanoseconds (saturating).
    pub nanos: u64,
    /// Heap allocations observed during the phase (0 without
    /// `wall-alloc`).
    pub allocs: u64,
    /// Heap bytes requested during the phase (0 without `wall-alloc`).
    pub bytes: u64,
}

impl WallStats {
    /// A single observation of `nanos` wall nanoseconds (count 1, no
    /// allocation figures) — for callers that time a section by hand
    /// instead of through a [`WallClockScope`].
    pub fn from_nanos(nanos: u64) -> WallStats {
        WallStats { count: 1, nanos, allocs: 0, bytes: 0 }
    }

    /// Folds `other` into `self` (saturating sums — wall figures must
    /// never wrap into nonsense).
    pub fn absorb(&mut self, other: WallStats) {
        self.count = self.count.saturating_add(other.count);
        self.nanos = self.nanos.saturating_add(other.nanos);
        self.allocs = self.allocs.saturating_add(other.allocs);
        self.bytes = self.bytes.saturating_add(other.bytes);
    }
}

/// Where a wall observation belongs: a phase name plus optional epoch
/// and shard attribution. Ordered so registry iteration —
/// and therefore every rendered dump — is deterministic in *schema*
/// (phase, then epoch, then shard) even though the figures are not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WallKey {
    /// Phase name (`"shard-service"`, `"barrier-wait"`, …). `&'static
    /// str` for the same reason metric names are: the vocabulary is
    /// closed at compile time and keys never allocate.
    pub phase: &'static str,
    /// Fleet epoch the observation belongs to, when attributable.
    pub epoch: Option<u64>,
    /// Shard index, when attributable (the single-client scheduler's
    /// stepping loop reports as shard 0).
    pub shard: Option<u64>,
}

impl WallKey {
    /// A key with no epoch/shard attribution.
    pub fn phase(phase: &'static str) -> WallKey {
        WallKey { phase, epoch: None, shard: None }
    }

    /// Attributes the key to fleet epoch `e`.
    pub fn at_epoch(mut self, e: u64) -> WallKey {
        self.epoch = Some(e);
        self
    }

    /// Attributes the key to shard `s`.
    pub fn on_shard(mut self, s: u64) -> WallKey {
        self.shard = Some(s);
        self
    }
}

/// The wall-plane registry: per-key [`WallStats`] sums.
///
/// Deliberately *not* a [`crate::MetricsRegistry`]: keeping the type
/// distinct means no code path can accidentally fold wall figures into
/// the deterministic metric plane — the compiler enforces the two-plane
/// separation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WallClockRegistry {
    entries: BTreeMap<WallKey, WallStats>,
}

impl WallClockRegistry {
    /// An empty registry.
    pub fn new() -> WallClockRegistry {
        WallClockRegistry::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Folds `stats` into the entry for `key`.
    pub fn record(&mut self, key: WallKey, stats: WallStats) {
        self.entries.entry(key).or_default().absorb(stats);
    }

    /// Folds `other` into `self` key-wise (associative and commutative,
    /// like every other barrier merge in the stack).
    pub fn merge(&mut self, other: &WallClockRegistry) {
        for (&key, &stats) in &other.entries {
            self.record(key, stats);
        }
    }

    /// The entry for `key`, if recorded.
    pub fn get(&self, key: &WallKey) -> Option<&WallStats> {
        self.entries.get(key)
    }

    /// Iterates entries in key order (phase, epoch, shard).
    pub fn iter(&self) -> impl Iterator<Item = (&WallKey, &WallStats)> {
        self.entries.iter()
    }

    /// Grand total across every key.
    pub fn total(&self) -> WallStats {
        let mut total = WallStats::default();
        for &stats in self.entries.values() {
            total.absorb(stats);
        }
        total
    }
}

/// An open wall-clock measurement: captures `Instant::now()` and the
/// allocation counters at start; [`WallClockScope::stop`] turns the
/// deltas into a [`WallStats`] observation.
#[derive(Debug)]
pub struct WallClockScope {
    started: Instant,
    allocs0: u64,
    bytes0: u64,
}

impl WallClockScope {
    /// Starts timing now.
    pub fn start() -> WallClockScope {
        let (allocs0, bytes0) = alloc_snapshot();
        WallClockScope { started: Instant::now(), allocs0, bytes0 }
    }

    /// Stops timing and returns the observation (count 1).
    pub fn stop(self) -> WallStats {
        let nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (allocs1, bytes1) = alloc_snapshot();
        WallStats {
            count: 1,
            nanos,
            allocs: allocs1.saturating_sub(self.allocs0),
            bytes: bytes1.saturating_sub(self.bytes0),
        }
    }

    /// Stops timing and folds the observation into `registry` at `key`.
    pub fn stop_into(self, registry: &mut WallClockRegistry, key: WallKey) {
        registry.record(key, self.stop());
    }
}

/// Snapshot of the process-wide allocation counters: `(allocations,
/// bytes requested)`. Always `(0, 0)` unless the `wall-alloc` feature is
/// on *and* the binary installed [`CountingAllocator`] as its global
/// allocator.
pub fn alloc_snapshot() -> (u64, u64) {
    #[cfg(feature = "wall-alloc")]
    {
        use std::sync::atomic::Ordering;
        (counting::ALLOCS.load(Ordering::Relaxed), counting::BYTES.load(Ordering::Relaxed))
    }
    #[cfg(not(feature = "wall-alloc"))]
    {
        (0, 0)
    }
}

// The one unsafe block in the workspace: implementing `GlobalAlloc`
// requires an `unsafe impl` by language design. The implementation adds
// two relaxed atomic increments and otherwise forwards verbatim to
// `std::alloc::System`, so every safety obligation (layout validity,
// pointer provenance) is discharged by the system allocator itself.
#[cfg(feature = "wall-alloc")]
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub(super) static BYTES: AtomicU64 = AtomicU64::new(0);

    /// A counting wrapper around [`System`]: every allocation bumps the
    /// process-wide counters [`super::alloc_snapshot`] reads. Install it
    /// in a binary with:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: mto_obs::wallclock::CountingAllocator =
    ///     mto_obs::wallclock::CountingAllocator;
    /// ```
    pub struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

#[cfg(feature = "wall-alloc")]
pub use counting::CountingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_by_phase_then_epoch_then_shard() {
        let mut r = WallClockRegistry::new();
        r.record(WallKey::phase("b").at_epoch(1), WallStats::from_nanos(1));
        r.record(WallKey::phase("a").at_epoch(2).on_shard(3), WallStats::from_nanos(2));
        r.record(WallKey::phase("a"), WallStats::from_nanos(3));
        r.record(WallKey::phase("a").at_epoch(2).on_shard(1), WallStats::from_nanos(4));
        let keys: Vec<&WallKey> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                &WallKey::phase("a"),
                &WallKey::phase("a").at_epoch(2).on_shard(1),
                &WallKey::phase("a").at_epoch(2).on_shard(3),
                &WallKey::phase("b").at_epoch(1),
            ]
        );
    }

    #[test]
    fn record_sums_and_merge_is_order_invariant() {
        let key = WallKey::phase("service").at_epoch(0).on_shard(0);
        let mut a = WallClockRegistry::new();
        a.record(key, WallStats { count: 1, nanos: 10, allocs: 2, bytes: 64 });
        a.record(key, WallStats { count: 1, nanos: 5, allocs: 1, bytes: 32 });
        assert_eq!(a.get(&key), Some(&WallStats { count: 2, nanos: 15, allocs: 3, bytes: 96 }));

        let mut b = WallClockRegistry::new();
        b.record(key, WallStats::from_nanos(7));
        b.record(WallKey::phase("gossip-merge"), WallStats::from_nanos(3));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.total().nanos, 25);
        assert_eq!(ab.total().count, 4);
    }

    #[test]
    fn saturating_absorb_never_wraps() {
        let mut s = WallStats { count: u64::MAX, nanos: u64::MAX, allocs: 0, bytes: 0 };
        s.absorb(WallStats { count: 1, nanos: 1, allocs: 1, bytes: 1 });
        assert_eq!(s.count, u64::MAX);
        assert_eq!(s.nanos, u64::MAX);
        assert_eq!(s.allocs, 1);
    }

    #[test]
    fn scope_records_one_observation_with_real_elapsed_time() {
        let mut r = WallClockRegistry::new();
        let scope = WallClockScope::start();
        // Do *something* measurable; even a few loop iterations register
        // at nanosecond granularity on any monotonic clock.
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_add(i);
        }
        std::hint::black_box(acc);
        scope.stop_into(&mut r, WallKey::phase("test"));
        let stats = r.get(&WallKey::phase("test")).expect("recorded");
        assert_eq!(stats.count, 1);
        assert!(stats.nanos > 0, "a monotonic clock must advance: {stats:?}");
    }

    #[test]
    fn alloc_snapshot_is_zero_without_the_feature_and_monotone_with_it() {
        let (a0, b0) = alloc_snapshot();
        let v: Vec<u8> = vec![0; 4096];
        std::hint::black_box(&v);
        let (a1, b1) = alloc_snapshot();
        // Without `wall-alloc` both snapshots are (0, 0); with it (and a
        // binary that installed the allocator) the counters only grow.
        // This library test never installs the allocator, so both cases
        // reduce to monotonicity.
        assert!(a1 >= a0 && b1 >= b0);
        if cfg!(not(feature = "wall-alloc")) {
            assert_eq!((a0, b0, a1, b1), (0, 0, 0, 0));
        }
    }
}
