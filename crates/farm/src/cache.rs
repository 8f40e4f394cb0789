//! The content-addressed design cache: an LRU map from job fingerprints to
//! finished designs.
//!
//! Fleets of predictors re-design the same configurations constantly — the
//! same hot branch shows up across benchmark inputs, a history sweep
//! revisits a length, a search loop re-evaluates a candidate. Keying
//! finished [`Design`]s by the job's content fingerprint makes every
//! repeat free. Entries are bounded by an LRU policy and hit/miss/eviction
//! counts are kept for the farm's metrics.
//!
//! The map is a classic intrusive LRU: a slab of entries doubly linked in
//! recency order plus a fingerprint index, so `get` and `insert` are O(1).

use fsmgen::Design;
use fsmgen_exec::CompiledMachine;
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel for "no neighbour" in the intrusive list.
const NONE: usize = usize::MAX;

struct Entry {
    key: u64,
    design: Arc<Design>,
    /// The design's machine lowered to a dense transition table, done
    /// once at insert so every hit — including warm store restores —
    /// hands back a ready-to-run artifact. `None` only for
    /// machines beyond the table limit (not producible by the designer).
    compiled: Option<Arc<CompiledMachine>>,
    /// The producing job's independent verification digest (0 for entries
    /// inserted through the plain [`DesignCache::insert`]).
    verify: u64,
    /// `true` when the entry was restored from the durable store rather
    /// than being computed in this process. Warm entries are re-verified on
    /// lookup; fresh ones are trusted.
    warm: bool,
    prev: usize,
    next: usize,
}

/// Running cache accounting, cheap to copy into metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a design computed in this process.
    pub hits: u64,
    /// Lookups that found a design restored from the durable store (a
    /// warm entry; the name is kept for the metrics JSON).
    pub snapshot_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Designs inserted.
    pub insertions: u64,
    /// Designs evicted by the LRU bound.
    pub evictions: u64,
    /// Warm entries whose verification digest did not match at lookup.
    pub stale: u64,
    /// Designs lowered to compiled transition tables at insert time.
    pub compiled: u64,
}

impl CacheStats {
    /// Hits (in-memory and warm) over total lookups, or 0.0 before any
    /// lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits + self.snapshot_hits;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// What warm-starting from the durable store did: how many designs were
/// restored into the cache and how many stored records were rejected.
/// Rendered as the `snapshot` block of the farm metrics JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotLoadReport {
    /// Records decoded and inserted as warm entries.
    pub loaded: usize,
    /// Records skipped for corruption or decode failure.
    pub skipped: usize,
}

/// A bounded LRU cache of finished designs keyed by content fingerprint.
///
/// # Examples
///
/// ```
/// use fsmgen::Designer;
/// use fsmgen_farm::DesignCache;
/// use fsmgen_traces::BitTrace;
/// use std::sync::Arc;
///
/// let trace: BitTrace = "0000 1000 1011 1101 1110 1111".parse().unwrap();
/// let design = Arc::new(Designer::new(2).design_from_trace(&trace).unwrap());
/// let mut cache = DesignCache::new(2);
/// cache.insert(42, design);
/// assert!(cache.get(42).is_some());
/// assert!(cache.get(7).is_none());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct DesignCache {
    capacity: usize,
    index: HashMap<u64, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    stats: CacheStats,
}

impl std::fmt::Debug for DesignCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignCache")
            .field("capacity", &self.capacity)
            .field("len", &self.index.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DesignCache {
    /// Creates a cache holding at most `capacity` designs. Capacity 0 is a
    /// valid always-miss cache (lookup accounting still runs).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DesignCache {
            capacity,
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The running hit/miss/eviction accounting.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a design by fingerprint, marking it most recently used.
    /// In-memory entries count as [`CacheStats::hits`]; warm
    /// (store-restored) entries count as [`CacheStats::snapshot_hits`]
    /// but are *not* re-verified — use [`DesignCache::get_verified`] when
    /// the caller knows the job's verification digest.
    pub fn get(&mut self, key: u64) -> Option<Arc<Design>> {
        match self.index.get(&key).copied() {
            Some(slot) => {
                if self.slab[slot].warm {
                    self.stats.snapshot_hits += 1;
                } else {
                    self.stats.hits += 1;
                }
                self.detach(slot);
                self.attach_front(slot);
                Some(Arc::clone(&self.slab[slot].design))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a design by fingerprint, re-verifying warm entries against
    /// the job's independent digest.
    ///
    /// A fresh (computed-in-process) entry is returned unconditionally — a
    /// fingerprint collision within one process would already have served
    /// the wrong design through [`DesignCache::get`], and the 64-bit space
    /// makes that a non-concern for in-memory lifetimes. A *warm* entry is
    /// the suspect case: its fingerprint was computed by another process
    /// over different inputs, so a matching fingerprint with a mismatched
    /// verification digest marks the entry stale — it is evicted, counted
    /// in [`CacheStats::stale`], and the lookup reports a miss.
    pub fn get_verified(&mut self, key: u64, verify: u64) -> Option<Arc<Design>> {
        if let Some(&slot) = self.index.get(&key) {
            if self.slab[slot].warm && self.slab[slot].verify != verify {
                self.remove_slot(slot);
                self.stats.stale += 1;
                self.stats.misses += 1;
                return None;
            }
        }
        self.get(key)
    }

    /// Inserts (or refreshes) a design under `key`, evicting the least
    /// recently used entry when over capacity.
    pub fn insert(&mut self, key: u64, design: Arc<Design>) {
        self.insert_entry(key, 0, design, false);
    }

    /// [`DesignCache::insert`] carrying the job's verification digest, so
    /// the entry can be re-verified after a store round-trip.
    pub fn insert_verified(&mut self, key: u64, verify: u64, design: Arc<Design>) {
        self.insert_entry(key, verify, design, false);
    }

    /// Inserts a store-restored design: served as
    /// [`CacheStats::snapshot_hits`] and re-verified by
    /// [`DesignCache::get_verified`].
    pub fn insert_warm(&mut self, key: u64, verify: u64, design: Arc<Design>) {
        self.insert_entry(key, verify, design, true);
    }

    fn insert_entry(&mut self, key: u64, verify: u64, design: Arc<Design>, warm: bool) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.index.get(&key) {
            // Same fingerprint, same design contents: refresh recency only.
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        if self.index.len() >= self.capacity {
            self.evict_lru();
        }
        // Compile once here — hits (cold, warm, and every repeat) then
        // hand back the ready table alongside the design.
        let compiled = CompiledMachine::compile(design.fsm()).ok().map(Arc::new);
        if compiled.is_some() {
            self.stats.compiled += 1;
        }
        let entry = Entry {
            key,
            design,
            compiled,
            verify,
            warm,
            prev: NONE,
            next: NONE,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.attach_front(slot);
        self.stats.insertions += 1;
    }

    /// The compiled transition table for `key`, if cached. A peek: no
    /// recency or hit/miss accounting — callers pair it with the
    /// [`DesignCache::get`]/[`DesignCache::get_verified`] lookup that
    /// already counted.
    #[must_use]
    pub fn compiled_of(&self, key: u64) -> Option<Arc<CompiledMachine>> {
        self.index
            .get(&key)
            .and_then(|&slot| self.slab[slot].compiled.clone())
    }

    fn evict_lru(&mut self) {
        let slot = self.tail;
        if slot == NONE {
            return;
        }
        self.remove_slot(slot);
        self.stats.evictions += 1;
    }

    /// Unlinks `slot` from the list and index and returns it to the free
    /// pool (no stats side effects).
    fn remove_slot(&mut self, slot: usize) {
        self.detach(slot);
        let key = self.slab[slot].key;
        self.index.remove(&key);
        self.free.push(slot);
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NONE {
            self.slab[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NONE {
            self.slab[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NONE;
        self.slab[slot].next = NONE;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slab[slot].prev = NONE;
        self.slab[slot].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmgen::Designer;
    use fsmgen_traces::BitTrace;

    fn design() -> Arc<Design> {
        let t: BitTrace = "0101".repeat(10).parse().unwrap();
        Arc::new(Designer::new(2).design_from_trace(&t).unwrap())
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = DesignCache::new(2);
        let d = design();
        cache.insert(1, Arc::clone(&d));
        cache.insert(2, Arc::clone(&d));
        assert!(cache.get(1).is_some()); // 1 is now most recent
        cache.insert(3, d); // evicts 2
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut cache = DesignCache::new(0);
        cache.insert(1, design());
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn reinsert_refreshes_recency_without_duplicating() {
        let mut cache = DesignCache::new(2);
        let d = design();
        cache.insert(1, Arc::clone(&d));
        cache.insert(2, Arc::clone(&d));
        cache.insert(1, Arc::clone(&d)); // refresh, not duplicate
        assert_eq!(cache.len(), 2);
        cache.insert(3, d); // evicts 2, the least recent
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
    }

    #[test]
    fn stats_accounting() {
        let mut cache = DesignCache::new(4);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(1, design());
        let _ = cache.get(1);
        let _ = cache.get(9);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warm_hits_are_counted_separately() {
        let mut cache = DesignCache::new(4);
        cache.insert_verified(1, 100, design());
        cache.insert_warm(2, 200, design());
        assert!(cache.get_verified(1, 100).is_some());
        assert!(cache.get_verified(2, 200).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.snapshot_hits, s.misses, s.stale), (1, 1, 0, 0));
    }

    #[test]
    fn warm_verify_mismatch_is_stale_and_evicted() {
        let mut cache = DesignCache::new(4);
        cache.insert_warm(1, 200, design());
        // A fingerprint collision across processes: same key, different
        // verification digest. Must not serve the wrong design.
        assert!(cache.get_verified(1, 999).is_none());
        let s = cache.stats();
        assert_eq!((s.snapshot_hits, s.misses, s.stale), (0, 1, 1));
        assert_eq!(cache.len(), 0);
        // The slot is reusable afterwards.
        cache.insert_verified(1, 999, design());
        assert!(cache.get_verified(1, 999).is_some());
    }

    #[test]
    fn fresh_entries_skip_verification() {
        let mut cache = DesignCache::new(4);
        cache.insert_verified(1, 100, design());
        // In-process entries are trusted even on digest mismatch.
        assert!(cache.get_verified(1, 999).is_some());
        assert_eq!(cache.stats().stale, 0);
    }

    #[test]
    fn designs_compile_at_insert() {
        let mut cache = DesignCache::new(4);
        let d = design();
        cache.insert(1, Arc::clone(&d));
        let compiled = cache.compiled_of(1).unwrap();
        assert_eq!(compiled.num_states() as usize, d.fsm().num_states());
        assert_eq!(cache.stats().compiled, 1);
        // Warm (store-restored) inserts compile too: a warm hit hands
        // back a ready table, not a machine still to lower.
        cache.insert_warm(2, 9, Arc::clone(&d));
        assert!(cache.compiled_of(2).is_some());
        assert_eq!(cache.stats().compiled, 2);
        assert!(cache.compiled_of(42).is_none());
        // The artifact runs the same machine.
        let dfa = compiled.decompile();
        assert_eq!(&dfa, d.fsm());
    }

    #[test]
    fn churn_over_many_keys_stays_bounded() {
        let mut cache = DesignCache::new(8);
        let d = design();
        for k in 0..100u64 {
            cache.insert(k, Arc::clone(&d));
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().evictions, 92);
        // The survivors are exactly the 8 most recent keys.
        for k in 92..100 {
            assert!(cache.get(k).is_some(), "key {k} should survive");
        }
        for k in 0..92 {
            assert!(cache.get(k).is_none(), "key {k} should be evicted");
        }
    }
}
