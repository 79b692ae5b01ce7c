//! Bounded in-memory cache store with pluggable eviction.

use std::collections::HashMap;

use crate::{CacheEntry, EvictionPolicy, Result, StoreError};

/// A bounded in-memory store of [`CacheEntry`] values.
///
/// The store owns a logical clock: every insert/touch advances it, and the
/// eviction policies use those logical timestamps rather than wall-clock time
/// so behaviour is deterministic in tests and experiments.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    entries: HashMap<u64, CacheEntry>,
    capacity: usize,
    policy: EvictionPolicy,
    clock: u64,
    next_id: u64,
    evictions: u64,
}

impl MemoryStore {
    /// Creates a store bounded to `capacity` entries.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for a zero capacity.
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Result<Self> {
        if capacity == 0 {
            return Err(StoreError::InvalidConfig("capacity must be >= 1".into()));
        }
        Ok(Self {
            entries: HashMap::with_capacity(capacity.min(4096)),
            capacity,
            policy,
            clock: 0,
            next_id: 0,
            evictions: 0,
        })
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Replaces the capacity bound (clamped to ≥ 1). Shrinking below the
    /// current length does not evict immediately — and not eventually
    /// either: each subsequent insert evicts exactly one victim before
    /// adding, so occupancy holds at its current level rather than
    /// draining down to the new bound. That is the behaviour the sharded
    /// serving layer's capacity borrowing wants (clamping a shard to its
    /// own occupancy makes the *next* insert evict locally without
    /// dropping a burst of entries); a caller that needs occupancy to
    /// actually shrink must remove entries itself.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }

    /// Bulk-inserts `entries` without per-entry eviction checks. The caller
    /// must guarantee the ids are unique and `len() + entries.len()` stays
    /// within capacity — under those preconditions this is behaviourally
    /// identical to calling [`MemoryStore::insert`] per entry (same clock
    /// advance, same timestamp rewrite, same `next_id` bump, and no insert
    /// could have evicted), just without the per-entry occupancy probe.
    /// Used by the snapshot restore path.
    pub fn restore_bulk(&mut self, entries: Vec<CacheEntry>) {
        self.entries.reserve(entries.len());
        for mut entry in entries {
            self.clock += 1;
            entry.inserted_at = self.clock;
            entry.last_access = self.clock;
            self.next_id = self.next_id.max(entry.id + 1);
            self.entries.insert(entry.id, entry);
        }
    }

    /// The eviction policy in use.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Allocates the next entry id (monotonically increasing, never reused).
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Inserts an entry, evicting according to the policy if the store is
    /// full. Returns the id of the evicted entry, if any.
    ///
    /// Entries that are referenced as a *parent* by other cached entries are
    /// protected from eviction so context chains never dangle; if every
    /// entry is protected the insert still succeeds by evicting the policy's
    /// choice among all entries.
    pub fn insert(&mut self, mut entry: CacheEntry) -> Option<u64> {
        self.clock += 1;
        entry.inserted_at = self.clock;
        entry.last_access = self.clock;
        self.next_id = self.next_id.max(entry.id + 1);

        let mut evicted = None;
        if !self.entries.contains_key(&entry.id) && self.entries.len() >= self.capacity {
            let referenced: std::collections::HashSet<u64> =
                self.entries.values().filter_map(|e| e.parent).collect();
            let unreferenced = self
                .entries
                .values()
                .filter(|e| !referenced.contains(&e.id));
            let victim = self
                .policy
                .select_victim(unreferenced)
                .or_else(|| self.policy.select_victim(self.entries.values()));
            if let Some(victim_id) = victim {
                self.entries.remove(&victim_id);
                self.evictions += 1;
                evicted = Some(victim_id);
            }
        }
        self.entries.insert(entry.id, entry);
        evicted
    }

    /// Looks up an entry without recording an access.
    pub fn get(&self, id: u64) -> Option<&CacheEntry> {
        self.entries.get(&id)
    }

    /// Looks up an entry and records an access (for LRU/LFU bookkeeping).
    pub fn get_mut_touch(&mut self, id: u64) -> Option<&CacheEntry> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.touch(clock);
                Some(&*e)
            }
            None => None,
        }
    }

    /// Removes an entry.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] when no entry has that id.
    pub fn remove(&mut self, id: u64) -> Result<CacheEntry> {
        self.entries.remove(&id).ok_or(StoreError::NotFound(id))
    }

    /// Iterates over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.values()
    }

    /// Ids currently stored, sorted ascending (deterministic order for
    /// serialisation and tests).
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Total approximate storage footprint of all entries in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.entries.values().map(|e| e.storage_bytes()).sum()
    }

    /// Total bytes used by embeddings alone.
    pub fn embedding_bytes(&self) -> usize {
        self.entries.values().map(|e| e.embedding_bytes()).sum()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_tensor::Vector;

    fn entry(id: u64) -> CacheEntry {
        CacheEntry::new(
            id,
            format!("query {id}"),
            format!("response {id}"),
            Vector::from_vec(vec![id as f32, 1.0]),
            None,
            0,
        )
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(MemoryStore::new(0, EvictionPolicy::Lru).is_err());
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut store = MemoryStore::new(10, EvictionPolicy::Lru).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).unwrap().query, "query 1");
        assert!(store.get(99).is_none());
        assert_eq!(store.ids(), vec![1, 2]);
        assert!(!store.is_empty());
    }

    #[test]
    fn capacity_is_never_exceeded_and_lru_entry_goes_first() {
        let mut store = MemoryStore::new(3, EvictionPolicy::Lru).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        store.insert(entry(3));
        // Access 1 and 3 so entry 2 becomes least recently used.
        store.get_mut_touch(1);
        store.get_mut_touch(3);
        let evicted = store.insert(entry(4));
        assert_eq!(evicted, Some(2));
        assert_eq!(store.len(), 3);
        assert!(store.get(2).is_none());
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn lfu_evicts_cold_entries() {
        let mut store = MemoryStore::new(2, EvictionPolicy::Lfu).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        for _ in 0..5 {
            store.get_mut_touch(1);
        }
        let evicted = store.insert(entry(3));
        assert_eq!(evicted, Some(2));
    }

    #[test]
    fn parents_of_cached_entries_are_protected_from_eviction() {
        let mut store = MemoryStore::new(2, EvictionPolicy::Fifo).unwrap();
        store.insert(entry(1));
        let mut child = entry(2);
        child.parent = Some(1);
        store.insert(child);
        // FIFO would normally evict 1 (oldest), but 1 is referenced by 2, so
        // the eviction must fall on 2 instead.
        let evicted = store.insert(entry(3));
        assert_eq!(evicted, Some(2));
        assert!(store.get(1).is_some());
    }

    #[test]
    fn reinserting_an_existing_id_does_not_evict() {
        let mut store = MemoryStore::new(2, EvictionPolicy::Lru).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        let evicted = store.insert(entry(2));
        assert_eq!(evicted, None);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_and_clear() {
        let mut store = MemoryStore::new(4, EvictionPolicy::Lru).unwrap();
        store.insert(entry(1));
        assert_eq!(store.remove(1).unwrap().id, 1);
        assert!(matches!(store.remove(1), Err(StoreError::NotFound(1))));
        store.insert(entry(2));
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn storage_accounting_sums_entries() {
        let mut store = MemoryStore::new(10, EvictionPolicy::Lru).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        let expected: usize = store.iter().map(|e| e.storage_bytes()).sum();
        assert_eq!(store.storage_bytes(), expected);
        assert_eq!(store.embedding_bytes(), 2 * 2 * 4);
    }

    #[test]
    fn next_id_is_monotone_and_respects_inserted_ids() {
        let mut store = MemoryStore::new(4, EvictionPolicy::Lru).unwrap();
        let a = store.next_id();
        let b = store.next_id();
        assert!(b > a);
        store.insert(entry(100));
        assert!(store.next_id() > 100);
    }
}
