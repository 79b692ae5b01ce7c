//! Bounded in-memory cache store with LRU eviction.
//!
//! The eviction rule: an insert into a full store evicts the least recently
//! used entry — the smallest `(last_access, id)` — among those no resident
//! entry names as its parent (so context chains never dangle), or the least
//! recently used of all entries when every one is named. The new entry's own
//! parent link is counted only after the victim is chosen, so an insert may
//! evict the very parent it links to. A parent id that is not resident pins
//! nothing.
//!
//! The store keeps that order in an eviction index: two sorted sets of
//! recency keys, *free* and *pinned*, and a count of resident children per
//! parent id. The victim is the first free key, else the first pinned one,
//! and every insert, touch and removal moves O(1) keys, so each costs
//! O(log n). Only the whole-store accessors (`iter`, `ids`, the byte
//! counts) iterate over the entries.

use std::collections::{BTreeSet, HashMap};

use crate::{CacheEntry, Result, StoreError};

/// An entry's place in eviction order, `(last_access, id)`: the smallest
/// goes first, and two entries never tie.
type Key = (u64, u64);

fn key(entry: &CacheEntry) -> Key {
    (entry.last_access, entry.id)
}

/// The resident entries in eviction order, split by whether some resident
/// entry names them as parent. Every resident entry's key is in exactly one
/// of `free` and `pinned`: in `pinned` iff `children` counts it.
#[derive(Debug, Clone, Default)]
struct EvictionIndex {
    /// Keys of entries no resident entry names as parent.
    free: BTreeSet<Key>,
    /// Keys of entries at least one resident entry names as parent.
    pinned: BTreeSet<Key>,
    /// How many resident entries name each id as parent, resident or not
    /// (a parent that arrives later is pinned on arrival). No zero counts.
    children: HashMap<u64, u32>,
}

impl EvictionIndex {
    /// The set holding `id`'s key.
    fn set_of(&mut self, id: u64) -> &mut BTreeSet<Key> {
        if self.children.contains_key(&id) {
            &mut self.pinned
        } else {
            &mut self.free
        }
    }

    /// The entry to evict: the first free key, else the first pinned one.
    fn victim(&self) -> Option<u64> {
        self.free
            .first()
            .or_else(|| self.pinned.first())
            .map(|&(_, id)| id)
    }

    /// Indexes `entry`, which is about to join `entries` (it is not in it
    /// yet), and counts its parent link.
    fn admit(&mut self, entry: &CacheEntry, entries: &HashMap<u64, CacheEntry>) {
        if let Some(parent) = entry.parent {
            let count = self.children.entry(parent).or_insert(0);
            *count += 1;
            if *count == 1 {
                if let Some(p) = entries.get(&parent) {
                    self.free.remove(&key(p));
                    self.pinned.insert(key(p));
                }
            }
        }
        self.set_of(entry.id).insert(key(entry));
    }

    /// Drops `entry`, which has just left `entries`, and its parent link.
    fn forget(&mut self, entry: &CacheEntry, entries: &HashMap<u64, CacheEntry>) {
        self.set_of(entry.id).remove(&key(entry));
        let Some(parent) = entry.parent else {
            return;
        };
        let Some(count) = self.children.get_mut(&parent) else {
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.children.remove(&parent);
            if let Some(p) = entries.get(&parent) {
                self.pinned.remove(&key(p));
                self.free.insert(key(p));
            }
        }
    }

    /// Moves resident entry `id` from key `old` to key `new`.
    fn rekey(&mut self, id: u64, old: Key, new: Key) {
        if old != new {
            let set = self.set_of(id);
            set.remove(&old);
            set.insert(new);
        }
    }

    fn clear(&mut self) {
        self.free.clear();
        self.pinned.clear();
        self.children.clear();
    }
}

/// A bounded in-memory store of [`CacheEntry`] values.
///
/// The store owns a logical clock: every insert/touch advances it, and the
/// eviction order uses those logical timestamps rather than wall-clock time
/// so behaviour is deterministic in tests and experiments.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    entries: HashMap<u64, CacheEntry>,
    index: EvictionIndex,
    capacity: usize,
    clock: u64,
    next_id: u64,
    evictions: u64,
}

impl MemoryStore {
    /// Creates a store bounded to `capacity` entries.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for a zero capacity.
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(StoreError::InvalidConfig("capacity must be >= 1".into()));
        }
        Ok(Self {
            entries: HashMap::with_capacity(capacity.min(4096)),
            index: EvictionIndex::default(),
            capacity,
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

    /// Inserts an entry, evicting the least recently used one if the store is
    /// full. Returns the id of the evicted entry, if any. Re-inserting a
    /// resident id replaces that entry and evicts nothing.
    ///
    /// Entries that are referenced as a *parent* by other cached entries are
    /// protected from eviction so context chains never dangle; if every
    /// entry is protected the insert still succeeds by evicting the least
    /// recently used of all entries. The module docs state the rule exactly.
    pub fn insert(&mut self, mut entry: CacheEntry) -> Option<u64> {
        self.clock += 1;
        entry.inserted_at = self.clock;
        entry.last_access = self.clock;
        self.next_id = self.next_id.max(entry.id + 1);

        let evicted = if let Some(old) = self.entries.remove(&entry.id) {
            self.index.forget(&old, &self.entries);
            None
        } else if self.entries.len() >= self.capacity {
            self.evict()
        } else {
            None
        };
        self.index.admit(&entry, &self.entries);
        self.entries.insert(entry.id, entry);
        evicted
    }

    /// Evicts the index's victim, returning its id.
    fn evict(&mut self) -> Option<u64> {
        let id = self.index.victim()?;
        let victim = self.entries.remove(&id)?;
        self.index.forget(&victim, &self.entries);
        self.evictions += 1;
        Some(id)
    }

    /// Looks up an entry without recording an access.
    pub fn get(&self, id: u64) -> Option<&CacheEntry> {
        self.entries.get(&id)
    }

    /// Looks up an entry and records an access (for LRU bookkeeping).
    /// The clock advances even when no entry has that id.
    pub fn get_mut_touch(&mut self, id: u64) -> Option<&CacheEntry> {
        self.clock += 1;
        let entry = self.entries.get_mut(&id)?;
        let old = key(entry);
        entry.touch(self.clock);
        self.index.rekey(id, old, key(entry));
        Some(entry)
    }

    /// Removes an entry.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] when no entry has that id.
    pub fn remove(&mut self, id: u64) -> Result<CacheEntry> {
        let entry = self.entries.remove(&id).ok_or(StoreError::NotFound(id))?;
        self.index.forget(&entry, &self.entries);
        Ok(entry)
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
        self.index.clear();
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
        assert!(MemoryStore::new(0).is_err());
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut store = MemoryStore::new(10).unwrap();
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
        let mut store = MemoryStore::new(3).unwrap();
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
    fn parents_of_cached_entries_are_protected_from_eviction() {
        let mut store = MemoryStore::new(2).unwrap();
        store.insert(entry(1));
        let mut child = entry(2);
        child.parent = Some(1);
        store.insert(child);
        // LRU would normally evict 1 (least recent), but 1 is referenced by
        // 2, so the eviction must fall on 2 instead.
        let evicted = store.insert(entry(3));
        assert_eq!(evicted, Some(2));
        assert!(store.get(1).is_some());
    }

    #[test]
    fn an_insert_may_evict_the_parent_it_links_to() {
        let mut store = MemoryStore::new(2).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        // 3 links to 1, but its link counts only after the victim is chosen.
        let mut child = entry(3);
        child.parent = Some(1);
        assert_eq!(store.insert(child), Some(1));
        // 3 now names a parent that is gone; nothing names 3, and once 2 is
        // touched 3 is the least recently used.
        store.get_mut_touch(2);
        assert_eq!(store.insert(entry(4)), Some(3));
    }

    #[test]
    fn when_every_entry_is_pinned_the_policy_minimum_goes() {
        let mut store = MemoryStore::new(2).unwrap();
        // 1 and 2 name each other: both pinned, so LRU picks among all.
        let mut a = entry(1);
        a.parent = Some(2);
        let mut b = entry(2);
        b.parent = Some(1);
        store.insert(a);
        store.insert(b);
        store.get_mut_touch(1);
        assert_eq!(store.insert(entry(3)), Some(2));
        // 2's link went with it, so 1 is free and older than 3.
        assert_eq!(store.insert(entry(4)), Some(1));
    }

    #[test]
    fn reinserting_an_existing_id_does_not_evict() {
        let mut store = MemoryStore::new(2).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        let evicted = store.insert(entry(2));
        assert_eq!(evicted, None);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_and_clear() {
        let mut store = MemoryStore::new(4).unwrap();
        store.insert(entry(1));
        assert_eq!(store.remove(1).unwrap().id, 1);
        assert!(matches!(store.remove(1), Err(StoreError::NotFound(1))));
        store.insert(entry(2));
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn storage_accounting_sums_entries() {
        let mut store = MemoryStore::new(10).unwrap();
        store.insert(entry(1));
        store.insert(entry(2));
        let expected: usize = store.iter().map(|e| e.storage_bytes()).sum();
        assert_eq!(store.storage_bytes(), expected);
        assert_eq!(store.embedding_bytes(), 2 * 2 * 4);
    }

    #[test]
    fn next_id_is_monotone_and_respects_inserted_ids() {
        let mut store = MemoryStore::new(4).unwrap();
        let a = store.next_id();
        let b = store.next_id();
        assert!(b > a);
        store.insert(entry(100));
        assert!(store.next_id() > 100);
    }
}
