//! Eviction policies for the bounded local cache.
//!
//! Figure 1 of the paper shows an eviction-policy column (LRU) on every cache
//! row; this module provides LRU plus the LFU/FIFO alternatives the related
//! work (Section V) discusses, so the ablation benches can compare them.
//!
//! A policy is an order on entries, given once by [`EvictionPolicy::key`]:
//! the victim is the entry with the smallest key. [`crate::MemoryStore`]
//! keeps its entries sorted by that key, so choosing a victim never scans
//! the store.

use serde::{Deserialize, Serialize};

use crate::CacheEntry;

/// Which entry to evict when the cache is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used entry (the paper's default).
    #[default]
    Lru,
    /// Evict the least-frequently-used entry (ties broken by recency).
    Lfu,
    /// Evict the oldest entry regardless of use.
    Fifo,
}

impl EvictionPolicy {
    /// The entry's place in eviction order: the smallest key goes first.
    /// Every key ends in the entry's id, so two entries never tie.
    ///
    /// LRU orders by `(last_access, 0, id)`, LFU by `(hits, last_access,
    /// id)`, FIFO by `(inserted_at, 0, id)`.
    pub fn key(&self, entry: &CacheEntry) -> (u64, u64, u64) {
        match self {
            EvictionPolicy::Lru => (entry.last_access, 0, entry.id),
            EvictionPolicy::Lfu => (entry.hits, entry.last_access, entry.id),
            EvictionPolicy::Fifo => (entry.inserted_at, 0, entry.id),
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictionPolicy::Lru => write!(f, "LRU"),
            EvictionPolicy::Lfu => write!(f, "LFU"),
            EvictionPolicy::Fifo => write!(f, "FIFO"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_tensor::Vector;

    fn entry(id: u64, inserted: u64, last_access: u64, hits: u64) -> CacheEntry {
        let mut e = CacheEntry::new(id, format!("q{id}"), "r", Vector::zeros(2), None, inserted);
        e.last_access = last_access;
        e.hits = hits;
        e
    }

    /// Ids of `entries` in `policy`'s eviction order, first victim first.
    fn order(policy: EvictionPolicy, entries: &[CacheEntry]) -> Vec<u64> {
        let mut keys: Vec<_> = entries.iter().map(|e| policy.key(e)).collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, _, id)| id).collect()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let entries = [entry(1, 0, 100, 5), entry(2, 0, 50, 50), entry(3, 0, 75, 1)];
        assert_eq!(order(EvictionPolicy::Lru, &entries), [2, 3, 1]);
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let entries = [
            entry(1, 0, 100, 5),
            entry(2, 0, 50, 50),
            entry(3, 0, 75, 1),
            entry(4, 0, 60, 5),
        ];
        // Equal hits fall back to recency: 4 (access 60) before 1 (100).
        assert_eq!(order(EvictionPolicy::Lfu, &entries), [3, 4, 1, 2]);
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let entries = [
            entry(1, 30, 100, 5),
            entry(2, 10, 500, 50),
            entry(3, 20, 75, 1),
        ];
        assert_eq!(order(EvictionPolicy::Fifo, &entries), [2, 3, 1]);
    }

    #[test]
    fn ties_are_broken_deterministically_by_id() {
        let entries = [entry(9, 0, 10, 1), entry(4, 0, 10, 1), entry(7, 0, 10, 1)];
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::Fifo,
        ] {
            assert_eq!(order(policy, &entries), [4, 7, 9], "{policy}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(EvictionPolicy::Lru.to_string(), "LRU");
        assert_eq!(EvictionPolicy::Lfu.to_string(), "LFU");
        assert_eq!(EvictionPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Lru);
    }
}
