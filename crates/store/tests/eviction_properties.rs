//! Eviction through `MemoryStore`'s ordered index, against the full-store
//! scan it replaced: collect every resident entry's parent, then take the
//! policy's minimum over the entries nobody names, or over all entries when
//! every one is named.
//!
//! Random operation sequences under LRU, LFU and FIFO drive the store and
//! the reference side by side: inserts of new and of resident ids, with
//! parents that are resident, dangling, not yet inserted, the entry itself
//! or the previous insert (chains of any depth); touches of resident and
//! missing ids; removals; `clear`; runs of new ids that fit without
//! evicting, as a snapshot restore inserts them; and `set_capacity` below
//! and above the current length. Every insert must return the reference's
//! victim, and after every step the resident ids, the clock and the
//! eviction count must agree.

use std::collections::{HashMap, HashSet};

use mc_store::{CacheEntry, EvictionPolicy, MemoryStore};
use mc_tensor::Vector;
use proptest::prelude::*;

const POLICIES: [EvictionPolicy; 3] = [
    EvictionPolicy::Lru,
    EvictionPolicy::Lfu,
    EvictionPolicy::Fifo,
];

/// The victim choice `EvictionPolicy` made by iterating over candidates.
fn select_victim<'a>(
    policy: EvictionPolicy,
    entries: impl Iterator<Item = &'a CacheEntry>,
) -> Option<u64> {
    match policy {
        EvictionPolicy::Lru => entries.min_by_key(|e| (e.last_access, e.id)).map(|e| e.id),
        EvictionPolicy::Lfu => entries
            .min_by_key(|e| (e.hits, e.last_access, e.id))
            .map(|e| e.id),
        EvictionPolicy::Fifo => entries.min_by_key(|e| (e.inserted_at, e.id)).map(|e| e.id),
    }
}

/// The store as it was before the eviction index: a map, a clock, and two
/// scans of the whole map per eviction.
struct Reference {
    entries: HashMap<u64, CacheEntry>,
    capacity: usize,
    policy: EvictionPolicy,
    clock: u64,
    evictions: u64,
}

impl Reference {
    fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        Self {
            entries: HashMap::new(),
            capacity,
            policy,
            clock: 0,
            evictions: 0,
        }
    }

    fn stamp(&mut self, entry: &mut CacheEntry) {
        self.clock += 1;
        entry.inserted_at = self.clock;
        entry.last_access = self.clock;
    }

    fn insert(&mut self, mut entry: CacheEntry) -> Option<u64> {
        self.stamp(&mut entry);
        let mut evicted = None;
        if !self.entries.contains_key(&entry.id) && self.entries.len() >= self.capacity {
            let referenced: HashSet<u64> = self.entries.values().filter_map(|e| e.parent).collect();
            let unreferenced = self
                .entries
                .values()
                .filter(|e| !referenced.contains(&e.id));
            let victim = select_victim(self.policy, unreferenced)
                .or_else(|| select_victim(self.policy, self.entries.values()));
            if let Some(id) = victim {
                self.entries.remove(&id);
                self.evictions += 1;
                evicted = Some(id);
            }
        }
        self.entries.insert(entry.id, entry);
        evicted
    }

    fn touch(&mut self, id: u64) -> Option<CacheEntry> {
        self.clock += 1;
        let entry = self.entries.get_mut(&id)?;
        entry.touch(self.clock);
        Some(entry.clone())
    }

    fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Entry `id`, with a parent drawn from `r`: none, a resident id, any id
/// used so far (often evicted or removed: dangling), the chain tip `last`,
/// the entry itself, or an id not inserted yet.
fn entry(id: u64, r: u64, resident: &[u64], last: Option<u64>, fresh: u64) -> CacheEntry {
    let parent = match r % 7 {
        0 | 1 => None,
        2 => resident
            .get((r >> 8) as usize % resident.len().max(1))
            .copied(),
        3 => Some((r >> 8) % (fresh + 1)),
        4 | 5 => last,
        _ => Some(id + (r >> 8) % 3),
    };
    CacheEntry::new(id, format!("q{id}"), "r", Vector::zeros(1), parent, 0)
}

/// Drives a store and the reference through `ops`, each `(kind, a, b)`
/// decoded into one operation, and asserts they agree throughout.
fn check(policy: EvictionPolicy, capacity: usize, ops: &[(u8, u64, u64)]) {
    let mut store = MemoryStore::new(capacity, policy).unwrap();
    let mut reference = Reference::new(capacity, policy);
    // The next never-used id, and the id inserted last (a chain's tip).
    let mut fresh = 0u64;
    let mut last: Option<u64> = None;
    for (step, &(kind, a, b)) in ops.iter().enumerate() {
        let ids = reference.ids();
        let resident = |r: u64| (!ids.is_empty()).then(|| ids[r as usize % ids.len()]);
        match kind {
            0..=44 => {
                let id = fresh;
                fresh += 1;
                let e = entry(id, b, &ids, last, fresh);
                last = Some(id);
                assert_eq!(
                    store.insert(e.clone()),
                    reference.insert(e),
                    "{policy} step {step}: insert {id}"
                );
            }
            45..=54 => {
                if let Some(id) = resident(a) {
                    let e = entry(id, b, &ids, last, fresh);
                    assert_eq!(
                        store.insert(e.clone()),
                        reference.insert(e),
                        "{policy} step {step}: re-insert {id}"
                    );
                }
            }
            55..=74 => {
                let id = resident(a).unwrap_or(fresh);
                assert_eq!(store.get_mut_touch(id).cloned(), reference.touch(id));
            }
            75..=77 => {
                let missing = fresh + 1 + a % 4;
                assert_eq!(store.get_mut_touch(missing), None);
                assert_eq!(reference.touch(missing), None);
            }
            78..=82 => {
                let id = if b % 4 == 0 {
                    fresh + 1
                } else {
                    resident(a).unwrap_or(fresh)
                };
                assert_eq!(store.remove(id).ok(), reference.entries.remove(&id));
            }
            83 => {
                store.clear();
                reference.entries.clear();
            }
            84..=87 => {
                // A snapshot restore's shape: a run of new ids that fits.
                let room = store.capacity().saturating_sub(store.len());
                for k in 0..a as usize % (room + 1) {
                    let id = fresh;
                    fresh += 1;
                    let e = entry(id, b >> (k % 32), &ids, last, fresh);
                    last = Some(id);
                    assert_eq!(store.insert(e.clone()), None, "{policy} step {step}");
                    assert_eq!(reference.insert(e), None, "{policy} step {step}");
                }
            }
            88..=93 => {
                // Below the current length: each later insert evicts one.
                let len = store.len();
                let capacity = if b % 2 == 0 {
                    len / 2
                } else {
                    len.saturating_sub(1)
                };
                store.set_capacity(capacity);
                reference.capacity = capacity.max(1);
            }
            _ => {
                let capacity = store.len() + 1 + a as usize % 8;
                store.set_capacity(capacity);
                reference.capacity = capacity;
            }
        }
        assert_eq!(store.ids(), reference.ids(), "{policy} step {step}");
        assert_eq!(store.now(), reference.clock, "{policy} step {step}");
        assert_eq!(
            store.evictions(),
            reference.evictions,
            "{policy} step {step}"
        );
        assert_eq!(store.capacity(), reference.capacity);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every insert evicts the reference's victim; the stores never diverge.
    #[test]
    fn eviction_matches_the_full_scan_reference(
        capacity in 1usize..24,
        ops in prop::collection::vec((0u8..100, 0u64..1 << 40, 0u64..1 << 40), 1..400),
    ) {
        for policy in POLICIES {
            check(policy, capacity, &ops);
        }
    }
}

/// A long sequence at a larger capacity, for turnover far beyond the
/// proptest cases' length.
#[test]
fn long_sequences_match_the_full_scan_reference() {
    let mut state = 0x5EED_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let ops: Vec<(u8, u64, u64)> = (0..12_000)
        .map(|_| {
            // Mostly inserts and touches; capacity changes and clears rare.
            let kind = match next() % 1000 {
                k @ 0..=989 => (k % 83) as u8,
                k => 83 + (k % 17) as u8,
            };
            (kind, next() >> 24, next() >> 24)
        })
        .collect();
    for policy in POLICIES {
        check(policy, 150, &ops);
    }
}
