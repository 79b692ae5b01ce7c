//! A pinned eviction trace through a real `MeanCache`.
//!
//! A 64-entry LRU cache on the `tiny` encoder profile runs a fixed trace of
//! standalone and contextual inserts, re-inserts of resident ids and
//! exact-repeat lookups (a hit touches its entry) for several full
//! turnovers, then a stretch of restored entries that each name themselves
//! as parent, so that every resident entry is pinned when the victim is
//! chosen. Three things are pinned: the FNV-1a hash of the evicted-id
//! sequence, the final resident ids and the lookup decisions. They were
//! recorded with the full-store scan that chose the victim before the
//! ordered eviction index replaced it; any change to which entry an insert
//! evicts shows up here.
//!
//! The trace observes evictions from outside (the resident id set before
//! and after each operation), so it relies on no store internals.

use std::collections::BTreeSet;

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_store::{CacheEntry, EvictionPolicy};
use meancache::{CacheDecisionOutcome, MeanCache, MeanCacheConfig, SemanticCache};

const CAPACITY: usize = 64;
const TURNOVER_STEPS: u64 = 900;
const SELF_PINNED: u64 = 96;

/// FNV-1a over little-endian `u64`s.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Text `i` of the trace: four pseudo-words, so two texts share few
/// character n-grams and an exact repeat is the only reliable hit.
fn text(i: u64) -> String {
    const SYLLABLES: [&str; 16] = [
        "ka", "lo", "mi", "ne", "ru", "sa", "te", "vo", "zi", "pa", "qu", "be", "do", "fi", "gu",
        "ho",
    ];
    let h = splitmix(i);
    let word = |shift: u32| -> String {
        (0..3)
            .map(|s| SYLLABLES[((h >> (shift + 4 * s)) & 15) as usize])
            .collect()
    };
    format!("{} {} {} {}", word(0), word(12), word(24), word(36))
}

fn resident(cache: &MeanCache) -> BTreeSet<u64> {
    cache.entries().map(|e| e.id).collect()
}

/// Every resident entry is named as parent by some resident entry.
fn all_pinned(cache: &MeanCache) -> bool {
    let named: BTreeSet<u64> = cache.entries().filter_map(|e| e.parent).collect();
    cache.entries().all(|e| named.contains(&e.id))
}

/// The entry LRU picks next among those no resident entry names as parent.
fn lru_free(cache: &MeanCache) -> Option<u64> {
    let named: BTreeSet<u64> = cache.entries().filter_map(|e| e.parent).collect();
    cache
        .entries()
        .filter(|e| !named.contains(&e.id))
        .min_by_key(|e| (e.last_access, e.id))
        .map(|e| e.id)
}

#[derive(Default)]
struct Record {
    evicted: Vec<u64>,
    decisions: Vec<u64>,
    hits: usize,
    parent_evicted: usize,
    all_pinned_inserts: usize,
}

impl Record {
    /// Runs one mutating operation and records what it evicted.
    fn mutate(&mut self, cache: &mut MeanCache, op: impl FnOnce(&mut MeanCache) -> u64) -> u64 {
        let before = resident(cache);
        if cache.len() == CAPACITY && all_pinned(cache) {
            self.all_pinned_inserts += 1;
        }
        let id = op(cache);
        let gone: Vec<u64> = before.difference(&resident(cache)).copied().collect();
        assert!(gone.len() <= 1, "one insert evicts at most one entry");
        if let Some(&victim) = gone.first() {
            self.evicted.push(victim);
            if cache.entry(id).and_then(|e| e.parent) == Some(victim) {
                self.parent_evicted += 1;
            }
        }
        id
    }

    fn lookup(&mut self, cache: &mut MeanCache, query: &str, context: &[String]) {
        match cache.lookup(query, context) {
            CacheDecisionOutcome::Hit(hit) => {
                self.hits += 1;
                self.decisions.push(hit.entry_id);
            }
            CacheDecisionOutcome::Miss => self.decisions.push(u64::MAX),
        }
    }
}

#[test]
fn lru_eviction_trace_is_pinned() {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
    let mut config = MeanCacheConfig::default().with_threshold(0.8);
    config.capacity = CAPACITY;
    config.eviction = EvictionPolicy::Lru;
    let mut cache = MeanCache::new(encoder, config).unwrap();
    let mut record = Record::default();
    // Texts inserted so far, by trace position; `next_text` is the next new one.
    let mut inserted: Vec<u64> = Vec::new();
    let mut next_text = 0u64;
    let mut max_id = 0u64;

    for step in 0..TURNOVER_STEPS {
        let r = splitmix(step ^ 0x5EED);
        // One of the last 90 texts inserted, resident or not.
        let recent = |r: u64| inserted[inserted.len() - 1 - (r as usize % inserted.len().min(90))];
        let context = if step % 23 == 22 && cache.len() == CAPACITY {
            // A follow-up to the entry LRU evicts next: the insert links to
            // that parent, then evicts it.
            let parent = lru_free(&cache).expect("a full cache has a free entry");
            Some(vec![cache.entry(parent).unwrap().query.clone()])
        } else if inserted.is_empty() || r % 20 < 9 {
            Some(match r % 3 {
                0 if !inserted.is_empty() => vec![text(recent(r >> 8))],
                _ => Vec::new(),
            })
        } else {
            None
        };
        if let Some(context) = context {
            let t = next_text;
            next_text += 1;
            let id = record.mutate(&mut cache, |c| {
                c.insert(&text(t), &format!("answer {t}"), &context)
                    .unwrap()
            });
            max_id = max_id.max(id);
            inserted.push(t);
        } else if r % 20 == 9 {
            // Re-insert a resident id verbatim, as a log replay does.
            let ids: Vec<u64> = resident(&cache).into_iter().collect();
            let entry = cache
                .entry(ids[(r >> 8) as usize % ids.len()])
                .unwrap()
                .clone();
            record.mutate(&mut cache, |c| c.restore_entry(entry).unwrap());
        } else {
            // An exact repeat; some carry a previous turn that resolves to an
            // unrelated entry or to nothing.
            let context = match (r >> 40) % 4 {
                0 => vec![text(recent(r >> 20))],
                _ => Vec::new(),
            };
            record.lookup(&mut cache, &text(recent(r >> 8)), &context);
        }
    }

    // Restored entries that name themselves as parent: once they fill the
    // cache, every resident entry is pinned and the victim is the LRU
    // entry over all of them. Lookups under their own text as context hit
    // and touch them in between.
    for k in 0..SELF_PINNED {
        let id = max_id + 1 + k;
        let query = format!("{} pinned", text(10_000 + k));
        let embedding = cache.encoder().encode(&query);
        let entry = CacheEntry::new(id, query, format!("pinned {k}"), embedding, Some(id), 0);
        record.mutate(&mut cache, |c| c.restore_entry(entry).unwrap());
        if k % 3 == 2 {
            let back = max_id + 1 + k - (splitmix(k) % 40).min(k);
            if let Some(e) = cache.entry(back) {
                let q = e.query.clone();
                record.lookup(&mut cache, &q, std::slice::from_ref(&q));
            }
        }
    }
    // The first new standalone entry after the stretch evicts the LRU pinned
    // entry; later ones find it free and evict it in turn.
    for t in 20_000..20_004u64 {
        record.mutate(&mut cache, |c| {
            c.insert(&text(t), &format!("answer {t}"), &[]).unwrap()
        });
    }

    // The trace covers the edge cases it exists for.
    assert_eq!(record.evicted.len(), 453, "several full turnovers");
    assert_eq!(
        record.parent_evicted, 35,
        "inserts that evict the parent they link to"
    );
    assert_eq!(
        record.all_pinned_inserts, 33,
        "inserts while every entry is pinned"
    );
    assert_eq!((record.decisions.len(), record.hits), (461, 204));

    assert_eq!(fnv(record.evicted.iter().copied()), 0xfae2_981b_a0ae_d7f8);
    assert_eq!(fnv(record.decisions.iter().copied()), 0xd282_cfe7_aeec_3966);
    let final_ids: Vec<u64> = resident(&cache).into_iter().collect();
    let expected: Vec<u64> = [423, 425, 440, 448, 450]
        .into_iter()
        .chain(455..=512)
        .chain([516])
        .collect();
    assert_eq!(final_ids, expected);
}
