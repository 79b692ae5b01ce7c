//! A pinned lookup → fill trace through a real `MeanCache`.
//!
//! The paper's loop looks a query up and, on a miss, stores the LLM's
//! response under the same query and conversation. This trace drives that
//! loop on a 64-entry LRU cache (`tiny` encoder profile) over both row
//! codecs of the flat index — `f32` and SQ8 — and pins what it decides:
//!
//! * every lookup decision (hit entry id or miss), including those of
//!   `lookup_batch` and of lookups run between a lookup and its fill;
//! * the parent link every fill stores;
//! * the evicted ids, in order, and the final resident ids;
//! * the five decision counters of `CacheStats`.
//!
//! The trace mixes exact repeats, near repeats and new texts under their own
//! conversation, a foreign one, an uncached turn or none; fills after hits
//! and misses; fills whose text or previous turn differ from the lookup's;
//! and, between a lookup and its fill, each `&mut` operation that can change
//! what the fill should compute: `remove_entry` (often of the very parent
//! the lookup resolved), `restore_entry`, `set_threshold`, `record_feedback`,
//! `set_capacity`, `set_embedding_memo`, another `lookup` and a
//! `lookup_batch`. The constants were recorded on a build in which every
//! fill encoded its query and resolved its parent by itself, so a fill
//! that reuses its lookup's work must land on exactly the same state.

use std::collections::BTreeSet;
use std::sync::Arc;

use mc_embedder::{EmbeddingMemo, ModelProfile, QueryEncoder};
use mc_store::IndexKind;
use meancache::{CacheDecisionOutcome, MeanCache, MeanCacheConfig, SemanticCache};

const CAPACITY: usize = 64;
const STEPS: u64 = 1_500;
const MISS: u64 = u64::MAX;

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
/// character n-grams and only an exact or near repeat scores above τ.
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

/// A near repeat of `query`: one short word appended.
fn near(query: &str, r: u64) -> String {
    const TAILS: [&str; 3] = ["now", "please", "again"];
    format!("{query} {}", TAILS[r as usize % TAILS.len()])
}

fn resident(cache: &MeanCache) -> BTreeSet<u64> {
    cache.entries().map(|e| e.id).collect()
}

fn decision(outcome: &CacheDecisionOutcome) -> u64 {
    outcome.hit().map_or(MISS, |hit| hit.entry_id)
}

/// What one run of the trace produced.
#[derive(Debug, Default, PartialEq, Eq)]
struct Pin {
    decisions: u64,
    parents: u64,
    evicted: u64,
    resident: u64,
    stats: u64,
    /// Edge cases the trace covers: hits, fills after a hit, fills linked
    /// to a parent, fills whose text or turn differ from their lookup's,
    /// interleaved operations, evictions.
    coverage: [u64; 6],
}

fn run(index: IndexKind) -> Pin {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
    let mut config = MeanCacheConfig::default()
        .with_threshold(0.8)
        .with_index(index);
    config.capacity = CAPACITY;
    let mut cache = MeanCache::new(encoder, config).unwrap();
    let memo = Arc::new(EmbeddingMemo::new(32, 0));

    // Every fill so far: (query, context), in trace order.
    let mut filled: Vec<(String, Vec<String>)> = Vec::new();
    let mut next_text = 0u64;
    let mut new_text = || {
        next_text += 1;
        text(next_text)
    };
    let mut decisions: Vec<u64> = Vec::new();
    let mut parents: Vec<u64> = Vec::new();
    let mut evicted: Vec<u64> = Vec::new();
    let (mut hits, mut fills_after_hit, mut linked, mut odd_fills, mut interleaved) =
        (0u64, 0u64, 0u64, 0u64, 0u64);

    for step in 0..STEPS {
        let r = splitmix(step ^ 0xF111);
        // One of the last 80 fills.
        let recent = |r: u64| &filled[filled.len() - 1 - (r as usize % filled.len().min(80))];
        let (query, context) = if filled.is_empty() {
            (new_text(), Vec::new())
        } else {
            let (base_query, base_context) = recent(r >> 8).clone();
            let query = match r % 8 {
                0..=2 => base_query.clone(),
                3 | 4 => near(&base_query, r >> 40),
                _ => new_text(),
            };
            let context = match (r >> 20) % 5 {
                // The conversation the repeated query was filled under.
                0 | 1 => base_context,
                // A cached query of some other conversation.
                2 => vec![recent(r >> 44).0.clone()],
                // A previous turn nobody cached.
                3 => vec![text(1_000_000 + (r >> 48))],
                _ => Vec::new(),
            };
            (query, context)
        };

        let outcome = cache.lookup(&query, &context);
        hits += u64::from(outcome.is_hit());
        decisions.push(decision(&outcome));

        // Between the lookup and its fill.
        if !filled.is_empty() && (r >> 28).is_multiple_of(3) {
            interleaved += 1;
            let ids: Vec<u64> = resident(&cache).into_iter().collect();
            let some_id = ids[(r >> 32) as usize % ids.len()];
            match (r >> 30) % 8 {
                0 => {
                    // Prefer an entry the previous turn names verbatim: the
                    // parent the lookup just resolved, as a rule. (The
                    // store iterates in no fixed order, hence the min.)
                    let turn = context.last();
                    let parent = cache
                        .entries()
                        .filter(|e| Some(&e.query) == turn)
                        .map(|e| e.id)
                        .min()
                        .unwrap_or(some_id);
                    assert!(cache.remove_entry(parent));
                }
                1 => {
                    let entry = cache.entry(some_id).unwrap().clone();
                    cache.restore_entry(entry).unwrap();
                }
                2 => cache.set_threshold(if step % 2 == 0 { 0.85 } else { 0.8 }),
                3 => cache.record_feedback(step % 2 == 0),
                4 => cache.set_capacity(CAPACITY - 4 * usize::from(step % 2 == 0)),
                5 => {
                    let installed = cache.embedding_memo().is_some();
                    cache.set_embedding_memo((!installed).then(|| Arc::clone(&memo)));
                }
                6 => {
                    let (other, other_context) = recent(r >> 36).clone();
                    decisions.push(decision(&cache.lookup(&other, &other_context)));
                }
                _ => {
                    let (a, a_context) = recent(r >> 36).clone();
                    let b = near(&recent(r >> 44).0, r);
                    let batch = cache.lookup_batch(&[
                        (a.as_str(), a_context.as_slice()),
                        (b.as_str(), &[][..]),
                        (query.as_str(), context.as_slice()),
                    ]);
                    decisions.extend(batch.iter().map(decision));
                }
            }
        }

        // The fill: every miss, and one hit in three.
        if outcome.is_hit() && !(r >> 52).is_multiple_of(3) {
            continue;
        }
        fills_after_hit += u64::from(outcome.is_hit());
        let (fill_query, fill_context) = match (r >> 56) % 10 {
            0 => (new_text(), context),
            1 => {
                let turn = match filled.last() {
                    Some((last, _)) if context.last() != Some(last) => vec![last.clone()],
                    _ => Vec::new(),
                };
                (query, turn)
            }
            _ => (query, context),
        };
        odd_fills += u64::from((r >> 56) % 10 < 2);
        let before = resident(&cache);
        let id = cache
            .insert(&fill_query, &format!("answer {step}"), &fill_context)
            .unwrap();
        let gone: Vec<u64> = before.difference(&resident(&cache)).copied().collect();
        assert!(gone.len() <= 1, "one fill evicts at most one entry");
        evicted.extend(gone);
        let parent = cache.entry(id).unwrap().parent;
        linked += u64::from(parent.is_some());
        parents.push(parent.unwrap_or(MISS));
        filled.push((fill_query, fill_context));
    }

    let stats = cache.stats();
    Pin {
        decisions: fnv(decisions.iter().copied()),
        parents: fnv(parents.iter().copied()),
        evicted: fnv(evicted.iter().copied()),
        resident: fnv(resident(&cache)),
        stats: fnv([
            stats.lookups,
            stats.hits,
            stats.context_rejections,
            stats.inserts,
            stats.feedback_updates,
        ]),
        coverage: [
            hits,
            fills_after_hit,
            linked,
            odd_fills,
            interleaved,
            evicted.len() as u64,
        ],
    }
}

#[test]
fn flat_fill_trace_is_pinned() {
    let expected = Pin {
        decisions: 0x4340_1bf2_f50b_58e4,
        parents: 0x1274_62e2_bd59_adbe,
        evicted: 0xb9c6_4ce6_c136_9deb,
        resident: 0x1e4d_bc35_ebf6_925e,
        stats: 0x5d27_e3ed_dabe_3b46,
        coverage: [292, 104, 496, 251, 504, 1187],
    };
    assert_eq!(run(IndexKind::flat()), expected);
}

#[test]
fn flat_sq8_fill_trace_is_pinned() {
    let expected = Pin {
        decisions: 0x4340_1bf2_f50b_58e4,
        parents: 0x14b4_0458_8717_d50f,
        evicted: 0x4470_7e94_7d5f_e6ba,
        resident: 0xf22c_75b1_14a4_725f,
        stats: 0xc9f2_34e6_7892_3e07,
        coverage: [292, 104, 496, 251, 504, 1187],
    };
    assert_eq!(run(IndexKind::flat_sq8()), expected);
}
