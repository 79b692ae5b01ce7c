//! Trace generators for the three served workloads.
//!
//! Every served cache is prefilled to exactly its per-shard capacity:
//! never-probed **pad** filler first, then the **targets** that labelled-hit
//! lookups refer to. The store evicts its least recently used entry, so the
//! run's inserts consume pads (and then earlier run inserts) while targets
//! stay resident; the index size is stationary from the first measured op.
//! Each workload states below why its targets outlive the run, and each run
//! re-checks it with exact-repeat probes whose reply must be verbatim.

use crate::corpus::{
    filler, filler_hard_negative, filler_paraphrase, response_for, Corpus, Rng, Zipf, CARRIERS,
    DATA_SEED,
};
use crate::plan::{Insert, Lookup, Op, RESPONSE_LEN};

/// Shards of every served cache.
pub const SHARDS: usize = 4;

/// Filler id ranges, disjoint by role so a role's texts never collide with
/// another's.
const PAD_BASE: u64 = 10_000_000;
const TARGET_BASE: u64 = 20_000_000;
const NOVEL_BASE: u64 = 30_000_000;
const INSERT_BASE: u64 = 40_000_000;

/// Run-time unique texts differ from seed to seed.
fn seeded_base(base: u64, seed: u64) -> u64 {
    base + (seed % 1_000) * 1_000_000
}

/// A trace: `seq` indexes `table`, so a hot text drawn a hundred thousand
/// times is stored once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub table: Vec<Op>,
    pub seq: Vec<u32>,
}

impl Trace {
    fn push_new(&mut self, op: Op) {
        self.seq.push(self.table.len() as u32);
        self.table.push(op);
    }

    pub fn op(&self, position: usize) -> &Op {
        &self.table[self.seq[position] as usize]
    }
}

/// Prefill plus one trace per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    pub prefill: Vec<Insert>,
    pub conns: Vec<Trace>,
    /// Exact repeats issued after the last segment: if the eviction frontier
    /// had reached any target, one of these would miss.
    pub residency_probes: Vec<Lookup>,
}

/// A cached entry labelled-hit lookups refer to.
#[derive(Debug, Clone)]
enum Target {
    Topic(usize),
    Filler(u64),
}

impl Target {
    fn text(&self, corpus: &Corpus) -> String {
        match self {
            Target::Topic(id) => corpus.bank.topic(*id).canonical().to_string(),
            Target::Filler(id) => filler(*id),
        }
    }

    /// Distinct paraphrases available for this target.
    fn paraphrases(&self, corpus: &Corpus) -> usize {
        match self {
            Target::Topic(id) => corpus.bank.topic(*id).variant_count() - 1,
            Target::Filler(_) => CARRIERS,
        }
    }

    fn paraphrase(&self, corpus: &Corpus, n: usize) -> String {
        match self {
            Target::Topic(id) => corpus.bank.topic(*id).paraphrase(1 + n).to_string(),
            Target::Filler(id) => filler_paraphrase(&filler(*id), n),
        }
    }
}

fn exact_lookup(text: String) -> Lookup {
    let response = response_for(&text, RESPONSE_LEN);
    Lookup {
        text,
        context: Vec::new(),
        should_hit: true,
        verbatim: Some(response),
    }
}

fn lookup(text: String, should_hit: bool) -> Lookup {
    Lookup {
        text,
        context: Vec::new(),
        should_hit,
        verbatim: None,
    }
}

/// `count` targets: every cached-group topic first, filler after.
fn targets(corpus: &Corpus, count: usize) -> Vec<Target> {
    let (cached, _) = corpus.cached_and_heldout_topics();
    cached
        .into_iter()
        .map(Target::Topic)
        .chain((0..).map(|i| Target::Filler(TARGET_BASE + i)))
        .take(count)
        .collect()
}

/// Prefill that leaves every shard at exactly its capacity: pads first (as
/// many per shard as the targets leave room for), targets last.
fn prefill(
    corpus: &Corpus,
    targets: &[Target],
    capacity: usize,
    shard_of: &dyn Fn(&str) -> usize,
) -> Vec<Insert> {
    let per_shard = capacity.div_ceil(SHARDS);
    let target_texts: Vec<String> = targets.iter().map(|t| t.text(corpus)).collect();
    let mut room = [per_shard; SHARDS];
    for text in &target_texts {
        let shard = shard_of(text);
        assert!(room[shard] > 0, "targets alone overflow shard {shard}");
        room[shard] -= 1;
    }
    let mut plan = Vec::with_capacity(capacity);
    let mut pad = PAD_BASE;
    while room.iter().any(|&r| r > 0) {
        let text = filler(pad);
        pad += 1;
        let shard = shard_of(&text);
        if room[shard] > 0 {
            room[shard] -= 1;
            plan.push(Insert::standalone(text));
        }
    }
    plan.extend(target_texts.into_iter().map(Insert::standalone));
    plan
}

// ---------------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------------

/// Entries and capacity of the `serve_hot` cache.
pub const HOT_CAPACITY: usize = 2_000;
/// Distinct probe texts: half labelled hit, half labelled miss.
pub const HOT_POOL: usize = 2_048;
const HOT_TARGETS: usize = HOT_POOL / 4;
/// On connection 0 every `HOT_INSERT_EVERY`-th op is an insert of a unique
/// text (2 % of all ops) and every `HOT_REFRESH_EVERY`-th op re-asks the next
/// target verbatim, round robin.
const HOT_INSERT_EVERY: usize = 25;
const HOT_REFRESH_EVERY: usize = 24;

/// `serve_hot`: two connections draw Zipf(1.0) from a fixed pool; which text
/// holds which popularity rank is a property of the data set, the draws come
/// from `seed`. The inserted texts are the same in every run too: the hottest
/// text takes 12 % of the draws, so whether it false-hits against an inserted
/// entry must not depend on the seed, or precision would swing with it.
///
/// Residency: all inserts and the round-robin refresh ride connection 0,
/// whose ops the server executes in order. A target is re-asked verbatim
/// (a guaranteed hit, hence a recency touch) every
/// `HOT_TARGETS · HOT_REFRESH_EVERY` ops of that connection, during which its
/// shard receives far fewer inserts than it holds non-targets; so some
/// non-target is always older than every target when an insert evicts.
/// [`check_hot_residency`] proves it for the generated trace. A false hit can
/// promote a non-target, but only 1 024 texts are ever looked up without a
/// match, far fewer than a shard's non-targets.
pub fn hot_plan(
    corpus: &Corpus,
    seed: u64,
    ops_per_conn: usize,
    shard_of: &dyn Fn(&str) -> usize,
) -> ServePlan {
    let targets = targets(corpus, HOT_TARGETS);
    let (_, heldout) = corpus.cached_and_heldout_topics();

    // The pool, then a data-set-fixed popularity order over it.
    let mut pool: Vec<Lookup> = Vec::with_capacity(HOT_POOL);
    for target in &targets {
        pool.push(exact_lookup(target.text(corpus)));
    }
    for (i, target) in targets.iter().enumerate() {
        pool.push(lookup(
            target.paraphrase(corpus, i % target.paraphrases(corpus)),
            true,
        ));
    }
    let heldout_texts = heldout
        .iter()
        .flat_map(|&id| corpus.bank.topic(id).variants.iter().cloned());
    pool.extend(heldout_texts.take(HOT_POOL / 4).map(|t| lookup(t, false)));
    let filler_targets = targets.iter().filter_map(|t| match t {
        Target::Filler(id) => Some(*id),
        Target::Topic(_) => None,
    });
    for (i, id) in filler_targets.take(HOT_POOL / 8).enumerate() {
        pool.push(lookup(filler_hard_negative(id, i), false));
    }
    let mut novel = NOVEL_BASE;
    while pool.len() < HOT_POOL {
        pool.push(lookup(filler(novel), false));
        novel += 1;
    }
    let mut rank_of: Vec<usize> = (0..HOT_POOL).collect();
    Rng::stream(DATA_SEED, 11).shuffle(&mut rank_of);

    let zipf = Zipf::new(HOT_POOL);
    let conns = (0..2u64)
        .map(|conn| {
            let mut rng = Rng::stream(seed, 20 + conn);
            let mut trace = Trace {
                table: pool.iter().cloned().map(Op::Lookup).collect(),
                seq: Vec::with_capacity(ops_per_conn),
            };
            let (mut inserted, mut refreshed) = (0u64, 0usize);
            for position in 0..ops_per_conn {
                if conn == 0 && position % HOT_INSERT_EVERY == HOT_INSERT_EVERY - 1 {
                    trace.push_new(Op::Insert(Insert::standalone(filler(
                        INSERT_BASE + inserted,
                    ))));
                    inserted += 1;
                } else if conn == 0 && position % HOT_REFRESH_EVERY == 0 {
                    // Pool entries 0..HOT_TARGETS are the exact repeats.
                    trace.seq.push((refreshed % HOT_TARGETS) as u32);
                    refreshed += 1;
                } else {
                    trace.seq.push(rank_of[zipf.draw(&mut rng)] as u32);
                }
            }
            trace
        })
        .collect();
    let plan = ServePlan {
        prefill: prefill(corpus, &targets, HOT_CAPACITY, shard_of),
        conns,
        residency_probes: Vec::new(),
    };
    check_hot_residency(&plan, shard_of);
    plan
}

/// Walks connection 0's trace and asserts that no target ever goes longer
/// without a verbatim re-ask than its shard has non-targets to evict first.
fn check_hot_residency(plan: &ServePlan, shard_of: &dyn Fn(&str) -> usize) {
    let per_shard = HOT_CAPACITY.div_ceil(SHARDS);
    let trace = &plan.conns[0];
    // Table entries 0..HOT_TARGETS are the verbatim re-asks, one per target.
    let shard_of_target: Vec<usize> = trace.table[..HOT_TARGETS]
        .iter()
        .map(|op| match op {
            Op::Lookup(l) if l.verbatim.is_some() => shard_of(&l.text),
            other => panic!("expected a verbatim re-ask, found {other:?}"),
        })
        .collect();
    let mut non_targets = [per_shard; SHARDS];
    for &shard in &shard_of_target {
        non_targets[shard] -= 1;
    }
    let mut since_touch = vec![0usize; HOT_TARGETS];
    for &index in &trace.seq {
        let index = index as usize;
        if index < HOT_TARGETS {
            since_touch[index] = 0;
        } else if let Op::Insert(insert) = &trace.table[index] {
            let shard = shard_of(&insert.text);
            for (target, &target_shard) in shard_of_target.iter().enumerate() {
                if target_shard == shard {
                    since_touch[target] += 1;
                    assert!(
                        2 * since_touch[target] < non_targets[shard],
                        "a serve_hot target could be evicted: shard {shard} took {} inserts \
                         since its last verbatim re-ask",
                        since_touch[target]
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// serve_cold_open
// ---------------------------------------------------------------------------

/// Entries and capacity of the `serve_cold_open` cache.
pub const COLD_CAPACITY: usize = 20_000;
/// Inserts per hundred ops.
const COLD_INSERT_PCT: usize = 5;
/// Pads per planned insert. A false hit can promote a pad past an untouched
/// target, so pads must outnumber inserts by more than the pads that novel
/// lookups can plausibly touch (measured: about 0.4 per pad over a run).
const COLD_PADS_PER_INSERT: f64 = 2.5;
/// Earliest-inserted targets per shard re-asked verbatim after the run. The
/// store evicts untouched entries in insertion order, so if these survive,
/// every target did.
const COLD_RESIDENCY_PROBES_PER_SHARD: usize = 64;

/// `serve_cold_open`: one connection, every lookup text unique — half fresh
/// paraphrases of cached targets, half novel (held-out topics, hard
/// negatives, unique filler) — and 5 % inserts of unique texts. Each segment
/// holds exactly the same number of each kind, shuffled by `seed`.
pub fn cold_plan(
    corpus: &Corpus,
    seed: u64,
    segments: usize,
    ops_per_segment: usize,
    shard_of: &dyn Fn(&str) -> usize,
) -> ServePlan {
    let inserts_per_segment = ops_per_segment * COLD_INSERT_PCT / 100;
    let paraphrases_per_segment = (ops_per_segment - inserts_per_segment) / 2;
    let total_inserts = segments * inserts_per_segment;
    let pads = (total_inserts as f64 * COLD_PADS_PER_INSERT) as usize + 500;
    assert!(
        pads < COLD_CAPACITY / 2,
        "too many segments for the cold cache"
    );
    let targets = targets(corpus, COLD_CAPACITY - pads);
    assert!(
        segments * paraphrases_per_segment < targets.len() * CARRIERS / 2,
        "too many segments: unique paraphrases would run out"
    );
    let (_, heldout) = corpus.cached_and_heldout_topics();
    let mut heldout_texts: Vec<String> = heldout
        .iter()
        .flat_map(|&id| corpus.bank.topic(id).variants.iter().cloned())
        .collect();

    let mut rng = Rng::stream(seed, 30);
    rng.shuffle(&mut heldout_texts);
    let mut used = vec![0usize; targets.len()];
    let mut hard_used = vec![0usize; targets.len()];
    let novel_base = seeded_base(NOVEL_BASE, seed);
    let insert_base = seeded_base(INSERT_BASE, seed);
    let (mut novels, mut inserted) = (0u64, 0u64);
    let mut trace = Trace::default();
    for _ in 0..segments {
        let mut kinds: Vec<u8> = Vec::with_capacity(ops_per_segment);
        kinds.extend(std::iter::repeat_n(0, inserts_per_segment));
        kinds.extend(std::iter::repeat_n(1, paraphrases_per_segment));
        kinds.resize(ops_per_segment, 2);
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let op = match kind {
                0 => {
                    inserted += 1;
                    Op::Insert(Insert::standalone(filler(insert_base + inserted)))
                }
                1 => loop {
                    let t = rng.below(targets.len());
                    if used[t] < targets[t].paraphrases(corpus) {
                        used[t] += 1;
                        break Op::Lookup(lookup(targets[t].paraphrase(corpus, used[t] - 1), true));
                    }
                },
                _ => {
                    novels += 1;
                    let roll = rng.unit();
                    let text = match heldout_texts.pop() {
                        // Held-out topics are spread over the run: about one
                        // novel lookup in thirty.
                        Some(text) if roll < 0.033 => text,
                        other => {
                            heldout_texts.extend(other);
                            if roll < 0.35 {
                                // A cached filler request with one term changed.
                                let t = rng.below(targets.len());
                                match targets[t] {
                                    Target::Filler(id) => {
                                        hard_used[t] += 1;
                                        filler_hard_negative(id, hard_used[t] - 1)
                                    }
                                    Target::Topic(_) => filler(novel_base + novels),
                                }
                            } else {
                                filler(novel_base + novels)
                            }
                        }
                    };
                    Op::Lookup(lookup(text, false))
                }
            };
            trace.push_new(op);
        }
    }

    let prefill = prefill(corpus, &targets, COLD_CAPACITY, shard_of);
    let mut probes_left = [COLD_RESIDENCY_PROBES_PER_SHARD; SHARDS];
    let residency_probes = prefill[prefill.len() - targets.len()..]
        .iter()
        .filter(|insert| {
            let shard = shard_of(&insert.text);
            let take = probes_left[shard] > 0;
            probes_left[shard] -= usize::from(take);
            take
        })
        .map(|insert| exact_lookup(insert.text.clone()))
        .collect();
    ServePlan {
        prefill,
        conns: vec![trace],
        residency_probes,
    }
}

// ---------------------------------------------------------------------------
// durable_fill
// ---------------------------------------------------------------------------

/// Entries and capacity of the `durable_fill` cache.
pub const DURABLE_CAPACITY: usize = 10_000;
/// Bytes of a cached response on the write-heavy workload.
pub const DURABLE_RESPONSE_LEN: usize = 300;
/// Acknowledged inserts whose durability is probed after the restart.
pub const DURABLE_PROBES: usize = 2_000;
/// A lookup of an earlier insert picks one at least this many inserts old
/// (comfortably acknowledged: the window is 8) and at most `DURABLE_PROBES`
/// old (comfortably resident: a shard holds 2 500).
const DURABLE_MIN_AGE: usize = 32;

fn durable_insert(id: u64) -> Insert {
    let text = filler(id);
    let response = response_for(&text, DURABLE_RESPONSE_LEN);
    Insert {
        text,
        context: Vec::new(),
        response,
    }
}

/// `durable_fill`: 80 % inserts, 20 % lookups — three in four of them exact
/// repeats of inserts acknowledged earlier in the run (reply checked
/// verbatim), the rest novel (half of those a recent insert with one term
/// changed) — in exactly the same numbers every segment, and one `Save`
/// closing every segment. After the last segment
/// come `tail_inserts` more inserts, so the final restore has a WAL tail to
/// replay on top of the last snapshot.
///
/// The prefill is pads only: every entry a lookup refers to was inserted by
/// the run itself at most [`DURABLE_PROBES`] inserts earlier, far fewer than
/// the inserts its shard needs to evict it.
pub fn durable_plan(
    seed: u64,
    segments: usize,
    ops_per_segment: usize,
    tail_inserts: usize,
    shard_of: &dyn Fn(&str) -> usize,
    corpus: &Corpus,
) -> ServePlan {
    let mut rng = Rng::stream(seed, 40);
    let insert_base = seeded_base(INSERT_BASE, seed);
    let novel_base = seeded_base(NOVEL_BASE, seed);
    let mut inserted: Vec<u64> = Vec::new();
    let mut novels = 0u64;
    let mut trace = Trace::default();
    let insert_next = |trace: &mut Trace, inserted: &mut Vec<u64>| {
        let id = insert_base + inserted.len() as u64;
        inserted.push(id);
        trace.push_new(Op::Insert(durable_insert(id)));
    };
    for segment in 0..segments {
        // The same mix in every segment, shuffled by `seed`: 80 % inserts,
        // 15 % exact repeats, 2.5 % hard negatives, 2.5 % unique novels.
        let mut kinds: Vec<u8> = Vec::with_capacity(ops_per_segment);
        kinds.extend(std::iter::repeat_n(1, ops_per_segment * 15 / 100));
        kinds.extend(std::iter::repeat_n(2, ops_per_segment / 40));
        kinds.extend(std::iter::repeat_n(3, ops_per_segment / 40));
        kinds.resize(ops_per_segment, 0);
        rng.shuffle(&mut kinds);
        if segment == 0 {
            // Nothing is acknowledged yet when the run starts: the inserts
            // come first in the warm-up segment.
            kinds.sort_by_key(|&kind| kind != 0);
            let inserts = kinds.iter().filter(|&&kind| kind == 0).count();
            rng.shuffle(&mut kinds[inserts.min(2 * DURABLE_MIN_AGE)..]);
        }
        for kind in kinds {
            if kind == 0 {
                insert_next(&mut trace, &mut inserted);
                continue;
            }
            let oldest = inserted.len().saturating_sub(DURABLE_PROBES);
            let newest = inserted.len() - DURABLE_MIN_AGE;
            let recent = inserted[oldest + rng.below(newest - oldest)];
            novels += 1;
            let found = match kind {
                1 => {
                    let insert = durable_insert(recent);
                    Lookup {
                        text: insert.text,
                        context: Vec::new(),
                        should_hit: true,
                        verbatim: Some(insert.response),
                    }
                }
                2 => lookup(filler_hard_negative(recent, novels as usize), false),
                _ => lookup(filler(novel_base + novels), false),
            };
            trace.push_new(Op::Lookup(found));
        }
        trace.push_new(Op::Save);
    }
    for _ in 0..tail_inserts {
        insert_next(&mut trace, &mut inserted);
    }
    assert!(
        inserted.len() >= DURABLE_PROBES,
        "run too short to probe durability"
    );
    let residency_probes = inserted[inserted.len() - DURABLE_PROBES..]
        .iter()
        .map(|&id| {
            let insert = durable_insert(id);
            Lookup {
                text: insert.text,
                context: Vec::new(),
                should_hit: true,
                verbatim: Some(insert.response),
            }
        })
        .collect();
    ServePlan {
        prefill: prefill(corpus, &[], DURABLE_CAPACITY, shard_of),
        conns: vec![trace],
        residency_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// Stand-in for `ShardedCache::shard_of` (any stable text hash will do).
    fn test_shard_of(text: &str) -> usize {
        let mut hash = 0xCBF2_9CE4_8422_2325_u64;
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        (hash % SHARDS as u64) as usize
    }

    fn shard_counts(prefill: &[Insert]) -> [usize; SHARDS] {
        let mut counts = [0; SHARDS];
        for insert in prefill {
            counts[test_shard_of(&insert.text)] += 1;
        }
        counts
    }

    #[test]
    fn hot_plan_fills_shards_exactly_and_keeps_targets_resident() {
        let corpus = Corpus::load();
        // `hot_plan` runs `check_hot_residency` itself.
        let plan = hot_plan(&corpus, 5, 120_000, &test_shard_of);
        assert_eq!(plan.prefill.len(), HOT_CAPACITY);
        assert_eq!(shard_counts(&plan.prefill), [HOT_CAPACITY / SHARDS; SHARDS]);
        let texts: HashSet<&str> = plan.prefill.iter().map(|i| i.text.as_str()).collect();
        assert_eq!(texts.len(), HOT_CAPACITY, "prefill texts are distinct");

        let pool: Vec<&Lookup> = plan.conns[0].table[..HOT_POOL]
            .iter()
            .map(|op| match op {
                Op::Lookup(l) => l,
                other => panic!("pool holds {other:?}"),
            })
            .collect();
        assert_eq!(pool.iter().filter(|l| l.should_hit).count(), HOT_POOL / 2);
        let distinct: HashSet<&str> = pool.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(distinct.len(), HOT_POOL);
        // Every labelled hit refers to a prefilled target; no labelled miss does.
        let targets: HashSet<&str> = plan.prefill[HOT_CAPACITY - HOT_TARGETS..]
            .iter()
            .map(|i| i.text.as_str())
            .collect();
        for l in &pool {
            if l.verbatim.is_some() {
                assert!(targets.contains(l.text.as_str()));
            }
            if !l.should_hit {
                assert!(!texts.contains(l.text.as_str()));
            }
        }
        // Connection 0 carries the 4 % inserts; connection 1 only looks up.
        let inserts = |t: &Trace| t.seq.iter().filter(|&&i| i as usize >= HOT_POOL).count();
        assert_eq!(inserts(&plan.conns[0]), 120_000 / HOT_INSERT_EVERY);
        assert_eq!(inserts(&plan.conns[1]), 0);
        // The hottest text takes about 1/H(2048) ≈ 12 % of connection 1.
        let mut freq: HashMap<u32, usize> = HashMap::new();
        for &i in &plan.conns[1].seq {
            *freq.entry(i).or_default() += 1;
        }
        let top = *freq.values().max().unwrap();
        assert!(
            (13_000..16_500).contains(&top),
            "top text drawn {top} times"
        );
    }

    #[test]
    fn hot_popularity_is_data_not_seed() {
        let corpus = Corpus::load();
        let a = hot_plan(&corpus, 1, 20_000, &test_shard_of);
        let b = hot_plan(&corpus, 2, 20_000, &test_shard_of);
        assert_eq!(a.prefill, b.prefill);
        assert_eq!(a.conns[1].table, b.conns[1].table);
        assert_ne!(a.conns[1].seq, b.conns[1].seq);
        assert_eq!(
            a.conns[0].table, b.conns[0].table,
            "inserted texts are data too"
        );
        assert_ne!(a.conns[0].seq, b.conns[0].seq);
        let hottest = |p: &ServePlan| {
            let mut freq: HashMap<u32, usize> = HashMap::new();
            for &i in &p.conns[1].seq {
                *freq.entry(i).or_default() += 1;
            }
            freq.into_iter().max_by_key(|&(_, n)| n).unwrap().0
        };
        assert_eq!(hottest(&a), hottest(&b));
        assert_eq!(a, hot_plan(&corpus, 1, 20_000, &test_shard_of));
    }

    #[test]
    fn cold_plan_has_unique_texts_and_resident_targets() {
        let corpus = Corpus::load();
        let plan = cold_plan(&corpus, 9, 9, 5_000, &test_shard_of);
        assert_eq!(plan.prefill.len(), COLD_CAPACITY);
        assert_eq!(
            shard_counts(&plan.prefill),
            [COLD_CAPACITY / SHARDS; SHARDS]
        );
        let trace = &plan.conns[0];
        assert_eq!(trace.seq.len(), 45_000);
        let cached: HashSet<&str> = plan.prefill.iter().map(|i| i.text.as_str()).collect();
        let mut seen = HashSet::new();
        let mut per_shard_inserts = [0usize; SHARDS];
        for (pos, _) in trace.seq.iter().enumerate() {
            let (text, is_insert) = match trace.op(pos) {
                Op::Lookup(l) => (&l.text, false),
                Op::Insert(i) => (&i.text, true),
                Op::Save => panic!("no saves here"),
            };
            assert!(seen.insert(text.as_str()), "text {text:?} repeats");
            assert!(
                !cached.contains(text.as_str()),
                "probe equals a cached text"
            );
            if is_insert {
                per_shard_inserts[test_shard_of(text)] += 1;
            }
        }
        // Each segment holds exactly the same mix.
        for segment in 0..9 {
            let ops = (segment * 5_000..(segment + 1) * 5_000).map(|p| trace.op(p));
            let (mut ins, mut hit, mut miss) = (0, 0, 0);
            for op in ops {
                match op {
                    Op::Insert(_) => ins += 1,
                    Op::Lookup(l) if l.should_hit => hit += 1,
                    _ => miss += 1,
                }
            }
            assert_eq!((ins, hit, miss), (250, 2_375, 2_375));
        }
        // Pads outnumber each shard's inserts at least twofold.
        let targets = COLD_CAPACITY - (2_250.0 * COLD_PADS_PER_INSERT) as usize - 500;
        let mut pads = [0usize; SHARDS];
        for insert in &plan.prefill[..COLD_CAPACITY - targets] {
            pads[test_shard_of(&insert.text)] += 1;
        }
        for shard in 0..SHARDS {
            assert!(pads[shard] >= 2 * per_shard_inserts[shard], "shard {shard}");
        }
        assert_eq!(
            plan.residency_probes.len(),
            SHARDS * COLD_RESIDENCY_PROBES_PER_SHARD
        );
        assert!(plan
            .residency_probes
            .iter()
            .all(|l| cached.contains(l.text.as_str())));
        assert_eq!(plan, cold_plan(&corpus, 9, 9, 5_000, &test_shard_of));
        assert_ne!(
            plan.conns,
            cold_plan(&corpus, 10, 9, 5_000, &test_shard_of).conns
        );
    }

    #[test]
    fn durable_lookups_refer_to_recent_acknowledged_inserts() {
        let corpus = Corpus::load();
        let plan = durable_plan(3, 4, 3_000, 500, &test_shard_of, &corpus);
        assert_eq!(plan.prefill.len(), DURABLE_CAPACITY);
        assert_eq!(
            shard_counts(&plan.prefill),
            [DURABLE_CAPACITY / SHARDS; SHARDS]
        );
        let trace = &plan.conns[0];
        let mut inserted_at: HashMap<&str, usize> = HashMap::new();
        let (mut inserts, mut saves, mut exact, mut lookups) = (0usize, 0, 0, 0);
        for pos in 0..trace.seq.len() {
            match trace.op(pos) {
                Op::Insert(i) => {
                    assert_eq!(i.response.len(), DURABLE_RESPONSE_LEN);
                    inserted_at.insert(&i.text, inserts);
                    inserts += 1;
                }
                Op::Save => saves += 1,
                Op::Lookup(l) => {
                    lookups += 1;
                    match &l.verbatim {
                        Some(_) => {
                            exact += 1;
                            let age = inserts - inserted_at[l.text.as_str()];
                            assert!(
                                (DURABLE_MIN_AGE..=DURABLE_PROBES).contains(&age),
                                "lookup of an insert {age} inserts old"
                            );
                        }
                        None => assert!(!inserted_at.contains_key(l.text.as_str())),
                    }
                }
            }
        }
        assert_eq!(saves, 4);
        let ops = 4 * 3_000;
        assert!((0.78..0.82).contains(&((inserts - 500) as f64 / ops as f64)));
        assert!((0.70..0.80).contains(&(exact as f64 / lookups as f64)));
        // The durability probes are the last 2 000 inserts, tail included.
        assert_eq!(plan.residency_probes.len(), DURABLE_PROBES);
        let last = plan.residency_probes.last().unwrap();
        assert_eq!(inserted_at[last.text.as_str()], inserts - 1);
        assert_eq!(
            plan,
            durable_plan(3, 4, 3_000, 500, &test_shard_of, &corpus)
        );
    }
}
