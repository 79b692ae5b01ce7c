//! The fixed data set every workload draws from, and the benchmark's own
//! random numbers.
//!
//! The data set does not depend on `--seed`: which texts exist, which of them
//! are paraphrases of each other, and which are popular are properties of the
//! data, like a recorded query log. `--seed` drives the *trace* — which items
//! are drawn, in what order. Keeping the two apart is what lets the quality
//! metrics (precision, recall, false-hit rate) repeat from seed to seed
//! instead of re-rolling the ground truth every run.
//!
//! Ground truth comes from two sources:
//!
//! * the repository's [`TopicBank`]: five paraphrases per topic are
//!   duplicates of each other, different topics are not (same-group topics
//!   are hard negatives), plus the follow-up intents of the contextual
//!   workload;
//! * a synthetic **filler** corpus that pads caches to their capacity:
//!   pseudo-word sentences addressed by id. Two filler texts are duplicates
//!   only when one is a carrier-phrase wrap of the other
//!   ([`filler_paraphrase`]); a [`filler_hard_negative`] differs from its
//!   base in one word and is *not* a duplicate.

use mc_workloads::{followup_training_pairs, TopicBank};

/// Seed of the data set (TopicBank variants). Matches the seed the encoder's
/// training corpus is generated with, as a deployed encoder would have been
/// tuned on the traffic it serves.
pub const DATA_SEED: u64 = mc_bench::EXPERIMENT_SEED;

/// SplitMix64: the benchmark's own generator, so a trace depends on nothing
/// but `--seed` and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut base = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Self(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability ∝ 1/(rank+1): Zipf with exponent 1.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / (rank + 1) as f64;
            cumulative.push(total);
        }
        Self { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let target = rng.unit() * self.cumulative[self.cumulative.len() - 1];
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }
}

/// Syllables filler words are spelled from. Every filler sentence gets its
/// own pseudo-words, so two unrelated sentences share almost no character
/// n-grams — natural-vocabulary filler collapses under the compact encoder
/// (any two sentences over a shared 160-word vocabulary score ≥ 0.95), which
/// would make even exact repeats ambiguous under SQ8 scoring.
const SYLLABLES: &[&str] = &[
    "ba", "ke", "ti", "mo", "lu", "ra", "ne", "si", "do", "vu", "pa", "ze", "gi", "fo", "ju", "ka",
    "le", "mi", "no", "su", "ta", "we", "xi", "yo", "zu", "bra", "cle", "dri", "flo", "gru", "pla",
    "sne", "tri", "vlo", "kru", "sha", "che", "thi", "pho", "qua", "ber", "kel", "tim", "mon",
    "lur", "ran", "nes", "sil", "dor", "vun", "arp", "elk", "ith", "omn", "ulm", "ast", "esk",
    "irt", "ock", "unt",
];

/// A syllable no regular filler word contains: a hard negative carries it, so
/// it can never spell the same text as a [`filler`] sentence.
const HARD_NEGATIVE_SYLLABLE: &str = "zzo";

/// Syllables per filler word; a sentence is seven words, about the length of
/// a TopicBank query.
const WORD_SHAPE: [usize; 7] = [2, 3, 2, 3, 2, 2, 2];

/// The words of filler sentence `id`. The first eleven syllables are the
/// base-60 digits of a bijective scramble of `id` (distinct ids spell
/// distinct sentences); the rest come from a second hash of `id`.
fn filler_words(id: u64) -> Vec<String> {
    // Multiplication by an odd constant is a bijection on u64.
    let mut unique = id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    let mut extra = Rng::stream(DATA_SEED, id);
    let mut taken = 0;
    WORD_SHAPE
        .iter()
        .map(|&syllables| {
            (0..syllables)
                .map(|_| {
                    taken += 1;
                    if taken <= 11 {
                        let digit = (unique % SYLLABLES.len() as u64) as usize;
                        unique /= SYLLABLES.len() as u64;
                        SYLLABLES[digit]
                    } else {
                        SYLLABLES[extra.below(SYLLABLES.len())]
                    }
                })
                .collect()
        })
        .collect()
}

/// Filler sentence `id`.
pub fn filler(id: u64) -> String {
    filler_words(id).join(" ")
}

/// Filler sentence `id` with one word replaced: a request that differs from
/// its base in one term — lexically close, semantically distinct, and never
/// equal to any [`filler`] text.
pub fn filler_hard_negative(id: u64, n: usize) -> String {
    let mut words = filler_words(id);
    let slot = n % words.len();
    words[slot] = format!("{HARD_NEGATIVE_SYLLABLE}{}", SYLLABLES[n % SYLLABLES.len()]);
    words.join(" ")
}

/// Number of distinct carrier phrases [`filler_paraphrase`] can wrap a text in.
pub const CARRIERS: usize = 8;

/// The `n`-th paraphrase of `text`: the same request inside a carrier phrase.
/// Distinct `n < CARRIERS` give distinct texts.
pub fn filler_paraphrase(text: &str, n: usize) -> String {
    match n % CARRIERS {
        0 => format!("please {text}"),
        1 => format!("{text} thanks"),
        2 => format!("quick question {text}"),
        3 => format!("{text} if you can"),
        4 => format!("hey {text}"),
        5 => format!("{text} please advise"),
        6 => format!("so {text}"),
        _ => format!("{text} any ideas"),
    }
}

/// The response cached for `query`, `len` bytes long: a pure function of the
/// query, so any hit can be checked verbatim against what was inserted.
pub fn response_for(query: &str, len: usize) -> String {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for byte in query.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut out = format!("answer {hash:016x}:");
    let mut rng = Rng::new(hash);
    while out.len() < len {
        out.push(' ');
        out.push_str(SYLLABLES[rng.below(SYLLABLES.len())]);
    }
    out.truncate(len);
    out
}

/// The fixed data set.
pub struct Corpus {
    pub bank: TopicBank,
    /// Follow-up intents ("make it shorter", …), each with its paraphrases.
    pub followups: Vec<Vec<String>>,
}

impl Corpus {
    pub fn load() -> Self {
        Self {
            bank: TopicBank::generate(DATA_SEED),
            followups: followup_intents(),
        }
    }

    /// Topic ids split at sibling-group granularity: even groups are the
    /// topics a cache may hold, odd groups are held out — a held-out probe is
    /// a new subject, not a one-word variation of a cached one.
    pub fn cached_and_heldout_topics(&self) -> (Vec<usize>, Vec<usize>) {
        let mut cached = Vec::new();
        let mut heldout = Vec::new();
        for topic in self.bank.topics() {
            if topic.group % 2 == 0 {
                cached.push(topic.id);
            } else {
                heldout.push(topic.id);
            }
        }
        (cached, heldout)
    }
}

/// Groups the repository's follow-up training pairs back into intents: texts
/// joined by a duplicate pair are paraphrases of one follow-up.
fn followup_intents() -> Vec<Vec<String>> {
    let mut intents: Vec<Vec<String>> = Vec::new();
    for pair in followup_training_pairs().pairs {
        if !pair.is_duplicate {
            continue;
        }
        let a = intents.iter().position(|g| g.contains(&pair.query_a));
        let b = intents.iter().position(|g| g.contains(&pair.query_b));
        match (a, b) {
            (Some(i), None) => intents[i].push(pair.query_b),
            (None, Some(i)) => intents[i].push(pair.query_a),
            (None, None) => intents.push(vec![pair.query_a, pair.query_b]),
            (Some(i), Some(j)) if i != j => {
                let merged = intents.remove(j.max(i));
                intents[i.min(j)].extend(merged);
            }
            _ => {}
        }
    }
    intents
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let draw = |seed, stream| -> Vec<u64> {
            let mut rng = Rng::stream(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(2048);
        let mut rng = Rng::new(3);
        let mut counts = vec![0u32; 2048];
        for _ in 0..200_000 {
            counts[zipf.draw(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(2048) ≈ 0.122; rank 1 draws about half of that.
        assert!((22_000..27_000).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts[2047] < 40);
    }

    #[test]
    fn filler_texts_are_unique_and_disjoint_from_hard_negatives() {
        let mut seen = HashSet::new();
        for id in 0..50_000 {
            assert!(seen.insert(filler(id)), "filler {id} repeats");
        }
        for id in 0..2_000 {
            let hard = filler_hard_negative(id, id as usize);
            assert!(!seen.contains(&hard));
            assert_ne!(hard, filler(id));
        }
        assert_eq!(filler(17), filler(17));
        assert_eq!(filler(17).split(' ').count(), WORD_SHAPE.len());
    }

    #[test]
    fn carriers_give_distinct_paraphrases() {
        let base = filler(5);
        let wrapped: HashSet<String> = (0..CARRIERS).map(|n| filler_paraphrase(&base, n)).collect();
        assert_eq!(wrapped.len(), CARRIERS);
        assert!(wrapped.iter().all(|w| w.contains(&base) && *w != base));
    }

    #[test]
    fn responses_are_pure_and_sized() {
        let a = response_for("one query", 300);
        assert_eq!(a, response_for("one query", 300));
        assert_ne!(a, response_for("another query", 300));
        assert_eq!(a.len(), 300);
        assert_eq!(response_for("q", 60).len(), 60);
    }

    #[test]
    fn followups_regroup_into_eight_intents_of_four() {
        let corpus = Corpus::load();
        assert_eq!(corpus.followups.len(), 8);
        assert!(corpus.followups.iter().all(|g| g.len() == 4));
        assert_eq!(corpus.followups[0][0], "change the color to red");
        let (cached, heldout) = corpus.cached_and_heldout_topics();
        assert_eq!(cached.len() + heldout.len(), corpus.bank.len());
        assert!(cached.len() > 100 && heldout.len() > 100);
    }
}
