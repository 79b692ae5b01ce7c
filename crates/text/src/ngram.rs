//! Hashed word and character n-gram features (fastText-style).
//!
//! The from-scratch encoder cannot afford a learned sub-word vocabulary, so
//! queries are represented as a sparse bag of hashed features: every word
//! token, every word bigram, and every character n-gram (within word
//! boundaries, including boundary markers) is hashed into a fixed-size bucket
//! space. The encoder then averages the embedding rows selected by those
//! bucket indices. Character n-grams give paraphrase robustness ("color" vs
//! "colour" share most trigrams), while word bigrams retain some word-order
//! signal that plain bags of words lose.

use serde::{Deserialize, Serialize};

/// Sparse hashed representation of a query: bucket indices with counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HashedFeatures {
    /// Feature bucket indices (sorted, unique).
    pub indices: Vec<u32>,
    /// Per-index weights (occurrence counts, later normalised by the encoder).
    pub weights: Vec<f32>,
}

impl HashedFeatures {
    /// Number of distinct active buckets.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when the query produced no features (e.g. empty string).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Sum of the feature weights.
    pub fn total_weight(&self) -> f32 {
        self.weights.iter().sum()
    }
}

/// Deterministic feature hasher mapping token streams to bucket indices.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct FeatureHasher {
    /// Number of hash buckets (the encoder's embedding-table height).
    pub buckets: u32,
    /// Minimum character n-gram length (inclusive).
    pub min_char_ngram: usize,
    /// Maximum character n-gram length (inclusive).
    pub max_char_ngram: usize,
    /// Also hash word unigrams and bigrams (default `true`).
    pub word_ngrams: bool,
}

impl FeatureHasher {
    /// Creates a hasher with `buckets` buckets and character n-grams in
    /// `[min_char_ngram, max_char_ngram]`.
    pub fn new(buckets: u32, min_char_ngram: usize, max_char_ngram: usize) -> Self {
        Self {
            buckets: buckets.max(1),
            min_char_ngram: min_char_ngram.max(1),
            max_char_ngram: max_char_ngram.max(min_char_ngram.max(1)),
            word_ngrams: true,
        }
    }

    /// Maps a finished hash into the bucket space.
    #[inline]
    fn bucket(&self, hash: Fnv) -> u32 {
        (hash.0 % self.buckets as u64) as u32
    }

    /// Computes hashed features for a pre-tokenised query.
    ///
    /// Every feature is hashed where it lies — FNV-1a is a byte stream, so a
    /// word bigram is `tok₁`, a space, `tok₂` fed in turn, and the character
    /// n-grams starting at one position are prefixes of each other and share
    /// one running hash — into a flat list of buckets that is sorted and
    /// run-length counted. Nothing is allocated per feature.
    pub fn features<S: AsRef<str>>(&self, tokens: &[S]) -> HashedFeatures {
        let text_bytes: usize = tokens.iter().map(|t| t.as_ref().len()).sum();
        // Sized for the shipped (3, 4)- and (3, 5)-gram profiles; a wider
        // range only means the list grows once or twice.
        let mut hits: Vec<u32> = Vec::with_capacity(2 * (tokens.len() + text_bytes));

        if self.word_ngrams {
            for token in tokens {
                hits.push(self.bucket(Fnv::new(1).extend(token.as_ref().as_bytes())));
            }
            for pair in tokens.windows(2) {
                let joined = Fnv::new(2)
                    .extend(pair[0].as_ref().as_bytes())
                    .extend(b" ")
                    .extend(pair[1].as_ref().as_bytes());
                hits.push(self.bucket(joined));
            }
        }

        // Boundary markers let the hasher distinguish prefixes/suffixes. The
        // buffer is reused from token to token.
        let mut marked: Vec<u8> = Vec::new();
        for token in tokens {
            marked.clear();
            marked.push(b'<');
            marked.extend_from_slice(token.as_ref().as_bytes());
            marked.push(b'>');
            // `marked` is valid UTF-8, so a character starts at every byte
            // that is not a continuation byte and ends before the next such.
            for start in (0..marked.len()).filter(|&i| !is_continuation(marked[i])) {
                let mut hash = Fnv::new(3);
                let mut chars = 0;
                for (offset, &byte) in marked[start..].iter().enumerate() {
                    hash = hash.extend(&[byte]);
                    let next = marked.get(start + offset + 1);
                    if next.is_some_and(|&b| is_continuation(b)) {
                        continue;
                    }
                    chars += 1;
                    if chars >= self.min_char_ngram {
                        hits.push(self.bucket(hash));
                    }
                    if chars == self.max_char_ngram {
                        break;
                    }
                }
            }
        }

        hits.sort_unstable();
        let mut indices: Vec<u32> = Vec::with_capacity(hits.len());
        let mut weights: Vec<f32> = Vec::with_capacity(hits.len());
        for &idx in &hits {
            match weights.last_mut() {
                Some(w) if indices.last() == Some(&idx) => *w += 1.0,
                _ => {
                    indices.push(idx);
                    weights.push(1.0);
                }
            }
        }
        HashedFeatures { indices, weights }
    }

    /// Convenience: tokenizes with the provided tokenizer and hashes.
    pub fn features_of(&self, tokenizer: &crate::Tokenizer, text: &str) -> HashedFeatures {
        let folded = tokenizer.fold(text);
        let tokens: Vec<&str> = tokenizer.split(&folded).collect();
        self.features(&tokens)
    }
}

/// `true` for the second and later bytes of a multi-byte UTF-8 character.
#[inline]
fn is_continuation(byte: u8) -> bool {
    byte & 0xC0 == 0x80
}

/// A running FNV-1a hash, seeded per feature namespace (word, word bigram,
/// character n-gram) so equal byte strings in different namespaces land in
/// unrelated buckets.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    #[inline]
    fn new(namespace: u8) -> Self {
        Fnv(Self::OFFSET ^ (namespace as u64).wrapping_mul(0x9E3779B97F4A7C15))
    }

    #[inline]
    fn extend(self, bytes: &[u8]) -> Self {
        Fnv(bytes
            .iter()
            .fold(self.0, |h, &b| (h ^ b as u64).wrapping_mul(Self::PRIME)))
    }
}

impl Default for FeatureHasher {
    fn default() -> Self {
        Self::new(1 << 14, 3, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tokenizer;
    use proptest::prelude::*;

    fn hasher() -> FeatureHasher {
        FeatureHasher::new(1 << 12, 3, 4)
    }

    /// The allocating implementation `features` replaced, kept verbatim as
    /// the specification: one `String` per bigram and per character n-gram,
    /// counted in a `BTreeMap`.
    fn reference_features(h: &FeatureHasher, tokens: &[String]) -> HashedFeatures {
        use std::collections::BTreeMap;
        let bucket = |namespace: u8, bytes: &[u8]| -> u32 {
            let mut hash =
                0xcbf29ce484222325u64 ^ (namespace as u64).wrapping_mul(0x9E3779B97F4A7C15);
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
            (hash % h.buckets as u64) as u32
        };
        let mut counts: BTreeMap<u32, f32> = BTreeMap::new();
        let mut bump = |idx: u32| {
            *counts.entry(idx).or_insert(0.0) += 1.0;
        };
        if h.word_ngrams {
            for token in tokens {
                bump(bucket(1, token.as_bytes()));
            }
            for pair in tokens.windows(2) {
                let joined = format!("{} {}", pair[0], pair[1]);
                bump(bucket(2, joined.as_bytes()));
            }
        }
        for token in tokens {
            let marked: Vec<char> = std::iter::once('<')
                .chain(token.chars())
                .chain(std::iter::once('>'))
                .collect();
            for n in h.min_char_ngram..=h.max_char_ngram {
                if marked.len() < n {
                    continue;
                }
                for window in marked.windows(n) {
                    let gram: String = window.iter().collect();
                    bump(bucket(3, gram.as_bytes()));
                }
            }
        }
        let (indices, weights) = counts.into_iter().unzip();
        HashedFeatures { indices, weights }
    }

    /// Characters the property test draws from: ASCII words, separators and
    /// apostrophes, two-, three- and four-byte characters, a combining mark,
    /// and capitals whose lower-case form changes length (`İ`, `ẞ`).
    const ALPHABET: &[char] = &[
        'a', 'b', 'c', 'e', 'i', 'o', 't', 'A', 'Z', '0', '7', ' ', ' ', ' ', '\'', '\'', '-', '?',
        '.', '\t', 'é', 'ï', 'ß', 'ẞ', 'İ', 'Σ', 'ж', '日', '本', '語', '\u{0301}', '🦀', '𝒳',
    ];

    fn assert_bit_equal(new: &HashedFeatures, reference: &HashedFeatures, what: &str) {
        assert_eq!(new.indices, reference.indices, "indices: {what}");
        let bits = |f: &HashedFeatures| f.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(new), bits(reference), "weights: {what}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn features_match_the_allocating_reference(
            picks in prop::collection::vec(0usize..ALPHABET.len(), 0..48),
            shape in (0usize..3, 1usize..5, 0usize..4),
            flags in (prop::bool::ANY, prop::bool::ANY),
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let (buckets, min, extra) = shape;
            let (word_ngrams, lowercase) = flags;
            let mut h = FeatureHasher::new([1, 7, 4096][buckets], min, min + extra);
            h.word_ngrams = word_ngrams;
            let tok = Tokenizer::new(lowercase, false, 1);
            let reference = reference_features(&h, &tok.tokenize(&text));
            assert_bit_equal(&h.features_of(&tok, &text), &reference, &text);
            assert_bit_equal(&h.features(&tok.tokenize(&text)), &reference, &text);
        }
    }

    #[test]
    fn reference_agrees_on_the_named_edge_cases() {
        let tok = Tokenizer::default();
        for text in [
            "",
            "a",
            "hi",
            "'",
            "what's my phone's battery",
            "naïve café — résumé 日本語 🦀🦀",
            "İstanbul STRASSE ẞ",
            "repeat repeat repeat repeat",
        ] {
            for h in [
                hasher(),
                FeatureHasher::new(7, 1, 6),
                FeatureHasher::default(),
            ] {
                let reference = reference_features(&h, &tok.tokenize(text));
                assert_bit_equal(&h.features_of(&tok, text), &reference, text);
            }
        }
    }

    #[test]
    fn golden_features_of_two_english_sentences() {
        // Sixteen buckets keep the vectors short enough to read; any change
        // to the hash, the namespaces, the markers or the n-gram windows
        // moves counts between buckets.
        let tok = Tokenizer::default();
        let h = FeatureHasher::new(16, 3, 4);
        let every_bucket: Vec<u32> = (0..16).collect();
        let a = h.features_of(&tok, "How can I increase my phone's battery life?");
        assert_eq!(a.indices, every_bucket);
        assert_eq!(
            a.weights,
            [5.0, 3.0, 7.0, 3.0, 2.0, 5.0, 7.0, 4.0, 4.0, 3.0, 5.0, 5.0, 6.0, 9.0, 5.0, 4.0]
        );
        let b = h.features_of(&tok, "Plot a line graph in Python");
        assert_eq!(b.indices, every_bucket);
        assert_eq!(
            b.weights,
            [1.0, 4.0, 1.0, 5.0, 3.0, 4.0, 1.0, 2.0, 1.0, 3.0, 4.0, 4.0, 1.0, 7.0, 3.0, 5.0]
        );
    }

    #[test]
    fn features_are_deterministic() {
        let tok = Tokenizer::default();
        let h = hasher();
        let a = h.features_of(&tok, "Plot a line graph in Python");
        let b = h.features_of(&tok, "Plot a line graph in Python");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn indices_are_sorted_unique_and_in_range() {
        let tok = Tokenizer::default();
        let h = hasher();
        let f = h.features_of(&tok, "how to extend smartphone battery life quickly");
        for w in f.indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        assert!(f.indices.iter().all(|&i| i < h.buckets));
        assert_eq!(f.indices.len(), f.weights.len());
        assert!(f.total_weight() >= f.len() as f32);
    }

    #[test]
    fn similar_strings_share_more_buckets_than_dissimilar_ones() {
        let tok = Tokenizer::default();
        let h = hasher();
        let a = h.features_of(&tok, "how can I increase the battery life of my smartphone");
        let b = h.features_of(&tok, "tips for extending my phone battery duration");
        let c = h.features_of(&tok, "write a recursive fibonacci function in rust");
        let overlap = |x: &HashedFeatures, y: &HashedFeatures| -> usize {
            let set: std::collections::HashSet<u32> = x.indices.iter().copied().collect();
            y.indices.iter().filter(|i| set.contains(i)).count()
        };
        assert!(
            overlap(&a, &b) > overlap(&a, &c),
            "paraphrase must share more hashed features than an unrelated query"
        );
    }

    #[test]
    fn empty_input_has_no_features() {
        let tok = Tokenizer::default();
        let h = hasher();
        assert!(h.features_of(&tok, "").is_empty());
        assert_eq!(h.features::<&str>(&[]).len(), 0);
    }

    #[test]
    fn word_ngrams_can_be_disabled() {
        let mut h = hasher();
        h.word_ngrams = false;
        let tok = Tokenizer::default();
        let with_words = hasher().features_of(&tok, "draw a circle");
        let chars_only = h.features_of(&tok, "draw a circle");
        assert!(chars_only.len() < with_words.len());
        assert!(!chars_only.is_empty());
    }

    #[test]
    fn bucket_space_is_respected_even_for_tiny_tables() {
        let tok = Tokenizer::default();
        let h = FeatureHasher::new(7, 3, 4);
        let f = h.features_of(&tok, "some reasonably long query to fill buckets");
        assert!(f.indices.iter().all(|&i| i < 7));
    }

    #[test]
    fn short_tokens_still_produce_character_grams() {
        let tok = Tokenizer::default();
        let h = FeatureHasher::new(1024, 3, 5);
        // "hi" is shorter than min n-gram 3 but boundary markers make "<hi>".
        let f = h.features_of(&tok, "hi");
        assert!(!f.is_empty());
    }
}
