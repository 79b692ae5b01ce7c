//! Word-level tokenisation for user queries.
//!
//! The tokenizer is intentionally simple — lower-casing, Unicode-aware
//! alphanumeric word splitting, optional stop-word removal — because the
//! encoder's robustness comes from the hashed character n-grams layered on
//! top (see [`crate::ngram`]), not from a heavyweight subword vocabulary.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// Configuration and implementation of query tokenisation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tokenizer {
    /// Lower-case the input before splitting (default `true`).
    pub lowercase: bool,
    /// Drop tokens appearing in the built-in English stop-word list
    /// (default `false`; the encoder benefits from function words when
    /// distinguishing contextual follow-ups such as "change *it* to red").
    pub remove_stopwords: bool,
    /// Minimum token length in characters (default 1).
    pub min_token_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self {
            lowercase: true,
            remove_stopwords: false,
            min_token_len: 1,
        }
    }
}

/// A conservative English stop-word list used when `remove_stopwords` is on.
const STOPWORDS: &[&str] = &[
    "a", "an", "the", "is", "are", "was", "were", "be", "been", "being", "of", "to", "in", "on",
    "at", "for", "with", "and", "or", "do", "does", "did", "can", "could", "would", "should", "i",
    "me", "my", "you", "your", "it", "its", "this", "that", "these", "those",
];

impl Tokenizer {
    /// Creates a tokenizer with explicit options.
    pub fn new(lowercase: bool, remove_stopwords: bool, min_token_len: usize) -> Self {
        Self {
            lowercase,
            remove_stopwords,
            min_token_len: min_token_len.max(1),
        }
    }

    /// Case-folds `text` as the configuration asks, borrowing it when there
    /// is nothing to fold. The result is what [`Tokenizer::split`] cuts.
    pub fn fold<'a>(&self, text: &'a str) -> Cow<'a, str> {
        if self.lowercase {
            Cow::Owned(text.to_lowercase())
        } else {
            Cow::Borrowed(text)
        }
    }

    /// Word tokens of an already [folded](Tokenizer::fold) string, borrowed
    /// from it: the allocation-free half of [`Tokenizer::tokenize`], for
    /// callers (the feature hasher) that only read the tokens.
    pub fn split<'a>(&'a self, folded: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        folded
            .split(|c: char| !c.is_alphanumeric() && c != '\'')
            .map(|t| t.trim_matches('\''))
            .filter(|t| t.len() >= self.min_token_len)
            .filter(|t| !self.remove_stopwords || !STOPWORDS.contains(t))
    }

    /// Splits a query into word tokens according to the configuration.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        self.split(&self.fold(text)).map(str::to_owned).collect()
    }

    /// Tokenises and rejoins with single spaces — a normalised form used for
    /// exact-match comparisons and cache keys.
    pub fn normalize(&self, text: &str) -> String {
        self.tokenize(text).join(" ")
    }
}

/// Jaccard similarity between the token sets of two strings: a cheap lexical
/// similarity used by the keyword-matching baseline experiments and by the
/// workload generator's sanity checks.
pub fn jaccard_similarity(tokenizer: &Tokenizer, a: &str, b: &str) -> f32 {
    use std::collections::HashSet;
    let sa: HashSet<String> = tokenizer.tokenize(a).into_iter().collect();
    let sb: HashSet<String> = tokenizer.tokenize(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f32;
    let union = sa.union(&sb).count() as f32;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits_punctuation() {
        let tok = Tokenizer::default();
        assert_eq!(
            tok.tokenize("How can I increase the battery-life of my Smartphone?"),
            vec![
                "how",
                "can",
                "i",
                "increase",
                "the",
                "battery",
                "life",
                "of",
                "my",
                "smartphone"
            ]
        );
    }

    #[test]
    fn tokenize_preserves_case_when_configured() {
        let tok = Tokenizer::new(false, false, 1);
        assert_eq!(tok.tokenize("Draw a Line"), vec!["Draw", "a", "Line"]);
    }

    #[test]
    fn stopword_removal() {
        let tok = Tokenizer::new(true, true, 1);
        let tokens = tok.tokenize("What is the capital of France?");
        assert!(!tokens.contains(&"the".to_string()));
        assert!(!tokens.contains(&"of".to_string()));
        assert!(tokens.contains(&"capital".to_string()));
        assert!(tokens.contains(&"france".to_string()));
    }

    #[test]
    fn min_token_len_filters_short_tokens() {
        let tok = Tokenizer::new(true, false, 2);
        let tokens = tok.tokenize("a b cd efg");
        assert_eq!(tokens, vec!["cd", "efg"]);
    }

    #[test]
    fn apostrophes_inside_words_are_kept() {
        let tok = Tokenizer::default();
        assert_eq!(
            tok.tokenize("what's my phone's battery"),
            vec!["what's", "my", "phone's", "battery"]
        );
    }

    #[test]
    fn normalize_is_idempotent() {
        let tok = Tokenizer::default();
        let n1 = tok.normalize("  Plot   a LINE  plot!! ");
        let n2 = tok.normalize(&n1);
        assert_eq!(n1, "plot a line plot");
        assert_eq!(n1, n2);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        let tok = Tokenizer::default();
        assert!(tok.tokenize("").is_empty());
        assert!(tok.tokenize("!!! ??? ---").is_empty());
        assert_eq!(tok.tokenize("one two three").len(), 3);
    }

    #[test]
    fn jaccard_behaviour() {
        let tok = Tokenizer::default();
        assert!((jaccard_similarity(&tok, "draw a line", "draw a line") - 1.0).abs() < 1e-6);
        assert_eq!(jaccard_similarity(&tok, "", ""), 1.0);
        assert_eq!(jaccard_similarity(&tok, "cat", "dog"), 0.0);
        let sim = jaccard_similarity(&tok, "plot a line in python", "draw a line plot python");
        assert!(sim > 0.3 && sim < 1.0);
    }

    #[test]
    fn unicode_words_are_supported() {
        let tok = Tokenizer::default();
        let tokens = tok.tokenize("café naïve résumé");
        assert_eq!(tokens.len(), 3);
        assert_eq!(tokens[0], "café");
    }
}
