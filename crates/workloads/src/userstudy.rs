//! The 20-participant ChatGPT user study behind Figure 4.
//!
//! The paper reports, for each of 20 participants, the total number of
//! queries they submitted and how many were similar to previously submitted
//! ones, concluding that ~31% of queries are repeats on average. The exact
//! per-participant numbers are reproduced here as reference data, and a trace
//! generator synthesises query streams with the same totals and duplicate
//! counts so the end-to-end cache can be exercised on realistic per-user
//! volumes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::TopicBank;

/// Per-participant totals read off Figure 4 of the paper: (total queries,
/// duplicate queries) for participants 1..=20.
pub const PAPER_FIGURE4: [(u64, u64); 20] = [
    (1571, 573),
    (457, 194),
    (428, 144),
    (180, 61),
    (2530, 798),
    (1531, 547),
    (427, 132),
    (2647, 700),
    (1480, 404),
    (119, 54),
    (3367, 1269),
    (91, 19),
    (345, 120),
    (116, 18),
    (352, 88),
    (3710, 1247),
    (242, 58),
    (466, 83),
    (104, 36),
    (6984, 2850),
];

/// Returns the paper's per-participant (total, duplicate) counts.
pub fn participant_totals() -> &'static [(u64, u64); 20] {
    &PAPER_FIGURE4
}

/// Summary statistics over the user study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserStudy {
    /// Per-participant (total queries, duplicate queries).
    pub participants: Vec<(u64, u64)>,
}

impl UserStudy {
    /// The paper's study.
    pub fn paper() -> Self {
        Self {
            participants: PAPER_FIGURE4.to_vec(),
        }
    }

    /// Total queries across all participants (the paper reports "over 27K").
    pub fn total_queries(&self) -> u64 {
        self.participants.iter().map(|(t, _)| t).sum()
    }

    /// Mean of the per-participant duplicate ratios (the paper's "on average,
    /// 31% of queries are similar to previously submitted queries").
    pub fn mean_duplicate_ratio(&self) -> f64 {
        if self.participants.is_empty() {
            return 0.0;
        }
        self.participants
            .iter()
            .map(|(t, d)| if *t == 0 { 0.0 } else { *d as f64 / *t as f64 })
            .sum::<f64>()
            / self.participants.len() as f64
    }
}

/// One synthetic query in a participant trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceQuery {
    /// Query text.
    pub text: String,
    /// Topic this query belongs to.
    pub topic_id: usize,
    /// `true` when this query repeats (paraphrases) an earlier query in the
    /// same trace.
    pub is_repeat: bool,
}

/// Generates a synthetic query trace with `total` queries of which `repeats`
/// paraphrase earlier queries in the trace (per-participant Figure 4 shape).
/// Truncates `repeats` to `total - 1` since the first query cannot repeat.
pub fn participant_trace(
    bank: &TopicBank,
    total: usize,
    repeats: usize,
    seed: u64,
) -> Vec<TraceQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let repeats = repeats.min(total.saturating_sub(1));
    let fresh = total - repeats;
    let mut trace: Vec<TraceQuery> = Vec::with_capacity(total);
    let mut used_topics: Vec<usize> = Vec::new();

    // Decide which positions are repeats: spread them after the first query.
    let mut is_repeat = vec![false; total];
    let mut placed = 0;
    while placed < repeats {
        let pos = rng.random_range(1..total);
        if !is_repeat[pos] {
            is_repeat[pos] = true;
            placed += 1;
        }
    }
    let _ = fresh;

    for flag in is_repeat.into_iter() {
        if flag && !used_topics.is_empty() {
            let topic = bank.topic(used_topics[rng.random_range(0..used_topics.len())]);
            let variant = rng.random_range(0..topic.variant_count());
            trace.push(TraceQuery {
                text: topic.paraphrase(variant).to_string(),
                topic_id: topic.id,
                is_repeat: true,
            });
        } else {
            let topic = bank.topic(rng.random_range(0..bank.len()));
            used_topics.push(topic.id);
            trace.push(TraceQuery {
                text: topic.canonical().to_string(),
                topic_id: topic.id,
                is_repeat: false,
            });
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals_match_reported_aggregates() {
        let study = UserStudy::paper();
        assert_eq!(study.participants.len(), 20);
        // "over 27K queries"
        assert!(study.total_queries() > 27_000);
        // "about 31% of user queries were similar to previous ones"
        let mean = study.mean_duplicate_ratio();
        assert!((mean - 0.31).abs() < 0.03, "mean duplicate ratio {mean}");
        assert_eq!(participant_totals()[0], (1571, 573));
    }

    #[test]
    fn empty_study_is_well_defined() {
        let study = UserStudy {
            participants: vec![],
        };
        assert_eq!(study.mean_duplicate_ratio(), 0.0);
    }

    #[test]
    fn trace_has_requested_length_and_repeat_count() {
        let bank = TopicBank::generate(1);
        let trace = participant_trace(&bank, 500, 150, 2);
        assert_eq!(trace.len(), 500);
        let repeats = trace.iter().filter(|q| q.is_repeat).count();
        assert_eq!(repeats, 150);
        assert!(!trace[0].is_repeat, "first query can never be a repeat");
    }

    #[test]
    fn repeats_reference_previously_seen_topics() {
        let bank = TopicBank::generate(3);
        let trace = participant_trace(&bank, 200, 80, 4);
        let mut seen = std::collections::HashSet::new();
        for q in &trace {
            if q.is_repeat {
                assert!(
                    seen.contains(&q.topic_id),
                    "repeat query must reuse an earlier topic"
                );
            }
            seen.insert(q.topic_id);
        }
    }

    #[test]
    fn repeat_count_is_truncated_when_impossible() {
        let bank = TopicBank::generate(5);
        let trace = participant_trace(&bank, 3, 10, 6);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.iter().filter(|q| q.is_repeat).count(), 2);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let bank = TopicBank::generate(7);
        let a = participant_trace(&bank, 100, 30, 8);
        let b = participant_trace(&bank, 100, 30, 8);
        assert_eq!(a, b);
    }
}
