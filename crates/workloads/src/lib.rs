//! # mc-workloads
//!
//! Synthetic workload generators standing in for the paper's datasets.
//!
//! The paper evaluates on (a) the GPTCache benchmark dataset of duplicate /
//! non-duplicate query pairs, (b) a 450-query GPT-4-generated contextual
//! dataset, and (c) a 27K-query user study of 20 ChatGPT users (Figure 4).
//! None of those artefacts can be redistributed here, so this crate generates
//! deterministic synthetic equivalents with the properties the experiments
//! actually exercise:
//!
//! * [`topics`] — a combinatorial bank of canonical queries, each with
//!   several lexically-diverse paraphrases (synonym substitution + template
//!   variation), spanning several domains. Paraphrases of the same topic are
//!   semantic duplicates; different topics are non-duplicates, with same-
//!   domain topics acting as hard negatives.
//! * [`pairgen`] — labelled pair datasets (the GPTCache-style training /
//!   validation / test corpus).
//! * [`streams`] — cache population + probe workloads with a configurable
//!   duplicate ratio (the 1000-query standalone experiment of Section IV-B).
//! * [`contextual`] — conversations with follow-up queries whose correct
//!   interpretation depends on their parent query (the 450-query contextual
//!   experiment of Section IV-C).
//! * [`userstudy`] — the per-participant totals behind Figure 4 and a trace
//!   generator that reproduces them.
//! * [`embeddings`] — synthetic embedding clouds with realistic topic
//!   cluster structure, for vector-index benchmarks and recall tests.

pub mod contextual;
pub mod embeddings;
pub mod pairgen;
pub mod streams;
pub mod topics;
pub mod userstudy;

pub use contextual::{
    contextual_workload, followup_training_pairs, paper_contextual_workload, ContextualProbe,
    ContextualWorkload, PopulateItem, ProbeKind,
};
pub use embeddings::EmbeddingCloud;
pub use pairgen::generate_pairs;
pub use streams::{standalone_workload, CacheWorkload, ProbeQuery};
pub use topics::{Topic, TopicBank};
pub use userstudy::{participant_totals, participant_trace, TraceQuery, UserStudy};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modules_compose() {
        let bank = TopicBank::generate(1);
        assert!(bank.len() > 100);
        let pairs = generate_pairs(&bank, 50, 0.5, 2);
        assert_eq!(pairs.len(), 50);
    }
}
