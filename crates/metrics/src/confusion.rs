//! Confusion-matrix accounting for semantic-cache decisions.

use serde::{Deserialize, Serialize};

/// The outcome of a single cache lookup, relative to the ground truth.
///
/// * `hit` — the cache returned a cached response.
/// * `should_hit` — a semantically equivalent query (with the same context)
///   really was in the cache, so the correct behaviour was to hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheDecision {
    /// The cache returned a response and the ground truth agrees (true positive).
    TrueHit,
    /// The cache returned a response for a query that had no equivalent in the
    /// cache (false positive) — the user receives a wrong answer and must
    /// manually resubmit.
    FalseHit,
    /// The cache forwarded the query to the LLM and no equivalent was cached
    /// (true negative).
    TrueMiss,
    /// The cache forwarded a query that *did* have a cached equivalent
    /// (false negative) — correctness is preserved but the saving is lost.
    FalseMiss,
}

impl CacheDecision {
    /// Classifies a predicted hit/miss against the ground-truth label.
    pub fn classify(predicted_hit: bool, should_hit: bool) -> Self {
        match (predicted_hit, should_hit) {
            (true, true) => CacheDecision::TrueHit,
            (true, false) => CacheDecision::FalseHit,
            (false, false) => CacheDecision::TrueMiss,
            (false, true) => CacheDecision::FalseMiss,
        }
    }

    /// `true` when the cache predicted a hit.
    pub fn predicted_hit(self) -> bool {
        matches!(self, CacheDecision::TrueHit | CacheDecision::FalseHit)
    }
}

/// Counts of the four semantic-cache outcomes plus derived metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// True positives: correct cache hits.
    pub true_hits: u64,
    /// False positives: incorrect cache hits (wrong answer returned).
    pub false_hits: u64,
    /// True negatives: correct cache misses.
    pub true_misses: u64,
    /// False negatives: missed opportunities (equivalent entry existed).
    pub false_misses: u64,
}

impl ConfusionMatrix {
    /// An empty confusion matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision.
    pub fn record(&mut self, decision: CacheDecision) {
        match decision {
            CacheDecision::TrueHit => self.true_hits += 1,
            CacheDecision::FalseHit => self.false_hits += 1,
            CacheDecision::TrueMiss => self.true_misses += 1,
            CacheDecision::FalseMiss => self.false_misses += 1,
        }
    }

    /// Records a predicted hit/miss against the ground truth.
    pub fn record_outcome(&mut self, predicted_hit: bool, should_hit: bool) {
        self.record(CacheDecision::classify(predicted_hit, should_hit));
    }

    /// Adds raw counts (used by tests and by aggregation across clients).
    pub fn record_counts(&mut self, tp: u64, fp: u64, tn: u64, fn_: u64) {
        self.true_hits += tp;
        self.false_hits += fp;
        self.true_misses += tn;
        self.false_misses += fn_;
    }

    /// Merges another confusion matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_hits += other.true_hits;
        self.false_hits += other.false_hits;
        self.true_misses += other.true_misses;
        self.false_misses += other.false_misses;
    }

    /// Total number of recorded decisions.
    pub fn total(&self) -> u64 {
        self.true_hits + self.false_hits + self.true_misses + self.false_misses
    }

    /// Precision = TP / (TP + FP); 0 when no positive predictions were made.
    pub fn precision(&self) -> f64 {
        let denom = self.true_hits + self.false_hits;
        if denom == 0 {
            0.0
        } else {
            self.true_hits as f64 / denom as f64
        }
    }

    /// Recall = TP / (TP + FN); 0 when no positives exist.
    pub fn recall(&self) -> f64 {
        let denom = self.true_hits + self.false_misses;
        if denom == 0 {
            0.0
        } else {
            self.true_hits as f64 / denom as f64
        }
    }

    /// Accuracy = (TP + TN) / total; 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.true_hits + self.true_misses) as f64 / total as f64
        }
    }

    /// Fβ score (weighted harmonic mean of precision and recall). β < 1
    /// emphasises precision, β > 1 emphasises recall.
    pub fn f_beta(&self, beta: f64) -> f64 {
        let p = self.precision();
        let r = self.recall();
        let b2 = beta * beta;
        let denom = b2 * p + r;
        if denom <= 0.0 {
            0.0
        } else {
            (1.0 + b2) * p * r / denom
        }
    }

    /// F1 score (β = 1).
    pub fn f1(&self) -> f64 {
        self.f_beta(1.0)
    }

    /// Hit rate as a traditional cache would report it: fraction of lookups
    /// answered from the cache regardless of correctness.
    pub fn raw_hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.true_hits + self.false_hits) as f64 / total as f64
        }
    }

    /// Bundles every derived metric using the given β.
    pub fn summary(&self, beta: f64) -> MetricSummary {
        MetricSummary {
            precision: self.precision(),
            recall: self.recall(),
            f_score: self.f_beta(beta),
            f1: self.f1(),
            accuracy: self.accuracy(),
            beta,
            total: self.total(),
        }
    }
}

/// Derived metric bundle reported by the experiment binaries (one row of
/// Table I, one point of Figures 11-14/16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Precision (TP / predicted positives).
    pub precision: f64,
    /// Recall (TP / actual positives).
    pub recall: f64,
    /// Fβ score at the β recorded alongside.
    pub f_score: f64,
    /// F1 score.
    pub f1: f64,
    /// Accuracy.
    pub accuracy: f64,
    /// β used for `f_score`.
    pub beta: f64,
    /// Number of decisions summarised.
    pub total: u64,
}

impl std::fmt::Display for MetricSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "F{:.1}={:.3} P={:.3} R={:.3} Acc={:.3} (n={})",
            self.beta, self.f_score, self.precision, self.recall, self.accuracy, self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_all_quadrants() {
        assert_eq!(CacheDecision::classify(true, true), CacheDecision::TrueHit);
        assert_eq!(
            CacheDecision::classify(true, false),
            CacheDecision::FalseHit
        );
        assert_eq!(
            CacheDecision::classify(false, false),
            CacheDecision::TrueMiss
        );
        assert_eq!(
            CacheDecision::classify(false, true),
            CacheDecision::FalseMiss
        );
        assert!(CacheDecision::FalseHit.predicted_hit());
        assert!(!CacheDecision::TrueMiss.predicted_hit());
    }

    #[test]
    fn metrics_match_hand_computed_values() {
        // The paper's Figure 7a matrix for MeanCache (MPNet):
        // TN=611 FP=89 / FN=66 TP=234.
        let mut cm = ConfusionMatrix::new();
        cm.record_counts(234, 89, 611, 66);
        assert!((cm.precision() - 234.0 / 323.0).abs() < 1e-9);
        assert!((cm.recall() - 234.0 / 300.0).abs() < 1e-9);
        assert!((cm.accuracy() - 845.0 / 1000.0).abs() < 1e-9);
        // The derived precision ≈ 0.724 and accuracy 0.845 match Table I.
        assert!((cm.precision() - 0.72).abs() < 0.01);
        assert!((cm.accuracy() - 0.85).abs() < 0.01);
    }

    #[test]
    fn gptcache_reference_matrix_matches_table() {
        // Figure 7b: TN=467 FP=233 / FN=46 TP=254.
        let mut cm = ConfusionMatrix::new();
        cm.record_counts(254, 233, 467, 46);
        assert!((cm.precision() - 0.52).abs() < 0.01);
        assert!((cm.recall() - 0.85).abs() < 0.01);
        assert!((cm.accuracy() - 0.72).abs() < 0.01);
        // F0.5 ≈ 0.56 as reported in Table I.
        assert!((cm.f_beta(0.5) - 0.56).abs() < 0.01);
    }

    #[test]
    fn empty_matrix_yields_zero_metrics() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.f1(), 0.0);
        assert_eq!(cm.raw_hit_rate(), 0.0);
        assert_eq!(cm.total(), 0);
    }

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = ConfusionMatrix::new();
        a.record_outcome(true, true);
        a.record_outcome(true, false);
        let mut b = ConfusionMatrix::new();
        b.record_outcome(false, true);
        b.record_outcome(false, false);
        a.merge(&b);
        assert_eq!(a.true_hits, 1);
        assert_eq!(a.false_hits, 1);
        assert_eq!(a.false_misses, 1);
        assert_eq!(a.true_misses, 1);
        assert_eq!(a.total(), 4);
        assert!((a.accuracy() - 0.5).abs() < 1e-9);
        assert!((a.raw_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn f_beta_extremes() {
        let mut cm = ConfusionMatrix::new();
        cm.record_counts(50, 50, 0, 0); // precision 0.5, recall 1.0
                                        // As beta -> 0 the score approaches precision; beta large approaches recall.
        assert!((cm.f_beta(0.01) - 0.5).abs() < 0.01);
        assert!((cm.f_beta(100.0) - 1.0).abs() < 0.01);
        assert!(cm.f_beta(1.0) > cm.f_beta(0.5));
    }

    #[test]
    fn perfect_classifier_has_all_ones() {
        let mut cm = ConfusionMatrix::new();
        cm.record_counts(10, 0, 10, 0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.f1(), 1.0);
    }

    #[test]
    fn summary_round_trips_through_serde() {
        let mut cm = ConfusionMatrix::new();
        cm.record_counts(3, 1, 5, 2);
        let s = cm.summary(0.5);
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert!(s.to_string().contains("P=0.750"));
    }
}
