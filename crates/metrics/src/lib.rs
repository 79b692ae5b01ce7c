//! # mc-metrics
//!
//! Evaluation metrics for semantic-cache decisions, matching Section IV-A3 of
//! the MeanCache paper.
//!
//! Traditional hit/miss rates are misleading for a *semantic* cache: a hit
//! can be wrong (a *false hit* returns an unrelated cached response) and a
//! miss can be wrong (a *false miss* forwards a query that had a perfectly
//! good cached answer). The paper therefore evaluates cache decisions as a
//! binary classification problem and reports precision, recall, Fβ and
//! accuracy. This crate provides:
//!
//! * [`ConfusionMatrix`] — the four counters (true hit, false hit, true miss,
//!   false miss) plus the derived metrics, including the Fβ score with the
//!   paper's β = 0.5 weighting that favours precision.
//! * [`timing`] — latency/size summaries (mean, percentiles, totals) used by
//!   the response-time and storage experiments (Figures 5, 10, 15).
//! * [`histogram`] — a fixed-size log2-bucketed latency histogram for online
//!   serving, where keeping every sample is not an option.
//! * [`report`] — plain-text table rendering so the benchmark binaries print
//!   rows directly comparable to the paper's tables.
//! * [`trace`] — per-request stage traces, a sampling gate, and a
//!   fixed-capacity flight recorder for online attribution of where a
//!   request's latency went.

pub mod confusion;
pub mod histogram;
pub mod report;
pub mod timing;
pub mod trace;

pub use confusion::{CacheDecision, ConfusionMatrix, MetricSummary};
pub use histogram::{
    merge_log2_buckets, percentile_from_log2_buckets, LatencyHistogram, LATENCY_HIST_BUCKETS,
};
pub use report::Table;
pub use timing::TimingStats;
pub use trace::{FlightRecorder, Stage, Trace, TraceDump, TraceSnapshot, Tracer, STAGE_COUNT};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_beta_prefers_precision() {
        let mut high_precision = ConfusionMatrix::new();
        high_precision.record_counts(80, 5, 100, 40);
        let mut high_recall = ConfusionMatrix::new();
        high_recall.record_counts(115, 60, 45, 5);
        // Comparable overall quality, but the precision-heavy system must win under beta=0.5.
        assert!(
            high_precision.f_beta(0.5) > high_recall.f_beta(0.5),
            "precision-heavy system must score higher under beta=0.5"
        );
    }
}
