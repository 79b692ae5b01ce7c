//! Pricing and quota accounting for the LLM web service.
//!
//! One of MeanCache's motivations is that server-side caches still charge the
//! user for every query and count it against their rate limit (Section I).
//! The cost model here lets the experiments quantify how much a user-side
//! cache saves.

use serde::{Deserialize, Serialize};

use crate::{LlmError, Result};

/// Per-token pricing of the LLM web service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Price per 1000 input (prompt) tokens, in US dollars.
    pub usd_per_1k_input_tokens: f64,
    /// Price per 1000 output (completion) tokens, in US dollars.
    pub usd_per_1k_output_tokens: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Ballpark public API pricing for a mid-size chat model.
        Self {
            usd_per_1k_input_tokens: 0.0005,
            usd_per_1k_output_tokens: 0.0015,
        }
    }
}

impl CostModel {
    /// Cost of one request in US dollars.
    pub fn cost_usd(&self, input_tokens: usize, output_tokens: usize) -> f64 {
        self.usd_per_1k_input_tokens * input_tokens as f64 / 1000.0
            + self.usd_per_1k_output_tokens * output_tokens as f64 / 1000.0
    }
}

/// Tracks how many queries a user has issued against a provider quota and
/// how much they have spent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuotaTracker {
    /// Maximum number of billable queries allowed (provider rate limit).
    pub limit: u64,
    used: u64,
    spent_usd: f64,
    saved_queries: u64,
    saved_usd: f64,
}

impl QuotaTracker {
    /// Creates a tracker with the given query limit.
    pub fn new(limit: u64) -> Self {
        Self {
            limit,
            used: 0,
            spent_usd: 0.0,
            saved_queries: 0,
            saved_usd: 0.0,
        }
    }

    /// Number of billable queries consumed.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Remaining quota.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }

    /// Total spend in US dollars.
    pub fn spent_usd(&self) -> f64 {
        self.spent_usd
    }

    /// Queries that were answered from the local cache instead of the
    /// provider.
    pub fn saved_queries(&self) -> u64 {
        self.saved_queries
    }

    /// Estimated spend avoided thanks to the local cache.
    pub fn saved_usd(&self) -> f64 {
        self.saved_usd
    }

    /// Records a billable query.
    ///
    /// # Errors
    /// Returns [`crate::LlmError::QuotaExceeded`] once the limit is reached; the
    /// query is *not* recorded in that case.
    pub fn record_billable(&mut self, cost_usd: f64) -> Result<()> {
        if self.used >= self.limit {
            return Err(LlmError::QuotaExceeded {
                used: self.used,
                limit: self.limit,
            });
        }
        self.used += 1;
        self.spent_usd += cost_usd;
        Ok(())
    }

    /// Records a query served locally (no charge, no quota use).
    pub fn record_saved(&mut self, avoided_cost_usd: f64) {
        self.saved_queries += 1;
        self.saved_usd += avoided_cost_usd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_charges_per_token() {
        let m = CostModel::default();
        let c = m.cost_usd(1000, 1000);
        assert!((c - (0.0005 + 0.0015)).abs() < 1e-12);
        assert_eq!(m.cost_usd(0, 0), 0.0);
        assert!(m.cost_usd(10, 50) > m.cost_usd(10, 10));
    }

    #[test]
    fn quota_blocks_after_limit() {
        let mut q = QuotaTracker::new(2);
        q.record_billable(0.01).unwrap();
        q.record_billable(0.01).unwrap();
        let err = q.record_billable(0.01).unwrap_err();
        assert!(matches!(err, LlmError::QuotaExceeded { used: 2, limit: 2 }));
        assert_eq!(q.used(), 2);
        assert_eq!(q.remaining(), 0);
        assert!((q.spent_usd() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn savings_are_tracked_separately_from_spend() {
        let mut q = QuotaTracker::new(10);
        q.record_billable(0.02).unwrap();
        q.record_saved(0.02);
        q.record_saved(0.02);
        assert_eq!(q.saved_queries(), 2);
        assert!((q.saved_usd() - 0.04).abs() < 1e-12);
        assert_eq!(q.remaining(), 9);
    }

    #[test]
    fn empty_tracker_has_zero_ratio() {
        let q = QuotaTracker::new(5);
        assert_eq!(q.remaining(), 5);
    }

    #[test]
    fn serde_round_trip() {
        let mut q = QuotaTracker::new(5);
        q.record_billable(0.1).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: QuotaTracker = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
