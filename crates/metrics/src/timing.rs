//! Latency and size summaries for the response-time and storage experiments.

use serde::{Deserialize, Serialize};

/// Accumulates a series of scalar observations (latencies in seconds, sizes
/// in bytes, ...) and reports summary statistics.
///
/// The experiment binaries feed per-query wall-clock times into one
/// `TimingStats` per configuration (no cache / GPTCache / MeanCache) to
/// reproduce Figure 5, and per-cache-size byte counts to reproduce Figure 10.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimingStats {
    samples: Vec<f64>,
}

impl TimingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all observations.
    pub fn total(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total() / self.samples.len() as f64
        }
    }

    /// Minimum observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Sample standard deviation, or 0 with fewer than two observations.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// `p`-th percentile (0..=100) using linear interpolation; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let w = rank - lo as f64;
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        }
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Borrow the raw observations (in insertion order).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_all_zero() {
        let t = TimingStats::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), 0.0);
        assert_eq!(t.max(), 0.0);
        assert_eq!(t.median(), 0.0);
        assert_eq!(t.std_dev(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn summary_statistics_are_correct() {
        let mut t = TimingStats::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            t.record(v);
        }
        assert_eq!(t.count(), 5);
        assert_eq!(t.total(), 15.0);
        assert_eq!(t.mean(), 3.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.median(), 3.0);
        assert!((t.std_dev() - (2.5f64).sqrt()).abs() < 1e-9);
        assert!((t.percentile(25.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let mut t = TimingStats::new();
        t.record(1.5);
        t.record(2.5);
        let json = serde_json::to_string(&t).unwrap();
        let back: TimingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.samples(), t.samples());
    }
}
