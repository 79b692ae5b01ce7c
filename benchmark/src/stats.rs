//! Order statistics the benchmark reports: medians over segments,
//! percentiles over per-op samples, and the quartile spread the regression
//! bounds are derived from.

/// Median of `values` (mean of the two middle samples for an even count).
/// `NaN` for an empty slice, so a missing sample can never read as a fast one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending slice: the
/// `ceil(p * n)`-th smallest sample. `NaN` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted per-op samples, in place (sorts `samples`).
pub fn p50(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, 0.5)
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten samples
/// beyond it, with its name — a tail read off fewer samples than that does
/// not repeat. Falls back to the median for tiny samples.
pub fn tail_percentile(sorted: &[f64]) -> (&'static str, f64) {
    // Ranks in integer per-mille arithmetic: `0.999 * 10_000` is not exactly
    // 9 990 in floating point, and the ten-samples rule sits on that edge.
    for (name, permille) in [("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900)] {
        let rank = (sorted.len() * permille).div_ceil(1000);
        if sorted.len() - rank >= 10 {
            return (name, sorted[rank - 1]);
        }
    }
    ("p50", percentile_sorted(sorted, 0.5))
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (exclusive method) — the rule the acceptance driver applies.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `(q3 - q1) / |median|`: the run spread. Zero when every sample is equal
/// (including the all-zero case, where the ratio would be 0/0).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    if q3 == q1 {
        return 0.0;
    }
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[42.0], 0.99), 42.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
        let mut unsorted = vec![9.0, 1.0, 5.0];
        assert_eq!(p50(&mut unsorted), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 10 000 samples: p99.9 leaves exactly ten beyond it.
        assert_eq!(tail_percentile(&of(10_000)), ("p99.9", 9_990.0));
        // 9 999 samples: p99.9 would leave nine, so p99 is the tail.
        assert_eq!(tail_percentile(&of(9_999)).0, "p99");
        assert_eq!(tail_percentile(&of(1_000)), ("p99", 990.0));
        assert_eq!(tail_percentile(&of(999)).0, "p95");
        assert_eq!(tail_percentile(&of(200)), ("p95", 190.0));
        assert_eq!(tail_percentile(&of(100)), ("p90", 90.0));
        assert_eq!(tail_percentile(&of(99)).0, "p50");
        assert_eq!(tail_percentile(&of(5)), ("p50", 3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
