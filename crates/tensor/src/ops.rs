//! Higher-level batched operations used by the embedding model and the
//! semantic-search path: softmax, log-sum-exp, pairwise similarity matrices,
//! and parallel batched cosine scoring.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::{vector, Matrix, Result, TensorError};

/// Numerically-stable softmax over a slice, returning a fresh `Vec`.
///
/// Subtracting the maximum before exponentiating keeps the intermediate
/// values in range even for the large logits the MNR loss produces when the
/// encoder becomes confident.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum <= f32::EPSILON {
        return vec![1.0 / logits.len() as f32; logits.len()];
    }
    exps.into_iter().map(|e| e / sum).collect()
}

/// Numerically-stable `log(sum(exp(x)))`.
pub fn log_sum_exp(logits: &[f32]) -> f32 {
    if logits.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = logits.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Cosine similarity between every row of `queries` and every row of `keys`,
/// producing a `queries.rows() x keys.rows()` matrix.
///
/// Rows are scored in parallel; this is the kernel behind both the
/// multiple-negatives-ranking loss (in-batch negatives) and the batched
/// evaluation harness.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] when the column counts differ.
pub fn pairwise_cosine(queries: &Matrix, keys: &Matrix) -> Result<Matrix> {
    if queries.cols() != keys.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "pairwise_cosine: {} vs {} columns",
            queries.cols(),
            keys.cols()
        )));
    }
    let q_rows = queries.rows();
    let k_rows = keys.rows();
    let mut out = Matrix::zeros(q_rows, k_rows);
    out.as_mut_slice()
        .par_chunks_mut(k_rows.max(1))
        .enumerate()
        .for_each(|(qi, out_row)| {
            let q = queries.row(qi);
            for (ki, slot) in out_row.iter_mut().enumerate() {
                *slot = vector::cosine_similarity(q, keys.row(ki));
            }
        });
    Ok(out)
}

/// Scores one query vector against every row of `keys` using the fast
/// normalised-cosine kernel (both sides must already be L2-normalised).
/// Returns one score per key row, computed in parallel for large key sets.
pub fn batch_cosine_normalized(query: &[f32], keys: &Matrix) -> Result<Vec<f32>> {
    if query.len() != keys.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "batch_cosine_normalized: query {} vs keys {} columns",
            query.len(),
            keys.cols()
        )));
    }
    let cols = keys.cols().max(1);
    if keys.rows() * keys.cols() >= crate::PARALLEL_FLOP_THRESHOLD {
        Ok(keys
            .as_slice()
            .par_chunks(cols)
            .map(|row| vector::cosine_similarity_normalized(query, row))
            .collect())
    } else {
        Ok(keys
            .as_slice()
            .chunks_exact(cols)
            .map(|row| vector::cosine_similarity_normalized(query, row))
            .collect())
    }
}

/// One candidate of a top-k selection. The `Ord` impl ranks by score
/// (higher = greater, NaN below every number), breaking ties toward the lower
/// key, so selection is a total order and stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ranked {
    key: u64,
    score: f32,
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // `partial_cmp` is `None` only when a side is NaN; then the NaN side
        // (or neither, for two NaNs) is the lesser.
        self.score
            .partial_cmp(&other.score)
            .unwrap_or_else(|| other.score.is_nan().cmp(&self.score.is_nan()))
            .then(other.key.cmp(&self.key))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A running selection of the `k` best `(key, score)` candidates offered so
/// far: higher score first, ties toward the lower key.
///
/// Backed by a bounded min-heap — O(log k) per admitted candidate — so an
/// index scan can feed it row by row instead of materialising every score.
/// Because the order is total, the selection does not depend on the order
/// candidates arrive in: partial selections over disjoint key ranges
/// [`merge`](Self::merge) into exactly the selection a single pass makes.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// The heap root is the *worst* kept candidate (`Reverse` flips the
    /// max-heap), so one peek decides whether a newcomer displaces anything.
    heap: BinaryHeap<Reverse<Ranked>>,
}

impl TopK {
    /// An empty selection of at most `k` candidates. Room for a typical `k`
    /// is reserved up front (bounded: callers pass `usize::MAX` for "all").
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(64)),
        }
    }

    /// Offers one candidate.
    #[inline]
    pub fn push(&mut self, key: u64, score: f32) {
        let candidate = Reverse(Ranked { key, score });
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            // `Reverse`: the candidate ranks higher when it compares less.
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// The score a candidate must reach to have any chance of admission:
    /// the k-th best score once `k` candidates are kept, `-inf` before.
    /// (A candidate *at* the floor is admitted only on a lower key.)
    #[inline]
    pub fn floor(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::NEG_INFINITY
        } else {
            self.heap
                .peek()
                .map_or(f32::INFINITY, |worst| worst.0.score)
        }
    }

    /// This selection with another's candidates folded in.
    pub fn merge(mut self, other: TopK) -> TopK {
        for candidate in other.heap {
            self.push(candidate.0.key, candidate.0.score);
        }
        self
    }

    /// The kept candidates, best first.
    pub fn into_sorted_vec(self) -> Vec<(u64, f32)> {
        // Ascending in `Reverse<Ranked>` is descending in rank.
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|candidate| (candidate.0.key, candidate.0.score))
            .collect()
    }
}

/// Indices and scores of the `k` largest entries of `scores`, in descending
/// score order. Ties are broken by the lower index and NaN ranks below every
/// number, for determinism.
///
/// The materialised-scores form of [`TopK`] — O(n log k) instead of the
/// O(n log n) full sort. The index scans feed a [`TopK`] directly; this form
/// ranks IVF centroids and is the reference the fused scans are tested
/// against.
pub fn top_k(scores: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut top = TopK::new(k);
    for (idx, &score) in scores.iter().enumerate() {
        top.push(idx as u64, score);
    }
    top.into_sorted_vec()
        .into_iter()
        .map(|(idx, score)| (idx as usize, score))
        .collect()
}

/// Clips every element of `values` to `[-limit, limit]` in place and returns
/// the number of clipped elements. Gradient clipping keeps the contrastive
/// training numerically stable on small, noisy client datasets.
pub fn clip_in_place(values: &mut [f32], limit: f32) -> usize {
    let mut clipped = 0;
    for v in values.iter_mut() {
        if *v > limit {
            *v = limit;
            clipped += 1;
        } else if *v < -limit {
            *v = -limit;
            clipped += 1;
        }
    }
    clipped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_ordered() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_inputs() {
        let x = [0.1f32, -0.5, 0.7];
        let naive = x.iter().map(|v| v.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&x) - naive).abs() < 1e-5);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn pairwise_cosine_diagonal_of_self_is_one() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![1.0, 1.0, 0.0],
        ])
        .unwrap();
        let sim = pairwise_cosine(&m, &m).unwrap();
        for i in 0..3 {
            assert!((sim.get(i, i) - 1.0).abs() < 1e-5);
        }
        assert!(sim.get(0, 1).abs() < 1e-6);
        assert!((sim.get(0, 2) - (1.0 / 2f32.sqrt())).abs() < 1e-5);
    }

    #[test]
    fn pairwise_cosine_rejects_mismatched_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(pairwise_cosine(&a, &b).is_err());
    }

    #[test]
    fn batch_cosine_matches_pairwise() {
        let mut keys = Matrix::from_rows(&[
            vec![0.3, 0.4, 0.1],
            vec![-0.2, 0.9, 0.5],
            vec![1.0, 0.0, 0.0],
        ])
        .unwrap();
        keys.normalize_rows();
        let mut q = vec![0.5, 0.5, 0.5];
        vector::normalize(&mut q);
        let scores = batch_cosine_normalized(&q, &keys).unwrap();
        for (i, s) in scores.iter().enumerate() {
            let expect = vector::cosine_similarity(&q, keys.row(i));
            assert!((s - expect).abs() < 1e-5);
        }
        assert!(batch_cosine_normalized(&[0.1, 0.2], &keys).is_err());
    }

    #[test]
    fn top_k_orders_descending_and_truncates() {
        let scores = [0.1, 0.9, 0.5, 0.9, 0.2];
        let top = top_k(&scores, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 1); // tie broken by lower index
        assert_eq!(top[1].0, 3);
        assert_eq!(top[2].0, 2);
        assert!(top_k(&scores, 100).len() == 5);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn clip_limits_magnitude() {
        let mut v = vec![-5.0, 0.5, 5.0];
        let clipped = clip_in_place(&mut v, 1.0);
        assert_eq!(clipped, 2);
        assert_eq!(v, vec![-1.0, 0.5, 1.0]);
    }
}
