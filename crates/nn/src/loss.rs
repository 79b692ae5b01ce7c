//! Training objectives for the embedding model.
//!
//! Section III-A1 of the paper trains the client-side encoder with a
//! *multitask* objective:
//!
//! * a **contrastive loss** that pushes non-duplicate query pairs apart in
//!   the embedding space, and
//! * a **multiple-negatives ranking (MNR) loss** that pulls duplicate pairs
//!   together while treating every other in-batch positive as a negative.
//!
//! Both are defined on cosine similarity, so this module also provides the
//! analytic gradient of cosine similarity with respect to its (raw,
//! unnormalised) input vectors. Keeping normalisation inside the loss keeps
//! the encoder's backward pass simple and is mathematically equivalent to an
//! explicit L2-normalisation layer.

use mc_tensor::{ops, vector, Matrix};

use crate::{NnError, Result};

/// Norm at or below which a vector counts as degenerate: its cosine with
/// anything is 0 and has zero gradient. One rule for every cosine the
/// training losses score and differentiate.
const DEGENERATE_NORM: f32 = 1e-8;

/// Cosine similarity between `a` and `b` together with its gradients
/// `(d cos / d a, d cos / d b)`.
///
/// Degenerate (near-zero-norm) inputs yield zero similarity and zero
/// gradients so training never produces NaNs from an empty query.
pub fn cosine_with_grad(a: &[f32], b: &[f32]) -> (f32, Vec<f32>, Vec<f32>) {
    let na = vector::norm(a);
    let nb = vector::norm(b);
    if na <= DEGENERATE_NORM || nb <= DEGENERATE_NORM || a.len() != b.len() {
        return (0.0, vec![0.0; a.len()], vec![0.0; b.len()]);
    }
    let cos = (vector::dot(a, b) / (na * nb)).clamp(-1.0, 1.0);
    let inv_ab = 1.0 / (na * nb);
    let inv_aa = 1.0 / (na * na);
    let inv_bb = 1.0 / (nb * nb);
    let da = a
        .iter()
        .zip(b)
        .map(|(&ak, &bk)| bk * inv_ab - cos * ak * inv_aa);
    let db = a
        .iter()
        .zip(b)
        .map(|(&ak, &bk)| ak * inv_ab - cos * bk * inv_bb);
    (cos, da.collect(), db.collect())
}

/// Contrastive loss on a single labelled pair.
///
/// * Duplicate pairs are penalised by `(1 - cos)^2` — the loss is zero only
///   when the embeddings point in exactly the same direction.
/// * Non-duplicate pairs are penalised by `max(0, cos - margin)^2` — they are
///   pushed apart until their similarity falls below `margin`.
///
/// Returns the loss value and the gradients with respect to both raw
/// embedding vectors.
pub fn contrastive_loss_with_grad(
    a: &[f32],
    b: &[f32],
    is_duplicate: bool,
    margin: f32,
) -> (f32, Vec<f32>, Vec<f32>) {
    let (cos, dcos_a, dcos_b) = cosine_with_grad(a, b);
    if is_duplicate {
        let diff = 1.0 - cos;
        let loss = diff * diff;
        // dL/dcos = -2 (1 - cos)
        let scale = -2.0 * diff;
        let ga = dcos_a.iter().map(|g| g * scale).collect();
        let gb = dcos_b.iter().map(|g| g * scale).collect();
        (loss, ga, gb)
    } else {
        let overshoot = (cos - margin).max(0.0);
        let loss = overshoot * overshoot;
        let scale = 2.0 * overshoot;
        let ga = dcos_a.iter().map(|g| g * scale).collect();
        let gb = dcos_b.iter().map(|g| g * scale).collect();
        (loss, ga, gb)
    }
}

/// Multiple-negatives ranking loss over a batch of (anchor, positive) pairs.
///
/// `anchors` and `positives` are matrices with one raw embedding per row;
/// row `i` of `positives` is the known duplicate of row `i` of `anchors` and
/// every other row acts as an in-batch negative. With scaled cosine scores
/// `S_ij = scale * cos(a_i, p_j)` the loss is the mean cross-entropy of the
/// correct column:
///
/// ```text
/// L = (1/n) * sum_i [ -S_ii + log sum_j exp(S_ij) ]
/// ```
///
/// Returns `(loss, d_anchors, d_positives)` where the gradient matrices have
/// the same shapes as the inputs.
///
/// # Errors
/// Returns [`NnError::ShapeMismatch`] when the two matrices differ in shape
/// or the batch is empty.
pub fn mnr_loss_with_grad(
    anchors: &Matrix,
    positives: &Matrix,
    scale: f32,
) -> Result<(f32, Matrix, Matrix)> {
    if anchors.shape() != positives.shape() {
        return Err(NnError::ShapeMismatch(format!(
            "mnr: anchors {:?} vs positives {:?}",
            anchors.shape(),
            positives.shape()
        )));
    }
    let n = anchors.rows();
    if n == 0 {
        return Err(NnError::ShapeMismatch("mnr: empty batch".into()));
    }

    // Every row's norm once, every (i, j) cosine once: the score the loss
    // uses is the cosine the gradient below differentiates, zero on the same
    // degenerate rows as `cosine_with_grad`.
    let norms = |m: &Matrix| (0..n).map(|i| vector::norm(m.row(i))).collect::<Vec<f32>>();
    let (anchor_norms, positive_norms) = (norms(anchors), norms(positives));
    let degenerate = |i: usize, j: usize| {
        anchor_norms[i] <= DEGENERATE_NORM || positive_norms[j] <= DEGENERATE_NORM
    };
    let mut cos = Matrix::zeros(n, n);
    for (i, &na) in anchor_norms.iter().enumerate() {
        for (j, &np) in positive_norms.iter().enumerate() {
            if !degenerate(i, j) {
                let dot = vector::dot(anchors.row(i), positives.row(j));
                cos.set(i, j, (dot / (na * np)).clamp(-1.0, 1.0));
            }
        }
    }

    let mut loss = 0.0f32;
    let mut d_anchors = Matrix::zeros(n, anchors.cols());
    let mut d_positives = Matrix::zeros(n, positives.cols());
    let mut logits = Vec::with_capacity(n);
    for i in 0..n {
        logits.clear();
        logits.extend(cos.row(i).iter().map(|&c| scale * c));
        loss += -logits[i] + ops::log_sum_exp(&logits);
        for (j, prob) in ops::softmax(&logits).into_iter().enumerate() {
            let indicator = if i == j { 1.0 } else { 0.0 };
            // dL_i/dS_ij = probs_j - indicator; divided by n for the mean.
            let ds = (prob - indicator) / n as f32 * scale;
            if ds == 0.0 {
                continue;
            }
            let (a, p) = (anchors.row(i), positives.row(j));
            if degenerate(i, j) {
                // `ds` times a zero gradient: a no-op unless `ds` is not finite.
                let zero = ds * 0.0;
                d_anchors.row_mut(i).iter_mut().for_each(|g| *g += zero);
                d_positives.row_mut(j).iter_mut().for_each(|g| *g += zero);
                continue;
            }
            // `ds · d cos(a, p)`, element for element the expression
            // `cosine_with_grad` and an `axpy` of its result evaluate.
            let (na, np, c) = (anchor_norms[i], positive_norms[j], cos.get(i, j));
            let (inv_ap, inv_aa, inv_pp) = (1.0 / (na * np), 1.0 / (na * na), 1.0 / (np * np));
            for ((g, &ak), &pk) in d_anchors.row_mut(i).iter_mut().zip(a).zip(p) {
                *g += ds * (pk * inv_ap - c * ak * inv_aa);
            }
            for ((g, &ak), &pk) in d_positives.row_mut(j).iter_mut().zip(a).zip(p) {
                *g += ds * (ak * inv_ap - c * pk * inv_pp);
            }
        }
    }
    loss /= n as f32;
    Ok((loss, d_anchors, d_positives))
}

/// Combined multitask loss weight container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultitaskWeights {
    /// Weight of the contrastive term.
    pub contrastive: f32,
    /// Weight of the MNR term.
    pub mnr: f32,
    /// Margin used by the contrastive term for non-duplicate pairs.
    pub margin: f32,
    /// Logit scale used by the MNR term.
    pub mnr_scale: f32,
}

impl Default for MultitaskWeights {
    fn default() -> Self {
        Self {
            contrastive: 1.0,
            mnr: 1.0,
            margin: 0.4,
            mnr_scale: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_tensor::rng::{seeded, uniform_matrix, uniform_vec};
    use proptest::prelude::*;

    #[test]
    fn cosine_grad_matches_numerical() {
        let mut rng = seeded(5);
        let a = uniform_vec(6, 1.0, &mut rng);
        let b = uniform_vec(6, 1.0, &mut rng);
        let (_, da, db) = cosine_with_grad(&a, &b);
        let h = 1e-3;
        for i in 0..a.len() {
            let mut ap = a.clone();
            let mut am = a.clone();
            ap[i] += h;
            am[i] -= h;
            let numeric = (vector::cosine_similarity(&ap, &b) - vector::cosine_similarity(&am, &b))
                / (2.0 * h);
            assert!((numeric - da[i]).abs() < 1e-2, "da[{i}]");
            let mut bp = b.clone();
            let mut bm = b.clone();
            bp[i] += h;
            bm[i] -= h;
            let numeric = (vector::cosine_similarity(&a, &bp) - vector::cosine_similarity(&a, &bm))
                / (2.0 * h);
            assert!((numeric - db[i]).abs() < 1e-2, "db[{i}]");
        }
    }

    #[test]
    fn cosine_grad_handles_zero_vectors() {
        let (c, da, db) = cosine_with_grad(&[0.0, 0.0], &[1.0, 2.0]);
        assert_eq!(c, 0.0);
        assert!(da.iter().all(|&x| x == 0.0));
        assert!(db.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn contrastive_loss_is_zero_for_perfect_cases() {
        let a = vec![0.6, 0.8];
        // Identical direction duplicates: zero loss.
        let (loss, ga, _gb) = contrastive_loss_with_grad(&a, &[1.2, 1.6], true, 0.4);
        assert!(loss < 1e-6);
        assert!(ga.iter().all(|g| g.abs() < 1e-3));
        // Orthogonal non-duplicates (cos=0 < margin): zero loss.
        let (loss, ga, _gb) = contrastive_loss_with_grad(&a, &[-0.8, 0.6], false, 0.4);
        assert!(loss < 1e-6);
        assert!(ga.iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn contrastive_loss_penalises_violations() {
        let a = vec![1.0, 0.0];
        // Duplicates pointing in different directions: positive loss.
        let (loss_dup, _, _) = contrastive_loss_with_grad(&a, &[0.0, 1.0], true, 0.4);
        assert!(loss_dup > 0.5);
        // Non-duplicates that are too similar: positive loss.
        let (loss_neg, _, _) = contrastive_loss_with_grad(&a, &[0.99, 0.05], false, 0.4);
        assert!(loss_neg > 0.1);
    }

    #[test]
    fn contrastive_gradient_matches_numerical() {
        let mut rng = seeded(8);
        let a = uniform_vec(5, 1.0, &mut rng);
        let b = uniform_vec(5, 1.0, &mut rng);
        for &dup in &[true, false] {
            let (_, ga, gb) = contrastive_loss_with_grad(&a, &b, dup, 0.2);
            let h = 1e-3;
            for i in 0..a.len() {
                let mut ap = a.clone();
                let mut am = a.clone();
                ap[i] += h;
                am[i] -= h;
                let lp = contrastive_loss_with_grad(&ap, &b, dup, 0.2).0;
                let lm = contrastive_loss_with_grad(&am, &b, dup, 0.2).0;
                let numeric = (lp - lm) / (2.0 * h);
                assert!(
                    (numeric - ga[i]).abs() < 2e-2,
                    "dup={dup} ga[{i}] numeric={numeric} analytic={}",
                    ga[i]
                );
            }
            for i in 0..b.len() {
                let mut bp = b.clone();
                let mut bm = b.clone();
                bp[i] += h;
                bm[i] -= h;
                let lp = contrastive_loss_with_grad(&a, &bp, dup, 0.2).0;
                let lm = contrastive_loss_with_grad(&a, &bm, dup, 0.2).0;
                let numeric = (lp - lm) / (2.0 * h);
                assert!((numeric - gb[i]).abs() < 2e-2, "dup={dup} gb[{i}]");
            }
        }
    }

    #[test]
    fn mnr_loss_prefers_aligned_diagonal() {
        // Anchors and positives perfectly aligned pair-wise and mutually
        // orthogonal across pairs: loss should be near its minimum.
        let aligned = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]).unwrap();
        let (low_loss, _, _) = mnr_loss_with_grad(&aligned, &aligned, 10.0).unwrap();
        // Anchors matched with the *wrong* positives: high loss.
        let swapped = Matrix::from_rows(&[vec![0.0, 1.0, 0.0], vec![1.0, 0.0, 0.0]]).unwrap();
        let (high_loss, _, _) = mnr_loss_with_grad(&aligned, &swapped, 10.0).unwrap();
        assert!(low_loss < 0.1, "aligned loss {low_loss}");
        assert!(high_loss > 1.0, "swapped loss {high_loss}");
    }

    #[test]
    fn mnr_gradient_matches_numerical() {
        let mut rng = seeded(21);
        let anchors = uniform_matrix(3, 4, 1.0, &mut rng);
        let positives = uniform_matrix(3, 4, 1.0, &mut rng);
        let scale = 5.0;
        let (_, da, dp) = mnr_loss_with_grad(&anchors, &positives, scale).unwrap();
        let h = 1e-3;
        let loss_of = |a: &Matrix, p: &Matrix| mnr_loss_with_grad(a, p, scale).unwrap().0;
        for r in 0..3 {
            for c in 0..4 {
                let mut ap = anchors.clone();
                ap.set(r, c, anchors.get(r, c) + h);
                let mut am = anchors.clone();
                am.set(r, c, anchors.get(r, c) - h);
                let numeric = (loss_of(&ap, &positives) - loss_of(&am, &positives)) / (2.0 * h);
                assert!(
                    (numeric - da.get(r, c)).abs() < 3e-2,
                    "d_anchor[{r},{c}] numeric={numeric} analytic={}",
                    da.get(r, c)
                );
                let mut pp = positives.clone();
                pp.set(r, c, positives.get(r, c) + h);
                let mut pm = positives.clone();
                pm.set(r, c, positives.get(r, c) - h);
                let numeric = (loss_of(&anchors, &pp) - loss_of(&anchors, &pm)) / (2.0 * h);
                assert!(
                    (numeric - dp.get(r, c)).abs() < 3e-2,
                    "d_positive[{r},{c}] numeric={numeric} analytic={}",
                    dp.get(r, c)
                );
            }
        }
    }

    /// A row whose norm lies in (1e-8, `f32::EPSILON`] is scored with the
    /// cosine its gradient differentiates. (Scores once zeroed such a row by
    /// `cosine_similarity`'s rule while its gradient, by
    /// `cosine_with_grad`'s, did not.) Cosine ignores a row's scale, so the
    /// loss and the positives' gradients match the unscaled batch, and the
    /// row's own gradient is the unscaled one divided by the scale factor.
    #[test]
    fn mnr_scores_a_tiny_row_with_the_cosine_its_gradient_uses() {
        let mut rng = seeded(33);
        let anchors = uniform_matrix(4, 6, 1.0, &mut rng);
        let positives = uniform_matrix(4, 6, 1.0, &mut rng);
        let mut tiny = anchors.clone();
        let factor = 5e-8 / vector::norm(anchors.row(0));
        vector::scale(factor, tiny.row_mut(0));
        let tiny_norm = vector::norm(tiny.row(0));
        assert!(tiny_norm > 1e-8 && tiny_norm <= f32::EPSILON);

        let (loss, da, dp) = mnr_loss_with_grad(&anchors, &positives, 10.0).unwrap();
        let (tiny_loss, tiny_da, tiny_dp) = mnr_loss_with_grad(&tiny, &positives, 10.0).unwrap();
        assert!((loss - tiny_loss).abs() < 1e-5, "{loss} vs {tiny_loss}");
        for (r, c) in (0..4).flat_map(|r| (0..6).map(move |c| (r, c))) {
            assert!(
                (dp.get(r, c) - tiny_dp.get(r, c)).abs() < 1e-4,
                "d_positive[{r},{c}]"
            );
        }
        for c in 0..6 {
            let rescaled = tiny_da.get(0, c) * factor;
            assert!(
                (da.get(0, c) - rescaled).abs() < 1e-4 * (1.0 + da.get(0, c).abs()),
                "d_anchor[0,{c}]: {} vs {rescaled}",
                da.get(0, c)
            );
        }
    }

    /// `cosine_with_grad` as first written: an indexed loop over
    /// preallocated gradient vectors.
    fn cosine_with_grad_indexed(a: &[f32], b: &[f32]) -> (f32, Vec<f32>, Vec<f32>) {
        let na = vector::norm(a);
        let nb = vector::norm(b);
        if na <= 1e-8 || nb <= 1e-8 || a.len() != b.len() {
            return (0.0, vec![0.0; a.len()], vec![0.0; b.len()]);
        }
        let cos = (vector::dot(a, b) / (na * nb)).clamp(-1.0, 1.0);
        let inv_ab = 1.0 / (na * nb);
        let inv_aa = 1.0 / (na * na);
        let inv_bb = 1.0 / (nb * nb);
        let mut da = vec![0.0f32; a.len()];
        let mut db = vec![0.0f32; b.len()];
        for i in 0..a.len() {
            da[i] = b[i] * inv_ab - cos * a[i] * inv_aa;
            db[i] = a[i] * inv_ab - cos * b[i] * inv_bb;
        }
        (cos, da, db)
    }

    /// The MNR loss in its per-pair formulation, kept as the reference for
    /// the rewrite: every score and every gradient from its own
    /// `cosine_with_grad` call (n² calls, each allocating two gradient
    /// vectors), a full `d_scores` matrix, and one `axpy` per pair and side.
    /// Scores follow `cosine_with_grad`'s degenerate rule, as the loss does.
    fn mnr_per_pair(anchors: &Matrix, positives: &Matrix, scale: f32) -> (f32, Matrix, Matrix) {
        let n = anchors.rows();
        let mut cos = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let (c, _, _) = cosine_with_grad_indexed(anchors.row(i), positives.row(j));
                cos.set(i, j, c);
            }
        }
        let mut loss = 0.0f32;
        let mut d_scores = Matrix::zeros(n, n);
        for i in 0..n {
            let logits: Vec<f32> = (0..n).map(|j| scale * cos.get(i, j)).collect();
            let lse = ops::log_sum_exp(&logits);
            loss += -logits[i] + lse;
            let probs = ops::softmax(&logits);
            for (j, &prob) in probs.iter().enumerate() {
                let indicator = if i == j { 1.0 } else { 0.0 };
                d_scores.set(i, j, (prob - indicator) / n as f32);
            }
        }
        loss /= n as f32;
        let mut d_anchors = Matrix::zeros(n, anchors.cols());
        let mut d_positives = Matrix::zeros(n, positives.cols());
        for i in 0..n {
            for j in 0..n {
                let ds = d_scores.get(i, j) * scale;
                if ds == 0.0 {
                    continue;
                }
                let (_c, dca, dcp) = cosine_with_grad_indexed(anchors.row(i), positives.row(j));
                vector::axpy(ds, &dca, d_anchors.row_mut(i));
                vector::axpy(ds, &dcp, d_positives.row_mut(j));
            }
        }
        (loss, d_anchors, d_positives)
    }

    /// Bit patterns, every NaN folded to one.
    fn bits(values: &[f32]) -> Vec<u32> {
        let fold = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        values.iter().map(fold).collect()
    }

    /// `n × dim` uniform values. When `adversarial`, most rows are rescaled
    /// to a norm that stresses a rule: exactly zero, below the degenerate
    /// threshold, inside (1e-8, `f32::EPSILON`], just above it, large, or
    /// NaN (which makes `ds` NaN for pairs with a degenerate partner); and
    /// row 1 copies row 0 (equal scores, tied logits).
    fn batch(n: usize, dim: usize, seed: u64, adversarial: bool) -> Matrix {
        let mut m = uniform_matrix(n, dim, 1.0, &mut seeded(seed));
        if !adversarial {
            return m;
        }
        for i in 0..n {
            let target = match (seed as usize + 7 * i) % 10 {
                0 => 0.0,
                1 => 1e-9,
                2 => 5e-8,
                3 => 1e-7,
                4 => 2e-7,
                5 => 3e3,
                6 if seed.is_multiple_of(3) => f32::NAN,
                _ => continue,
            };
            let norm = vector::norm(m.row(i));
            if norm > 0.0 {
                vector::scale(target / norm, m.row_mut(i));
            }
        }
        if n > 1 {
            let first = m.row(0).to_vec();
            m.row_mut(1).copy_from_slice(&first);
        }
        m
    }

    /// Logit scales: ordinary, the trainer's, and two large enough that
    /// softmax probabilities round to exactly 0 and 1 (so `ds == 0`).
    const SCALES: [f32; 4] = [1.0, 10.0, 150.0, 400.0];

    fn assert_matches_per_pair(n: usize, dim: usize, seed: u64, scale: f32, adversarial: bool) {
        let anchors = batch(n, dim, seed, adversarial);
        let positives = batch(n, dim, seed ^ 0x5eed, adversarial);
        let (loss, da, dp) = mnr_loss_with_grad(&anchors, &positives, scale).unwrap();
        let (ref_loss, ref_da, ref_dp) = mnr_per_pair(&anchors, &positives, scale);
        let what = format!("n={n} dim={dim} seed={seed} scale={scale} adversarial={adversarial}");
        assert_eq!(bits(&[loss]), bits(&[ref_loss]), "loss, {what}");
        assert_eq!(
            bits(da.as_slice()),
            bits(ref_da.as_slice()),
            "d_anchors, {what}"
        );
        assert_eq!(
            bits(dp.as_slice()),
            bits(ref_dp.as_slice()),
            "d_positives, {what}"
        );
    }

    #[test]
    fn mnr_is_bit_equal_to_the_per_pair_formulation_for_every_batch_size() {
        for n in 1..=40 {
            for (k, &scale) in SCALES.iter().enumerate() {
                let seed = (n * 4 + k) as u64;
                assert_matches_per_pair(n, 1 + (n * 5 + k) % 70, seed, scale, k % 2 == 1);
            }
        }
    }

    #[test]
    fn zipped_cosine_gradient_is_bit_equal_to_the_indexed_loop() {
        for n in 0..=67 {
            for seed in 0..4u64 {
                let m = batch(2, n.max(1), seed + 10 * n as u64, true);
                // Against another row, and against itself (cos = 1).
                let a = &m.row(0)[..n];
                let b = if seed % 2 == 0 { a } else { &m.row(1)[..n] };
                let (c, da, db) = cosine_with_grad(a, b);
                let (rc, rda, rdb) = cosine_with_grad_indexed(a, b);
                assert_eq!(bits(&[c]), bits(&[rc]), "n={n} seed={seed}");
                assert_eq!((bits(&da), bits(&db)), (bits(&rda), bits(&rdb)), "n={n}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random batch sizes, widths, scales and row norms.
        #[test]
        fn mnr_matches_the_per_pair_formulation(
            n in 1usize..41,
            dim in 1usize..80,
            seed in 0u64..1_000_000,
            scale_pick in 0usize..4,
            adversarial in prop::bool::ANY,
        ) {
            assert_matches_per_pair(n, dim, seed, SCALES[scale_pick], adversarial);
        }
    }

    #[test]
    fn mnr_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 3);
        assert!(mnr_loss_with_grad(&a, &b, 1.0).is_err());
        let empty = Matrix::zeros(0, 3);
        assert!(mnr_loss_with_grad(&empty, &empty, 1.0).is_err());
    }

    #[test]
    fn multitask_weights_default() {
        let w = MultitaskWeights::default();
        assert_eq!(w.contrastive, 1.0);
        assert_eq!(w.mnr, 1.0);
        assert!(w.margin > 0.0 && w.margin < 1.0);
        assert!(w.mnr_scale > 1.0);
    }
}
