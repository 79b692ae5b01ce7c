//! Property-based tests for the linear-algebra substrate.
//!
//! These check the algebraic invariants the higher layers rely on: cosine
//! similarity bounds and symmetry, normalisation producing unit vectors,
//! matmul distributing over addition, and quantisation error bounds.

use mc_tensor::{matrix::Matrix, ops, quant::QuantizedVec, vector};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cosine_similarity_is_bounded_and_symmetric(
        a in finite_vec(1..64),
        b in finite_vec(1..64),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let ab = vector::cosine_similarity(a, b);
        let ba = vector::cosine_similarity(b, a);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-5);
    }

    #[test]
    fn cosine_is_scale_invariant(a in finite_vec(2..32), scale in 0.01f32..50.0) {
        let scaled: Vec<f32> = a.iter().map(|x| x * scale).collect();
        let sim = vector::cosine_similarity(&a, &scaled);
        // Unless the vector is (numerically) zero, scaling must not change direction.
        if vector::norm(&a) > 1e-3 {
            prop_assert!((sim - 1.0).abs() < 1e-3, "sim={sim}");
        }
    }

    #[test]
    fn normalization_yields_unit_norm(mut a in finite_vec(1..128)) {
        vector::normalize(&mut a);
        let n = vector::norm(&a);
        // Either it was a zero vector (left untouched) or it is unit length.
        prop_assert!(n < 1e-3 || (n - 1.0).abs() < 1e-3);
    }

    #[test]
    fn dot_is_commutative(a in finite_vec(1..64), b in finite_vec(1..64)) {
        let n = a.len().min(b.len());
        let d1 = vector::dot(&a[..n], &b[..n]);
        let d2 = vector::dot(&b[..n], &a[..n]);
        prop_assert!((d1 - d2).abs() < 1e-2 * (1.0 + d1.abs()));
    }

    #[test]
    fn matvec_distributes_over_vector_addition(
        rows in 1usize..8,
        cols in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = mc_tensor::rng::seeded(seed);
        let m = mc_tensor::rng::uniform_matrix(rows, cols, 1.0, &mut rng);
        let x = mc_tensor::rng::uniform_vec(cols, 1.0, &mut rng);
        let y = mc_tensor::rng::uniform_vec(cols, 1.0, &mut rng);
        let xy: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let lhs = m.matvec(&xy).unwrap();
        let mx = m.matvec(&x).unwrap();
        let my = m.matvec(&y).unwrap();
        for i in 0..rows {
            prop_assert!((lhs[i] - (mx[i] + my[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_involutive(rows in 1usize..10, cols in 1usize..10, seed in 0u64..1000) {
        let mut rng = mc_tensor::rng::seeded(seed);
        let m = mc_tensor::rng::uniform_matrix(rows, cols, 2.0, &mut rng);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn softmax_is_a_probability_distribution(logits in finite_vec(1..32)) {
        let p = ops::softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn top_k_returns_sorted_prefix(scores in finite_vec(1..64), k in 1usize..16) {
        let top = ops::top_k(&scores, k);
        prop_assert!(top.len() <= k.min(scores.len()));
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        // The first element must be the global maximum.
        if let Some((_, best)) = vector::argmax(&scores) {
            prop_assert!((top[0].1 - best).abs() < 1e-6);
        }
    }

    /// `top_k` (and the `TopK` accumulator under it, fed in any order and
    /// merged from parts) is exactly a full sort's prefix: score descending,
    /// ties toward the lower index, NaN after every number.
    #[test]
    fn top_k_matches_full_sort_with_ties_and_nans(
        raw in prop::collection::vec(0u8..12, 0..48),
        k in 0usize..56,
        split in 0usize..48,
    ) {
        // Few distinct values force ties; the top value stands for NaN.
        let scores: Vec<f32> = raw
            .iter()
            .map(|&v| if v == 11 { f32::NAN } else { v as f32 * 0.25 - 1.0 })
            .collect();
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            let (x, y) = (scores[a], scores[b]);
            x.is_nan()
                .cmp(&y.is_nan())
                .then(y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.cmp(&b))
        });
        let expect: Vec<(usize, u32)> = order
            .into_iter()
            .take(k)
            .map(|i| (i, scores[i].to_bits()))
            .collect();
        let got: Vec<(usize, u32)> = ops::top_k(&scores, k)
            .into_iter()
            .map(|(i, s)| (i, s.to_bits()))
            .collect();
        prop_assert_eq!(&got, &expect);

        // Two partial selections, the second fed backwards, merge to the same.
        let split = split.min(scores.len());
        let (mut low, mut high) = (ops::TopK::new(k), ops::TopK::new(k));
        for (i, &s) in scores[..split].iter().enumerate() {
            low.push(i as u64, s);
        }
        for (i, &s) in scores[split..].iter().enumerate().rev() {
            high.push((split + i) as u64, s);
        }
        let merged: Vec<(usize, u32)> = high
            .merge(low)
            .into_sorted_vec()
            .into_iter()
            .map(|(i, s)| (i as usize, s.to_bits()))
            .collect();
        prop_assert_eq!(&merged, &expect);
    }

    #[test]
    fn quantization_error_is_within_one_step(values in finite_vec(1..256)) {
        let q = QuantizedVec::quantize(&values);
        prop_assert!(q.max_error(&values) <= q.scale * 0.51 + 1e-5);
        prop_assert_eq!(q.len(), values.len());
    }

    #[test]
    fn row_normalised_matrix_has_unit_rows(rows in 1usize..10, cols in 1usize..16, seed in 0u64..500) {
        let mut rng = mc_tensor::rng::seeded(seed);
        let mut m = mc_tensor::rng::uniform_matrix(rows, cols, 3.0, &mut rng);
        m.normalize_rows();
        for r in 0..rows {
            let n = vector::norm(m.row(r));
            prop_assert!(n < 1e-3 || (n - 1.0).abs() < 1e-3);
        }
    }
}

#[test]
fn pairwise_cosine_against_batch_cosine() {
    let mut rng = mc_tensor::rng::seeded(99);
    let mut queries = mc_tensor::rng::uniform_matrix(5, 12, 1.0, &mut rng);
    let mut keys = mc_tensor::rng::uniform_matrix(7, 12, 1.0, &mut rng);
    queries.normalize_rows();
    keys.normalize_rows();
    let pair = ops::pairwise_cosine(&queries, &keys).unwrap();
    for q in 0..5 {
        let scores = ops::batch_cosine_normalized(queries.row(q), &keys).unwrap();
        for (k, &score) in scores.iter().enumerate() {
            assert!((pair.get(q, k) - score).abs() < 1e-4);
        }
    }
}

#[test]
fn covariance_matches_reference_on_fixed_matrix() {
    let data = Matrix::from_rows(&[
        vec![2.0, 0.0, 1.0],
        vec![4.0, 2.0, 1.0],
        vec![6.0, 4.0, 1.0],
    ])
    .unwrap();
    let cov = mc_tensor::stats::covariance(&data).unwrap();
    // Column 0 variance = 4, col1 variance = 4, cov(0,1) = 4, col2 constant.
    assert!((cov.get(0, 0) - 4.0).abs() < 1e-4);
    assert!((cov.get(1, 1) - 4.0).abs() < 1e-4);
    assert!((cov.get(0, 1) - 4.0).abs() < 1e-4);
    assert!(cov.get(2, 2).abs() < 1e-5);
}
