//! Owned dense `f32` vectors and the slice-level kernels they wrap.
//!
//! The semantic cache spends most of its time computing cosine similarities
//! between a freshly-encoded query embedding and every cached embedding. The
//! two kernels that time goes to — [`dot`] and [`dot_u8_asym`] — are thin
//! safe entry points over [`crate::kernels`], which picks an AVX2+FMA or a
//! portable implementation once per process; everything else here is plain
//! loops over slices. The free functions ([`dot`], [`norm`],
//! [`cosine_similarity`], …) operate on `&[f32]` so hot paths can work on
//! borrowed storage without copying; the [`Vector`] type is a thin owned
//! wrapper that adds shape checking and serde support for persistence.

use serde::{Deserialize, Serialize};

use crate::{kernels, Result, TensorError};

/// Dot product of two equal-length slices, through the process's dispatched
/// kernel (see [`crate::kernels`] for the lane layout and reduction order).
/// The encoder's `matvec`, training, PCA, IVF centroid ranking and
/// context-chain verification all reach the SIMD path through this function.
///
/// # Panics
/// Panics in debug builds if the slices differ in length; in release builds
/// the product runs over the common prefix (both operands are trimmed to it
/// before any kernel sees them, so a mismatch can never read out of bounds).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    kernels::dot(a, b)
}

/// Widening dot product of two `i8` slices, accumulated in `i32`.
///
/// Four independent `i32` accumulators so multiple multiply-add chains stay
/// in flight, with each `i8 × i8` product widened before accumulation. Safe
/// for any slice up to ~130k elements per accumulator lane
/// (`i32::MAX / 127²`), far beyond embedding sizes.
///
/// # Panics
/// Panics in debug builds if the slices differ in length; in release builds
/// the shorter length is used.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
    let chunks = n / 4;
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] as i32 * b[j] as i32;
        s1 += a[j + 1] as i32 * b[j + 1] as i32;
        s2 += a[j + 2] as i32 * b[j + 2] as i32;
        s3 += a[j + 3] as i32 * b[j + 3] as i32;
    }
    let mut tail = 0i32;
    for j in (chunks * 4)..n {
        tail += a[j] as i32 * b[j] as i32;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Widening dot product of two `u8` code slices, accumulated in `u32`.
///
/// This is the integer core of the symmetric SQ8 × SQ8 similarity: callers
/// apply the affine scale/zero-point correction once per row (see
/// `mc_tensor::quant::QuantizedVec::dot_quantized`). Each `u32` accumulator
/// lane holds ~66k products of `255 × 255` before overflow, so any realistic
/// embedding dimensionality is safe.
///
/// # Panics
/// Panics in debug builds if the slices differ in length; in release builds
/// the shorter length is used.
#[inline]
pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "dot_u8: length mismatch");
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0u32, 0u32, 0u32, 0u32);
    let chunks = n / 4;
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] as u32 * b[j] as u32;
        s1 += a[j + 1] as u32 * b[j + 1] as u32;
        s2 += a[j + 2] as u32 * b[j + 2] as u32;
        s3 += a[j + 3] as u32 * b[j + 3] as u32;
    }
    let mut tail = 0u32;
    for j in (chunks * 4)..n {
        tail += a[j] as u32 * b[j] as u32;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Asymmetric fused dot product: full-precision `f32` query × SQ8 row.
///
/// Computes `dot(query, dequantize(codes))` for a row stored as
/// `value_j ≈ min + codes_j * scale` **without materialising the dequantised
/// row**: the dispatched kernel accumulates `Σ query_j · codes_j` (one
/// `u8 → f32` widening convert + multiply-add per element, in the same lane
/// layout as [`dot`]), and the affine correction
/// `scale · Σ q·c + min · Σ q` is applied once at the end. `query_sum` is
/// `Σ query_j` ([`sum`]), hoisted out so a scan over many rows computes it
/// once per query rather than once per row.
///
/// Queries are never quantised on this path, which keeps the score error at
/// one quantisation step of the *stored* row rather than two.
///
/// # Panics
/// Panics in debug builds if the slices differ in length; in release builds
/// the product runs over the common prefix, as for [`dot`].
#[inline]
pub fn dot_u8_asym(query: &[f32], codes: &[u8], scale: f32, min: f32, query_sum: f32) -> f32 {
    debug_assert_eq!(query.len(), codes.len(), "dot_u8_asym: length mismatch");
    kernels::dot_u8_asym(query, codes, scale, min, query_sum)
}

/// Sum of the elements of a slice over four independent scalar accumulators
/// (used to hoist the `Σ query` correction term of [`dot_u8_asym`] out of
/// row scans; it runs once per query, so it stays scalar).
#[inline]
pub fn sum(a: &[f32]) -> f32 {
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j];
        s1 += a[j + 1];
        s2 += a[j + 2];
        s3 += a[j + 3];
    }
    let mut tail = 0.0f32;
    for &x in &a[chunks * 4..] {
        tail += x;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Squared Euclidean (L2) norm of a slice.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    norm_sq(a).sqrt()
}

/// Cosine similarity between two equal-length slices, as defined in Eq. (2)
/// of the paper: `cos(a, b) = a·b / (||a|| ||b||)`.
///
/// Returns `0.0` when either vector has zero norm, which is the conservative
/// choice for a cache: a degenerate embedding never produces a hit.
#[inline]
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine similarity for vectors that are already L2-normalised.
///
/// The encoder in `mc-embedder` always L2-normalises its outputs, so the
/// cache's inner search loop can skip the two norm computations and clamp.
#[inline]
pub fn cosine_similarity_normalized(a: &[f32], b: &[f32]) -> f32 {
    dot(a, b).clamp(-1.0, 1.0)
}

/// In-place L2 normalisation. Vectors with a norm below `f32::EPSILON` are
/// left untouched (normalising them would produce NaNs).
///
/// The norm is a reduction and goes through the dispatched [`dot`]; the
/// rescale is element-wise and goes through [`scale`].
#[inline]
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > f32::EPSILON {
        scale(1.0 / n, a);
    }
}

/// `y += alpha * x` (the BLAS AXPY primitive) over the common length of the
/// two slices: the inner loop of the encoder's pooling and `vecmat`, of
/// every rank-1 gradient update and of every gradient accumulation.
///
/// Written as a zipped iterator loop so the compiler sees both lengths, drops
/// the bounds checks and vectorises it at whatever width the build targets.
/// That is free of consequences for the result: each output element is one
/// multiply rounded to `f32` and one add rounded to `f32` of its own two
/// inputs — there is no order to change, Rust never contracts `a * b + c`
/// into a fused multiply-add, and SIMD `mul`/`add`/`div`/`sqrt` round exactly
/// as their scalar forms do. *Reductions* are the opposite case: their result
/// depends on the order of the additions, so each keeps one written-out
/// order — [`dot`] and the norms in [`crate::kernels`], [`sum`] in its four
/// accumulators — that no rewrite of this file may change.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yj, &xj) in y.iter_mut().zip(x) {
        *yj += alpha * xj;
    }
}

/// `a *= alpha` in place (element-wise, so free to vectorise — see [`axpy`]).
#[inline]
pub fn scale(alpha: f32, a: &mut [f32]) {
    for x in a.iter_mut() {
        *x *= alpha;
    }
}

/// Element-wise `a - b` into a freshly allocated `Vec`.
#[inline]
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Element-wise `a + b` into a freshly allocated `Vec`.
#[inline]
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Element-wise (Hadamard) product into a freshly allocated `Vec`.
#[inline]
pub fn hadamard(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len(), "hadamard: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).collect()
}

/// Euclidean distance between two slices.
#[inline]
pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "euclidean_distance: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Index and value of the maximum element, or `None` for an empty slice.
#[inline]
pub fn argmax(a: &[f32]) -> Option<(usize, f32)> {
    a.iter()
        .copied()
        .enumerate()
        .fold(None, |acc, (i, v)| match acc {
            None => Some((i, v)),
            Some((_, best)) if v > best => Some((i, v)),
            other => other,
        })
}

/// An owned dense `f32` vector with shape-checked arithmetic.
///
/// `Vector` is the unit of exchange between the embedding model and the
/// cache: every query embedding is a `Vector`, every cached embedding is a
/// `Vector`, and the FL client/server exchange flattened parameter `Vector`s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a vector from owned data.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// Creates a zero-filled vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` filled with `value`.
    pub fn filled(n: usize, value: f32) -> Self {
        Self {
            data: vec![value; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the vector and return its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f32> {
        self.check_same_len(other, "dot")?;
        Ok(dot(&self.data, &other.data))
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        norm(&self.data)
    }

    /// Cosine similarity with another vector (Eq. 2 of the paper).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn cosine_similarity(&self, other: &Vector) -> Result<f32> {
        self.check_same_len(other, "cosine_similarity")?;
        Ok(cosine_similarity(&self.data, &other.data))
    }

    /// Returns an L2-normalised copy of this vector.
    pub fn normalized(&self) -> Vector {
        let mut v = self.clone();
        normalize(&mut v.data);
        v
    }

    /// L2-normalises this vector in place.
    pub fn normalize_in_place(&mut self) {
        normalize(&mut self.data);
    }

    /// `self += alpha * other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn axpy(&mut self, alpha: f32, other: &Vector) -> Result<()> {
        self.check_same_len(other, "axpy")?;
        axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        scale(alpha, &mut self.data);
    }

    /// Element-wise sum into a new vector.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len(other, "add")?;
        Ok(Vector::from_vec(add(&self.data, &other.data)))
    }

    /// Element-wise difference into a new vector.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len(other, "sub")?;
        Ok(Vector::from_vec(sub(&self.data, &other.data)))
    }

    /// Euclidean distance to another vector.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn euclidean_distance(&self, other: &Vector) -> Result<f32> {
        self.check_same_len(other, "euclidean_distance")?;
        Ok(euclidean_distance(&self.data, &other.data))
    }

    /// Arithmetic mean of the elements, or `0.0` for an empty vector.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Storage footprint in bytes of the raw `f32` payload (used by the
    /// Figure 10 / Figure 15 storage experiments).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    fn check_same_len(&self, other: &Vector, op: &str) -> Result<()> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch(format!(
                "{op}: {} vs {}",
                self.len(),
                other.len()
            )));
        }
        Ok(())
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector::from_vec(v)
    }
}

impl From<&[f32]> for Vector {
    fn from(v: &[f32]) -> Self {
        Vector::from_vec(v.to_vec())
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 - 10.0) * 0.25).collect();
        let naive: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn dot_i8_matches_widened_naive() {
        let a: Vec<i8> = (0..37).map(|i| (i * 7 % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..37).map(|i| (i * 13 % 255 - 127) as i8).collect();
        let naive: i32 = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| x as i32 * y as i32)
            .sum();
        assert_eq!(dot_i8(&a, &b), naive);
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn dot_u8_matches_widened_naive() {
        let a: Vec<u8> = (0..41).map(|i| (i * 17 % 256) as u8).collect();
        let b: Vec<u8> = (0..41).map(|i| (i * 29 % 256) as u8).collect();
        let naive: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| x as u32 * y as u32)
            .sum();
        assert_eq!(dot_u8(&a, &b), naive);
        // Extreme codes do not overflow the 4-lane u32 accumulation at
        // realistic dimensionalities.
        let maxed = vec![255u8; 4096];
        assert_eq!(dot_u8(&maxed, &maxed), 4096 * 255 * 255);
    }

    #[test]
    fn dot_u8_asym_matches_dequantized_dot() {
        // Row values ≈ min + code * scale; the fused kernel must agree with
        // dequantise-then-dot to float tolerance.
        let scale = 0.0125f32;
        let min = -1.6f32;
        let codes: Vec<u8> = (0..67).map(|i| (i * 31 % 256) as u8).collect();
        let row: Vec<f32> = codes.iter().map(|&c| min + c as f32 * scale).collect();
        let query: Vec<f32> = (0..67).map(|i| ((i as f32) * 0.37).sin()).collect();
        let fused = dot_u8_asym(&query, &codes, scale, min, sum(&query));
        let reference = dot(&query, &row);
        assert!(
            (fused - reference).abs() < 1e-3,
            "fused={fused} reference={reference}"
        );
    }

    #[test]
    fn sum_matches_naive() {
        let a: Vec<f32> = (0..23).map(|i| i as f32 * 0.3 - 2.0).collect();
        let naive: f32 = a.iter().sum();
        assert!((sum(&a) - naive).abs() < 1e-4);
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let a = vec![0.3, -0.7, 1.2, 0.05];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_vectors_is_minus_one() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![-1.0, -2.0, -3.0];
        assert!((cosine_similarity(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 5.0];
        assert!(cosine_similarity(&a, &b).abs() < 1e-6);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        let a = vec![0.0, 0.0, 0.0];
        let b = vec![1.0, 2.0, 3.0];
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut a = vec![3.0, 4.0];
        normalize(&mut a);
        assert!((norm(&a) - 1.0).abs() < 1e-6);
        assert!((a[0] - 0.6).abs() < 1e-6);
        assert!((a[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector_untouched() {
        let mut a = vec![0.0, 0.0];
        normalize(&mut a);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 10.0, 10.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, vec![10.5, 11.0, 11.5]);
    }

    #[test]
    fn argmax_finds_largest() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), Some((1, 0.9)));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn vector_shape_mismatch_is_reported() {
        let a = Vector::zeros(3);
        let b = Vector::zeros(4);
        assert!(matches!(a.dot(&b), Err(TensorError::ShapeMismatch(_))));
        assert!(matches!(
            a.cosine_similarity(&b),
            Err(TensorError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn vector_mean_and_storage() {
        let v = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((v.mean() - 2.5).abs() < 1e-6);
        assert_eq!(v.storage_bytes(), 16);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn vector_serde_round_trip() {
        let v = Vector::from_vec(vec![0.25, -1.5, 3.0]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Vector = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn normalized_cosine_matches_general_cosine() {
        let a = Vector::from_vec(vec![0.2, 0.5, -0.3, 0.9]).normalized();
        let b = Vector::from_vec(vec![-0.1, 0.4, 0.8, 0.2]).normalized();
        let general = cosine_similarity(a.as_slice(), b.as_slice());
        let fast = cosine_similarity_normalized(a.as_slice(), b.as_slice());
        assert!((general - fast).abs() < 1e-5);
    }

    #[test]
    fn euclidean_distance_basic() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn index_and_mutation() {
        let mut v = Vector::zeros(3);
        v[1] = 7.0;
        assert_eq!(v[1], 7.0);
        assert_eq!(v.as_slice(), &[0.0, 7.0, 0.0]);
    }
}
