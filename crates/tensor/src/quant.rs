//! Embedding storage accounting and lossy quantisation.
//!
//! The paper's Figure 10 and Figure 15 report the per-query storage cost of
//! embeddings (Llama-2 ≈ 32 KB, MPNet/Albert ≈ 6 KB at 768 dimensions with
//! the SBERT on-disk layout, 64-dimension PCA-compressed vectors ≈ 83% less).
//! This module centralises those byte-accounting rules and additionally
//! provides an optional 8-bit linear quantiser — an extension point beyond
//! the paper that the ablation benches exercise.

use serde::{Deserialize, Serialize};

/// Bytes used by the raw `f32` payload of an embedding of `dims` dimensions.
pub fn f32_embedding_bytes(dims: usize) -> usize {
    dims * std::mem::size_of::<f32>()
}

/// Bytes used to persist an embedding of `dims` dimensions in the cache
/// store, including the fixed per-entry header (dimension count + norm) that
/// `mc-store`'s binary layout writes alongside the payload.
pub fn stored_embedding_bytes(dims: usize) -> usize {
    const HEADER_BYTES: usize = 8; // u32 dimension count + f32 stored norm
    HEADER_BYTES + f32_embedding_bytes(dims)
}

/// An 8-bit linearly quantised embedding: `value ≈ scale * (code - zero)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedVec {
    /// Quantised codes, one byte per dimension.
    pub codes: Vec<u8>,
    /// Dequantisation scale.
    pub scale: f32,
    /// Minimum value of the original vector (the zero point maps onto it).
    pub min: f32,
}

impl QuantizedVec {
    /// Quantises a slice of `f32` values to 8-bit codes.
    ///
    /// The mapping is deterministic: the same input slice always yields
    /// bit-identical codes (this is what lets a persisted SQ8 index rebuild
    /// its exact contents from the raw-`f32` entry log).
    ///
    /// **Reconstruction error bound:** for finite inputs, the per-dimension
    /// absolute error of [`Self::dequantize`] is at most `scale / 2` (half a
    /// quantisation step), plus float rounding on the order of
    /// `|min| · ε`. Degenerate inputs keep that bound rather than inflating
    /// it:
    ///
    /// * A **constant vector** gets `scale = 0` and all-zero codes, so
    ///   reconstruction (`min + 0 · 0`) is exact. (Clamping the range to
    ///   `f32::EPSILON` instead — the previous behaviour — manufactures a
    ///   nonzero step for data that has none.)
    /// * **Non-finite inputs never poison the codec**: `min`/`max` are taken
    ///   over the finite values only, `NaN` and `-∞` map to code 0, `+∞`
    ///   maps to code 255, and an all-non-finite vector degrades to zeros
    ///   with `scale = 0`, `min = 0` rather than propagating `NaN`/`∞` into
    ///   the dequantisation constants.
    pub fn quantize(values: &[f32]) -> Self {
        let mut codes = vec![0; values.len()];
        let (scale, min) = Self::quantize_into(values, &mut codes);
        Self { codes, scale, min }
    }

    /// [`Self::quantize`] without the allocation: writes one code per value
    /// into `codes` and returns `(scale, min)`. The two passes (the finite
    /// range, then the codes) dispatch through `crate::kernels`, whose every
    /// implementation writes the codes the scalar
    /// `((v − min) · inv_scale).round().clamp(0.0, 255.0) as u8` would. A
    /// zero `min` is always `+0.0`, so the constants carry no sign-of-zero
    /// difference between implementations either.
    ///
    /// # Panics
    /// Panics if `codes` and `values` differ in length.
    pub fn quantize_into(values: &[f32], codes: &mut [u8]) -> (f32, f32) {
        assert_eq!(codes.len(), values.len(), "quantize_into: length mismatch");
        if values.is_empty() {
            return (1.0, 0.0);
        }
        let (min, max) = crate::kernels::finite_min_max(values);
        if min > max {
            // No finite value at all: deterministic all-zero codes with
            // harmless constants.
            codes.fill(0);
            return (0.0, 0.0);
        }
        // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
        let min = min + 0.0;
        let range = max - min;
        if range <= 0.0 {
            // Constant vector: one level suffices and reconstruction is
            // exact.
            codes.fill(0);
            return (0.0, min);
        }
        let scale = range / 255.0;
        crate::kernels::quantize_u8(values, min, 255.0 / range, codes);
        (scale, min)
    }

    /// Sum of the codes, widened to `u32` — the per-row constant of the
    /// affine correction in [`Self::dot_quantized`]. O(n); a scan that
    /// scores one row against many should compute each row's sum once up
    /// front rather than per pairing.
    pub fn code_sum(&self) -> u32 {
        self.codes.iter().map(|&c| c as u32).sum()
    }

    /// Dot product of two quantised vectors **in the integer domain**:
    /// one fused widening `u8` multiply-add pass
    /// ([`crate::vector::dot_u8`]) plus the affine scale/zero-point
    /// correction —
    /// `s_a·s_b·Σc_a c_b + s_a·m_b·Σc_a + s_b·m_a·Σc_b + n·m_a·m_b` —
    /// rather than dequantising either side.
    ///
    /// This is the *symmetric* (both sides quantised) companion of the scan
    /// kernel `crate::vector::dot_u8_asym`; the index hot path uses the
    /// asymmetric one (queries stay `f32`). Note this convenience form
    /// recomputes both [`Self::code_sum`]s per call — batch callers should
    /// hoist them.
    ///
    /// # Panics
    /// Panics in debug builds when the lengths differ.
    pub fn dot_quantized(&self, other: &QuantizedVec) -> f32 {
        debug_assert_eq!(self.len(), other.len(), "dot_quantized: length mismatch");
        let n = self.len().min(other.len()) as f32;
        let raw = crate::vector::dot_u8(&self.codes, &other.codes) as f32;
        self.scale * other.scale * raw
            + self.scale * other.min * self.code_sum() as f32
            + other.scale * self.min * other.code_sum() as f32
            + n * self.min * other.min
    }

    /// Reconstructs the (lossy) `f32` values.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| self.min + c as f32 * self.scale)
            .collect()
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when there are no dimensions.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Bytes used by the quantised payload plus its dequantisation constants.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + 2 * std::mem::size_of::<f32>()
    }

    /// Maximum absolute reconstruction error against the original values.
    pub fn max_error(&self, original: &[f32]) -> f32 {
        self.dequantize()
            .iter()
            .zip(original.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar quantiser `quantize` was before it dispatched: the
    /// reference the kernels must reproduce code for code.
    fn quantize_reference(values: &[f32]) -> QuantizedVec {
        if values.is_empty() {
            return QuantizedVec {
                codes: Vec::new(),
                scale: 1.0,
                min: 0.0,
            };
        }
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in values {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        if min > max {
            return QuantizedVec {
                codes: vec![0; values.len()],
                scale: 0.0,
                min: 0.0,
            };
        }
        let range = max - min;
        if range <= 0.0 {
            return QuantizedVec {
                codes: vec![0; values.len()],
                scale: 0.0,
                min,
            };
        }
        let scale = range / 255.0;
        let inv_scale = 255.0 / range;
        let codes = values
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    (((v - min) * inv_scale).round().clamp(0.0, 255.0)) as u8
                } else if v == f32::INFINITY {
                    255
                } else {
                    0
                }
            })
            .collect();
        QuantizedVec { codes, scale, min }
    }

    /// Codes and scale bit for bit; `min` by value, since the reference's
    /// `f32::min` may return either zero when `+0.0` and `-0.0` tie.
    fn assert_same_as_reference(values: &[f32]) {
        let got = QuantizedVec::quantize(values);
        let want = quantize_reference(values);
        assert_eq!(got.codes, want.codes, "codes of {values:?}");
        assert_eq!(
            got.scale.to_bits(),
            want.scale.to_bits(),
            "scale of {values:?}"
        );
        assert!(
            got.min.to_bits() == want.min.to_bits() || (got.min == 0.0 && want.min == 0.0),
            "min of {values:?}: {} vs {}",
            got.min,
            want.min
        );
        let mut codes = vec![7u8; values.len()];
        assert_eq!(
            QuantizedVec::quantize_into(values, &mut codes),
            (got.scale, got.min)
        );
        assert_eq!(codes, got.codes);
    }

    /// Values drawn from the edges the quantiser must get right: exact `.5`
    /// ties of the scaled value, non-finite values, subnormals, zeros of
    /// both signs and huge magnitudes, among ordinary ones.
    struct EdgeValue;

    impl Strategy for EdgeValue {
        type Value = f32;
        fn generate(&self, gen: &mut proptest::Gen) -> f32 {
            let pick = gen.next_u64();
            match pick % 14 {
                0..=3 => (gen.next_f64() * 2.0 - 1.0) as f32,
                4 | 5 => (gen.next_u64() % 511) as f32 / 510.0,
                6 => f32::NAN,
                7 => f32::INFINITY,
                8 => f32::NEG_INFINITY,
                9 => f32::from_bits(1 + (gen.next_u64() % 0x007f_ffff) as u32),
                10 => 0.0,
                11 => -0.0,
                12 => 3.0e38,
                _ => -3.0e38,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dispatched quantiser writes the reference's codes, across
        /// every length the kernels split differently (32-wide body, tail).
        #[test]
        fn quantize_matches_the_scalar_reference(
            values in prop::collection::vec(EdgeValue, 0..80),
        ) {
            assert_same_as_reference(&values);
        }

        /// Ties: values on the half-steps of a `[0, 255]` grid, where
        /// `(v - min) * inv_scale` lands exactly on `k + 0.5`.
        #[test]
        fn exact_half_steps_round_away_from_zero(
            halves in prop::collection::vec(0u32..511, 1..70),
        ) {
            let mut values: Vec<f32> = halves.iter().map(|&h| h as f32 * 0.5).collect();
            values.push(0.0);
            values.push(255.0);
            assert_same_as_reference(&values);
        }
    }

    #[test]
    fn degenerate_rows_match_the_reference() {
        let cases: [&[f32]; 8] = [
            &[],
            &[0.25; 40],
            &[f32::NAN; 33],
            &[f32::INFINITY, f32::NEG_INFINITY, f32::NAN],
            &[1.0e-45, 2.0e-45, 0.0, 3.0e-45],
            &[3.0e38, -3.0e38, 1.0, f32::INFINITY],
            &[-0.0, 0.0, 0.5, -0.0],
            &[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 127.5, 254.5, 255.0],
        ];
        for values in cases {
            assert_same_as_reference(values);
        }
        let long: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin()).collect();
        assert_same_as_reference(&long);
    }

    #[test]
    fn storage_accounting_matches_paper_scale() {
        // 768-dim f32 ≈ 3 KB payload, 4096-dim ≈ 16 KB payload; the relative
        // ordering (Llama ≫ MPNet) is what the Figure 15 bench reports.
        assert_eq!(f32_embedding_bytes(768), 3072);
        assert_eq!(f32_embedding_bytes(4096), 16384);
        assert!(stored_embedding_bytes(768) > f32_embedding_bytes(768));
    }

    #[test]
    fn quantize_round_trip_error_is_bounded() {
        let values: Vec<f32> = (0..256).map(|i| (i as f32 / 64.0).sin()).collect();
        let q = QuantizedVec::quantize(&values);
        assert_eq!(q.len(), values.len());
        // Max error is at most half a quantisation step.
        let step = q.scale;
        assert!(q.max_error(&values) <= step * 0.51 + 1e-6);
    }

    #[test]
    fn quantized_storage_is_roughly_quarter_of_f32() {
        let values = vec![0.5f32; 768];
        let q = QuantizedVec::quantize(&values);
        assert!(q.storage_bytes() * 3 < f32_embedding_bytes(768));
    }

    #[test]
    fn quantize_constant_vector() {
        let values = vec![0.25f32; 16];
        let q = QuantizedVec::quantize(&values);
        // One quantisation level, zero step: reconstruction is *exact*, not
        // merely close (the old EPSILON-clamped range manufactured a step).
        assert_eq!(q.scale, 0.0);
        assert!(q.codes.iter().all(|&c| c == 0));
        for v in q.dequantize() {
            assert_eq!(v, 0.25);
        }
        assert_eq!(q.max_error(&values), 0.0);
        // Large-magnitude constants stay exact too.
        let big = vec![3.0e8f32; 8];
        let q = QuantizedVec::quantize(&big);
        assert_eq!(q.max_error(&big), 0.0);
    }

    #[test]
    fn quantize_is_deterministic() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.71).cos()).collect();
        let a = QuantizedVec::quantize(&values);
        let b = QuantizedVec::quantize(&values);
        assert_eq!(a, b, "same input must yield bit-identical codes");
    }

    #[test]
    fn non_finite_inputs_do_not_poison_codes() {
        let values = [1.0, f32::NAN, -2.0, f32::INFINITY, 0.5, f32::NEG_INFINITY];
        let q = QuantizedVec::quantize(&values);
        assert!(q.scale.is_finite());
        assert!(q.min.is_finite());
        let back = q.dequantize();
        assert!(back.iter().all(|v| v.is_finite()));
        // Finite dimensions still reconstruct within half a step.
        assert!((back[0] - 1.0).abs() <= q.scale * 0.5 + 1e-6);
        assert!((back[2] + 2.0).abs() <= q.scale * 0.5 + 1e-6);
        assert!((back[4] - 0.5).abs() <= q.scale * 0.5 + 1e-6);
        // +inf pins to the top of the finite range, NaN / -inf to the bottom.
        assert_eq!(q.codes[3], 255);
        assert_eq!(q.codes[1], 0);
        assert_eq!(q.codes[5], 0);
        // All-non-finite degrades to zeros instead of NaN constants.
        let q = QuantizedVec::quantize(&[f32::NAN, f32::NAN]);
        assert_eq!(q.codes, vec![0, 0]);
        assert_eq!(q.dequantize(), vec![0.0, 0.0]);
    }

    #[test]
    fn dot_quantized_matches_dequantized_dot() {
        let a: Vec<f32> = (0..96).map(|i| (i as f32 * 0.13).sin()).collect();
        let b: Vec<f32> = (0..96)
            .map(|i| (i as f32 * 0.29).cos() * 0.7 + 0.1)
            .collect();
        let qa = QuantizedVec::quantize(&a);
        let qb = QuantizedVec::quantize(&b);
        let reference = crate::vector::dot(&qa.dequantize(), &qb.dequantize());
        let fused = qa.dot_quantized(&qb);
        assert!(
            (fused - reference).abs() < 1e-3,
            "fused={fused} reference={reference}"
        );
        assert_eq!(qa.code_sum(), qa.codes.iter().map(|&c| c as u32).sum());
    }

    #[test]
    fn quantize_empty() {
        let q = QuantizedVec::quantize(&[]);
        assert!(q.is_empty());
        assert!(q.dequantize().is_empty());
        assert_eq!(q.storage_bytes(), 8);
    }
}
