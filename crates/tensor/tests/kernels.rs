//! The dot-kernel contract (`mc_tensor::kernels`), checked through the
//! public entry points in whichever profile the suite is built — CI runs
//! this file under `--release` too, where the optimised kernel bodies and the
//! length-truncation path (a `debug_assert` otherwise) actually exist.
//!
//! * every length 0..=67 (plus the `tiny` profile's 48 and the default 256)
//!   hits the 32-wide body, the 8-wide remainder and the scalar tail;
//! * mismatched and empty operands are trimmed, never over-read;
//! * the dispatched kernel agrees with the portable one — called directly,
//!   no runtime switch — within a stated bound, on random and adversarial
//!   inputs;
//! * a (query, row) pair scores the same bits alone and inside a scan.

use mc_tensor::kernels::{self, portable};
use mc_tensor::vector;
use proptest::prelude::*;

/// The lengths the sweep tests walk.
fn lengths() -> impl Iterator<Item = usize> {
    (0..=67).chain([256])
}

fn floats(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = mc_tensor::rng::seeded(seed);
    mc_tensor::rng::uniform_vec(n, 1.0, &mut rng)
}

fn codes(n: usize, seed: u64) -> Vec<u8> {
    floats(n, seed)
        .iter()
        .map(|v| ((v + 1.0) * 127.5) as u8)
        .collect()
}

/// `Σ |a_j · b_j|` in `f64`: the magnitude rounding error scales with.
fn magnitude(a: &[f32], b: impl Iterator<Item = f32>) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, y)| (x as f64 * y as f64).abs())
        .sum()
}

/// How far two correctly-rounded evaluations of an `n`-term dot product in
/// the kernels' layout can sit apart: each side rounds one product (the
/// portable side only) and at most `n / 32 + 6` additions per element path,
/// each by half an ulp of a partial sum no larger than `magnitude`; the
/// absolute term covers products that underflow into the denormal range.
fn agreement_bound(n: usize, magnitude: f64) -> f64 {
    (n as f64 / 32.0 + 8.0) * f32::EPSILON as f64 * magnitude + n as f64 * f32::MIN_POSITIVE as f64
}

fn assert_agree(dispatched: f32, reference: f32, n: usize, magnitude: f64, what: &str) {
    let gap = (dispatched as f64 - reference as f64).abs();
    assert!(
        gap <= agreement_bound(n, magnitude),
        "{what}: n={n} dispatched={dispatched} portable={reference} gap={gap:e} ({})",
        kernels::active_isa()
    );
}

#[test]
fn every_length_agrees_with_naive_and_portable() {
    for n in lengths() {
        let (a, b) = (floats(n, 7 + n as u64), floats(n, 1000 + n as u64));
        let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let mag = magnitude(&a, b.iter().copied());
        let got = vector::dot(&a, &b);
        assert_agree(got, naive as f32, n, mag, "dot vs f64 sum");
        assert_agree(got, portable::dot(&a, &b), n, mag, "dot vs portable");

        // Scale 1, offset 0 makes `dot_u8_asym` return the kernel's own sum.
        let c = codes(n, 2000 + n as u64);
        let mag = magnitude(&a, c.iter().map(|&c| c as f32));
        let raw = vector::dot_u8_asym(&a, &c, 1.0, 0.0, 0.0);
        assert_agree(
            raw,
            portable::dot(&a, &c),
            n,
            mag,
            "dot_u8_asym vs portable",
        );
        // ... and the affine correction is applied once, on top of it.
        let (scale, min, query_sum) = (0.0125f32, -1.6f32, vector::sum(&a));
        assert_eq!(
            vector::dot_u8_asym(&a, &c, scale, min, query_sum),
            scale * raw + min * query_sum
        );
    }
}

#[test]
fn empty_operands_score_the_affine_constant() {
    assert_eq!(vector::dot(&[], &[]), 0.0);
    assert_eq!(portable::dot::<f32>(&[], &[]), 0.0);
    assert_eq!(vector::dot_u8_asym(&[], &[], 0.5, -2.0, 3.0), -6.0);
    let mut calls = 0;
    kernels::scan_f32(&[1.0, 2.0], &[], |_, _| calls += 1);
    kernels::scan_u8_asym(&[1.0, 2.0], &[], &[], &[], 3.0, |_, _| calls += 1);
    assert_eq!(calls, 0);
}

#[test]
fn mismatched_lengths_use_the_common_prefix() {
    // Both implementations trim to the common prefix, in every profile.
    let (a, b) = (floats(80, 3), floats(80, 4));
    let c = codes(80, 5);
    for (n, m) in [(0, 5), (5, 0), (7, 8), (33, 31), (64, 67), (80, 48)] {
        let common = n.min(m);
        assert_eq!(
            kernels::dot(&a[..n], &b[..m]).to_bits(),
            kernels::dot(&a[..common], &b[..common]).to_bits(),
            "f32 {n} vs {m}"
        );
        assert_eq!(
            portable::dot(&a[..n], &b[..m]).to_bits(),
            portable::dot(&a[..common], &b[..common]).to_bits(),
            "portable {n} vs {m}"
        );
        assert_eq!(
            kernels::dot_u8_asym(&a[..n], &c[..m], 0.01, -1.0, 2.0).to_bits(),
            kernels::dot_u8_asym(&a[..common], &c[..common], 0.01, -1.0, 2.0).to_bits(),
            "u8 {n} vs {m}"
        );
    }
}

/// The public `vector` entry points assert equal lengths in debug builds and
/// truncate in release builds; each profile checks its own half.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "length mismatch"))]
fn vector_dot_length_mismatch_truncates_in_release() {
    let (a, b) = (floats(40, 8), floats(33, 9));
    assert_eq!(
        vector::dot(&a, &b).to_bits(),
        vector::dot(&a[..33], &b).to_bits()
    );
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "length mismatch"))]
fn vector_dot_u8_asym_length_mismatch_truncates_in_release() {
    let (a, c) = (floats(9, 10), codes(17, 11));
    assert_eq!(
        vector::dot_u8_asym(&a, &c, 0.01, -1.0, 2.0).to_bits(),
        vector::dot_u8_asym(&a, &c[..9], 0.01, -1.0, 2.0).to_bits()
    );
}

#[test]
fn adversarial_inputs_agree_with_portable() {
    for n in [1usize, 8, 31, 32, 48, 67, 256, 1024] {
        // All-max codes against an all-ones query: the largest sums SQ8 sees.
        let ones = vec![1.0f32; n];
        let maxed = vec![255u8; n];
        let got = kernels::dot_u8_asym(&ones, &maxed, 1.0, 0.0, 0.0);
        assert_eq!(got, portable::dot(&ones, &maxed), "exact in f32 up to 2^24");
        assert_eq!(got, 255.0 * n as f32);

        // Alternating ±1.0: every partial sum cancels.
        let signs: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let got = kernels::dot(&signs, &ones);
        assert_eq!(got, portable::dot(&signs, &ones));
        assert_eq!(got, (n % 2) as f32);

        // Denormal operands: products underflow, nothing may trap or NaN.
        let tiny = vec![f32::MIN_POSITIVE / 4.0; n];
        let mixed = floats(n, 99);
        let mag = magnitude(&tiny, mixed.iter().copied());
        assert_agree(
            kernels::dot(&tiny, &mixed),
            portable::dot(&tiny, &mixed),
            n,
            mag,
            "denormal × unit",
        );
        assert_eq!(kernels::dot(&tiny, &tiny), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dispatched vs portable on random inputs of random length and scale.
    #[test]
    fn dispatched_agrees_with_portable(
        n in 0usize..300,
        seed in 0u64..1_000_000,
        magnitude_exp in -20i32..20,
    ) {
        let scale = 2.0f32.powi(magnitude_exp);
        let a: Vec<f32> = floats(n, seed).iter().map(|v| v * scale).collect();
        let b = floats(n, seed ^ 0x5EED);
        let mag = magnitude(&a, b.iter().copied());
        let gap = (kernels::dot(&a, &b) as f64 - portable::dot(&a, &b) as f64).abs();
        prop_assert!(gap <= agreement_bound(n, mag), "f32 n={} gap={:e}", n, gap);

        let c = codes(n, seed ^ 0xC0DE);
        let mag = magnitude(&a, c.iter().map(|&c| c as f32));
        let gap = (kernels::dot_u8_asym(&a, &c, 1.0, 0.0, 0.0) as f64
            - portable::dot(&a, &c) as f64).abs();
        prop_assert!(gap <= agreement_bound(n, mag), "u8 n={} gap={:e}", n, gap);
    }

    /// A row scores the same bits through the single-row entry point and at
    /// any position of a scan.
    #[test]
    fn scan_scores_are_bit_identical_to_single_rows(
        dims in 1usize..70,
        rows in 0usize..11,
        seed in 0u64..1_000_000,
    ) {
        let query = floats(dims, seed);
        let query_sum = vector::sum(&query);
        let values = floats(rows * dims, seed ^ 1);
        let row_codes = codes(rows * dims, seed ^ 2);
        let scales = floats(rows, seed ^ 3);
        let mins = floats(rows, seed ^ 4);

        let mut seen = Vec::new();
        kernels::scan_f32(&query, &values, |row, score| seen.push((row, score.to_bits())));
        let alone: Vec<(usize, u32)> = values
            .chunks_exact(dims)
            .map(|row| vector::dot(&query, row).to_bits())
            .enumerate()
            .collect();
        prop_assert_eq!(seen, alone);

        let mut seen = Vec::new();
        kernels::scan_u8_asym(&query, &row_codes, &scales, &mins, query_sum, |row, score| {
            seen.push((row, score.to_bits()))
        });
        let alone: Vec<(usize, u32)> = row_codes
            .chunks_exact(dims)
            .enumerate()
            .map(|(row, chunk)| {
                let score = vector::dot_u8_asym(&query, chunk, scales[row], mins[row], query_sum);
                (row, score.to_bits())
            })
            .collect();
        prop_assert_eq!(seen, alone);
    }
}

/// `n` query steps in `-64..=64`, the range `dot_u8_i8_rows` is specified on,
/// with both extremes present whenever `n >= 2`.
fn steps(n: usize, seed: u64) -> Vec<i8> {
    let mut steps: Vec<i8> = floats(n, seed).iter().map(|v| (v * 64.0) as i8).collect();
    if n >= 2 {
        steps[0] = -64;
        steps[n - 1] = 64;
    }
    steps
}

/// The integer pre-screen kernel sums exactly, so the dispatched kernel, the
/// portable one and an `i64` reference agree on every row, at every row
/// length (32-wide body, scalar tail) and row count (four-row steps, the
/// last rows alone), including all-255 codes against all-±64 steps.
#[test]
fn u8_i8_scan_is_exact_on_every_shape() {
    for n in lengths() {
        if n == 0 {
            continue;
        }
        for rows in [0usize, 1, 3, 4, 5, 9] {
            let query = steps(n, 40 + n as u64);
            let mut all = codes(rows * n, 50 + n as u64);
            if rows > 0 {
                all[..n].fill(255);
            }
            let expect: Vec<i32> = all
                .chunks_exact(n)
                .map(|row| {
                    let sum: i64 = row
                        .iter()
                        .zip(&query)
                        .map(|(&c, &k)| c as i64 * k as i64)
                        .sum();
                    sum as i32
                })
                .collect();
            let mut seen = vec![7; rows];
            kernels::dot_u8_i8_rows(&query, &all, &mut seen);
            let mut portable_seen = vec![7; rows];
            portable::dot_u8_i8_rows(&query, &all, &mut portable_seen);
            assert_eq!(
                seen,
                expect,
                "n={n} rows={rows} ({})",
                kernels::active_isa()
            );
            assert_eq!(portable_seen, expect, "n={n} rows={rows} portable");
        }
        for extreme in [64i8, -64] {
            let mut sums = [0; 5];
            kernels::dot_u8_i8_rows(&vec![extreme; n], &vec![255u8; 5 * n], &mut sums);
            assert_eq!(sums, [255 * i32::from(extreme) * n as i32; 5]);
        }
    }
}

/// The shadow encoder's two helpers agree with their portable references:
/// the finite range and the code norm exactly, the residual and row norms
/// to `f64` rounding.
#[test]
fn range_and_residual_norms_agree_with_portable() {
    for n in lengths() {
        let mut values = floats(n, 60 + n as u64);
        if n > 9 {
            values[3] = f32::NAN;
            values[9] = f32::INFINITY;
        }
        assert_eq!(
            kernels::finite_min_max(&values),
            portable::finite_min_max(&values),
            "n={n}"
        );
        let row_codes = codes(n, 70 + n as u64);
        let finite = floats(n, 80 + n as u64);
        let (e, r, c) = kernels::sq8_row_norms(&finite, &row_codes, 0.0078, -1.0);
        let (pe, pr, pc) = portable::sq8_row_norms(&finite, &row_codes, 0.0078, -1.0);
        assert!((e - pe).abs() <= 1e-12 * pe.max(1.0), "n={n}: {e} vs {pe}");
        assert!((r - pr).abs() <= 1e-12 * pr.max(1.0), "n={n}: {r} vs {pr}");
        let exact: f64 = row_codes.iter().map(|&c| (c as f64 - 127.5).powi(2)).sum();
        assert_eq!((c, pc), (exact, exact), "n={n}");
    }
    assert_eq!(
        kernels::finite_min_max(&[f32::NAN; 20]),
        (f32::INFINITY, f32::NEG_INFINITY)
    );
}

/// The query-side quantiser writes the same steps on every path (ties to
/// even on both), within `[-64, 64]` and within half a step of each value,
/// and sums agree to `f64` rounding.
#[test]
fn query_steps_agree_with_portable() {
    for n in lengths() {
        let mut values = floats(n, 90 + n as u64);
        if n > 4 {
            // An exact tie: 0.5 / 64 of the peak.
            values[0] = 1.0;
            values[1] = 0.5 / 64.0;
            values[2] = -1.5 / 64.0;
        }
        let (mut steps, mut reference) = (vec![0i8; n], vec![0i8; n]);
        let got = kernels::quantize_i8(&values, &mut steps);
        let want = portable::quantize_i8(&values, &mut reference);
        assert_eq!(steps, reference, "n={n} ({})", kernels::active_isa());
        assert_eq!(got.step, want.step);
        for (a, b) in [
            (got.sum, want.sum),
            (got.norm_sq, want.norm_sq),
            (got.residual_sum, want.residual_sum),
            (got.residual_norm_sq, want.residual_norm_sq),
        ] {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                "n={n}: {a} vs {b}"
            );
        }
        for (&v, &k) in values.iter().zip(&steps) {
            assert!((-64..=64).contains(&k));
            let f = f64::from(v) - got.step * f64::from(k);
            assert!(
                f.abs() <= got.step * 0.5 * (1.0 + 1e-6),
                "n={n}: {v} -> {k}"
            );
        }
        if n > 4 {
            assert_eq!(&steps[..3], &[64, 0, -2], "ties go to even");
        }
    }
    let mut steps = [9i8; 3];
    let zero = kernels::quantize_i8(&[0.0; 3], &mut steps);
    assert_eq!((steps, zero.step, zero.norm_sq), ([0; 3], 0.0, 0.0));
}
