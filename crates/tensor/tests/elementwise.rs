//! The element-wise primitives (`vector::{axpy, scale}` and the rescale of
//! `vector::normalize`) are plain iterator loops, dispatched like the dot
//! kernels: compiled eight lanes wide inside an AVX2 target-feature body on
//! CPUs that have it, at the build baseline's width otherwise. That freedom
//! is safe only because each output element is a fixed expression of its
//! own inputs; this file checks it, bit for bit, against loops the optimiser
//! cannot touch (every operation goes through `black_box`) and against the
//! portable implementation.
//!
//! Debug builds do not vectorise, so the comparison only exercises the
//! shipped code under `--release`; CI runs this file in both profiles.

use std::hint::black_box;

use mc_tensor::{kernels, vector};

/// Every remainder shape up to two whole 32-float steps of the AVX2 body,
/// plus a long vector.
fn lengths() -> impl Iterator<Item = usize> {
    (0..=67).chain([256])
}

/// Values where a wrong lane, a fused multiply-add or a flushed subnormal
/// would show: signed zeros, subnormals, the extremes, infinities and NaN.
const SPECIALS: [f32; 14] = [
    0.0,
    -0.0,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    1.0e-45, // smallest subnormal
    -3.0e-42,
    f32::MAX,
    f32::MIN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1.0,
    -1.0,
    f32::EPSILON,
];

/// Scalars the primitives are driven with: ordinary, tiny, huge, special.
const ALPHAS: [f32; 10] = [
    0.37,
    -1.0,
    0.0,
    -0.0,
    1.0e-40,
    3.0e38,
    -2.5e-7,
    f32::INFINITY,
    f32::NAN,
    16_777_217.0,
];

/// `n` values: every third one a special, the rest uniform in `[-scale, scale]`.
fn adversarial(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = mc_tensor::rng::seeded(seed);
    let mut values = mc_tensor::rng::uniform_vec(n, scale, &mut rng);
    for (i, v) in values.iter_mut().enumerate() {
        if i % 3 == seed as usize % 3 {
            *v = SPECIALS[(i / 3 + seed as usize) % SPECIALS.len()];
        }
    }
    values
}

/// Bit patterns, with every NaN folded to one (which payload survives an
/// operation on two NaNs is the one thing scalar and packed forms may differ
/// in).
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

#[test]
fn axpy_is_bit_equal_to_the_scalar_loop() {
    for n in lengths() {
        for (case, &alpha) in ALPHAS.iter().enumerate() {
            let x = adversarial(n, case as u64, 3.0);
            let y = adversarial(n, case as u64 + 100, 1.0e3);
            let mut expected = y.clone();
            for j in 0..n {
                let product = black_box(alpha * x[j]);
                expected[j] = black_box(expected[j] + product);
            }
            let mut actual = y;
            vector::axpy(alpha, &x, &mut actual);
            assert_eq!(bits(&actual), bits(&expected), "n={n} alpha={alpha:e}");
        }
    }
}

#[test]
fn scale_is_bit_equal_to_the_scalar_loop() {
    for n in lengths() {
        for (case, &alpha) in ALPHAS.iter().enumerate() {
            let a = adversarial(n, case as u64 + 7, 1.0e-3);
            let expected: Vec<f32> = a.iter().map(|&v| black_box(v * alpha)).collect();
            let mut actual = a;
            vector::scale(alpha, &mut actual);
            assert_eq!(bits(&actual), bits(&expected), "n={n} alpha={alpha:e}");
        }
    }
}

#[test]
fn normalize_rescales_bit_equal_to_the_scalar_loop() {
    for n in 0..=67 {
        // Finite vectors of very different magnitudes, then ones carrying
        // specials (their norm is infinite or NaN).
        let finite =
            [1.0e-3f32, 1.0, 4.0e5, 1.0e18]
                .into_iter()
                .enumerate()
                .map(|(case, scale)| {
                    let mut rng = mc_tensor::rng::seeded(case as u64 + n as u64);
                    mc_tensor::rng::uniform_vec(n, scale, &mut rng)
                });
        let special = (0..3).map(|seed| adversarial(n, seed, 2.0));
        for a in finite.chain(special) {
            let mut expected = a.clone();
            let norm = vector::norm(&a);
            if norm > f32::EPSILON {
                let inv = black_box(1.0 / norm);
                for v in expected.iter_mut() {
                    *v = black_box(*v * inv);
                }
            }
            let mut actual = a;
            vector::normalize(&mut actual);
            assert_eq!(bits(&actual), bits(&expected), "n={n} norm={norm:e}");
        }
    }
}

#[test]
fn dispatched_element_wise_loops_are_bit_equal_to_portable() {
    for n in lengths() {
        for (case, &alpha) in ALPHAS.iter().enumerate() {
            let x = adversarial(n, case as u64 + 31, 5.0);
            let y = adversarial(n, case as u64 + 131, 2.0e2);
            let (mut dispatched, mut portable) = (y.clone(), y);
            kernels::axpy(alpha, &x, &mut dispatched);
            kernels::portable::axpy(alpha, &x, &mut portable);
            assert_eq!(
                bits(&dispatched),
                bits(&portable),
                "axpy n={n} alpha={alpha:e}"
            );
            let (mut dispatched, mut portable) = (x.clone(), x);
            kernels::scale(alpha, &mut dispatched);
            kernels::portable::scale(alpha, &mut portable);
            assert_eq!(
                bits(&dispatched),
                bits(&portable),
                "scale n={n} alpha={alpha:e}"
            );
        }
    }
}

#[test]
fn forced_portable_build_runs_the_portable_kernels() {
    if cfg!(mc_portable_kernels) {
        assert_eq!(kernels::active_isa(), "portable");
    }
}

#[test]
fn mismatched_axpy_operands_update_only_the_common_prefix() {
    // A debug build asserts equal lengths; the shipped build trims.
    if cfg!(debug_assertions) {
        return;
    }
    let x = [1.0f32; 5];
    let mut y = [10.0f32; 9];
    vector::axpy(2.0, &x, &mut y);
    assert_eq!(y, [12.0, 12.0, 12.0, 12.0, 12.0, 10.0, 10.0, 10.0, 10.0]);
}
