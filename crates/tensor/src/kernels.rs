//! The dispatched loops behind [`crate::vector`] and the index scans: the
//! dot-product kernels, the two element-wise primitives (`axpy`, `scale`),
//! the SQ8 quantiser and the integer kernels of the index's pre-screen, an
//! AVX2 implementation of each, a portable fallback, and the
//! once-per-process choice between them. Every intrinsic and every `unsafe`
//! line of this crate lives here.
//!
//! # Per-row layout (what makes scores bit-identical across scan shapes)
//!
//! A row of `n` elements is cut into *groups* of eight. Group `g` is
//! accumulated, lane by lane and in increasing `g`, into accumulator
//! `g % 4` of four 8-lane accumulators; the `n % 8` trailing elements go
//! into one scalar `tail`, in order. The result is reduced in a fixed order:
//! `(acc0 + acc1) + (acc2 + acc3)` lane-wise, then lanes `(l, l + 4)`, then
//! the neighbours `(0, 1)` and `(2, 3)`, then those two sums, then `+ tail`.
//! A (query, row) pair therefore scores the same bits whether it was computed
//! alone ([`dot`]), inside [`scan_f32`] / [`scan_u8_asym`], or in a sub-range
//! of a parallel scan: a scan is the single-row kernel inlined into one loop.
//!
//! The two implementations share that layout and differ only in rounding:
//! the AVX2 path fuses each multiply-add (one rounding), the portable path
//! rounds the product and the sum separately. Scores can differ in the last
//! ulps *between machines*, never within a process — the implementation is
//! chosen once ([`active_isa`]).
//!
//! Any fixed order would do for the invariant. This tree was kept because
//! with it the benchmark's four workloads make exactly the hit/miss decisions
//! of the scalar kernels it replaced (at the reference seeds; the
//! `(l, l + 2)` pairing moved one score in ≈ 10 000 across the threshold).
//! That is a last-ulp coincidence worth keeping, not a guarantee.
//!
//! # Element-wise loops (what makes them bit-identical on every path)
//!
//! [`axpy`] (`y += alpha · x`) and [`scale`] (`a *= alpha`) carry the
//! encoder's pooling, `vecmat`, the rank-1 weight-gradient update, every
//! embedding-table gradient row and every gradient accumulation. Each output
//! element is one multiply and one add of its own inputs, each rounded to
//! `f32`, so there is no order to choose: both implementations run the same
//! zipped loop, compiled once at the build baseline (SSE2 on x86-64) and once
//! inside an `avx2` target-feature body, where the compiler vectorises it
//! eight lanes wide. The multiply and the add stay separate instructions —
//! Rust never contracts `a * b + c` into a fused multiply-add, and the AVX2
//! bodies do not enable FMA — so both produce the same bits, up to which
//! payload a NaN carries.
//!
//! # Exact kernels (what makes them identical on every path)
//!
//! These entries compute values that no implementation may round
//! differently, so they are interchangeable by construction:
//!
//! * [`finite_min_max`] and [`quantize_u8`] are the two passes of
//!   `QuantizedVec::quantize`. A minimum and a maximum are exact. A code is
//!   `(v − min) · inv_scale` (one `f32` subtract and one multiply, as in the
//!   scalar form), clamped into `[0, 255]` — NaN to 0 — and rounded half
//!   away from zero as `t + (x − t ≥ 0.5)` with `t = trunc(x)`: for
//!   `x ≥ 0`, `x − trunc(x)` is exact, so that is `f32::round` without the
//!   libm call `round` becomes at the SSE2 baseline. `+∞` is 255.
//! * [`dot_u8_i8_rows`] sums `u8 × i8` products in `i32`. Integer sums do
//!   not round, so the AVX2 body (`maddubs` + `madd`) and the portable loop
//!   write the same sums. With query steps in `[−64, 64]` no 16-bit pair
//!   sum saturates (`2 · 255 · 64 = 32 640`). An AVX-VNNI (`vpdpbusd`) body
//!   was measured and not kept: `user_local` lookup p50 0.95× of this one,
//!   6 of 8 alternating pairs.
//! * [`quantize_i8`] writes a query's integer steps, ties to even on both
//!   paths, and every `step · k` and residual exactly.
//! * [`sq8_row_norms`] and the sums of [`quantize_i8`] are `f64` sums: the
//!   code norm is exact, the others may differ between paths in the last
//!   `f64` bits. The index's pre-screen covers that with headroom (see
//!   `mc_store::rows`), so the difference can change how many rows a screen
//!   re-scores, never which rows a search returns.
//!
//! # Forcing the portable path
//!
//! A build with `--cfg mc_portable_kernels` (for example
//! `RUSTFLAGS="--cfg mc_portable_kernels" cargo test --release`) runs the
//! portable implementation on every host, so the `portable` constants of the
//! trained-weight pins are checked on machines that have AVX2. It is a test
//! switch: no runtime option selects it.
//!
//! # Safety inventory
//!
//! * The AVX2 functions are `#[target_feature(enable = "avx2,fma")]` (the
//!   dot, quantiser, norm and integer kernels) or
//!   `#[target_feature(enable = "avx2")]` (the element-wise loops); the only
//!   calls into them are the dispatch arms below, reached only after
//!   `is_x86_feature_detected!` confirmed both features.
//! * Raw pointers are formed only from slices cut to size in safe code, and
//!   every access through them is checked against that size by the loop
//!   condition right above it: the dot kernel trims a single row to the
//!   operands' common length (a scan checks that it holds whole rows);
//!   `quantize_u8`, `quantize_i8` and `sq8_row_norms` trim to the common
//!   length and step while `at + width <= n`; `dot_u8_i8_rows` takes each four-row group as
//!   a slice of exactly `4 · n` bytes (the dispatcher asserts the codes hold
//!   one row per output) and loads 32 bytes at offsets below `n − n % 32`.
//!   A length mismatch can therefore shorten a result but never read or
//!   write out of bounds. The element-wise bodies index nothing: they zip
//!   slices.
//! * Every load and store is an unaligned instruction (`loadu`, `storeu`,
//!   `read_unaligned`), so nothing is assumed about the alignment of owned
//!   or mapped (snapshot-adopted) arenas.

use std::sync::OnceLock;

/// Elements per SIMD group (one 256-bit register of `f32`).
const LANES: usize = 8;
/// Independent accumulators per row.
const ACCS: usize = 4;

/// Which implementation this process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

/// The implementation chosen for this process: detected on first use, then
/// fixed, so every score a process computes comes from one rounding regime.
/// A build with `--cfg mc_portable_kernels` always chooses `Portable`.
fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if cfg!(mc_portable_kernels) {
            return Isa::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2Fma;
        }
        Isa::Portable
    })
}

/// Name of the kernel implementation this process runs: `"avx2+fma"` or
/// `"portable"`. Surfaced by the serve banner and `/metrics` so a throughput
/// gap between two hosts can be explained from the running server.
pub fn active_isa() -> &'static str {
    match isa() {
        Isa::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => "avx2+fma",
    }
}

/// One stored row element: a raw `f32` or an SQ8 code.
pub trait Lane: Copy {
    /// The element as the `f32` it multiplies the query by.
    fn widen(self) -> f32;
}

impl Lane for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
}

impl Lane for u8 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self as f32
    }
}

/// `Σ query_j · row_j` over the common length of the two slices.
#[inline]
pub fn dot(query: &[f32], row: &[f32]) -> f32 {
    match isa() {
        Isa::Portable => portable::dot(query, row),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::dot(query, row) },
    }
}

/// `scale · Σ query_j · codes_j + min · query_sum`: the dot product of
/// `query` with the SQ8 row `value_j = min + codes_j · scale`, without
/// materialising the row. `query_sum` is `Σ query_j`.
#[inline]
pub fn dot_u8_asym(query: &[f32], codes: &[u8], scale: f32, min: f32, query_sum: f32) -> f32 {
    let raw = match isa() {
        Isa::Portable => portable::dot(query, codes),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::dot(query, codes) },
    };
    sq8_affine(raw, scale, min, query_sum)
}

/// The affine correction every SQ8 score goes through, single row or scan.
#[inline(always)]
fn sq8_affine(raw: f32, scale: f32, min: f32, query_sum: f32) -> f32 {
    scale * raw + min * query_sum
}

/// Calls `sink(i, dot(query, row_i))` for every `query.len()`-wide row of
/// `rows`, in row order. Dispatch happens once per call, not once per row,
/// and every score is bit-identical to [`dot`] on the same pair.
///
/// # Panics
/// Panics if `query` is empty or `rows` is not a whole number of rows.
#[inline]
pub fn scan_f32(query: &[f32], rows: &[f32], sink: impl FnMut(usize, f32)) {
    check_rows(query.len(), rows.len());
    match isa() {
        Isa::Portable => portable::scan(query, rows, sink),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::scan(query, rows, sink) },
    }
}

/// The SQ8 counterpart of [`scan_f32`]: calls
/// `sink(i, dot_u8_asym(query, codes_i, scales[i], mins[i], query_sum))` for
/// every row, bit-identical to [`dot_u8_asym`] on the same pair.
///
/// # Panics
/// Panics if `query` is empty, `codes` is not a whole number of rows, or
/// `scales` / `mins` do not hold one value per row.
#[inline]
pub fn scan_u8_asym(
    query: &[f32],
    codes: &[u8],
    scales: &[f32],
    mins: &[f32],
    query_sum: f32,
    mut sink: impl FnMut(usize, f32),
) {
    check_rows(query.len(), codes.len());
    let rows = codes.len() / query.len();
    let (scales, mins) = (&scales[..rows], &mins[..rows]);
    let affine =
        |row: usize, raw: f32| sink(row, sq8_affine(raw, scales[row], mins[row], query_sum));
    match isa() {
        Isa::Portable => portable::scan(query, codes, affine),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::scan(query, codes, affine) },
    }
}

/// `y += alpha · x` over the common length of the two slices, element by
/// element (see the module docs for why every path gives the same bits).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    match isa() {
        Isa::Portable => portable::axpy(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::axpy(alpha, x, y) },
    }
}

/// `a *= alpha`, element by element.
#[inline]
pub fn scale(alpha: f32, a: &mut [f32]) {
    match isa() {
        Isa::Portable => portable::scale(alpha, a),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::scale(alpha, a) },
    }
}

/// `(min, max)` over the finite values of `values`, or `(+∞, −∞)` when none
/// is finite. Exact (no rounding), so every implementation returns the same
/// values, up to the sign of a zero.
#[inline]
pub fn finite_min_max(values: &[f32]) -> (f32, f32) {
    match isa() {
        Isa::Portable => portable::finite_min_max(values),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::finite_min_max(values) },
    }
}

/// Writes the SQ8 code of every value over the common length: `255` for
/// `+∞`, otherwise `(value − min) · inv_scale` rounded half away from zero
/// and clamped into `0..=255`, with NaN (and so `−∞`) at `0`. Every step is
/// an exactly specified IEEE operation, so every implementation writes the
/// same codes as `((v − min) · inv_scale).round().clamp(0.0, 255.0) as u8`.
#[inline]
pub fn quantize_u8(values: &[f32], min: f32, inv_scale: f32, codes: &mut [u8]) {
    match isa() {
        Isa::Portable => portable::quantize_u8(values, min, inv_scale, codes),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::quantize_u8(values, min, inv_scale, codes) },
    }
}

/// The three sums an SQ8 row's pre-screen bound needs, in `f64`, over the
/// common length: `(Σ e_j², Σ v_j², Σ (c_j − 127.5)²)`, where
/// `e_j = v_j − (min + c_j · scale)` is the SQ8 residual of `v_j` and `c_j`
/// its code. The third sum is exact on every path (quarter-integers far
/// below 2⁵³); the first two are summed in different orders by different
/// implementations, so they may differ in the last `f64` bits.
#[inline]
pub fn sq8_row_norms(values: &[f32], codes: &[u8], scale: f32, min: f32) -> (f64, f64, f64) {
    match isa() {
        Isa::Portable => portable::sq8_row_norms(values, codes, scale, min),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::sq8_row_norms(values, codes, scale, min) },
    }
}

/// What [`quantize_i8`] measured while it wrote a query's integer steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct I8Steps {
    /// The grid step `max|v| / 64` (exact), 0 for an all-zero query.
    pub step: f64,
    /// `Σ v_j`.
    pub sum: f64,
    /// `Σ v_j²`.
    pub norm_sq: f64,
    /// `Σ f_j` over the residuals `f_j = v_j − step · k_j`.
    pub residual_sum: f64,
    /// `Σ f_j²`.
    pub residual_norm_sq: f64,
}

impl I8Steps {
    /// Adds one value with its step to the sums.
    #[inline(always)]
    fn add(&mut self, v: f32, k: i8) {
        let v = f64::from(v);
        let f = v - self.step * f64::from(k);
        self.sum += v;
        self.norm_sq += v * v;
        self.residual_sum += f;
        self.residual_norm_sq += f * f;
    }
}

/// Writes `k_j = round(v_j · 64 / max|v|)`, ties to even, into `steps` (over
/// the common length) and returns the grid step and the sums of the values
/// and of their residuals `f_j = v_j − step · k_j`, in `f64`. For finite
/// values every `k_j` lies in `-64..=64` and every `step · k_j` and `f_j` is
/// exact; the sums are added in different orders by different
/// implementations. A non-finite value makes `norm_sq` non-finite; the steps
/// are then meaningless (but still written).
#[inline]
pub fn quantize_i8(values: &[f32], steps: &mut [i8]) -> I8Steps {
    match isa() {
        Isa::Portable => portable::quantize_i8(values, steps),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::quantize_i8(values, steps) },
    }
}

/// The longest row [`dot_u8_i8_rows`] sums without overflowing `i32`:
/// `255 · 64 · len ≤ i32::MAX`.
pub const U8_I8_MAX_LEN: usize = i32::MAX as usize / (255 * 64);

/// `out[i] = Σ_j codes_ij · query_j` for every `query.len()`-wide row of
/// `codes`. The sums are exact integers, so every implementation writes the
/// same values. `query` entries must lie in `-64..=64` (the AVX2 body's
/// pairwise 16-bit sums saturate beyond that).
///
/// # Panics
/// Panics if `query` is empty or longer than [`U8_I8_MAX_LEN`], or `codes`
/// is not `out.len()` whole rows.
#[inline]
pub fn dot_u8_i8_rows(query: &[i8], codes: &[u8], out: &mut [i32]) {
    assert!(
        !query.is_empty() && query.len() <= U8_I8_MAX_LEN,
        "dot_u8_i8_rows: {}-wide rows are empty or overflow i32",
        query.len()
    );
    assert_eq!(
        codes.len(),
        out.len() * query.len(),
        "dot_u8_i8_rows: codes do not hold one row per output"
    );
    debug_assert!(query.iter().all(|k| (-64..=64).contains(k)));
    match isa() {
        Isa::Portable => portable::dot_u8_i8_rows(query, codes, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns `Avx2Fma` only after detecting AVX2 and FMA.
        Isa::Avx2Fma => unsafe { avx2::dot_u8_i8_rows(query, codes, out) },
    }
}

fn check_rows(dims: usize, elements: usize) {
    assert!(dims > 0, "scan: empty query");
    assert!(
        elements.is_multiple_of(dims),
        "scan: {elements} elements is not a whole number of {dims}-wide rows"
    );
}

/// The fallback for targets without AVX2+FMA, and the reference the
/// dispatched kernels are tested against. Plain `f32` arithmetic over fixed
/// windows, which the compiler vectorises with whatever the build baseline
/// offers (SSE2 on x86-64).
pub mod portable {
    use super::{Lane, ACCS, LANES};

    /// A row cut per the module's layout: 32-wide body steps (four groups,
    /// one per accumulator), up to three remainder groups, the scalar tail.
    type Split<'a, T> = (&'a [[[T; LANES]; ACCS]], &'a [[T; LANES]], &'a [T]);

    fn split<T>(row: &[T]) -> Split<'_, T> {
        let (groups, tail) = row.as_chunks::<LANES>();
        let (body, rem) = groups.as_chunks::<ACCS>();
        (body, rem, tail)
    }

    /// `Σ query_j · row_j` over the common length of the two slices, in the
    /// module's per-row layout, with separately rounded multiplies and adds.
    #[inline]
    pub fn dot<T: Lane>(query: &[f32], row: &[T]) -> f32 {
        let n = query.len().min(row.len());
        let (q_body, q_rem, q_tail) = split(&query[..n]);
        let (r_body, r_rem, r_tail) = split(&row[..n]);
        let mut acc = [[0.0f32; LANES]; ACCS];
        for (q_step, r_step) in q_body.iter().zip(r_body) {
            for j in 0..ACCS {
                for l in 0..LANES {
                    acc[j][l] += q_step[j][l] * r_step[j][l].widen();
                }
            }
        }
        for (j, (q_group, r_group)) in q_rem.iter().zip(r_rem).enumerate() {
            for l in 0..LANES {
                acc[j][l] += q_group[l] * r_group[l].widen();
            }
        }
        let mut tail = 0.0f32;
        for (q, r) in q_tail.iter().zip(r_tail) {
            tail += q * r.widen();
        }
        let mut s = [0.0f32; LANES];
        for l in 0..LANES {
            s[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
        }
        let quad = [s[0] + s[4], s[1] + s[5], s[2] + s[6], s[3] + s[7]];
        ((quad[0] + quad[1]) + (quad[2] + quad[3])) + tail
    }

    pub(super) fn scan<T: Lane>(query: &[f32], rows: &[T], mut sink: impl FnMut(usize, f32)) {
        for (i, row) in rows.chunks_exact(query.len()).enumerate() {
            sink(i, dot(query, row));
        }
    }

    /// `y += alpha · x` over the common length: one multiply rounded to
    /// `f32`, then one add rounded to `f32`, per element. A zipped loop, so
    /// the compiler sees both lengths and vectorises it at whatever width
    /// the enclosing function may use.
    #[inline(always)]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yj, &xj) in y.iter_mut().zip(x) {
            *yj += alpha * xj;
        }
    }

    /// `a *= alpha`, one rounded multiply per element.
    #[inline(always)]
    pub fn scale(alpha: f32, a: &mut [f32]) {
        for v in a.iter_mut() {
            *v *= alpha;
        }
    }

    /// See [`super::finite_min_max`].
    pub fn finite_min_max(values: &[f32]) -> (f32, f32) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in values {
            let finite = v.is_finite();
            lo = if finite && v < lo { v } else { lo };
            hi = if finite && v > hi { v } else { hi };
        }
        (lo, hi)
    }

    /// One SQ8 code (see [`super::quantize_u8`]). For `x ∈ [0, 254.5)`,
    /// `x as u8` truncates and `x − trunc(x)` is exact, so adding one when
    /// that fraction reaches `0.5` is `f32::round` without the libm call;
    /// `as u8` also sends NaN and negatives to `0`.
    #[inline(always)]
    pub fn quantize_one(value: f32, min: f32, inv_scale: f32) -> u8 {
        if value == f32::INFINITY {
            return 255;
        }
        let x = (value - min) * inv_scale;
        if x >= 254.5 {
            255
        } else {
            let t = x as u8;
            t + u8::from(x - f32::from(t) >= 0.5)
        }
    }

    /// See [`super::quantize_u8`].
    pub fn quantize_u8(values: &[f32], min: f32, inv_scale: f32, codes: &mut [u8]) {
        for (code, &v) in codes.iter_mut().zip(values) {
            *code = quantize_one(v, min, inv_scale);
        }
    }

    /// See [`super::sq8_row_norms`].
    pub fn sq8_row_norms(values: &[f32], codes: &[u8], scale: f32, min: f32) -> (f64, f64, f64) {
        let (scale, min) = (f64::from(scale), f64::from(min));
        let (mut residual, mut norm, mut centred) = (0.0f64, 0.0f64, 0.0f64);
        for (&v, &c) in values.iter().zip(codes) {
            let (v, c) = (f64::from(v), f64::from(c));
            let e = v - (min + c * scale);
            residual += e * e;
            norm += v * v;
            centred += (c - 127.5) * (c - 127.5);
        }
        (residual, norm, centred)
    }

    /// See [`super::quantize_i8`].
    pub fn quantize_i8(values: &[f32], steps: &mut [i8]) -> super::I8Steps {
        let n = values.len().min(steps.len());
        let peak = values[..n].iter().fold(0.0f32, |peak, v| peak.max(v.abs()));
        let mut sums = super::I8Steps {
            step: f64::from(peak) / 64.0,
            ..Default::default()
        };
        let scale = if peak > 0.0 { 64.0 / peak } else { 0.0 };
        for (k, &v) in steps.iter_mut().zip(values) {
            *k = (v * scale).round_ties_even() as i8;
            sums.add(v, *k);
        }
        sums
    }

    /// `Σ codes_j · query_j` over the common length, in `i32`.
    #[inline]
    pub fn dot_u8_i8(query: &[i8], codes: &[u8]) -> i32 {
        codes
            .iter()
            .zip(query)
            .map(|(&c, &k)| i32::from(c) * i32::from(k))
            .sum()
    }

    /// See [`super::dot_u8_i8_rows`].
    pub fn dot_u8_i8_rows(query: &[i8], codes: &[u8], out: &mut [i32]) {
        for (row, sum) in codes.chunks_exact(query.len()).zip(out) {
            *sum = dot_u8_i8(query, row);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{Lane, ACCS, LANES};

    /// A row element that can be loaded eight at a time as `f32` lanes.
    pub(super) trait Load: Lane {
        /// # Safety
        /// The CPU must support AVX2 and `ptr` must be readable for eight
        /// elements. No alignment is required.
        unsafe fn load(ptr: *const Self) -> __m256;
    }

    impl Load for f32 {
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> __m256 {
            // SAFETY: the caller guarantees AVX and eight readable `f32`s;
            // `loadu` needs no alignment.
            unsafe { _mm256_loadu_ps(ptr) }
        }
    }

    impl Load for u8 {
        #[inline(always)]
        unsafe fn load(ptr: *const u8) -> __m256 {
            // SAFETY: the caller guarantees AVX2 and eight readable bytes,
            // exactly what the 64-bit `loadl` reads; it needs no alignment.
            unsafe { _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(ptr.cast()))) }
        }
    }

    /// The module's fixed reduction order.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn reduce(acc: [__m256; ACCS], tail: f32) -> f32 {
        let s = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let quad = _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps::<1>(s));
        // Lanes 0 and 2 of `pair` hold `quad0 + quad1` and `quad2 + quad3`.
        let pair = _mm_add_ps(quad, _mm_movehdup_ps(quad));
        let sum = _mm_add_ss(pair, _mm_movehl_ps(pair, pair));
        _mm_cvtss_f32(sum) + tail
    }

    /// One row, over the common length of the two slices, in the module's
    /// per-row layout.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn dot<T: Load>(query: &[f32], row: &[T]) -> f32 {
        let n = query.len().min(row.len());
        let (query, row) = (query[..n].as_ptr(), row[..n].as_ptr());
        let mut acc = [_mm256_setzero_ps(); ACCS];
        let mut at = 0;
        // SAFETY: both pointers come from slices of exactly `n` elements.
        // Every load below reads `LANES` elements at an offset `o` with
        // `o + LANES <= n`, the scalar tail reads offsets `at..n`, and this
        // function is only reachable with AVX2+FMA (its own target features).
        unsafe {
            while at + ACCS * LANES <= n {
                for (j, acc) in acc.iter_mut().enumerate() {
                    let o = at + j * LANES;
                    *acc = _mm256_fmadd_ps(f32::load(query.add(o)), T::load(row.add(o)), *acc);
                }
                at += ACCS * LANES;
            }
            // Up to three whole groups remain.
            for acc in &mut acc[..ACCS - 1] {
                if at + LANES <= n {
                    *acc = _mm256_fmadd_ps(f32::load(query.add(at)), T::load(row.add(at)), *acc);
                    at += LANES;
                }
            }
            let mut tail = 0.0f32;
            for e in at..n {
                tail = (*query.add(e)).mul_add((*row.add(e)).widen(), tail);
            }
            reduce(acc, tail)
        }
    }

    /// Every `query.len()`-wide row of `rows` (a whole number of them, the
    /// dispatcher checked), with [`dot`] inlined: the `#[target_feature]`
    /// boundary is crossed once per scan, not once per row.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn scan<T: Load>(query: &[f32], rows: &[T], mut sink: impl FnMut(usize, f32)) {
        for (i, row) in rows.chunks_exact(query.len()).enumerate() {
            sink(i, dot(query, row));
        }
    }

    /// [`super::portable::finite_min_max`], eight lanes at a time: non-finite
    /// lanes are replaced by the identity of each fold before it.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn finite_min_max(values: &[f32]) -> (f32, f32) {
        let n = values.len();
        let src = values.as_ptr();
        let inf = _mm256_set1_ps(f32::INFINITY);
        let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
        let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let (mut lo, mut hi) = (inf, neg_inf);
        let mut at = 0;
        while at + LANES <= n {
            // SAFETY: `at + LANES <= n` elements of `values` are readable;
            // `loadu` needs no alignment.
            let v = unsafe { _mm256_loadu_ps(src.add(at)) };
            // `|v| < ∞` is false for NaN and both infinities.
            let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, magnitude), inf);
            lo = _mm256_min_ps(lo, _mm256_blendv_ps(inf, v, finite));
            hi = _mm256_max_ps(hi, _mm256_blendv_ps(neg_inf, v, finite));
            at += LANES;
        }
        let (mut lo_lanes, mut hi_lanes) = ([0.0f32; LANES], [0.0f32; LANES]);
        // SAFETY: each array holds exactly eight `f32`s.
        unsafe {
            _mm256_storeu_ps(lo_lanes.as_mut_ptr(), lo);
            _mm256_storeu_ps(hi_lanes.as_mut_ptr(), hi);
        }
        let portable = super::portable::finite_min_max;
        let (tail_lo, tail_hi) = portable(&values[at..]);
        let lo = portable(&lo_lanes).0.min(tail_lo);
        let hi = portable(&hi_lanes).1.max(tail_hi);
        (lo, hi)
    }

    /// Eight SQ8 codes as `i32` lanes: [`super::portable::quantize_one`]
    /// lane-wise. Clamping before rounding equals clamping after it (both
    /// bounds are integers), and `max(x, 0)` returns its second operand for a
    /// NaN `x`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn quantize8(v: __m256, min: __m256, inv_scale: __m256) -> __m256i {
        let x = _mm256_mul_ps(_mm256_sub_ps(v, min), inv_scale);
        let x = _mm256_min_ps(_mm256_max_ps(x, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let up = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_sub_ps(x, t), _mm256_set1_ps(0.5));
        let rounded = _mm256_add_ps(t, _mm256_and_ps(up, _mm256_set1_ps(1.0)));
        let top = _mm256_cmp_ps::<_CMP_EQ_OQ>(v, _mm256_set1_ps(f32::INFINITY));
        _mm256_cvttps_epi32(_mm256_blendv_ps(rounded, _mm256_set1_ps(255.0), top))
    }

    /// [`super::portable::quantize_u8`], 32 codes per step.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn quantize_u8(values: &[f32], min: f32, inv_scale: f32, codes: &mut [u8]) {
        let n = values.len().min(codes.len());
        let (src, dst) = (values[..n].as_ptr(), codes[..n].as_mut_ptr());
        let (min_v, inv_v) = (_mm256_set1_ps(min), _mm256_set1_ps(inv_scale));
        // `packs`/`packus` interleave the 128-bit halves; this puts the four
        // dwords of each source register back in order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut at = 0;
        while at + ACCS * LANES <= n {
            // SAFETY: `at + 32 <= n`, so 32 values are readable from `src`
            // and 32 bytes writable at `dst`; unaligned loads and stores.
            unsafe {
                let [a, b, c, d] = [0, 1, 2, 3]
                    .map(|j| quantize8(_mm256_loadu_ps(src.add(at + j * LANES)), min_v, inv_v));
                let bytes = _mm256_packus_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
                let bytes = _mm256_permutevar8x32_epi32(bytes, order);
                _mm256_storeu_si256(dst.add(at).cast(), bytes);
            }
            at += ACCS * LANES;
        }
        super::portable::quantize_u8(&values[at..n], min, inv_scale, &mut codes[at..n]);
    }

    /// [`super::portable::sq8_row_norms`], four `f64` lanes at a time in two
    /// accumulator sets. `(c − 127.5)²` and its sums are exact in `f64`, so
    /// the fused multiply-add changes nothing there.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn sq8_row_norms(
        values: &[f32],
        codes: &[u8],
        scale: f32,
        min: f32,
    ) -> (f64, f64, f64) {
        let n = values.len().min(codes.len());
        let (src, code) = (values[..n].as_ptr(), codes[..n].as_ptr());
        let (scale_v, min_v) = (
            _mm256_set1_pd(f64::from(scale)),
            _mm256_set1_pd(f64::from(min)),
        );
        let centre = _mm256_set1_pd(127.5);
        let mut sums = [[_mm256_setzero_pd(); 3]; 2];
        let mut at = 0;
        while at + 8 <= n {
            for (j, [residual, norm, centred]) in sums.iter_mut().enumerate() {
                let o = at + 4 * j;
                // SAFETY: `o + 4 <= n`: four `f32`s and four bytes are
                // readable; both reads are unaligned.
                let (v, c) = unsafe {
                    let v = _mm256_cvtps_pd(_mm_loadu_ps(src.add(o)));
                    let bytes = std::ptr::read_unaligned(code.add(o).cast::<i32>());
                    (
                        v,
                        _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(bytes))),
                    )
                };
                let e = _mm256_sub_pd(v, _mm256_fmadd_pd(c, scale_v, min_v));
                let d = _mm256_sub_pd(c, centre);
                *residual = _mm256_fmadd_pd(e, e, *residual);
                *norm = _mm256_fmadd_pd(v, v, *norm);
                *centred = _mm256_fmadd_pd(d, d, *centred);
            }
            at += 8;
        }
        let mut lanes = [[0.0f64; 4]; 3];
        for (lanes, (a, b)) in lanes.iter_mut().zip(sums[0].iter().zip(&sums[1])) {
            // SAFETY: `lanes` holds exactly four `f64`s.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), _mm256_add_pd(*a, *b)) };
        }
        let (r, v, c) = super::portable::sq8_row_norms(&values[at..n], &codes[at..n], scale, min);
        let total = |lanes: &[f64; 4]| lanes.iter().sum::<f64>();
        (
            total(&lanes[0]) + r,
            total(&lanes[1]) + v,
            total(&lanes[2]) + c,
        )
    }

    /// [`super::portable::quantize_i8`], eight values per step: the peak
    /// with `max` (which returns its second operand, the running peak, for a
    /// NaN), the steps with `cvtps2dq` (ties to even under the default
    /// rounding mode, as `round_ties_even`), and the four sums in `f64`
    /// lanes.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn quantize_i8(values: &[f32], steps: &mut [i8]) -> super::I8Steps {
        let n = values.len().min(steps.len());
        let (src, dst) = (values[..n].as_ptr(), steps[..n].as_mut_ptr());
        let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let mut peak_v = _mm256_setzero_ps();
        let mut at = 0;
        while at + LANES <= n {
            // SAFETY: `at + 8 <= n` values are readable; unaligned load.
            let v = unsafe { _mm256_loadu_ps(src.add(at)) };
            peak_v = _mm256_max_ps(_mm256_and_ps(v, magnitude), peak_v);
            at += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        // SAFETY: `lanes` holds exactly eight `f32`s.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), peak_v) };
        let peak = lanes
            .iter()
            .chain(&values[at..n])
            .fold(0.0f32, |peak, v| peak.max(v.abs()));
        let mut sums = super::I8Steps {
            step: f64::from(peak) / 64.0,
            ..Default::default()
        };
        let scale = _mm256_set1_ps(if peak > 0.0 { 64.0 / peak } else { 0.0 });
        let step = _mm256_set1_pd(sums.step);
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let zero = _mm256_setzero_pd();
        let (mut sum, mut norm, mut residual, mut residual_norm) =
            ([zero; 2], [zero; 2], [zero; 2], [zero; 2]);
        at = 0;
        while at + LANES <= n {
            // SAFETY: `at + 8 <= n`: eight values are readable and eight
            // bytes writable at `dst + at`; unaligned load and store.
            let (v, k) = unsafe {
                let v = _mm256_loadu_ps(src.add(at));
                let k = _mm256_cvtps_epi32(_mm256_mul_ps(v, scale));
                let k16 = _mm256_packs_epi32(k, k);
                let bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(k16, k16), order);
                _mm_storel_epi64(dst.add(at).cast(), _mm256_castsi256_si128(bytes));
                (v, k)
            };
            let halves = [
                (_mm256_castps256_ps128(v), _mm256_castsi256_si128(k)),
                (
                    _mm256_extractf128_ps::<1>(v),
                    _mm256_extracti128_si256::<1>(k),
                ),
            ];
            for (h, (v, k)) in halves.into_iter().enumerate() {
                let v = _mm256_cvtps_pd(v);
                let f = _mm256_fnmadd_pd(step, _mm256_cvtepi32_pd(k), v);
                sum[h] = _mm256_add_pd(sum[h], v);
                norm[h] = _mm256_fmadd_pd(v, v, norm[h]);
                residual[h] = _mm256_add_pd(residual[h], f);
                residual_norm[h] = _mm256_fmadd_pd(f, f, residual_norm[h]);
            }
            at += LANES;
        }
        let total = |pair: [__m256d; 2]| {
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` holds exactly four `f64`s.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), _mm256_add_pd(pair[0], pair[1])) };
            lanes.iter().sum::<f64>()
        };
        sums.sum = total(sum);
        sums.norm_sq = total(norm);
        sums.residual_sum = total(residual);
        sums.residual_norm_sq = total(residual_norm);
        let scale = if peak > 0.0 { 64.0 / peak } else { 0.0 };
        for (k, &v) in steps[at..n].iter_mut().zip(&values[at..n]) {
            *k = (v * scale).round_ties_even() as i8;
            sums.add(v, *k);
        }
        sums
    }

    /// [`super::portable::dot_u8_i8_rows`], four rows per step: each
    /// 32-byte query chunk is loaded once for the four rows, `maddubs` forms
    /// the 16-bit pair sums (at most `2 · 255 · 64 = 32 640`, so they never
    /// saturate) and `madd` widens them into one `i32`-lane accumulator per
    /// row; one horizontal reduction serves all four rows. The `len % 32`
    /// trailing bytes and the `rows % 4` last rows go through the portable
    /// sum. Integer sums are exact, so grouping them differently changes
    /// nothing.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn dot_u8_i8_rows(query: &[i8], codes: &[u8], out: &mut [i32]) {
        const ROWS: usize = 4;
        let n = query.len();
        let body = n - n % (ACCS * LANES);
        let portable = super::portable::dot_u8_i8;
        let ones = _mm256_set1_epi16(1);
        let mut groups = codes.chunks_exact(ROWS * n);
        let mut sums = out.chunks_exact_mut(ROWS);
        for (group, sums) in (&mut groups).zip(&mut sums) {
            let base = group.as_ptr();
            let mut acc = [_mm256_setzero_si256(); ROWS];
            let mut at = 0;
            while at < body {
                // SAFETY: `at + 32 <= body <= n`: 32 query bytes are readable,
                // and 32 bytes of each of the `ROWS` rows of `group` (which
                // holds `ROWS · n` bytes); unaligned loads.
                unsafe {
                    let q = _mm256_loadu_si256(query.as_ptr().add(at).cast());
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let c = _mm256_loadu_si256(base.add(r * n + at).cast());
                        let pairs = _mm256_maddubs_epi16(c, q);
                        *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(pairs, ones));
                    }
                }
                at += ACCS * LANES;
            }
            let h = _mm256_hadd_epi32(
                _mm256_hadd_epi32(acc[0], acc[1]),
                _mm256_hadd_epi32(acc[2], acc[3]),
            );
            let h = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
            let mut four = [0i32; ROWS];
            // SAFETY: `four` holds exactly four `i32`s.
            unsafe { _mm_storeu_si128(four.as_mut_ptr().cast(), h) };
            for ((sum, part), row) in sums.iter_mut().zip(four).zip(group.chunks_exact(n)) {
                *sum = part + portable(&query[body..], &row[body..]);
            }
        }
        let rest = groups.remainder().chunks_exact(n);
        for (sum, row) in sums.into_remainder().iter_mut().zip(rest) {
            *sum = portable(query, row);
        }
    }

    /// [`super::portable::axpy`], inlined where 256-bit registers are
    /// allowed. FMA is deliberately not enabled here: the multiply and the
    /// add must stay separately rounded.
    #[target_feature(enable = "avx2")]
    pub(super) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        super::portable::axpy(alpha, x, y);
    }

    /// [`super::portable::scale`], inlined where 256-bit registers are
    /// allowed.
    #[target_feature(enable = "avx2")]
    pub(super) fn scale(alpha: f32, a: &mut [f32]) {
        super::portable::scale(alpha, a);
    }
}
