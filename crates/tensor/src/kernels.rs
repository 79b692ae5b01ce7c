//! The dot-product kernels behind [`crate::vector`] and the index scans: an
//! AVX2+FMA implementation, a portable fallback, and the once-per-process
//! choice between them. Every intrinsic and every `unsafe` line of this
//! crate lives here.
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
//! # Safety inventory
//!
//! * The AVX2 functions are `#[target_feature(enable = "avx2,fma")]`; the
//!   only calls into them are the dispatch arms below, reached only after
//!   `is_x86_feature_detected!` confirmed both features.
//! * Raw pointers are formed only in the `avx2` module, from slices cut to
//!   size in safe code: a single row is trimmed to the operands' common
//!   length, a scan checks that it holds whole rows. A length mismatch can
//!   therefore shorten a dot product but never read out of bounds.
//! * Every load is an unaligned-load instruction, so nothing is assumed
//!   about the alignment of owned or mapped (snapshot-adopted) arenas.

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
fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
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
}
