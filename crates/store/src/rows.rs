//! The row-codec layer: contiguous embedding-row storage shared by both
//! index backends, with a pluggable per-row codec.
//!
//! Both [`crate::FlatIndex`] and [`crate::IvfIndex`] store embeddings as
//! parallel `ids` / row-payload arenas where row `i` belongs to `ids[i]`.
//! [`RowStore`] owns that arena once — including the swap-remove dance — so
//! the two backends cannot drift, and makes the *representation* of a row a
//! codec choice ([`Quantization`]):
//!
//! * [`Quantization::F32`] — rows are raw `f32` (exact; 4 bytes/dim).
//! * [`Quantization::Sq8`] — rows are 8-bit scalar-quantised (SQ8, the
//!   IVF-SQ8 lineage of FAISS-style inverted files): one `u8` code per
//!   dimension plus a per-row `scale`/`min` pair, i.e. `value ≈ min +
//!   code · scale` (see `mc_tensor::quant::QuantizedVec`). Codes live in one
//!   contiguous `u8` arena, so a scan streams ~4× fewer bytes than `f32` —
//!   the hot dot-product loop becomes memory-bandwidth-friendly.
//!
//! Queries are **never quantised**: SQ8 scoring uses the asymmetric fused
//! kernel (`mc_tensor::kernels::scan_u8_asym`) — an `f32 × u8` widening
//! multiply-add with the affine scale/zero-point correction applied once per
//! row — so the score error stays at one quantisation step of the stored row.
//!
//! The measured footprint per entry is `dims` bytes of codes + 8 bytes of
//! per-row constants + 8 bytes of id (vs `4·dims + 8` for `f32`, plus the
//! `dims + 16` bytes of the pre-screen's shadow below), which
//! `storage_bytes` reports truthfully — compare `quant::stored_embedding_bytes`
//! for the f32 on-disk accounting the paper's figures use.
//!
//! # The exact integer pre-screen of `f32` rows
//!
//! A lookup cuts at τ ≈ 0.95, and on a cache of paraphrases only a handful
//! of 1 500 rows come near that. An `F32` scan therefore first bounds every
//! row's score from above with 8-bit integer arithmetic, and computes the
//! `f32` score only of rows whose bound reaches the running cut.
//!
//! *The shadow.* Each `F32` row `r` also keeps its SQ8 codes `c` with
//! `scale` `s` and `min` `m` (`QuantizedVec::quantize_into`, the same codes
//! an `Sq8` store would hold) and two constants: `‖c − 127.5‖₂` and
//! `‖e‖₂ + (dims + 16)·2⁻²³·‖r‖₂`, where `e = r − (m + s·c)` is the row's
//! quantisation residual, both computed in `f64` and rounded up to `f32`.
//! The shadow is derived: `push`, `replace`, `swap_remove` and
//! `push_row_from` keep it in step, `from_arenas_f32` (mapped snapshot
//! restore) and deserialisation rebuild it, and nothing persists it — no
//! byte on disk changed.
//!
//! *The query side*, once per scan: `q = s_q·k + f` with `s_q = max|q|/64`,
//! integer steps `k_j ∈ [−64, 64]` and residual `f`, plus `Σq`, `Σf`,
//! `‖f‖₂` and `‖q‖₂` in `f64`.
//!
//! *The bound.* Exactly, in real arithmetic,
//!
//! ```text
//! q·r = m·Σq + s·Σ q_j c_j + q·e
//!     = m·Σq + s·(s_q·K + 127.5·Σf + f·(c − 127.5)) + q·e,   K = Σ c_j k_j
//!     ≤ m·Σq + s·(s_q·K + 127.5·Σf) + s·‖f‖·‖c − 127.5‖ + ‖q‖·‖e‖
//! ```
//!
//! by Cauchy–Schwarz on the last two terms (`s ≥ 0`). `K` is an exact `i32`
//! (`kernels::dot_u8_i8_rows`), so every ISA computes the same one. The
//! `f32` kernel's own score `S` is within `(dims/32 + 8)·2⁻²⁴·Σ|q_j r_j|`
//! of `q·r` (the longest path of a product through its layout), and the
//! stored `(dims + 16)·2⁻²³·‖q‖·‖r‖` is at least twice that. So
//! `S ≤ bound`, with the bound evaluated in `f64`, whose own rounding
//! (below 2⁻⁴⁰ relative) the factor-two headroom absorbs.
//!
//! *Why the result is exact.* A row is skipped only when `bound < cut` and
//! `cut > −1`. Then `S < cut`, and its clamped score is below the cut too,
//! so the unscreened scan would not have offered it either (at a cut of −1
//! or below every clamped score qualifies, so nothing is skipped). Every
//! other row is scored by `kernels::dot` — the bits `scan_f32` gives it —
//! and offered in row order against the same running cut, which only
//! rises. The `TopK` therefore sees the same pushes in the same order: same
//! hits, same score bits, same tie order, in every scan shape (whole store,
//! split tiles, `search_batch`, IVF lists). A NaN anywhere makes the
//! comparison false, so that row is kept. A query with a non-finite value,
//! or a nonzero query or row norm outside `[2⁻⁶⁰, 10¹⁸]` (near `f32`
//! overflow, or where subnormal products would need absolute slack), is
//! not screened. `crates/store/tests/prescreen_properties.rs` checks all of
//! this at cuts placed ulps from scores, and fails if the residual term,
//! the slack, the strict `<` or the `cut > −1` guard is dropped.
//!
//! *Cost*, one τ-cut top-5 search over 1 500 clustered 256-d rows (1.9 rows
//! re-scored per search), AVX2 host, 2 shared vCPUs, in µs:
//!
//! | per search                                  | before | after |
//! |---------------------------------------------|-------:|------:|
//! | `f32` kernel over every row                 |  28–30 |     – |
//! | integer kernel over every row (`K`)         |      – | 6.1–7.0 |
//! | query steps, bounds, cut checks, re-scoring |      – |   ≈ 2 |
//! | **search**                                  | **28–30** | **8.5–9.0** |
//!
//! The integer pass streams a quarter of the `f32` bytes and is bound by
//! that stream, not by its arithmetic. An insert pays the shadow encode:
//! `RowStore::replace` of a 256-d `f32` row takes ≈ 240 ns with it against
//! ≈ 80 ns without (the same quantiser made the `Sq8` replace ≈ 140 ns,
//! from ≈ 1 230 ns).
//!
//! # Owned vs mapped arenas
//!
//! Since the snapshot tier ([`crate::snapshot`]) landed, each arena is an
//! `Arena`: either a plain owned `Vec` (every store built by inserts) or
//! a typed window into an `mmap`ed snapshot file ([`crate::mmap::MapRegion`])
//! — the zero-copy restore path. Reads are indistinguishable; the first
//! mutation of a mapped arena copies it to the heap (copy-on-write), so the
//! mutation API is unchanged and a restored index degrades gracefully into
//! an ordinary owned one as entries churn.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

use mc_tensor::{kernels, ops::TopK, quant::QuantizedVec, vector};
use serde::{Deserialize, Serialize};

use crate::mmap::MapRegion;
use crate::{Result, StoreError};

/// Which codec a [`RowStore`] (and therefore an index backend) stores its
/// embedding rows in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Quantization {
    /// Raw `f32` rows — exact scoring, 4 bytes per dimension.
    #[default]
    F32,
    /// 8-bit scalar quantisation — ~4× smaller rows, ≤ half a quantisation
    /// step of per-dimension reconstruction error.
    Sq8,
}

impl Quantization {
    /// Short name for reports and backend labels.
    pub fn name(&self) -> &'static str {
        match self {
            Quantization::F32 => "f32",
            Quantization::Sq8 => "sq8",
        }
    }

    /// Payload bytes one stored row costs under this codec (excluding the
    /// row id).
    pub fn row_bytes(&self, dims: usize) -> usize {
        match self {
            Quantization::F32 => dims * std::mem::size_of::<f32>(),
            // dims codes + per-row scale and min.
            Quantization::Sq8 => dims + 2 * std::mem::size_of::<f32>(),
        }
    }
}

/// One typed arena: an owned `Vec<T>` or a borrowed window of a mapped
/// snapshot region. See the module docs for the copy-on-write contract.
pub(crate) enum Arena<T: Copy + 'static> {
    /// Heap-owned values (every arena built by inserts).
    Owned(Vec<T>),
    /// `len` values of `T` starting `offset` bytes into `region`. The
    /// constructor validated bounds and alignment; the `Arc` keeps the
    /// mapping alive for as long as any clone of this arena exists.
    Mapped {
        region: Arc<MapRegion>,
        offset: usize,
        len: usize,
    },
}

impl<T: Copy + 'static> Arena<T> {
    /// An empty owned arena.
    pub(crate) fn new() -> Self {
        Arena::Owned(Vec::new())
    }

    /// A zero-copy arena over `len` values starting at byte `offset` of
    /// `region`.
    ///
    /// # Errors
    /// Returns [`StoreError::Corrupt`] when the window is out of bounds or
    /// `offset` is not aligned for `T` (the region base is 8-aligned, so
    /// offset alignment is all that is needed).
    pub(crate) fn mapped(region: Arc<MapRegion>, offset: usize, len: usize) -> Result<Self> {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| StoreError::Corrupt("mapped arena length overflows".into()))?;
        let end = offset
            .checked_add(bytes)
            .ok_or_else(|| StoreError::Corrupt("mapped arena window overflows".into()))?;
        if end > region.len() {
            return Err(StoreError::Corrupt(format!(
                "mapped arena window {offset}..{end} exceeds region of {} bytes",
                region.len()
            )));
        }
        if !offset.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(StoreError::Corrupt(format!(
                "mapped arena offset {offset} is misaligned for {}-byte elements",
                std::mem::size_of::<T>()
            )));
        }
        debug_assert_eq!(region.bytes().as_ptr() as usize % 8, 0);
        Ok(Arena::Mapped {
            region,
            offset,
            len,
        })
    }

    /// The values, wherever they live.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Arena::Owned(values) => values,
            Arena::Mapped {
                region,
                offset,
                len,
            } => {
                // SAFETY: the constructor proved `offset` is aligned for `T`
                // and `offset + len * size_of::<T>() <= region.len()`; the
                // region is immutable and outlives this borrow via &self.
                unsafe {
                    std::slice::from_raw_parts(
                        region.bytes().as_ptr().add(*offset) as *const T,
                        *len,
                    )
                }
            }
        }
    }

    /// Mutable access, copying a mapped arena to the heap on first use.
    pub(crate) fn make_mut(&mut self) -> &mut Vec<T> {
        if let Arena::Mapped { .. } = self {
            *self = Arena::Owned(self.as_slice().to_vec());
        }
        match self {
            Arena::Owned(values) => values,
            Arena::Mapped { .. } => unreachable!("mapped arena was just copied to the heap"),
        }
    }

    /// `true` when the values still borrow a mapped snapshot region.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self, Arena::Mapped { .. })
    }
}

impl<T: Copy + 'static> Clone for Arena<T> {
    fn clone(&self) -> Self {
        match self {
            Arena::Owned(values) => Arena::Owned(values.clone()),
            Arena::Mapped {
                region,
                offset,
                len,
            } => Arena::Mapped {
                region: Arc::clone(region),
                offset: *offset,
                len: *len,
            },
        }
    }
}

impl<T: Copy + std::fmt::Debug + 'static> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arena::Owned(values) => f.debug_tuple("Owned").field(&values.len()).finish(),
            Arena::Mapped { offset, len, .. } => f
                .debug_struct("Mapped")
                .field("offset", offset)
                .field("len", len)
                .finish(),
        }
    }
}

// Serde sees an arena as its values: a mapped arena serialises like the
// equivalent Vec, and deserialisation always produces an owned arena (a
// JSON/log round-trip cannot resurrect a file mapping).
impl<T: Copy + Serialize + 'static> Serialize for Arena<T> {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Array(
            self.as_slice()
                .iter()
                .map(Serialize::serialize_value)
                .collect(),
        )
    }
}

impl<T: Copy + Deserialize + 'static> Deserialize for Arena<T> {
    fn deserialize_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Vec::<T>::deserialize_value(value).map(Arena::Owned)
    }
}

/// The per-codec row payload arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum RowData {
    /// `len · dims` raw values.
    F32 { values: Arena<f32> },
    /// `len · dims` codes plus one `scale`/`min` pair per row.
    Sq8 {
        codes: Arena<u8>,
        scales: Arena<f32>,
        mins: Arena<f32>,
    },
}

/// Borrowed view of a store's raw codec payloads, in row order — what the
/// snapshot writer serialises verbatim.
pub(crate) enum RowParts<'a> {
    F32 {
        values: &'a [f32],
    },
    Sq8 {
        codes: &'a [u8],
        scales: &'a [f32],
        mins: &'a [f32],
    },
}

/// Contiguous `(id, embedding-row)` storage under a chosen [`Quantization`].
#[derive(Debug, Clone)]
pub struct RowStore {
    dims: usize,
    ids: Arena<u64>,
    data: RowData,
    /// The pre-screen's view of `F32` rows (empty under `Sq8`): derived
    /// from `data`, kept in step with it by every mutation, never persisted.
    shadow: Shadow,
}

// Serde sees the persisted fields only, exactly as a derive over `dims`,
// `ids` and `data` would; deserialisation rebuilds the shadow.
impl Serialize for RowStore {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("dims".to_string(), self.dims.serialize_value()),
            ("ids".to_string(), self.ids.serialize_value()),
            ("data".to_string(), self.data.serialize_value()),
        ])
    }
}

impl Deserialize for RowStore {
    fn deserialize_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        if value.as_object().is_none() {
            return Err(serde::Error::custom("expected object for RowStore"));
        }
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}` in RowStore")))
        };
        let dims = usize::deserialize_value(field("dims")?)?;
        let ids = Arena::deserialize_value(field("ids")?)?;
        let data = RowData::deserialize_value(field("data")?)?;
        let shadow = Shadow::of(dims, &data);
        Ok(Self {
            dims,
            ids,
            data,
            shadow,
        })
    }
}

impl RowStore {
    /// Creates an empty store for `dims`-dimensional rows.
    pub fn new(dims: usize, quantization: Quantization) -> Self {
        let data = match quantization {
            Quantization::F32 => RowData::F32 {
                values: Arena::new(),
            },
            Quantization::Sq8 => RowData::Sq8 {
                codes: Arena::new(),
                scales: Arena::new(),
                mins: Arena::new(),
            },
        };
        Self {
            dims,
            ids: Arena::new(),
            data,
            shadow: Shadow::default(),
        }
    }

    /// Assembles an `f32` store directly from arenas (the snapshot loader's
    /// zero-copy path — mapped arenas make the store borrow the snapshot
    /// file).
    ///
    /// # Errors
    /// Returns [`StoreError::Corrupt`] when the arena lengths disagree.
    pub(crate) fn from_arenas_f32(
        dims: usize,
        ids: Arena<u64>,
        values: Arena<f32>,
    ) -> Result<Self> {
        if values.as_slice().len() != ids.as_slice().len() * dims {
            return Err(StoreError::Corrupt(format!(
                "f32 arena holds {} values for {} rows of {dims} dims",
                values.as_slice().len(),
                ids.as_slice().len()
            )));
        }
        let data = RowData::F32 { values };
        let shadow = Shadow::of(dims, &data);
        Ok(Self {
            dims,
            ids,
            data,
            shadow,
        })
    }

    /// Assembles an SQ8 store directly from arenas (see
    /// [`RowStore::from_arenas_f32`]).
    ///
    /// # Errors
    /// Returns [`StoreError::Corrupt`] when the arena lengths disagree.
    pub(crate) fn from_arenas_sq8(
        dims: usize,
        ids: Arena<u64>,
        codes: Arena<u8>,
        scales: Arena<f32>,
        mins: Arena<f32>,
    ) -> Result<Self> {
        let rows = ids.as_slice().len();
        if codes.as_slice().len() != rows * dims
            || scales.as_slice().len() != rows
            || mins.as_slice().len() != rows
        {
            return Err(StoreError::Corrupt(format!(
                "sq8 arenas hold {} codes / {} scales / {} mins for {rows} rows of {dims} dims",
                codes.as_slice().len(),
                scales.as_slice().len(),
                mins.as_slice().len()
            )));
        }
        Ok(Self {
            dims,
            ids,
            data: RowData::Sq8 {
                codes,
                scales,
                mins,
            },
            shadow: Shadow::default(),
        })
    }

    /// The raw `(ids, payload)` arenas, in row order.
    pub(crate) fn parts(&self) -> (&[u64], RowParts<'_>) {
        let parts = match &self.data {
            RowData::F32 { values } => RowParts::F32 {
                values: values.as_slice(),
            },
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => RowParts::Sq8 {
                codes: codes.as_slice(),
                scales: scales.as_slice(),
                mins: mins.as_slice(),
            },
        };
        (self.ids.as_slice(), parts)
    }

    /// `true` while any arena still borrows a mapped snapshot region
    /// (i.e. the store is serving zero-copy and has not been mutated).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_mapped(&self) -> bool {
        self.ids.is_mapped()
            || match &self.data {
                RowData::F32 { values } => values.is_mapped(),
                RowData::Sq8 {
                    codes,
                    scales,
                    mins,
                } => codes.is_mapped() || scales.is_mapped() || mins.is_mapped(),
            }
    }

    /// The codec rows are stored in.
    pub fn quantization(&self) -> Quantization {
        match self.data {
            RowData::F32 { .. } => Quantization::F32,
            RowData::Sq8 { .. } => Quantization::Sq8,
        }
    }

    /// Row dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.ids.as_slice().len()
    }

    /// `true` when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.as_slice().is_empty()
    }

    /// The row ids, in row order.
    pub fn ids(&self) -> &[u64] {
        self.ids.as_slice()
    }

    /// Appends a row (encoding it under the store's codec).
    ///
    /// The caller is responsible for `embedding.len() == dims` (backends
    /// validate at their API boundary).
    pub fn push(&mut self, id: u64, embedding: &[f32]) {
        debug_assert_eq!(embedding.len(), self.dims, "push: row width mismatch");
        self.ids.make_mut().push(id);
        match &mut self.data {
            RowData::F32 { values } => {
                values.make_mut().extend_from_slice(embedding);
                self.shadow.push(embedding);
            }
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => {
                let codes = codes.make_mut();
                let start = codes.len();
                codes.resize(start + embedding.len(), 0);
                let (scale, min) = QuantizedVec::quantize_into(embedding, &mut codes[start..]);
                scales.make_mut().push(scale);
                mins.make_mut().push(min);
            }
        }
    }

    /// Overwrites row `pos` with a new embedding (re-encoded).
    pub fn replace(&mut self, pos: usize, embedding: &[f32]) {
        debug_assert_eq!(embedding.len(), self.dims, "replace: row width mismatch");
        let span = pos * self.dims..(pos + 1) * self.dims;
        match &mut self.data {
            RowData::F32 { values } => {
                values.make_mut()[span].copy_from_slice(embedding);
                self.shadow.replace(pos, embedding);
            }
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => {
                let (scale, min) =
                    QuantizedVec::quantize_into(embedding, &mut codes.make_mut()[span]);
                scales.make_mut()[pos] = scale;
                mins.make_mut()[pos] = min;
            }
        }
    }

    /// Appends row `pos` of `other` **verbatim** — stored representation
    /// included, so SQ8 codes survive an IVF retrain bit-identically instead
    /// of drifting through a dequantise→requantise cycle. Both stores must
    /// share dims and codec.
    pub fn push_row_from(&mut self, other: &RowStore, pos: usize) {
        debug_assert_eq!(self.dims, other.dims, "push_row_from: dims mismatch");
        let span = pos * self.dims..(pos + 1) * self.dims;
        self.ids.make_mut().push(other.ids.as_slice()[pos]);
        match (&mut self.data, &other.data) {
            (RowData::F32 { values }, RowData::F32 { values: src }) => {
                values.make_mut().extend_from_slice(&src.as_slice()[span]);
                self.shadow.push_from(&other.shadow, pos, self.dims);
            }
            (
                RowData::Sq8 {
                    codes,
                    scales,
                    mins,
                },
                RowData::Sq8 {
                    codes: src_codes,
                    scales: src_scales,
                    mins: src_mins,
                },
            ) => {
                codes
                    .make_mut()
                    .extend_from_slice(&src_codes.as_slice()[span]);
                scales.make_mut().push(src_scales.as_slice()[pos]);
                mins.make_mut().push(src_mins.as_slice()[pos]);
            }
            _ => panic!("push_row_from: codec mismatch"),
        }
    }

    /// Swap-removes row `pos`, keeping the arenas contiguous. Returns the id
    /// that moved into `pos` (the former last row), if any — callers
    /// maintaining an id → position map must remap it.
    pub fn swap_remove(&mut self, pos: usize) -> Option<u64> {
        let ids = self.ids.make_mut();
        let last = ids.len() - 1;
        ids.swap(pos, last);
        ids.pop();
        match &mut self.data {
            RowData::F32 { values } => {
                swap_remove_span(values.make_mut(), pos, last, self.dims);
                self.shadow.swap_remove(pos, last, self.dims);
            }
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => {
                swap_remove_span(codes.make_mut(), pos, last, self.dims);
                swap_remove_span(scales.make_mut(), pos, last, 1);
                swap_remove_span(mins.make_mut(), pos, last, 1);
            }
        }
        (pos != last).then(|| self.ids.as_slice()[pos])
    }

    /// Appends the `f32` view of row `pos` to `out` (a copy for `F32`, a
    /// dequantisation for `Sq8`). Used to hand rows to f32-space consumers
    /// such as k-means training.
    pub fn extend_row_f32(&self, pos: usize, out: &mut Vec<f32>) {
        Self::extend_row_f32_ref(&self.data, self.dims, pos, out);
    }

    fn extend_row_f32_ref(data: &RowData, dims: usize, pos: usize, out: &mut Vec<f32>) {
        let span = pos * dims..(pos + 1) * dims;
        match data {
            RowData::F32 { values } => out.extend_from_slice(&values.as_slice()[span]),
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => {
                let (scale, min) = (scales.as_slice()[pos], mins.as_slice()[pos]);
                out.extend(
                    codes.as_slice()[span]
                        .iter()
                        .map(|&c| min + c as f32 * scale),
                );
            }
        }
    }

    /// The `f32` view of row `pos` as a fresh `Vec` (a copy for `F32`, a
    /// dequantisation for `Sq8`).
    pub fn row_f32(&self, pos: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dims);
        Self::extend_row_f32_ref(&self.data, self.dims, pos, &mut out);
        out
    }

    /// The stored SQ8 representation of row `pos` (`codes, scale, min`), or
    /// `None` for an `F32` store. Exposed so persistence tests can assert
    /// codes survive a save/load cycle bit-identically.
    pub fn sq8_row(&self, pos: usize) -> Option<(&[u8], f32, f32)> {
        match &self.data {
            RowData::F32 { .. } => None,
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => Some((
                &codes.as_slice()[pos * self.dims..(pos + 1) * self.dims],
                scales.as_slice()[pos],
                mins.as_slice()[pos],
            )),
        }
    }

    /// The one scan every search path goes through: scores rows `range`
    /// against an L2-normalised `query` (cosines clamped into `[-1, 1]`; exact
    /// kernel for `F32` rows behind the integer pre-screen of the module docs,
    /// fused asymmetric kernel with `Σ query` hoisted for `Sq8`) and offers
    /// each row that reaches the running cut — `min_score`, then the
    /// selection's own k-th best once it fills — to `top` under the key
    /// `key_base + row`. The kernel is entered once per call and no per-row
    /// score is stored; a row scores the same bits whatever `range` it is
    /// scanned in (`mc_tensor::kernels`), and the pre-screen skips only rows
    /// whose score provably misses the cut, so the result is the unscreened
    /// scan's. NaN scores, and every score under a NaN `min_score`, reach no
    /// cut: never hits. Panics if `query` is not `dims` wide or `range`
    /// exceeds the store.
    pub fn scan(
        &self,
        query: &[f32],
        range: Range<usize>,
        min_score: f32,
        key_base: u64,
        top: TopK,
    ) -> TopK {
        assert_eq!(query.len(), self.dims, "scan: query width mismatch");
        if range.is_empty() || min_score.is_nan() {
            return top;
        }
        let mut sink = Offer {
            cut: min_score.max(top.floor()),
            top,
            key_base: key_base + range.start as u64,
        };
        let span = range.start * self.dims..range.end * self.dims;
        match &self.data {
            RowData::F32 { values } => {
                let rows = &values.as_slice()[span];
                let rescored = match QueryScreen::new(query) {
                    Some(screen) => {
                        let shadow = self.shadow.rows(range.clone(), self.dims);
                        screen.scan(query, rows, shadow, &mut sink)
                    }
                    None => {
                        kernels::scan_f32(query, rows, |row, score| sink.offer(row, score));
                        range.len()
                    }
                };
                RESCORED.with(|count| count.set(count.get() + rescored as u64));
            }
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => kernels::scan_u8_asym(
                query,
                &codes.as_slice()[span],
                &scales.as_slice()[range.clone()],
                &mins.as_slice()[range],
                vector::sum(query),
                |row, score| sink.offer(row, score),
            ),
        }
        sink.top
    }

    /// True bytes held by the arenas: row payloads under the live codec plus
    /// the ids, and for `F32` rows the pre-screen's shadow (`dims` codes and
    /// 16 bytes of bound constants per row). Backends add their own
    /// auxiliary structures on top.
    pub fn storage_bytes(&self) -> usize {
        let payload = match &self.data {
            RowData::F32 { values } => {
                std::mem::size_of_val(values.as_slice()) + self.shadow.bytes()
            }
            RowData::Sq8 {
                codes,
                scales,
                mins,
            } => {
                std::mem::size_of_val(codes.as_slice())
                    + std::mem::size_of_val(scales.as_slice())
                    + std::mem::size_of_val(mins.as_slice())
            }
        };
        payload + std::mem::size_of_val(self.ids.as_slice())
    }
}

thread_local! {
    /// See [`rescored_rows`].
    static RESCORED: Cell<u64> = const { Cell::new(0) };
}

/// How many `F32` rows the calling thread has scored with the exact `f32`
/// kernel in [`RowStore::scan`] so far: the rows the pre-screen let through,
/// plus every row of a scan whose query it cannot screen (a non-finite value,
/// or a norm outside [`SCREEN_NORMS`]). The difference across one search is
/// its re-scored row count — the number that shows whether the pre-screen
/// is doing its job.
pub fn rescored_rows() -> u64 {
    RESCORED.with(Cell::get)
}

/// The running top-k of one [`RowStore::scan`] call and the cut a row must
/// reach to enter it.
struct Offer {
    top: TopK,
    /// `max(min_score, top.floor())`: it only ever rises.
    cut: f32,
    /// The key of row 0 of the scanned range.
    key_base: u64,
}

impl Offer {
    /// The value a row's upper bound must fall below for the pre-screen to
    /// skip it: the cut, or `-∞` (skip nothing) while the cut is at or below
    /// `-1`, which every clamped score reaches.
    fn skip_below(&self) -> f64 {
        if self.cut > -1.0 {
            f64::from(self.cut)
        } else {
            f64::NEG_INFINITY
        }
    }

    #[inline(always)]
    fn offer(&mut self, row: usize, score: f32) {
        let score = score.clamp(-1.0, 1.0);
        if score >= self.cut {
            self.top.push(self.key_base + row as u64, score);
            self.cut = self.cut.max(self.top.floor());
        }
    }
}

/// Nonzero row and query norms outside this range are not screened. Above
/// it, `‖q‖·‖r‖` (and with it every partial sum of the `f32` kernel) could
/// approach `f32` overflow, where no relative error bound holds. Below it,
/// products rounded in the subnormal range could add more absolute error
/// than the slack's headroom covers: with both norms at least 2⁻⁶⁰, the
/// `(dims + 8) · 2⁻¹⁵⁰` they can add is below `(dims + 16) · 2⁻¹⁴⁴ ≤
/// (dims + 16) · 2⁻²⁴ · ‖q‖·‖r‖`. A zero norm is screened: its products are
/// all exactly zero.
const SCREEN_NORMS: std::ops::RangeInclusive<f64> = 1.0 / (1u64 << 60) as f64..=1e18;

/// `true` when a row or query of norm `norm` may be screened (NaN is not).
fn screenable(norm: f64) -> bool {
    norm == 0.0 || SCREEN_NORMS.contains(&norm)
}

/// The relative rounding error bound of the `f32` dot kernel on `dims`-wide
/// rows, `(dims + 16) · 2⁻²³`: at least twice the `(dims/32 + 8) · 2⁻²⁴` a
/// term can pick up along its longest path through the kernel's layout.
fn kernel_error(dims: usize) -> f64 {
    (dims + 16) as f64 * f64::from(f32::EPSILON)
}

/// `x` rounded up to an `f32` (NaN stays NaN).
fn round_up(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// One `F32` row's constants in the pre-screen's bound (module docs).
#[derive(Debug, Clone, Copy)]
struct RowBound {
    /// The SQ8 `min` and `scale` of the row's codes.
    min: f32,
    scale: f32,
    /// `‖c − 127.5‖₂`, rounded up.
    code_norm: f32,
    /// `‖e‖₂ + kernel_error(dims) · ‖r‖₂`, rounded up; `+∞` for a row that
    /// must never be skipped (non-finite, or a norm outside
    /// [`SCREEN_NORMS`]).
    slack: f32,
}

impl RowBound {
    /// Writes `row`'s SQ8 codes into `codes` and returns its constants.
    fn encode(row: &[f32], codes: &mut [u8]) -> Self {
        let (scale, min) = QuantizedVec::quantize_into(row, codes);
        let (residual, norm, centred) = kernels::sq8_row_norms(row, codes, scale, min);
        let norm = norm.sqrt();
        let slack = if screenable(norm) {
            residual.sqrt() + kernel_error(row.len()) * norm
        } else {
            f64::INFINITY
        };
        Self {
            min,
            scale,
            code_norm: round_up(centred.sqrt()),
            slack: round_up(slack),
        }
    }
}

/// The pre-screen's shadow of an `F32` store, row for row with it: every
/// row's SQ8 codes in one arena and its [`RowBound`] fields in one column
/// each, so a block of bounds is evaluated from contiguous slices.
#[derive(Clone, Default)]
struct Shadow {
    codes: Vec<u8>,
    mins: Vec<f32>,
    scales: Vec<f32>,
    code_norms: Vec<f32>,
    slacks: Vec<f32>,
}

/// A borrowed range of a [`Shadow`].
struct ShadowRows<'a> {
    codes: &'a [u8],
    mins: &'a [f32],
    scales: &'a [f32],
    code_norms: &'a [f32],
    slacks: &'a [f32],
}

impl<'a> ShadowRows<'a> {
    /// Rows `range` of this range.
    fn slice(&self, range: Range<usize>, dims: usize) -> ShadowRows<'a> {
        ShadowRows {
            codes: &self.codes[range.start * dims..range.end * dims],
            mins: &self.mins[range.clone()],
            scales: &self.scales[range.clone()],
            code_norms: &self.code_norms[range.clone()],
            slacks: &self.slacks[range],
        }
    }
}

impl std::fmt::Debug for Shadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shadow")
            .field("rows", &self.mins.len())
            .finish()
    }
}

impl Shadow {
    /// The shadow of `data`: encoded from the rows for `F32`, empty for
    /// `Sq8`.
    fn of(dims: usize, data: &RowData) -> Self {
        let mut shadow = Self::default();
        if let RowData::F32 { values } = data {
            for row in values.as_slice().chunks_exact(dims.max(1)) {
                shadow.push(row);
            }
        }
        shadow
    }

    fn set(&mut self, pos: usize, b: RowBound) {
        self.mins[pos] = b.min;
        self.scales[pos] = b.scale;
        self.code_norms[pos] = b.code_norm;
        self.slacks[pos] = b.slack;
    }

    fn push_bound(&mut self, b: RowBound) {
        self.mins.push(b.min);
        self.scales.push(b.scale);
        self.code_norms.push(b.code_norm);
        self.slacks.push(b.slack);
    }

    fn push(&mut self, row: &[f32]) {
        let start = self.codes.len();
        self.codes.resize(start + row.len(), 0);
        let bound = RowBound::encode(row, &mut self.codes[start..]);
        self.push_bound(bound);
    }

    fn replace(&mut self, pos: usize, row: &[f32]) {
        let span = pos * row.len()..(pos + 1) * row.len();
        let bound = RowBound::encode(row, &mut self.codes[span]);
        self.set(pos, bound);
    }

    /// Appends `other`'s row `pos` verbatim.
    fn push_from(&mut self, other: &Shadow, pos: usize, dims: usize) {
        self.codes
            .extend_from_slice(&other.codes[pos * dims..(pos + 1) * dims]);
        self.push_bound(RowBound {
            min: other.mins[pos],
            scale: other.scales[pos],
            code_norm: other.code_norms[pos],
            slack: other.slacks[pos],
        });
    }

    fn swap_remove(&mut self, pos: usize, last: usize, dims: usize) {
        swap_remove_span(&mut self.codes, pos, last, dims);
        for column in [
            &mut self.mins,
            &mut self.scales,
            &mut self.code_norms,
            &mut self.slacks,
        ] {
            swap_remove_span(column, pos, last, 1);
        }
    }

    fn rows(&self, range: Range<usize>, dims: usize) -> ShadowRows<'_> {
        let all = ShadowRows {
            codes: &self.codes,
            mins: &self.mins,
            scales: &self.scales,
            code_norms: &self.code_norms,
            slacks: &self.slacks,
        };
        all.slice(range, dims)
    }

    fn bytes(&self) -> usize {
        self.codes.len() + 4 * std::mem::size_of_val(self.mins.as_slice())
    }
}

/// Rows per block of the screened scan: the integer kernel fills one block
/// of dot products, the bounds of the block are evaluated in one
/// vectorisable pass, then its rows are checked in order.
const BLOCK_ROWS: usize = 64;

/// The query side of the pre-screen, built once per [`RowStore::scan`] call
/// (module docs): `q = step · k + f` with integer steps `k ∈ [−64, 64]`
/// (`kernels::quantize_i8`).
struct QueryScreen {
    steps: Vec<i8>,
    /// The grid step `s_q = max|q| / 64`.
    step: f64,
    /// `Σ q`.
    sum: f64,
    /// `127.5 · Σ f`.
    bias: f64,
    /// `‖f‖₂`.
    residual_norm: f64,
    /// `‖q‖₂`.
    norm: f64,
}

impl QueryScreen {
    /// `None` when the query cannot be screened: a non-finite value, a
    /// nonzero norm outside [`SCREEN_NORMS`], or rows too wide for the
    /// integer kernel.
    fn new(query: &[f32]) -> Option<Self> {
        if query.len() > kernels::U8_I8_MAX_LEN {
            return None;
        }
        let mut steps = vec![0i8; query.len()];
        let sums = kernels::quantize_i8(query, &mut steps);
        let norm = sums.norm_sq.sqrt();
        if !screenable(norm) {
            return None;
        }
        Some(Self {
            steps,
            step: sums.step,
            sum: sums.sum,
            bias: 127.5 * sums.residual_sum,
            residual_norm: sums.residual_norm_sq.sqrt(),
            norm,
        })
    }

    /// Screens `rows` (with their `shadow`) in row order: a row whose upper
    /// bound on its `f32` score misses the running cut is skipped, every
    /// other row is scored by `kernels::dot` — the bits `scan_f32` would give
    /// it — and offered. A NaN bound compares false, so that row is kept.
    /// Returns the number of rows scored.
    fn scan(&self, query: &[f32], rows: &[f32], shadow: ShadowRows<'_>, sink: &mut Offer) -> usize {
        let dims = query.len();
        let mut dots = [0i32; BLOCK_ROWS];
        let mut bounds = [0.0f64; BLOCK_ROWS];
        let mut rescored = 0;
        let n = shadow.mins.len();
        for start in (0..n).step_by(BLOCK_ROWS) {
            let block = shadow.slice(start..n.min(start + BLOCK_ROWS), dims);
            let len = block.mins.len();
            let (dots, bounds) = (&mut dots[..len], &mut bounds[..len]);
            kernels::dot_u8_i8_rows(&self.steps, block.codes, dots);
            // The bound of the module docs, `est + B + slack`.
            for (i, bound) in bounds.iter_mut().enumerate() {
                let codes_dot = self.step * f64::from(dots[i])
                    + self.bias
                    + self.residual_norm * f64::from(block.code_norms[i]);
                *bound = f64::from(block.mins[i]) * self.sum
                    + f64::from(block.scales[i]) * codes_dot
                    + self.norm * f64::from(block.slacks[i]);
            }
            let mut skip_below = sink.skip_below();
            for (i, &bound) in bounds.iter().enumerate() {
                if bound < skip_below {
                    continue;
                }
                let row = start + i;
                rescored += 1;
                sink.offer(
                    row,
                    kernels::dot(query, &rows[row * dims..(row + 1) * dims]),
                );
                skip_below = sink.skip_below();
            }
        }
        rescored
    }
}

/// Swap-removes the `width`-wide span `pos` from a row-major arena whose last
/// row is `last`, keeping the arena contiguous.
fn swap_remove_span<T: Copy>(data: &mut Vec<T>, pos: usize, last: usize, width: usize) {
    if pos != last {
        let (head, tail) = data.split_at_mut(last * width);
        head[pos * width..(pos + 1) * width].copy_from_slice(&tail[..width]);
    }
    data.truncate(last * width);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(mut v: Vec<f32>) -> Vec<f32> {
        vector::normalize(&mut v);
        v
    }

    /// Every row's score, in row order.
    fn scores(store: &RowStore, query: &[f32]) -> Vec<f32> {
        let top = store.scan(query, 0..store.len(), -1.0, 0, TopK::new(store.len()));
        let mut all = top.into_sorted_vec();
        all.sort_by_key(|&(row, _)| row);
        all.into_iter().map(|(_, score)| score).collect()
    }

    #[test]
    fn middle_last_and_only_rows() {
        let mut store = RowStore::new(2, Quantization::F32);
        store.push(10, &[1.0, 1.5]);
        store.push(20, &[2.0, 2.5]);
        store.push(30, &[3.0, 3.5]);
        // Remove the middle row: the last row moves into its slot.
        assert_eq!(store.swap_remove(1), Some(30));
        assert_eq!(store.ids(), &[10, 30]);
        assert_eq!(store.row_f32(1), vec![3.0, 3.5]);
        // Remove the last row: nothing moves.
        assert_eq!(store.swap_remove(1), None);
        assert_eq!(store.ids(), &[10]);
        assert_eq!(store.row_f32(0), vec![1.0, 1.5]);
        // Remove the only row.
        assert_eq!(store.swap_remove(0), None);
        assert!(store.is_empty());
    }

    #[test]
    fn sq8_swap_remove_keeps_rows_aligned() {
        let mut store = RowStore::new(4, Quantization::Sq8);
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| unit(vec![i as f32 + 0.5, 1.0, -0.25 * i as f32, 0.75]))
            .collect();
        for (i, row) in rows.iter().enumerate() {
            store.push(i as u64, row);
        }
        assert_eq!(store.swap_remove(1), Some(4));
        assert_eq!(store.ids(), &[0, 4, 2, 3]);
        // Row 1 now holds entry 4's dequantised data, error ≤ half a step.
        let (codes, scale, _min) = store.sq8_row(1).unwrap();
        assert_eq!(codes.len(), 4);
        for (got, want) in store.row_f32(1).iter().zip(&rows[4]) {
            assert!((got - want).abs() <= scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn f32_and_sq8_scores_agree_within_quantization_error() {
        let dims = 32;
        let mut f32_store = RowStore::new(dims, Quantization::F32);
        let mut sq8_store = RowStore::new(dims, Quantization::Sq8);
        assert_eq!(f32_store.quantization(), Quantization::F32);
        assert_eq!(sq8_store.quantization(), Quantization::Sq8);
        let mut rng = mc_tensor::rng::seeded(17);
        for id in 0..200u64 {
            let v = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
            f32_store.push(id, &v);
            sq8_store.push(id, &v);
        }
        let query = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
        let exact = scores(&f32_store, &query);
        let approx = scores(&sq8_store, &query);
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.05, "exact={e} approx={a}");
        }
        // A row scores the same bits alone, in a range, or in the whole scan.
        let alone = |store: &RowStore, row| store.scan(&query, row..row + 1, -1.0, 0, TopK::new(1));
        assert_eq!(alone(&f32_store, 77).into_sorted_vec(), [(77, exact[77])]);
        assert_eq!(alone(&sq8_store, 77).into_sorted_vec(), [(77, approx[77])]);
    }

    #[test]
    fn push_row_from_preserves_sq8_codes_verbatim() {
        let dims = 16;
        let mut src = RowStore::new(dims, Quantization::Sq8);
        let mut rng = mc_tensor::rng::seeded(5);
        for id in 0..20u64 {
            src.push(id, &unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng)));
        }
        let mut dst = RowStore::new(dims, Quantization::Sq8);
        for pos in (0..src.len()).rev() {
            dst.push_row_from(&src, pos);
        }
        for pos in 0..src.len() {
            let mirrored = src.len() - 1 - pos;
            assert_eq!(src.ids()[pos], dst.ids()[mirrored]);
            assert_eq!(
                src.sq8_row(pos).unwrap(),
                dst.sq8_row(mirrored).unwrap(),
                "codes must move bit-identically"
            );
        }
    }

    #[test]
    fn storage_bytes_reports_true_codec_footprint() {
        let dims = 64;
        let mut f32_store = RowStore::new(dims, Quantization::F32);
        let mut sq8_store = RowStore::new(dims, Quantization::Sq8);
        for id in 0..10u64 {
            let v = unit(vec![id as f32 + 1.0; dims]);
            f32_store.push(id, &v);
            sq8_store.push(id, &v);
        }
        // f32 rows carry the pre-screen's shadow: dims codes + 16 bytes of
        // bound constants per row.
        assert_eq!(f32_store.storage_bytes(), 10 * (dims * 4 + 8 + dims + 16));
        assert_eq!(sq8_store.storage_bytes(), 10 * (dims + 8 + 8));
        assert_eq!(Quantization::F32.row_bytes(dims), 256);
        assert_eq!(Quantization::Sq8.row_bytes(dims), 72);
        assert!(sq8_store.storage_bytes() * 3 < f32_store.storage_bytes());
    }

    #[test]
    fn serde_sees_the_persisted_fields_only() {
        let mut store = RowStore::new(3, Quantization::F32);
        store.push(7, &unit(vec![1.0, 2.0, 3.0]));
        let value = store.serialize_value();
        let fields: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(fields, ["dims", "ids", "data"]);
        let back = RowStore::deserialize_value(&value).unwrap();
        assert_eq!(back.serialize_value(), value);
        assert_eq!(back.shadow.codes, store.shadow.codes);
        assert_eq!(back.shadow.slacks, store.shadow.slacks);
        assert!(RowStore::deserialize_value(&serde::Value::Null).is_err());
    }

    #[test]
    fn replace_reencodes_the_row() {
        for quantization in [Quantization::F32, Quantization::Sq8] {
            let mut store = RowStore::new(3, quantization);
            store.push(1, &unit(vec![1.0, 0.0, 0.0]));
            store.push(2, &unit(vec![0.0, 1.0, 0.0]));
            let replacement = unit(vec![0.0, 0.0, 1.0]);
            store.replace(0, &replacement);
            for (got, want) in store.row_f32(0).iter().zip(&replacement) {
                assert!((got - want).abs() < 0.01, "{:?}", quantization.name());
            }
            // Neighbouring rows are untouched.
            assert!((store.row_f32(1)[1] - 1.0).abs() < 0.01);
        }
    }

    fn region_with(bytes: &[u8]) -> Arc<MapRegion> {
        let dir = std::env::temp_dir().join("mc_store_rows_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "arena_{}_{}.bin",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&path, bytes).unwrap();
        let region = Arc::new(MapRegion::load(&path).unwrap());
        std::fs::remove_file(&path).ok();
        region
    }

    #[test]
    fn mapped_arena_reads_and_copies_on_write() {
        let values: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let mut bytes = Vec::new();
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let region = region_with(&bytes);
        let mut arena: Arena<f32> = Arena::mapped(Arc::clone(&region), 0, 4).unwrap();
        assert!(arena.is_mapped());
        assert_eq!(arena.as_slice(), &values[..]);
        // First mutation detaches from the region.
        arena.make_mut().push(5.0);
        assert!(!arena.is_mapped());
        assert_eq!(arena.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn mapped_arena_rejects_bad_windows() {
        let region = region_with(&[0u8; 16]);
        // Out of bounds.
        assert!(matches!(
            Arena::<f32>::mapped(Arc::clone(&region), 8, 3),
            Err(StoreError::Corrupt(_))
        ));
        // Misaligned offset for 4-byte elements.
        assert!(matches!(
            Arena::<f32>::mapped(Arc::clone(&region), 2, 2),
            Err(StoreError::Corrupt(_))
        ));
        // In-bounds and aligned is fine.
        assert!(Arena::<f32>::mapped(region, 8, 2).is_ok());
    }

    #[test]
    fn mapped_store_behaves_like_owned_until_mutated() {
        // Build an owned store, serialise its arenas into a fake region,
        // reassemble zero-copy, and check reads agree; then mutate and
        // check the mapped store detaches without disturbing the original.
        let dims = 8;
        let mut owned = RowStore::new(dims, Quantization::Sq8);
        let mut rng = mc_tensor::rng::seeded(11);
        for id in 0..10u64 {
            owned.push(id, &unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng)));
        }
        let (ids, parts) = owned.parts();
        let RowParts::Sq8 {
            codes,
            scales,
            mins,
        } = parts
        else {
            panic!("sq8 store must expose sq8 parts");
        };
        let mut bytes = Vec::new();
        for id in ids {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
        let codes_off = bytes.len();
        bytes.extend_from_slice(codes);
        while bytes.len() % 4 != 0 {
            bytes.push(0);
        }
        let scales_off = bytes.len();
        for s in scales {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        let mins_off = bytes.len();
        for m in mins {
            bytes.extend_from_slice(&m.to_le_bytes());
        }
        let region = region_with(&bytes);
        let mut mapped = RowStore::from_arenas_sq8(
            dims,
            Arena::mapped(Arc::clone(&region), 0, 10).unwrap(),
            Arena::mapped(Arc::clone(&region), codes_off, 10 * dims).unwrap(),
            Arena::mapped(Arc::clone(&region), scales_off, 10).unwrap(),
            Arena::mapped(Arc::clone(&region), mins_off, 10).unwrap(),
        )
        .unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.ids(), owned.ids());
        let query = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
        assert_eq!(scores(&mapped, &query), scores(&owned, &query));
        for pos in 0..owned.len() {
            assert_eq!(mapped.sq8_row(pos), owned.sq8_row(pos));
        }
        // Copy-on-write: a removal detaches the arenas.
        mapped.swap_remove(0);
        assert!(!mapped.is_mapped());
        assert_eq!(mapped.len(), 9);
        assert_eq!(owned.len(), 10, "the original store is untouched");
    }

    #[test]
    fn arena_length_mismatches_are_corrupt() {
        let err =
            RowStore::from_arenas_f32(4, Arena::Owned(vec![1, 2]), Arena::Owned(vec![0.0; 7]));
        assert!(matches!(err, Err(StoreError::Corrupt(_))));
        let err = RowStore::from_arenas_sq8(
            4,
            Arena::Owned(vec![1, 2]),
            Arena::Owned(vec![0u8; 8]),
            Arena::Owned(vec![0.0; 2]),
            Arena::Owned(vec![0.0; 1]),
        );
        assert!(matches!(err, Err(StoreError::Corrupt(_))));
    }
}
