//! The vector-index seam: the [`VectorIndex`] trait and the [`IndexKind`]
//! configuration that builds the one backend, [`crate::FlatIndex`].
//!
//! The paper searches cached query embeddings with SBERT's `semantic_search`
//! (noted to handle up to ~1M entries); [`crate::FlatIndex`] plays that
//! role: an exact brute-force scan, O(n·d) per lookup, which is what every
//! per-user cache and every served shard here runs. The **row codec**
//! ([`Quantization`]) decides how it stores its rows: exact `f32` or SQ8
//! (one byte per dimension, ~4× smaller, scanned with a fused integer
//! kernel) — so `flat`/`flat-sq8` are configuration, not code.

use serde::{Deserialize, Serialize};

use crate::flat::{FlatIndex, DEFAULT_PARALLEL_SEARCH_THRESHOLD};
use crate::rows::Quantization;
use crate::Result;

/// A search hit: the entry id and its cosine similarity to the query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Id of the cached entry.
    pub id: u64,
    /// Cosine similarity in `[-1, 1]`.
    pub score: f32,
}

/// Common interface of every embedding-search backend.
///
/// All embeddings are expected to be L2-normalised (the encoder guarantees
/// this), so backends may treat cosine similarity as a plain dot product.
///
/// # Concurrency contract
///
/// Backends are `Send + Sync` and every read path ([`VectorIndex::search`],
/// [`VectorIndex::search_batch`], [`VectorIndex::best_match`], plus the
/// accessors) takes `&self` with **no interior mutability** — no caches, no
/// lazily-built structures, no statistics side effects. Any number of
/// threads may therefore search one index concurrently (e.g. behind an
/// `RwLock` read guard, as the sharded serving layer in `meancache` does);
/// only [`VectorIndex::add`] / [`VectorIndex::remove`] require exclusive
/// access. `FlatIndex` is audited against this contract in its module
/// tests.
pub trait VectorIndex: Send + Sync {
    /// Embedding dimensionality.
    fn dims(&self) -> usize;

    /// Number of indexed embeddings.
    fn len(&self) -> usize;

    /// `true` when nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes used by the search structure (embedding payload plus any
    /// auxiliary data such as the pre-screen's shadow codes).
    fn storage_bytes(&self) -> usize;

    /// `true` when `id` is indexed.
    fn contains(&self, id: u64) -> bool;

    /// Adds an embedding under `id`. Adding an id that is already indexed
    /// **replaces** its embedding (so id reuse — e.g. re-restoring a
    /// persisted entry — cannot desynchronise the index and the store).
    ///
    /// # Errors
    /// Returns [`crate::StoreError::DimensionMismatch`] when the embedding
    /// has the wrong dimensionality.
    fn add(&mut self, id: u64, embedding: &[f32]) -> Result<()>;

    /// Removes the embedding stored under `id`.
    ///
    /// # Errors
    /// Returns [`crate::StoreError::NotFound`] when the id is not indexed.
    fn remove(&mut self, id: u64) -> Result<()>;

    /// Returns the top-`k` most similar entries to `query` with similarity
    /// at least `min_score`, ordered by descending similarity.
    ///
    /// # Errors
    /// Returns [`crate::StoreError::DimensionMismatch`] when the query has
    /// the wrong dimensionality.
    fn search(&self, query: &[f32], k: usize, min_score: f32) -> Result<Vec<SearchHit>>;

    /// Searches many probes in one pass over the index, returning one hit
    /// list per probe (same order). Backends override this to amortise
    /// dispatch and parallelise across probes; the default just loops.
    ///
    /// # Errors
    /// Returns [`crate::StoreError::DimensionMismatch`] when any query has
    /// the wrong dimensionality.
    fn search_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
        min_score: f32,
    ) -> Result<Vec<Vec<SearchHit>>> {
        queries
            .iter()
            .map(|query| self.search(query, k, min_score))
            .collect()
    }

    /// The single best match above `min_score`, if any.
    ///
    /// # Errors
    /// Returns [`crate::StoreError::DimensionMismatch`] on a wrong-size
    /// query.
    fn best_match(&self, query: &[f32], min_score: f32) -> Result<Option<SearchHit>> {
        Ok(self.search(query, 1, min_score)?.into_iter().next())
    }
}

/// Index configuration: the knob `MeanCacheConfig` (and anything else that
/// builds an index) exposes; [`IndexKind::build`] turns it into a live
/// [`FlatIndex`].
///
/// An enum of one variant so config sidecars keep their
/// `{"index":{"Flat":{…}}}` shape. A sidecar naming a kind this build does
/// not know (the retired inverted-file index) fails to parse with an error
/// that names the kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IndexKind {
    /// Exact brute-force scan with a configurable sequential→parallel
    /// crossover point.
    Flat {
        /// Number of stored vectors above which a lookup uses the rayon
        /// pool (see [`DEFAULT_PARALLEL_SEARCH_THRESHOLD`]).
        parallel_threshold: usize,
        /// Row codec: exact `f32` rows or SQ8 quantised rows (~4× smaller,
        /// scanned with the fused asymmetric kernel). See [`crate::rows`].
        /// Defaults to `f32` so config sidecars written before this field
        /// existed still load.
        #[serde(default)]
        quantization: Quantization,
    },
}

impl Default for IndexKind {
    fn default() -> Self {
        IndexKind::flat()
    }
}

impl IndexKind {
    /// The default exact backend (`f32` rows).
    pub fn flat() -> Self {
        IndexKind::Flat {
            parallel_threshold: DEFAULT_PARALLEL_SEARCH_THRESHOLD,
            quantization: Quantization::F32,
        }
    }

    /// The exact backend over SQ8-quantised rows: the same scan, a quarter
    /// of the resident bytes, scores within one quantisation step.
    pub fn flat_sq8() -> Self {
        IndexKind::Flat {
            parallel_threshold: DEFAULT_PARALLEL_SEARCH_THRESHOLD,
            quantization: Quantization::Sq8,
        }
    }

    /// The row codec this kind stores embeddings under.
    pub fn quantization(&self) -> Quantization {
        let IndexKind::Flat { quantization, .. } = self;
        *quantization
    }

    /// Human-readable backend name for reports.
    pub fn name(&self) -> &'static str {
        match self.quantization() {
            Quantization::F32 => "flat",
            Quantization::Sq8 => "flat-sq8",
        }
    }

    /// Builds an empty index of this kind for `dims`-dimensional embeddings.
    ///
    /// # Errors
    /// Returns [`crate::StoreError::InvalidConfig`] for zero dimensions.
    pub fn build(&self, dims: usize) -> Result<FlatIndex> {
        let IndexKind::Flat {
            parallel_threshold,
            quantization,
        } = self;
        FlatIndex::with_options(dims, *parallel_threshold, *quantization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_kind_builds_the_requested_backend() {
        let flat = IndexKind::flat().build(4).unwrap();
        assert_eq!(flat.quantization(), Quantization::F32);
        let sq8 = IndexKind::flat_sq8().build(4).unwrap();
        assert_eq!(sq8.quantization(), Quantization::Sq8);
        assert_eq!(IndexKind::flat().name(), "flat");
        assert_eq!(IndexKind::flat_sq8().name(), "flat-sq8");
        assert_eq!(IndexKind::default(), IndexKind::flat());
        assert!(IndexKind::flat().build(0).is_err());
    }

    #[test]
    fn index_kind_serde_round_trip() {
        for kind in [IndexKind::flat(), IndexKind::flat_sq8()] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: IndexKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
    }

    #[test]
    fn pre_quantization_configs_still_deserialize() {
        // Config sidecars written before the `quantization` field existed
        // must keep loading, defaulting to exact f32 rows.
        let old_flat = r#"{"Flat":{"parallel_threshold":8192}}"#;
        let kind: IndexKind = serde_json::from_str(old_flat).unwrap();
        // The sidecar's own crossover value is preserved (8192 was the
        // default before the pooled rayon shim let it come down), and the
        // missing codec field defaults to exact f32 rows.
        assert!(matches!(
            kind,
            IndexKind::Flat {
                parallel_threshold: 8192,
                ..
            }
        ));
        assert_eq!(kind.quantization(), Quantization::F32);
    }

    #[test]
    fn backends_are_send_sync_for_concurrent_readers() {
        // The serving layer shares indexes across threads (`&self` searches
        // under RwLock read guards); a backend regressing to `!Send`/`!Sync`
        // (e.g. by growing an `Rc` or `RefCell` field) must fail to compile
        // here rather than at the sharded-cache call site.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlatIndex>();
        assert_send_sync::<&dyn VectorIndex>();
    }
}
