//! The vector-index seam: [`VectorIndex`] trait, backend selection, and the
//! [`AnyIndex`] dispatcher.
//!
//! The paper searches cached query embeddings with SBERT's `semantic_search`
//! (noted to handle up to ~1M entries); this module abstracts that role so
//! the search structure is swappable per deployment:
//!
//! * [`crate::FlatIndex`] — exact brute-force scan, O(n·d) per lookup. The
//!   right default below a few tens of thousands of entries.
//! * [`crate::IvfIndex`] — k-means inverted-file ANN: scans `nprobe` of
//!   `nlist` cells per lookup, an `nlist / nprobe` reduction in scanned
//!   vectors at a small recall cost. The right choice at 100k+ entries.
//!
//! Higher layers hold an [`AnyIndex`] (concrete enum dispatch, so caches stay
//! `Clone` + serialisable) built from an [`IndexKind`] configuration knob.
//! Orthogonally to the backend, the **row codec** ([`Quantization`]) decides
//! how either backend stores its rows: exact `f32` or SQ8 (one byte per
//! dimension, ~4× smaller, scanned with a fused integer kernel) — so
//! `flat`/`flat-sq8`/`ivf`/`ivf-sq8` are all configuration, not code. Future
//! backends (sharded, disk-resident) plug in by extending the trait/enum
//! pair.

use serde::{Deserialize, Serialize};

use crate::flat::{FlatIndex, DEFAULT_PARALLEL_SEARCH_THRESHOLD};
use crate::ivf::{IvfConfig, IvfIndex};
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
/// access. `FlatIndex` and `IvfIndex` are audited against this contract in
/// their module tests.
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
    /// auxiliary data such as centroids).
    fn storage_bytes(&self) -> usize;

    /// `true` when `id` is indexed.
    fn contains(&self, id: u64) -> bool;

    /// Adds an embedding under `id`. Adding an id that is already indexed
    /// **replaces** its embedding (all backends agree on this, so id reuse
    /// — e.g. re-restoring a persisted entry — cannot desynchronise them).
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

/// Deployment-selectable index backend configuration.
///
/// This is the knob `MeanCacheConfig` (and anything else that builds an
/// index) exposes; [`IndexKind::build`] turns it into a live [`AnyIndex`].
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
    /// k-means inverted-file approximate search (its row codec lives in
    /// [`IvfConfig::quantization`]).
    Ivf(IvfConfig),
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

    /// The ANN backend with default parameters (auto `nlist`, `nprobe` 8).
    pub fn ivf() -> Self {
        IndexKind::Ivf(IvfConfig::default())
    }

    /// The ANN backend over SQ8-quantised posting lists (IVF-SQ8): cell
    /// pruning *and* 4× smaller rows.
    pub fn ivf_sq8() -> Self {
        IndexKind::Ivf(IvfConfig {
            quantization: Quantization::Sq8,
            ..IvfConfig::default()
        })
    }

    /// The row codec this kind stores embeddings under.
    pub fn quantization(&self) -> Quantization {
        match self {
            IndexKind::Flat { quantization, .. } => *quantization,
            IndexKind::Ivf(config) => config.quantization,
        }
    }

    /// Human-readable backend name for reports.
    pub fn name(&self) -> &'static str {
        match (self, self.quantization()) {
            (IndexKind::Flat { .. }, Quantization::F32) => "flat",
            (IndexKind::Flat { .. }, Quantization::Sq8) => "flat-sq8",
            (IndexKind::Ivf(_), Quantization::F32) => "ivf",
            (IndexKind::Ivf(_), Quantization::Sq8) => "ivf-sq8",
        }
    }

    /// Validates the configuration without building an index.
    ///
    /// # Errors
    /// Returns [`crate::StoreError::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<()> {
        match self {
            IndexKind::Flat { .. } => Ok(()),
            IndexKind::Ivf(config) => config.validate(),
        }
    }

    /// Builds an empty index of this kind for `dims`-dimensional embeddings.
    ///
    /// # Errors
    /// Returns [`crate::StoreError::InvalidConfig`] for zero dimensions or
    /// invalid backend parameters.
    pub fn build(&self, dims: usize) -> Result<AnyIndex> {
        match self {
            IndexKind::Flat {
                parallel_threshold,
                quantization,
            } => Ok(AnyIndex::Flat(FlatIndex::with_options(
                dims,
                *parallel_threshold,
                *quantization,
            )?)),
            IndexKind::Ivf(config) => Ok(AnyIndex::Ivf(IvfIndex::new(dims, config.clone())?)),
        }
    }
}

/// Concrete dispatch over the available backends.
///
/// An enum rather than `Box<dyn VectorIndex>` so holders (the caches) remain
/// `Clone`, `Debug` and serde-serialisable for persistence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyIndex {
    Flat(FlatIndex),
    Ivf(IvfIndex),
}

impl AnyIndex {
    /// The [`IndexKind`]-style name of the live backend.
    pub fn kind_name(&self) -> &'static str {
        match (self, self.quantization()) {
            (AnyIndex::Flat(_), Quantization::F32) => "flat",
            (AnyIndex::Flat(_), Quantization::Sq8) => "flat-sq8",
            (AnyIndex::Ivf(_), Quantization::F32) => "ivf",
            (AnyIndex::Ivf(_), Quantization::Sq8) => "ivf-sq8",
        }
    }

    /// The row codec the live backend stores embeddings under.
    pub fn quantization(&self) -> Quantization {
        match self {
            AnyIndex::Flat(index) => index.quantization(),
            AnyIndex::Ivf(index) => index.config().quantization,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $inner:ident => $call:expr) => {
        match $self {
            AnyIndex::Flat($inner) => $call,
            AnyIndex::Ivf($inner) => $call,
        }
    };
}

impl VectorIndex for AnyIndex {
    fn dims(&self) -> usize {
        dispatch!(self, inner => inner.dims())
    }

    fn len(&self) -> usize {
        dispatch!(self, inner => inner.len())
    }

    fn storage_bytes(&self) -> usize {
        dispatch!(self, inner => inner.storage_bytes())
    }

    fn contains(&self, id: u64) -> bool {
        dispatch!(self, inner => inner.contains(id))
    }

    fn add(&mut self, id: u64, embedding: &[f32]) -> Result<()> {
        dispatch!(self, inner => inner.add(id, embedding))
    }

    fn remove(&mut self, id: u64) -> Result<()> {
        dispatch!(self, inner => inner.remove(id))
    }

    fn search(&self, query: &[f32], k: usize, min_score: f32) -> Result<Vec<SearchHit>> {
        dispatch!(self, inner => inner.search(query, k, min_score))
    }

    fn search_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
        min_score: f32,
    ) -> Result<Vec<Vec<SearchHit>>> {
        dispatch!(self, inner => inner.search_batch(queries, k, min_score))
    }

    fn best_match(&self, query: &[f32], min_score: f32) -> Result<Option<SearchHit>> {
        dispatch!(self, inner => inner.best_match(query, min_score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(v: Vec<f32>) -> Vec<f32> {
        let mut v = v;
        mc_tensor::vector::normalize(&mut v);
        v
    }

    #[test]
    fn index_kind_builds_the_requested_backend() {
        let flat = IndexKind::flat().build(4).unwrap();
        assert_eq!(flat.kind_name(), "flat");
        let ivf = IndexKind::ivf().build(4).unwrap();
        assert_eq!(ivf.kind_name(), "ivf");
        assert_eq!(IndexKind::flat().name(), "flat");
        assert_eq!(IndexKind::ivf().name(), "ivf");
        assert!(IndexKind::flat().validate().is_ok());
        assert!(IndexKind::ivf().validate().is_ok());
        assert!(IndexKind::Ivf(IvfConfig {
            nprobe: 0,
            ..IvfConfig::default()
        })
        .build(4)
        .is_err());
        assert!(IndexKind::flat().build(0).is_err());
    }

    #[test]
    fn any_index_dispatches_uniformly() {
        for kind in [IndexKind::flat(), IndexKind::ivf()] {
            let mut index = kind.build(3).unwrap();
            index.add(1, &unit(vec![1.0, 0.0, 0.0])).unwrap();
            index.add(2, &unit(vec![0.0, 1.0, 0.0])).unwrap();
            assert_eq!(index.len(), 2);
            assert_eq!(index.dims(), 3);
            assert!(index.contains(1));
            assert!(index.storage_bytes() >= 2 * 3 * 4);
            let hits = index.search(&unit(vec![0.9, 0.1, 0.0]), 2, -1.0).unwrap();
            assert_eq!(hits[0].id, 1);
            let best = index
                .best_match(&unit(vec![0.0, 1.0, 0.0]), 0.5)
                .unwrap()
                .unwrap();
            assert_eq!(best.id, 2);
            let queries = [unit(vec![1.0, 0.0, 0.0]), unit(vec![0.0, 1.0, 0.0])];
            let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
            let batched = index.search_batch(&refs, 1, 0.0).unwrap();
            assert_eq!(batched[0][0].id, 1);
            assert_eq!(batched[1][0].id, 2);
            index.remove(1).unwrap();
            assert!(!index.contains(1));
            assert_eq!(index.len(), 1);
        }
    }

    #[test]
    fn index_kind_serde_round_trip() {
        for kind in [
            IndexKind::flat(),
            IndexKind::flat_sq8(),
            IndexKind::ivf(),
            IndexKind::ivf_sq8(),
        ] {
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
        let old_ivf = r#"{"Ivf":{"nlist":0,"nprobe":8,"train_min":256,
            "retrain_growth":1.5,"kmeans_iters":8,"train_sample_per_list":64,
            "seed":31413741}}"#;
        let kind: IndexKind = serde_json::from_str(old_ivf).unwrap();
        assert_eq!(kind.quantization(), Quantization::F32);
        assert_eq!(kind.name(), "ivf");
    }

    #[test]
    fn populated_any_index_serde_round_trip() {
        for kind in [IndexKind::flat(), IndexKind::ivf()] {
            let mut index = kind.build(2).unwrap();
            for id in 0..40u64 {
                let angle = id as f32 * 0.17;
                index.add(id, &[angle.cos(), angle.sin()]).unwrap();
            }
            let json = serde_json::to_string(&index).unwrap();
            let back: AnyIndex = serde_json::from_str(&json).unwrap();
            assert_eq!(back.len(), 40);
            assert_eq!(back.kind_name(), index.kind_name());
            let query = [0.17f32.cos(), 0.17f32.sin()];
            assert_eq!(
                back.search(&query, 3, 0.0).unwrap(),
                index.search(&query, 3, 0.0).unwrap()
            );
        }
    }

    #[test]
    fn backends_are_send_sync_for_concurrent_readers() {
        // The serving layer shares indexes across threads (`&self` searches
        // under RwLock read guards); a backend regressing to `!Send`/`!Sync`
        // (e.g. by growing an `Rc` or `RefCell` field) must fail to compile
        // here rather than at the sharded-cache call site.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlatIndex>();
        assert_send_sync::<IvfIndex>();
        assert_send_sync::<AnyIndex>();
        assert_send_sync::<&dyn VectorIndex>();
    }
}
