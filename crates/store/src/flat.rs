//! Brute-force (exact) top-k cosine index over cached query embeddings.
//!
//! The paper uses SBERT's `semantic_search` over the cached embeddings; this
//! backend plays that role. Embeddings are stored contiguously (one row per
//! entry) so a lookup is a single pass of dot products, parallelised with
//! rayon when the cache is large. All embeddings are expected to be
//! L2-normalised (the encoder guarantees this), so cosine similarity reduces
//! to a dot product.
//!
//! `FlatIndex` is the reference backend of the [`VectorIndex`] seam: exact,
//! simple, and O(n·d) per lookup. The approximate [`crate::IvfIndex`] trades
//! a little recall for sub-linear scans at large cache sizes.
//!
//! Rows live in a [`RowStore`], so the stored representation is a codec
//! choice: `f32` (exact, the default) or SQ8 (4× smaller rows scanned with
//! the fused asymmetric `f32 × u8` kernel at ≤ one quantisation step of score
//! error). See [`crate::rows`] for the codec details.
//!
//! **Concurrency audit:** every search path (`search`, `search_batch`,
//! `best_match`, `top_hits`) is `&self` over plain owned data — no interior
//! mutability, no lazily materialised state — so concurrent readers are safe
//! per the [`VectorIndex`] contract. The rayon dispatch inside a scan only
//! *reads* the row arena.

use std::collections::HashMap;

use mc_tensor::ops::TopK;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::index::{SearchHit, VectorIndex};
use crate::rows::{Quantization, RowStore};
use crate::{Result, StoreError};

/// Default for [`FlatIndex::parallel_threshold`]: the stored-vector count
/// from which a lookup splits its scan over the rayon pool (for
/// [`FlatIndex::search_batch`], the `queries × rows` from which a batch of
/// 8+ fans out across queries).
///
/// Kept at 2 048 on the end-to-end metric, against the isolated one (256 d
/// SQ8, AVX2 kernel, 2 shared vCPUs): a build with the threshold at 16 384
/// serves `serve_cold_open` (5 000-row shards) with `lookup_p50_us` 1.10× and
/// `insert_p50_us` 1.03× this one's, in 10 and 9 of 10 alternating pairs.
/// In isolation the same split search takes 80–151 µs wall / 131–163 µs CPU
/// over six traced runs against 100 / 106 for one sequential pass, and
/// `exp_index --crossover` is bimodal below ≈ 16 000 rows (≈ 0.6 with the
/// second vCPU free, 1.0–1.6 without) — see README "Index backends".
/// Override via `IndexKind::Flat { parallel_threshold }`.
pub const DEFAULT_PARALLEL_SEARCH_THRESHOLD: usize = 2_048;

/// Rows per task of a split scan: fixed, so every host decomposes alike.
const TILE_ROWS: usize = 1024;

/// Contiguous embedding index supporting add / remove / top-k search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatIndex {
    dims: usize,
    /// Row arena under the configured codec (`f32` exact or SQ8 quantised) —
    /// see [`crate::rows`].
    rows: RowStore,
    /// Minimum number of stored vectors before lookups use the rayon pool.
    parallel_threshold: usize,
    /// id → row position, so `add` (replace-on-re-add), `remove` and
    /// `contains` cost O(1) lookups instead of scanning ids — evictions
    /// run once per insert on a full cache.
    pos_of: HashMap<u64, u32>,
}

impl FlatIndex {
    /// Creates an empty index for embeddings of `dims` dimensions.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for zero dimensions.
    pub fn new(dims: usize) -> Result<Self> {
        Self::with_parallel_threshold(dims, DEFAULT_PARALLEL_SEARCH_THRESHOLD)
    }

    /// Creates an empty index with an explicit sequential→parallel crossover
    /// point (`parallel_threshold` stored vectors).
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for zero dimensions.
    pub fn with_parallel_threshold(dims: usize, parallel_threshold: usize) -> Result<Self> {
        Self::with_options(dims, parallel_threshold, Quantization::F32)
    }

    /// Creates an empty index with an explicit crossover point and row codec.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for zero dimensions.
    pub fn with_options(
        dims: usize,
        parallel_threshold: usize,
        quantization: Quantization,
    ) -> Result<Self> {
        if dims == 0 {
            return Err(StoreError::InvalidConfig("dims must be >= 1".into()));
        }
        Ok(Self {
            dims,
            rows: RowStore::new(dims, quantization),
            parallel_threshold: parallel_threshold.max(1),
            pos_of: HashMap::new(),
        })
    }

    /// Reassembles an index around a restored row arena (the snapshot
    /// loader's path — with mapped arenas the rows borrow the snapshot file
    /// zero-copy). Only the id → position map is rebuilt; no row is decoded
    /// or re-encoded.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for zero dimensions or a
    /// dims-mismatched arena and [`StoreError::Corrupt`] when the arena
    /// repeats an id (a well-formed snapshot never does).
    pub(crate) fn from_snapshot_parts(
        dims: usize,
        parallel_threshold: usize,
        rows: RowStore,
    ) -> Result<Self> {
        if dims == 0 {
            return Err(StoreError::InvalidConfig("dims must be >= 1".into()));
        }
        if rows.dims() != dims {
            return Err(StoreError::InvalidConfig(format!(
                "snapshot rows are {}-dimensional, index wants {dims}",
                rows.dims()
            )));
        }
        let mut pos_of = HashMap::with_capacity(rows.len());
        for (pos, &id) in rows.ids().iter().enumerate() {
            if pos_of.insert(id, pos as u32).is_some() {
                return Err(StoreError::Corrupt(format!(
                    "snapshot row arena repeats id {id}"
                )));
            }
        }
        Ok(Self {
            dims,
            rows,
            parallel_threshold: parallel_threshold.max(1),
            pos_of,
        })
    }

    /// The configured sequential→parallel crossover point.
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// The row codec this index stores embeddings under.
    pub fn quantization(&self) -> Quantization {
        self.rows.quantization()
    }

    /// Borrow the underlying row arena (tests and persistence checks).
    pub fn rows(&self) -> &RowStore {
        &self.rows
    }

    /// The stored SQ8 representation of `id`'s row, or `None` for an `f32`
    /// index or an unknown id.
    pub fn sq8_row(&self, id: u64) -> Option<(&[u8], f32, f32)> {
        let pos = *self.pos_of.get(&id)? as usize;
        self.rows.sq8_row(pos)
    }

    fn check_query(&self, query: &[f32]) -> Result<()> {
        if query.len() != self.dims {
            return Err(StoreError::DimensionMismatch {
                expected: self.dims,
                got: query.len(),
            });
        }
        Ok(())
    }

    /// The top-`k` rows at or above `min_score`, best first, through the fused
    /// [`RowStore::scan`]. `split` fans row tiles out over the rayon pool; the
    /// merge is a total order (score, lower row), so hits equal the sequential.
    fn top_hits(&self, query: &[f32], k: usize, min_score: f32, split: bool) -> Vec<SearchHit> {
        let scan = |from: usize, rows: usize| {
            self.rows
                .scan(query, from..from + rows, min_score, 0, TopK::new(k))
        };
        let top = if split {
            let tiles = self.rows.ids().par_chunks(TILE_ROWS).enumerate();
            let scanned = tiles.map(|(tile, ids)| scan(tile * TILE_ROWS, ids.len()));
            let partials: Vec<TopK> = scanned.collect();
            partials.into_iter().fold(TopK::new(k), TopK::merge)
        } else {
            scan(0, self.rows.len())
        };
        top.into_sorted_vec()
            .into_iter()
            .map(|(row, score)| SearchHit {
                id: self.rows.ids()[row as usize],
                score,
            })
            .collect()
    }
}

impl VectorIndex for FlatIndex {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn storage_bytes(&self) -> usize {
        self.rows.storage_bytes()
            + self.pos_of.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    fn contains(&self, id: u64) -> bool {
        self.pos_of.contains_key(&id)
    }

    fn add(&mut self, id: u64, embedding: &[f32]) -> Result<()> {
        if embedding.len() != self.dims {
            return Err(StoreError::DimensionMismatch {
                expected: self.dims,
                got: embedding.len(),
            });
        }
        // Re-adding an existing id replaces its embedding (trait contract).
        if let Some(&pos) = self.pos_of.get(&id) {
            self.rows.replace(pos as usize, embedding);
            return Ok(());
        }
        self.pos_of.insert(id, self.rows.len() as u32);
        self.rows.push(id, embedding);
        Ok(())
    }

    fn remove(&mut self, id: u64) -> Result<()> {
        let pos = self.pos_of.remove(&id).ok_or(StoreError::NotFound(id))? as usize;
        if let Some(moved) = self.rows.swap_remove(pos) {
            self.pos_of.insert(moved, pos as u32);
        }
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize, min_score: f32) -> Result<Vec<SearchHit>> {
        self.check_query(query)?;
        if self.is_empty() || k == 0 {
            return Ok(Vec::new());
        }
        let split = self.rows.len() >= self.parallel_threshold;
        Ok(self.top_hits(query, k, min_score, split))
    }

    fn search_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
        min_score: f32,
    ) -> Result<Vec<Vec<SearchHit>>> {
        for query in queries {
            self.check_query(query)?;
        }
        if self.is_empty() || k == 0 {
            return Ok(vec![Vec::new(); queries.len()]);
        }
        // One rayon dispatch for the whole batch: parallelism runs across
        // probes, each scan sequential. A *small* batch cannot saturate the
        // pool that way, so it falls through to per-query searches, which
        // split within each scan instead.
        const MIN_BATCH_FOR_CROSS_PROBE_PARALLELISM: usize = 8;
        if queries.len() >= MIN_BATCH_FOR_CROSS_PROBE_PARALLELISM
            && queries.len() * self.rows.len() >= self.parallel_threshold
        {
            Ok(queries
                .par_iter()
                .map(|query| self.top_hits(query, k, min_score, false))
                .collect())
        } else {
            queries
                .iter()
                .map(|q| self.search(q, k, min_score))
                .collect()
        }
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
    fn add_and_search_returns_most_similar_first() {
        let mut idx = FlatIndex::new(3).unwrap();
        idx.add(10, &unit(vec![1.0, 0.0, 0.0])).unwrap();
        idx.add(20, &unit(vec![0.0, 1.0, 0.0])).unwrap();
        idx.add(30, &unit(vec![0.7, 0.7, 0.0])).unwrap();
        let hits = idx.search(&unit(vec![1.0, 0.1, 0.0]), 3, -1.0).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 10);
        assert!(hits[0].score > hits[1].score);
        assert!(hits[1].score >= hits[2].score);
    }

    #[test]
    fn min_score_filters_low_quality_hits() {
        let mut idx = FlatIndex::new(2).unwrap();
        idx.add(1, &unit(vec![1.0, 0.0])).unwrap();
        idx.add(2, &unit(vec![0.0, 1.0])).unwrap();
        let hits = idx.search(&unit(vec![1.0, 0.0]), 5, 0.9).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
        let none = idx.search(&unit(vec![-1.0, 0.0]), 5, 0.9).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn best_match_is_first_search_hit() {
        let mut idx = FlatIndex::new(2).unwrap();
        idx.add(1, &unit(vec![1.0, 0.0])).unwrap();
        idx.add(2, &unit(vec![0.6, 0.8])).unwrap();
        let best = idx.best_match(&unit(vec![0.9, 0.1]), 0.0).unwrap().unwrap();
        assert_eq!(best.id, 1);
        assert!(idx
            .best_match(&unit(vec![-1.0, 0.0]), 0.99)
            .unwrap()
            .is_none());
    }

    #[test]
    fn remove_swaps_without_corrupting_other_entries() {
        let mut idx = FlatIndex::new(2).unwrap();
        idx.add(1, &unit(vec![1.0, 0.0])).unwrap();
        idx.add(2, &unit(vec![0.0, 1.0])).unwrap();
        idx.add(3, &unit(vec![-1.0, 0.0])).unwrap();
        idx.remove(1).unwrap();
        assert_eq!(idx.len(), 2);
        assert!(!idx.contains(1));
        // Entry 3 (previously last) must still be findable with its own vector.
        let best = idx
            .best_match(&unit(vec![-1.0, 0.0]), 0.5)
            .unwrap()
            .unwrap();
        assert_eq!(best.id, 3);
        // Removing the final element and a missing element.
        idx.remove(3).unwrap();
        idx.remove(2).unwrap();
        assert!(idx.is_empty());
        assert!(matches!(idx.remove(2), Err(StoreError::NotFound(2))));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let mut idx = FlatIndex::new(4).unwrap();
        assert!(matches!(
            idx.add(1, &[1.0, 2.0]),
            Err(StoreError::DimensionMismatch {
                expected: 4,
                got: 2
            })
        ));
        idx.add(1, &[0.5; 4]).unwrap();
        assert!(idx.search(&[1.0; 3], 1, 0.0).is_err());
        assert!(FlatIndex::new(0).is_err());
        assert!(idx.search_batch(&[&[1.0; 3]], 1, 0.0).is_err());
    }

    #[test]
    fn empty_index_and_zero_k_return_no_hits() {
        let idx = FlatIndex::new(2).unwrap();
        assert!(idx.search(&[1.0, 0.0], 3, 0.0).unwrap().is_empty());
        let mut idx = FlatIndex::new(2).unwrap();
        idx.add(1, &[1.0, 0.0]).unwrap();
        assert!(idx.search(&[1.0, 0.0], 0, 0.0).unwrap().is_empty());
    }

    #[test]
    fn large_index_parallel_path_matches_small_index_results() {
        // Build an index big enough to take the parallel path (threshold
        // lowered below the entry count) and verify the top hit is the known
        // nearest neighbour.
        let dims = 16;
        let mut idx = FlatIndex::with_parallel_threshold(dims, 2048).unwrap();
        let mut rng = mc_tensor::rng::seeded(3);
        for id in 0..3000u64 {
            let v = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
            idx.add(id, &v).unwrap();
        }
        // Insert a known vector and query with a tiny perturbation of it.
        let target = unit(vec![0.5; dims]);
        idx.add(99_999, &target).unwrap();
        let mut query = target.clone();
        query[0] += 0.01;
        let query = unit(query);
        let hits = idx.search(&query, 5, 0.0).unwrap();
        assert_eq!(hits[0].id, 99_999);
        assert!(hits[0].score > 0.99);
        // Row + id + the pre-screen shadow (codes, 16 bytes of bound
        // constants) + the id → position entry.
        assert_eq!(idx.storage_bytes(), 3001 * (dims * 4 + 8 + dims + 16 + 12));
    }

    #[test]
    fn parallel_threshold_is_configurable_and_equivalent() {
        let dims = 8;
        let mut always_parallel = FlatIndex::with_parallel_threshold(dims, 1).unwrap();
        let mut never_parallel = FlatIndex::with_parallel_threshold(dims, usize::MAX).unwrap();
        assert_eq!(always_parallel.parallel_threshold(), 1);
        let mut rng = mc_tensor::rng::seeded(9);
        for id in 0..300u64 {
            let v = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
            always_parallel.add(id, &v).unwrap();
            never_parallel.add(id, &v).unwrap();
        }
        let query = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
        let a = always_parallel.search(&query, 7, -1.0).unwrap();
        let b = never_parallel.search(&query, 7, -1.0).unwrap();
        assert_eq!(a, b, "crossover point must not change results");
    }

    #[test]
    fn re_adding_an_id_replaces_its_embedding() {
        let mut idx = FlatIndex::new(2).unwrap();
        idx.add(1, &unit(vec![1.0, 0.0])).unwrap();
        idx.add(1, &unit(vec![0.0, 1.0])).unwrap();
        assert_eq!(idx.len(), 1);
        let best = idx.best_match(&unit(vec![0.0, 1.0]), 0.9).unwrap().unwrap();
        assert_eq!(best.id, 1);
        idx.remove(1).unwrap();
        assert!(idx.is_empty());
        assert!(matches!(idx.remove(1), Err(StoreError::NotFound(1))));
    }

    #[test]
    fn sq8_rows_agree_with_f32_on_separated_data() {
        let dims = 24;
        let mut exact = FlatIndex::new(dims).unwrap();
        let mut quantized =
            FlatIndex::with_options(dims, DEFAULT_PARALLEL_SEARCH_THRESHOLD, Quantization::Sq8)
                .unwrap();
        assert_eq!(quantized.quantization(), Quantization::Sq8);
        assert_eq!(exact.quantization(), Quantization::F32);
        let mut rng = mc_tensor::rng::seeded(41);
        for id in 0..400u64 {
            let v = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
            exact.add(id, &v).unwrap();
            quantized.add(id, &v).unwrap();
        }
        // A self-probe of a stored row must come back as the top hit with a
        // near-1 score despite quantisation.
        let probe = exact.rows().row_f32(7);
        let probe_id = exact.rows().ids()[7];
        let hits = quantized.search(&probe, 1, 0.9).unwrap();
        assert_eq!(hits[0].id, probe_id);
        assert!(hits[0].score > 0.99);
        // Quantised rows cost ~a quarter of the f32 payload; at these low
        // dims the fixed id/position overhead still leaves a 2× whole-index
        // saving (the payload-only 4× is asserted in `rows::tests`).
        assert!(quantized.storage_bytes() * 2 < exact.storage_bytes());
        assert!(quantized.sq8_row(7).is_some());
        assert!(exact.sq8_row(7).is_none());
        // remove + replace keep the codes arena aligned.
        quantized.remove(7).unwrap();
        assert!(!quantized.contains(7));
        let replacement = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
        quantized.add(8, &replacement).unwrap();
        let best = quantized.best_match(&replacement, 0.9).unwrap().unwrap();
        assert_eq!(best.id, 8);
    }

    #[test]
    fn search_batch_matches_individual_searches() {
        let dims = 12;
        let mut idx = FlatIndex::with_parallel_threshold(dims, 4).unwrap();
        let mut rng = mc_tensor::rng::seeded(21);
        for id in 0..500u64 {
            let v = unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng));
            idx.add(id, &v).unwrap();
        }
        let queries: Vec<Vec<f32>> = (0..9)
            .map(|_| unit(mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng)))
            .collect();
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let batched = idx.search_batch(&query_refs, 4, 0.0).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (query, batch_hits) in queries.iter().zip(&batched) {
            let single = idx.search(query, 4, 0.0).unwrap();
            assert_eq!(&single, batch_hits);
        }
    }
}
