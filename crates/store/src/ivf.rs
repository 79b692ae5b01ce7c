//! Approximate top-k cosine index: a k-means-partitioned inverted file (IVF).
//!
//! The brute-force [`crate::FlatIndex`] pays O(n·d) per lookup, which caps a
//! cache at the paper's ~1M-entry SBERT `semantic_search` scale. `IvfIndex`
//! clusters the cached embeddings into `nlist` Voronoi cells (spherical
//! k-means over the unit sphere) and keeps one posting list per cell; a
//! lookup scores the query against the `nlist` centroids, then scans only the
//! `nprobe` nearest cells — an `nlist / nprobe` reduction in scanned vectors
//! at a small recall cost, the classic IVF-Flat design.
//!
//! Lifecycle:
//!
//! * Below [`IvfConfig::train_min`] entries the index is *untrained*: a
//!   single posting list, scanned exactly like the flat index (small caches
//!   gain nothing from cell pruning).
//! * Once `train_min` is reached, k-means runs over (a sample of) the stored
//!   vectors and the posting lists are rebuilt.
//! * Inserts go to the nearest centroid's list; when the index grows past
//!   [`IvfConfig::retrain_growth`] × its size at the last training, k-means
//!   re-runs so centroids track the data distribution.
//!
//! The geometric retrain schedule means an incremental fill (inserting n
//! entries one by one, e.g. replaying a persisted cache) pays roughly
//! `growth/(growth-1)` ≈ 3× the clustering cost of a single train over the
//! final contents — amortised-constant per insert, with no bulk-load API
//! needed; a dedicated bulk path is a possible future optimisation.
//!
//! **Concurrency audit:** training/retraining happens only inside `add` /
//! `remove` (`&mut self`); the search paths (`search`, `search_batch`,
//! `probe_cells`, `top_hits`) are `&self` over the trained
//! centroids and posting lists with no interior mutability, so concurrent
//! readers are safe per the [`VectorIndex`] contract.

use std::collections::HashMap;

use mc_tensor::ops::{self, TopK};
use mc_tensor::vector;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::index::{SearchHit, VectorIndex};
use crate::rows::{Quantization, RowStore};
use crate::{Result, StoreError};

/// Hard ceiling on [`IvfConfig::nlist`]: beyond this the per-lookup centroid
/// scan starts to rival the posting-list scans it is meant to avoid.
pub const MAX_NLIST: usize = 4096;

/// Configuration of an [`IvfIndex`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Number of k-means cells, at most [`MAX_NLIST`]. `0` means *auto*:
    /// ≈√n at (re)train time. Either way the live cell count is additionally
    /// capped at the number of stored vectors.
    pub nlist: usize,
    /// Number of cells scanned per lookup (clamped to the live cell count at
    /// search time). Higher values trade speed for recall; `nprobe >= nlist`
    /// degenerates to an exact scan.
    pub nprobe: usize,
    /// Minimum number of stored vectors before k-means clustering kicks in;
    /// below this the index scans a single list exactly.
    pub train_min: usize,
    /// Growth factor that triggers re-training: when `len()` exceeds
    /// `retrain_growth ×` the size at the last training, k-means re-runs.
    pub retrain_growth: f32,
    /// k-means iterations per (re)training.
    pub kmeans_iters: usize,
    /// Cap on vectors fed to k-means, as a multiple of `nlist` (training on
    /// a sample is standard IVF practice; assignment still covers everything).
    pub train_sample_per_list: usize,
    /// Seed for centroid initialisation and training-sample selection.
    pub seed: u64,
    /// Row codec of the posting lists: exact `f32` (the default) or SQ8
    /// (one `u8` code per dimension + per-row scale/min, ~4× smaller, the
    /// classic IVF-SQ8 configuration). Centroids always stay `f32`, and
    /// queries are never quantised. See [`crate::rows`]. Defaults to `f32`
    /// so config sidecars written before this field existed still load.
    #[serde(default)]
    pub quantization: Quantization,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 0,
            nprobe: 8,
            train_min: 256,
            retrain_growth: 1.5,
            kmeans_iters: 8,
            train_sample_per_list: 64,
            seed: 0x1df_5eed,
            quantization: Quantization::F32,
        }
    }
}

impl IvfConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<()> {
        if self.nlist > MAX_NLIST {
            return Err(StoreError::InvalidConfig(format!(
                "nlist {} exceeds the supported maximum {MAX_NLIST}",
                self.nlist
            )));
        }
        if self.nprobe == 0 {
            return Err(StoreError::InvalidConfig("nprobe must be >= 1".into()));
        }
        if self.retrain_growth <= 1.0 || !self.retrain_growth.is_finite() {
            return Err(StoreError::InvalidConfig(
                "retrain_growth must be finite and > 1".into(),
            ));
        }
        if self.kmeans_iters == 0 {
            return Err(StoreError::InvalidConfig(
                "kmeans_iters must be >= 1".into(),
            ));
        }
        if self.train_sample_per_list == 0 {
            return Err(StoreError::InvalidConfig(
                "train_sample_per_list must be >= 1".into(),
            ));
        }
        Ok(())
    }

    /// The cell count to use for `n` stored vectors.
    fn effective_nlist(&self, n: usize) -> usize {
        let target = if self.nlist == 0 {
            (n as f32).sqrt().round() as usize
        } else {
            self.nlist
        };
        target.clamp(1, MAX_NLIST).min(n.max(1))
    }
}

/// Inverted-file approximate nearest-neighbour index.
///
/// One [`RowStore`] per k-means cell: the ids and contiguous (possibly
/// SQ8-quantised) embedding rows assigned to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IvfIndex {
    dims: usize,
    config: IvfConfig,
    /// `lists.len() × dims` centroid matrix; empty while untrained.
    centroids: Vec<f32>,
    lists: Vec<RowStore>,
    len: usize,
    /// `len()` when k-means last ran (0 = never trained).
    trained_at_len: usize,
    /// Adds + removes since k-means last ran. A capacity-bound cache churns
    /// (one eviction per insert) without ever growing, so retraining must
    /// key on mutations, not size alone, or centroids go stale.
    mutations_since_train: usize,
    /// id → cell, so `remove`/`contains` cost one list scan instead of a
    /// full-index scan — evictions run once per insert on a full cache.
    cell_of: HashMap<u64, u32>,
}

impl IvfIndex {
    /// Creates an empty index for embeddings of `dims` dimensions.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for zero dimensions or an
    /// invalid [`IvfConfig`].
    pub fn new(dims: usize, config: IvfConfig) -> Result<Self> {
        if dims == 0 {
            return Err(StoreError::InvalidConfig("dims must be >= 1".into()));
        }
        config.validate()?;
        let lists = vec![RowStore::new(dims, config.quantization)];
        Ok(Self {
            dims,
            config,
            centroids: Vec::new(),
            lists,
            len: 0,
            trained_at_len: 0,
            mutations_since_train: 0,
            cell_of: HashMap::new(),
        })
    }

    /// Reassembles an index from restored parts (the snapshot loader's path
    /// — with mapped list arenas the posting lists borrow the snapshot file
    /// zero-copy). The id → cell map is rebuilt; centroids, the training
    /// watermark and the mutation counter are restored verbatim, so the
    /// restored index prunes **exactly** like the saved one — no retrain, no
    /// assignment drift.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for invalid dims/config and
    /// [`StoreError::Corrupt`] when the parts are inconsistent (centroid
    /// matrix shape vs list count, repeated ids, untrained state with more
    /// than one list).
    pub(crate) fn from_snapshot_parts(
        dims: usize,
        config: IvfConfig,
        centroids: Vec<f32>,
        lists: Vec<RowStore>,
        trained_at_len: u64,
        mutations_since_train: u64,
    ) -> Result<Self> {
        if dims == 0 {
            return Err(StoreError::InvalidConfig("dims must be >= 1".into()));
        }
        config.validate()?;
        if centroids.is_empty() {
            if lists.len() != 1 {
                return Err(StoreError::Corrupt(format!(
                    "untrained snapshot index must have exactly 1 list, got {}",
                    lists.len()
                )));
            }
        } else if centroids.len() != lists.len() * dims {
            return Err(StoreError::Corrupt(format!(
                "snapshot centroid matrix holds {} values for {} lists of {dims} dims",
                centroids.len(),
                lists.len()
            )));
        }
        let mut len = 0usize;
        let mut cell_of = HashMap::new();
        for (cell, list) in lists.iter().enumerate() {
            if list.dims() != dims {
                return Err(StoreError::Corrupt(format!(
                    "snapshot list {cell} is {}-dimensional, index wants {dims}",
                    list.dims()
                )));
            }
            for &id in list.ids() {
                if cell_of.insert(id, cell as u32).is_some() {
                    return Err(StoreError::Corrupt(format!(
                        "snapshot posting lists repeat id {id}"
                    )));
                }
                len += 1;
            }
        }
        Ok(Self {
            dims,
            config,
            centroids,
            lists,
            len,
            trained_at_len: trained_at_len as usize,
            mutations_since_train: mutations_since_train as usize,
            cell_of,
        })
    }

    /// The raw persistable parts: `(centroids, lists, trained_at_len,
    /// mutations_since_train)` — what the snapshot writer serialises.
    pub(crate) fn snapshot_parts(&self) -> (&[f32], &[RowStore], u64, u64) {
        (
            &self.centroids,
            &self.lists,
            self.trained_at_len as u64,
            self.mutations_since_train as u64,
        )
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &IvfConfig {
        &self.config
    }

    /// `true` once k-means has partitioned the index.
    pub fn is_trained(&self) -> bool {
        !self.centroids.is_empty()
    }

    /// Number of live cells (1 while untrained).
    pub fn nlist_active(&self) -> usize {
        self.lists.len()
    }

    /// Index of the cell whose centroid is nearest to `embedding`.
    fn nearest_cell(&self, embedding: &[f32]) -> usize {
        debug_assert!(self.is_trained());
        nearest_centroid(embedding, &self.centroids, self.dims)
    }

    /// Re-runs k-means when the index has mutated enough since the last
    /// training (or was never trained and just crossed `train_min`).
    ///
    /// The trigger counts *mutations* (adds + removes), not just growth:
    /// pure growth from `n` to `retrain_growth * n` is `(growth-1) * n`
    /// adds, and the same budget of churn at constant size (a capacity-bound
    /// cache evicting one entry per insert) must retrain too, or the
    /// centroids drift arbitrarily far from the live contents.
    fn maybe_train(&mut self) {
        let due = if self.trained_at_len == 0 {
            self.len >= self.config.train_min.max(2)
        } else {
            let budget = (self.config.retrain_growth - 1.0) * self.trained_at_len as f32;
            self.mutations_since_train as f32 >= budget.max(1.0)
        };
        if !due {
            return;
        }
        if self.len == 0 {
            // Everything was removed: fall back to the untrained single-list
            // state instead of clustering nothing.
            self.centroids.clear();
            self.lists = vec![RowStore::new(self.dims, self.config.quantization)];
            self.cell_of.clear();
            self.trained_at_len = 0;
            self.mutations_since_train = 0;
            return;
        }
        let nlist = self.config.effective_nlist(self.len);
        if nlist <= 1 {
            // Not enough data to make pruning worthwhile; stay single-list
            // but move the watermark so the check is not re-run per insert.
            self.trained_at_len = self.len;
            self.mutations_since_train = 0;
            return;
        }
        self.train(nlist);
    }

    /// Clusters all stored vectors into `nlist` cells and rebuilds the
    /// posting lists.
    fn train(&mut self, nlist: usize) {
        // Merge the current contents into one arena, preserving each row's
        // *stored* representation verbatim (SQ8 codes must survive a retrain
        // bit-identically, not drift through dequantise→requantise cycles),
        // and materialise an f32 view for k-means, which runs in f32 space.
        let mut merged = RowStore::new(self.dims, self.config.quantization);
        let mut all_data = Vec::with_capacity(self.len * self.dims);
        for list in &self.lists {
            for pos in 0..list.len() {
                merged.push_row_from(list, pos);
                list.extend_row_f32(pos, &mut all_data);
            }
        }
        let n = merged.len();
        debug_assert_eq!(n, self.len);

        // Train on a bounded sample: k-means cost is O(sample · nlist · d)
        // per iteration, so a cap keeps re-training affordable at 100k+.
        let sample_cap = nlist.saturating_mul(self.config.train_sample_per_list);
        let sample_rows = sample_stride_rows(n, sample_cap.max(nlist), self.config.seed);
        let mut sample = Vec::with_capacity(sample_rows.len() * self.dims);
        for &row in &sample_rows {
            sample.extend_from_slice(&all_data[row * self.dims..(row + 1) * self.dims]);
        }

        self.centroids = spherical_kmeans(
            &sample,
            self.dims,
            nlist,
            self.config.kmeans_iters,
            self.config.seed,
        );

        // Assign every stored vector to its nearest new centroid (parallel:
        // one score row per vector).
        let centroids = &self.centroids;
        let dims = self.dims;
        let assignments: Vec<u32> = all_data
            .par_chunks(dims)
            .map(|row| nearest_centroid(row, centroids, dims) as u32)
            .collect();

        let mut lists = vec![
            RowStore::new(self.dims, self.config.quantization);
            self.centroids.len() / self.dims
        ];
        self.cell_of.clear();
        for (row, &cell) in assignments.iter().enumerate() {
            lists[cell as usize].push_row_from(&merged, row);
            self.cell_of.insert(merged.ids()[row], cell);
        }
        self.lists = lists;
        self.trained_at_len = self.len;
        self.mutations_since_train = 0;
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

    /// The cells a search for `query` should scan, best-first.
    fn probe_cells(&self, query: &[f32]) -> Vec<usize> {
        if !self.is_trained() {
            return vec![0];
        }
        let centroid_scores: Vec<f32> = self
            .centroids
            .chunks_exact(self.dims)
            .map(|centroid| vector::dot(query, centroid))
            .collect();
        ops::top_k(&centroid_scores, self.config.nprobe.min(self.lists.len()))
            .into_iter()
            .map(|(cell, _)| cell)
            .collect()
    }

    /// The top-`k` entries at or above `min_score` over the given cells, best
    /// first: every cell goes through the fused [`RowStore::scan`] into one
    /// running top-k. A candidate's key is `(probe rank, row)`, so ties
    /// resolve toward the better-ranked cell, then the lower row.
    fn top_hits(&self, query: &[f32], cells: &[usize], k: usize, min_score: f32) -> Vec<SearchHit> {
        let top = (0..cells.len()).fold(TopK::new(k), |top, rank| {
            let list = &self.lists[cells[rank]];
            list.scan(query, 0..list.len(), min_score, (rank as u64) << 32, top)
        });
        top.into_sorted_vec()
            .into_iter()
            .map(|(key, score)| SearchHit {
                id: self.lists[cells[(key >> 32) as usize]].ids()[key as u32 as usize],
                score,
            })
            .collect()
    }
}

impl VectorIndex for IvfIndex {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.len
    }

    fn storage_bytes(&self) -> usize {
        // The id -> cell map is counted at its entry payload size; hash-table
        // slack is allocator-dependent and left out.
        let rows: usize = self.lists.iter().map(|l| l.storage_bytes()).sum();
        rows + self.centroids.len() * std::mem::size_of::<f32>()
            + self.cell_of.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    fn contains(&self, id: u64) -> bool {
        self.cell_of.contains_key(&id)
    }

    fn add(&mut self, id: u64, embedding: &[f32]) -> Result<()> {
        if embedding.len() != self.dims {
            return Err(StoreError::DimensionMismatch {
                expected: self.dims,
                got: embedding.len(),
            });
        }
        // Re-adding an existing id replaces its embedding (trait contract);
        // without this the id -> cell map would silently point at one of two
        // rows and a later retrain could resurrect a removed id.
        if self.cell_of.contains_key(&id) {
            self.remove(id)?;
        }
        let cell = if self.is_trained() {
            self.nearest_cell(embedding)
        } else {
            0
        };
        self.lists[cell].push(id, embedding);
        self.cell_of.insert(id, cell as u32);
        self.len += 1;
        self.mutations_since_train += 1;
        self.maybe_train();
        Ok(())
    }

    fn remove(&mut self, id: u64) -> Result<()> {
        let cell = *self.cell_of.get(&id).ok_or(StoreError::NotFound(id))? as usize;
        let pos = self.lists[cell]
            .ids()
            .iter()
            .position(|&x| x == id)
            .expect("cell_of and posting lists are kept in sync");
        // Swap-remove moves the cell's last entry into `pos`; it stays in
        // the same cell, so only the removed id's mapping changes.
        self.lists[cell].swap_remove(pos);
        self.cell_of.remove(&id);
        self.len -= 1;
        self.mutations_since_train += 1;
        // Removals count toward the retrain budget too: a bulk invalidation
        // sweep must not leave searches probing stale, mostly-empty cells.
        self.maybe_train();
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize, min_score: f32) -> Result<Vec<SearchHit>> {
        self.check_query(query)?;
        if self.len == 0 || k == 0 {
            return Ok(Vec::new());
        }
        Ok(self.top_hits(query, &self.probe_cells(query), k, min_score))
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
        if self.len == 0 || k == 0 {
            return Ok(vec![Vec::new(); queries.len()]);
        }
        // Parallelism across probes: each probe's cell selection + scans run
        // sequentially inside one rayon task, so a replayed workload pays a
        // single fork/join for the whole batch.
        if queries.len() > 1 {
            Ok(queries
                .par_iter()
                .map(|query| self.top_hits(query, &self.probe_cells(query), k, min_score))
                .collect())
        } else {
            queries
                .iter()
                .map(|q| self.search(q, k, min_score))
                .collect()
        }
    }
}

/// Index of the centroid (row of `centroids`) nearest to `row`.
fn nearest_centroid(row: &[f32], centroids: &[f32], dims: usize) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::MIN;
    for (cell, centroid) in centroids.chunks_exact(dims).enumerate() {
        let score = vector::dot(row, centroid);
        if score > best_score {
            best_score = score;
            best = cell;
        }
    }
    best
}

/// Deterministic SplitMix64 stream (the store crate avoids a `rand` dep).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks up to `cap` distinct row indices out of `n`, evenly strided with a
/// seeded offset (cheap, deterministic, and unbiased enough for k-means).
fn sample_stride_rows(n: usize, cap: usize, seed: u64) -> Vec<usize> {
    if n <= cap {
        return (0..n).collect();
    }
    let mut state = seed;
    let offset = (splitmix(&mut state) as usize) % n;
    let stride = n / cap;
    (0..cap).map(|i| (offset + i * stride) % n).collect()
}

/// Spherical k-means: centroids are L2-normalised means, assignment is by
/// maximum dot product. Returns a `k × dims` centroid matrix.
fn spherical_kmeans(data: &[f32], dims: usize, k: usize, iters: usize, seed: u64) -> Vec<f32> {
    let n = data.len() / dims;
    let k = k.min(n).max(1);
    let mut state = seed;

    // Init: k distinct random rows.
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < k {
        chosen.insert((splitmix(&mut state) as usize) % n);
    }
    let mut centroids = Vec::with_capacity(k * dims);
    for row in &chosen {
        centroids.extend_from_slice(&data[row * dims..(row + 1) * dims]);
    }

    for _ in 0..iters {
        // Assignment step (parallel over rows).
        let centroids_ref = &centroids;
        let assignments: Vec<u32> = data
            .par_chunks(dims)
            .map(|row| nearest_centroid(row, centroids_ref, dims) as u32)
            .collect();

        // Update step: normalised mean per cell.
        let mut sums = vec![0.0f32; k * dims];
        let mut counts = vec![0usize; k];
        for (row, &cell) in assignments.iter().enumerate() {
            let cell = cell as usize;
            counts[cell] += 1;
            let src = &data[row * dims..(row + 1) * dims];
            let dst = &mut sums[cell * dims..(cell + 1) * dims];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        for cell in 0..k {
            let dst = &mut sums[cell * dims..(cell + 1) * dims];
            if counts[cell] == 0 {
                // Empty cell: re-seed from a random row so every centroid
                // keeps pulling its share of the data.
                let row = (splitmix(&mut state) as usize) % n;
                dst.copy_from_slice(&data[row * dims..(row + 1) * dims]);
            }
            vector::normalize(dst);
        }
        centroids = sums;
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_vec(dims: usize, rng: &mut impl FnMut() -> f32) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dims).map(|_| rng()).collect();
        vector::normalize(&mut v);
        v
    }

    fn rng_fn(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            let raw = splitmix(&mut state);
            ((raw >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 1.0
        }
    }

    fn populated(n: usize, dims: usize, config: IvfConfig) -> IvfIndex {
        let mut idx = IvfIndex::new(dims, config).unwrap();
        let mut rng = rng_fn(77);
        for id in 0..n as u64 {
            idx.add(id, &unit_vec(dims, &mut rng)).unwrap();
        }
        idx
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(IvfIndex::new(0, IvfConfig::default()).is_err());
        assert!(IvfConfig {
            nprobe: 0,
            ..IvfConfig::default()
        }
        .validate()
        .is_err());
        assert!(IvfConfig {
            nlist: MAX_NLIST + 1,
            ..IvfConfig::default()
        }
        .validate()
        .is_err());
        assert!(IvfConfig {
            nlist: MAX_NLIST,
            ..IvfConfig::default()
        }
        .validate()
        .is_ok());
        assert!(IvfConfig {
            retrain_growth: 1.0,
            ..IvfConfig::default()
        }
        .validate()
        .is_err());
        assert!(IvfConfig {
            kmeans_iters: 0,
            ..IvfConfig::default()
        }
        .validate()
        .is_err());
        assert!(IvfConfig {
            train_sample_per_list: 0,
            ..IvfConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn untrained_index_is_exact() {
        let config = IvfConfig {
            train_min: 10_000, // never trains at this test's size
            ..IvfConfig::default()
        };
        let idx = populated(200, 8, config);
        assert!(!idx.is_trained());
        assert_eq!(idx.nlist_active(), 1);
        let mut rng = rng_fn(5);
        let query = unit_vec(8, &mut rng);
        let hits = idx.search(&query, 5, -1.0).unwrap();
        assert_eq!(hits.len(), 5);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn training_kicks_in_and_partitions() {
        let config = IvfConfig {
            nlist: 8,
            nprobe: 2,
            train_min: 64,
            ..IvfConfig::default()
        };
        let idx = populated(300, 8, config);
        assert!(idx.is_trained());
        assert_eq!(idx.nlist_active(), 8);
        assert_eq!(idx.len(), 300);
        let total: usize = (0..idx.nlist_active()).map(|c| idx.lists[c].len()).sum();
        assert_eq!(total, 300);
        assert!(idx.storage_bytes() >= 300 * 8 * 4);
    }

    #[test]
    fn exact_when_probing_every_cell() {
        let config = IvfConfig {
            nlist: 6,
            nprobe: 6,
            train_min: 32,
            ..IvfConfig::default()
        };
        let idx = populated(400, 8, config);
        assert!(idx.is_trained());
        // A self-query must find itself with score ~1.
        let probe_row = idx.lists[3].row_f32(0);
        let probe_id = idx.lists[3].ids()[0];
        let hits = idx.search(&probe_row, 1, 0.0).unwrap();
        assert_eq!(hits[0].id, probe_id);
        assert!(hits[0].score > 0.999);
    }

    #[test]
    fn remove_keeps_every_cell_consistent() {
        let config = IvfConfig {
            nlist: 4,
            nprobe: 4,
            train_min: 32,
            ..IvfConfig::default()
        };
        let mut idx = populated(200, 8, config);
        for id in (0..200u64).step_by(3) {
            idx.remove(id).unwrap();
        }
        assert_eq!(idx.len(), 200 - 67);
        for id in (0..200u64).step_by(3) {
            assert!(!idx.contains(id));
            assert!(matches!(idx.remove(id), Err(StoreError::NotFound(_))));
        }
        // Remaining entries are still found exactly.
        let cell = idx
            .lists
            .iter()
            .position(|l| !l.is_empty())
            .expect("some cell is non-empty");
        let probe_row = idx.lists[cell].row_f32(0);
        let probe_id = idx.lists[cell].ids()[0];
        let hits = idx.search(&probe_row, 1, 0.0).unwrap();
        assert_eq!(hits[0].id, probe_id);
    }

    #[test]
    fn growth_triggers_retraining() {
        let config = IvfConfig {
            nlist: 0, // auto: sqrt(n)
            nprobe: 4,
            train_min: 64,
            retrain_growth: 1.5,
            ..IvfConfig::default()
        };
        let mut idx = IvfIndex::new(8, config).unwrap();
        let mut rng = rng_fn(13);
        for id in 0..64u64 {
            idx.add(id, &unit_vec(8, &mut rng)).unwrap();
        }
        let first_cells = idx.nlist_active();
        assert!(idx.is_trained());
        for id in 64..1024u64 {
            idx.add(id, &unit_vec(8, &mut rng)).unwrap();
        }
        assert!(
            idx.nlist_active() > first_cells,
            "auto nlist must grow with the index ({} -> {})",
            first_cells,
            idx.nlist_active()
        );
        assert_eq!(idx.len(), 1024);
    }

    #[test]
    fn churn_at_constant_size_still_retrains() {
        // A capacity-bound cache removes one entry per insert, so the index
        // never grows — retraining must trigger on mutations anyway.
        let config = IvfConfig {
            nlist: 8,
            nprobe: 2,
            train_min: 64,
            retrain_growth: 1.5,
            ..IvfConfig::default()
        };
        let mut idx = populated(200, 8, config);
        assert!(idx.is_trained());
        let centroids_before = idx.centroids.clone();
        // Full turnover at constant size: replace every entry.
        let mut rng = rng_fn(4242);
        for id in 0..200u64 {
            idx.remove(id).unwrap();
            idx.add(1000 + id, &unit_vec(8, &mut rng)).unwrap();
            assert_eq!(idx.len(), 200);
        }
        assert_ne!(
            idx.centroids, centroids_before,
            "centroids must re-fit to the churned contents"
        );
        assert!(
            idx.mutations_since_train < 400,
            "mutation counter must reset at retraining"
        );
        // The refreshed index still finds the new entries exactly.
        let cell = idx.lists.iter().position(|l| !l.is_empty()).unwrap();
        let probe_row = idx.lists[cell].row_f32(0);
        let probe_id = idx.lists[cell].ids()[0];
        let hits = idx.search(&probe_row, 1, 0.0).unwrap();
        assert_eq!(hits[0].id, probe_id);
    }

    #[test]
    fn re_adding_an_id_replaces_its_embedding() {
        // Both below and above the training threshold: the id -> cell map
        // must never point at one of two live rows.
        let config = IvfConfig {
            nlist: 4,
            nprobe: 4,
            train_min: 32,
            ..IvfConfig::default()
        };
        let mut idx = populated(100, 8, config);
        assert!(idx.is_trained());
        let mut rng = rng_fn(31);
        let replacement = unit_vec(8, &mut rng);
        idx.add(5, &replacement).unwrap();
        assert_eq!(idx.len(), 100);
        let hits = idx.search(&replacement, 1, 0.9).unwrap();
        assert_eq!(hits[0].id, 5);
        idx.remove(5).unwrap();
        assert!(!idx.contains(5));
        assert!(matches!(idx.remove(5), Err(StoreError::NotFound(5))));
        // A retrain must not resurrect the removed id.
        for id in 1000..1200u64 {
            idx.add(id, &unit_vec(8, &mut rng)).unwrap();
        }
        assert!(!idx.contains(5));
    }

    #[test]
    fn bulk_removal_retrains_and_emptying_resets() {
        let config = IvfConfig {
            nlist: 0, // auto ~ sqrt(n)
            nprobe: 2,
            train_min: 64,
            retrain_growth: 1.5,
            ..IvfConfig::default()
        };
        let mut idx = populated(400, 8, config);
        assert!(idx.is_trained());
        let cells_before = idx.nlist_active();
        // Invalidation sweep with no interleaved inserts.
        for id in 0..320u64 {
            idx.remove(id).unwrap();
        }
        assert_eq!(idx.len(), 80);
        assert!(
            idx.nlist_active() < cells_before,
            "auto nlist must shrink after a bulk removal ({} -> {})",
            cells_before,
            idx.nlist_active()
        );
        // Survivors are still found exactly.
        let cell = idx.lists.iter().position(|l| !l.is_empty()).unwrap();
        let probe_row = idx.lists[cell].row_f32(0);
        let probe_id = idx.lists[cell].ids()[0];
        assert_eq!(idx.search(&probe_row, 1, 0.0).unwrap()[0].id, probe_id);
        // Removing everything resets to the untrained single-list state.
        for id in 320..400u64 {
            idx.remove(id).unwrap();
        }
        assert!(idx.is_empty());
        assert!(!idx.is_trained());
        assert_eq!(idx.nlist_active(), 1);
        // And the index is still usable afterwards.
        let mut rng = rng_fn(5);
        idx.add(9999, &unit_vec(8, &mut rng)).unwrap();
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn sq8_posting_lists_survive_retrains_bit_identically() {
        let config = IvfConfig {
            nlist: 6,
            nprobe: 6,
            train_min: 48,
            quantization: Quantization::Sq8,
            ..IvfConfig::default()
        };
        let mut idx = IvfIndex::new(8, config).unwrap();
        let mut rng = rng_fn(2025);
        let vectors: Vec<Vec<f32>> = (0..96).map(|_| unit_vec(8, &mut rng)).collect();
        for (id, v) in vectors.iter().enumerate() {
            idx.add(id as u64, v).unwrap();
        }
        assert!(idx.is_trained());
        assert_eq!(idx.config().quantization, Quantization::Sq8);
        // Every stored row's codes equal a fresh quantisation of its source
        // vector: the retrain(s) moved codes verbatim, never re-encoding.
        let mut checked = 0;
        for list in &idx.lists {
            for pos in 0..list.len() {
                let id = list.ids()[pos] as usize;
                let expect = mc_tensor::quant::QuantizedVec::quantize(&vectors[id]);
                let (codes, scale, min) = list.sq8_row(pos).unwrap();
                assert_eq!(codes, expect.codes.as_slice(), "codes drifted for {id}");
                assert_eq!(scale, expect.scale);
                assert_eq!(min, expect.min);
                checked += 1;
            }
        }
        assert_eq!(checked, 96);
        // Probing every cell, a stored row finds itself despite quantisation.
        let hits = idx.search(&vectors[11], 1, 0.0).unwrap();
        assert_eq!(hits[0].id, 11);
        assert!(hits[0].score > 0.99);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let mut idx = IvfIndex::new(4, IvfConfig::default()).unwrap();
        assert!(idx.add(1, &[0.5; 3]).is_err());
        idx.add(1, &[0.5; 4]).unwrap();
        assert!(idx.search(&[1.0; 3], 1, 0.0).is_err());
        assert!(idx.search_batch(&[&[1.0; 3]], 1, 0.0).is_err());
    }

    #[test]
    fn empty_and_zero_k_return_no_hits() {
        let idx = IvfIndex::new(4, IvfConfig::default()).unwrap();
        assert!(idx
            .search(&[1.0, 0.0, 0.0, 0.0], 3, 0.0)
            .unwrap()
            .is_empty());
        assert!(idx.is_empty());
        let idx = populated(50, 4, IvfConfig::default());
        assert!(idx
            .search(&[1.0, 0.0, 0.0, 0.0], 0, 0.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn search_batch_matches_individual_searches() {
        let config = IvfConfig {
            nlist: 8,
            nprobe: 3,
            train_min: 64,
            ..IvfConfig::default()
        };
        let idx = populated(500, 8, config);
        let mut rng = rng_fn(99);
        let queries: Vec<Vec<f32>> = (0..7).map(|_| unit_vec(8, &mut rng)).collect();
        let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let batched = idx.search_batch(&refs, 5, 0.0).unwrap();
        for (query, batch_hits) in queries.iter().zip(&batched) {
            assert_eq!(&idx.search(query, 5, 0.0).unwrap(), batch_hits);
        }
    }
}
