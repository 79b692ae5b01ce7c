//! The exact integer pre-screen in front of `f32` scans (`RowStore::scan`,
//! see the `rows` module docs) skips only rows whose score provably misses
//! the running cut, so every search returns the hits, score bits and tie
//! order of the unscreened scan.
//!
//! The reference is the two-pass scan the fused one replaced: every row
//! through `vector::dot`, clamped, `ops::top_k`, then the `min_score` cut.
//! The inputs are chosen where a loose or wrong bound would show:
//!
//! * cuts placed within a few ulps of a row's exact `f32` score, and at
//!   -1, -0.999, τ, 1 and +∞ (and at 0, the score of a zero row);
//! * *grid* rows and queries, whose SQ8 residual and query residual are
//!   exactly zero, so the bound is tight up to the `f32` kernel's own
//!   rounding (only the slack term covers it);
//! * grid queries against ordinary rows (only the row-residual term covers
//!   the SQ8 error), near-duplicates, `±3·q` rows whose scores clamp to
//!   ±1, zero and constant rows, NaN / ±∞ in rows and in queries;
//! * `k` of 1, 5 and `usize::MAX`, sequential and split flat scans (split
//!   tiles need ≥ 2 048 rows), `search_batch`, and IVF-F32 posting lists.

use mc_store::{FlatIndex, IvfConfig, IvfIndex, SearchHit, VectorIndex};
use mc_tensor::{ops, vector};
use proptest::prelude::*;
use rand::Rng;

/// The benchmark's deployed threshold, roughly.
const TAU: f32 = 0.95;

/// A row on its own SQ8 grid: `(c_j + 2²¹) · 2⁻²⁴` with both code extremes
/// present, so the quantiser reproduces `c` with `scale = 2⁻²⁴` exactly and
/// the residual is zero. The large offset makes the `f32` kernel's partial
/// sums round.
fn grid_row(dims: usize, rng: &mut impl Rng) -> Vec<f32> {
    let mut codes: Vec<u32> = (0..dims).map(|_| rng.random_range(0..256)).collect();
    codes[0] = 0;
    if dims > 1 {
        codes[dims - 1] = 255;
    }
    codes
        .iter()
        .map(|&c| (c as f32 + 2_097_152.0) / 16_777_216.0)
        .collect()
}

/// A query on its own integer grid: `k_j · 2⁻¹⁰` with some `|k_j| = 64`, so
/// the screen's step is `2⁻¹⁰` and the query residual is zero.
fn grid_query(dims: usize, rng: &mut impl Rng) -> Vec<f32> {
    let mut steps: Vec<i32> = (0..dims).map(|_| rng.random_range(-64..65)).collect();
    steps[0] = if rng.random_range(0..2) == 0 { 64 } else { -64 };
    steps.iter().map(|&k| k as f32 / 1024.0).collect()
}

fn unit(dims: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    let mut v = mc_tensor::rng::uniform_vec(dims, 1.0, rng);
    vector::normalize(&mut v);
    v
}

/// The query a case searches with.
fn query(kind: u8, dims: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    match kind {
        0 | 1 => grid_query(dims, rng),
        2 => unit(dims, rng),
        3 => {
            // Not finite: the screen stands aside for the whole scan.
            let mut q = unit(dims, rng);
            let at = rng.random_range(0..dims);
            q[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.random_range(0..3usize)];
            q
        }
        _ => vec![0.0; dims],
    }
}

/// `n` rows around `query`: ordinary unit rows and each hard case.
fn corpus(n: usize, query: &[f32], rng: &mut rand::rngs::StdRng) -> Vec<Vec<f32>> {
    let dims = query.len();
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = match i % 11 {
            0 | 1 => grid_row(dims, rng),
            2 => unit(dims, rng),
            3 if i >= 3 => {
                // A near-duplicate of an earlier row.
                let mut row = rows[rng.random_range(0..i)].clone();
                let at = rng.random_range(0..dims);
                row[at] += 1e-6;
                row
            }
            4 => query.iter().map(|v| 3.0 * v).collect(),
            5 => query.iter().map(|v| -3.0 * v).collect(),
            6 => {
                // The query itself, nudged: a score just under 1.
                let mut row = query.to_vec();
                row[rng.random_range(0..dims)] += 1e-5;
                row
            }
            7 => vec![0.0; dims],
            8 => vec![rng.random_range(-1.0f32..1.0); dims],
            9 => {
                let mut row = unit(dims, rng);
                let at = rng.random_range(0..dims);
                row[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.random_range(0..3usize)];
                row
            }
            _ => unit(dims, rng).iter().map(|v| 3.0 * v).collect(),
        };
        rows.push(row);
    }
    rows
}

/// Every row's clamped score through the single-row kernel.
fn scores(rows: &[Vec<f32>], query: &[f32]) -> Vec<f32> {
    rows.iter()
        .map(|row| vector::dot(query, row).clamp(-1.0, 1.0))
        .collect()
}

/// The two-pass reference: all scores, `ops::top_k`, then the cut.
fn reference(scores: &[f32], k: usize, min_score: f32) -> Vec<(u64, u32)> {
    ops::top_k(scores, k)
        .into_iter()
        .filter(|(_, score)| *score >= min_score)
        .map(|(row, score)| (row as u64, score.to_bits()))
        .collect()
}

fn bits(hits: &[SearchHit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// The cuts a case searches with: the fixed ones, and the score of one row
/// of each kind `corpus` builds, exactly and one ulp to either side.
fn cuts(scores: &[f32]) -> Vec<f32> {
    let mut cuts = vec![-1.0, -0.999, TAU, 1.0, f32::INFINITY, 0.0];
    for kind in [0, 2, 3, 6, 7, 10] {
        if let Some(&score) = scores.iter().skip(kind).step_by(11).find(|s| !s.is_nan()) {
            cuts.extend([score.next_down(), score, score.next_up()]);
        }
    }
    cuts
}

fn flat(threshold: usize, rows: &[Vec<f32>]) -> FlatIndex {
    let mut index = FlatIndex::with_parallel_threshold(rows[0].len(), threshold).unwrap();
    for (id, row) in rows.iter().enumerate() {
        index.add(id as u64, row).unwrap();
    }
    index
}

fn ivf(config: IvfConfig, rows: &[Vec<f32>]) -> IvfIndex {
    let mut index = IvfIndex::new(rows[0].len(), config).unwrap();
    for (id, row) in rows.iter().enumerate() {
        index.add(id as u64, row).unwrap();
    }
    index
}

/// Every scan shape of one set of rows.
struct Shapes {
    rows: Vec<Vec<f32>>,
    sequential: FlatIndex,
    split: FlatIndex,
    one_list: IvfIndex,
    every_cell: IvfIndex,
}

impl Shapes {
    fn new(rows: Vec<Vec<f32>>) -> Self {
        // An untrained IVF index is one posting list: same keys, same hits.
        let untrained = IvfConfig {
            train_min: usize::MAX,
            ..IvfConfig::default()
        };
        // Every cell probed: the same rows in other lists, same scores.
        let exhaustive = IvfConfig {
            nlist: 4,
            nprobe: 4,
            train_min: 16,
            kmeans_iters: 2,
            ..IvfConfig::default()
        };
        Self {
            sequential: flat(usize::MAX, &rows),
            split: flat(1, &rows),
            one_list: ivf(untrained, &rows),
            every_cell: ivf(exhaustive, &rows),
            rows,
        }
    }

    /// Checks every shape against the reference for one query, cut and `k`.
    fn check(&self, query: &[f32], k: usize, min_score: f32) {
        let expect = reference(&scores(&self.rows, query), k, min_score);
        let what = format!("k={k} min_score={min_score:e} query={query:?}");
        let search = |index: &dyn VectorIndex| bits(&index.search(query, k, min_score).unwrap());
        assert_eq!(search(&self.sequential), expect, "sequential, {what}");
        assert_eq!(search(&self.split), expect, "split, {what}");
        assert_eq!(search(&self.one_list), expect, "ivf, one list, {what}");
        for hits in self.split.search_batch(&[query; 8], k, min_score).unwrap() {
            assert_eq!(bits(&hits), expect, "batch, {what}");
        }
        let hits = self.every_cell.search(query, k, min_score).unwrap();
        let got: Vec<u32> = hits.iter().map(|h| h.score.to_bits()).collect();
        let want: Vec<u32> = expect.iter().map(|&(_, s)| s).collect();
        assert_eq!(got, want, "ivf, every cell, {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn screened_scans_equal_the_unscreened_reference(
        seed in 0u64..1_000_000,
        dims_at in 0usize..6,
        n in 1usize..120,
        query_kind in 0u8..5,
    ) {
        let dims = [1usize, 7, 32, 40, 64, 256][dims_at];
        let mut rng = mc_tensor::rng::seeded(seed);
        let query = query(query_kind, dims, &mut rng);
        let shapes = Shapes::new(corpus(n, &query, &mut rng));
        for cut in cuts(&scores(&shapes.rows, &query)) {
            for k in [1, 5, usize::MAX] {
                shapes.check(&query, k, cut);
            }
        }
    }
}

/// Split tiles: above 2 048 rows a flat search runs its tiles on the pool,
/// each tile a screened scan of its own range with its own running cut.
#[test]
fn split_tiles_equal_the_reference() {
    let mut rng = mc_tensor::rng::seeded(35);
    for case in 0..4u8 {
        let dims = [24, 64][usize::from(case % 2)];
        let query = query(case % 3, dims, &mut rng);
        let rows = corpus(2_100, &query, &mut rng);
        let scores = scores(&rows, &query);
        let split = flat(2_048, &rows);
        for cut in cuts(&scores) {
            for k in [1, 5, usize::MAX] {
                let hits = split.search(&query, k, cut).unwrap();
                assert_eq!(
                    bits(&hits),
                    reference(&scores, k, cut),
                    "case {case} cut {cut:e} k {k}"
                );
            }
        }
    }
}

/// The mutations the bound must not survive each have a case that exposes
/// them, pinned here by name so a weakened corpus is noticed.
#[test]
fn the_bound_is_tight_where_it_must_be() {
    let mut rng = mc_tensor::rng::seeded(7);
    let dims = 64;
    // Grid row, grid query: the bound is exact up to the kernel's rounding,
    // so a row whose `f32` score rounded up sits above its bound without the
    // slack term. Every such row must still be found at its own score.
    let mut checked = 0;
    for _ in 0..200 {
        let query = grid_query(dims, &mut rng);
        let row = grid_row(dims, &mut rng);
        let exact: f64 = query
            .iter()
            .zip(&row)
            .map(|(&q, &r)| f64::from(q) * f64::from(r))
            .sum();
        let score = vector::dot(&query, &row);
        if f64::from(score) > exact && score.abs() < 1.0 {
            checked += 1;
            Shapes::new(vec![row]).check(&query, 1, score);
        }
    }
    assert!(checked > 10, "only {checked} grid rows rounded up");
    // A zero row scores exactly 0 and its bound is exactly 0: a cut of 0
    // must keep it (a `<=` comparison would not).
    let query = unit(dims, &mut rng);
    Shapes::new(vec![vec![0.0; dims]]).check(&query, 1, 0.0);
    // Rows at `-3·q` clamp to -1, which reaches a cut of -1 although their
    // bound is far below it.
    let rows = vec![query.iter().map(|v| -3.0 * v).collect::<Vec<f32>>(); 3];
    Shapes::new(rows).check(&query, usize::MAX, -1.0);
}

/// `n` rows in tight clusters around 100 centres, the shape of a cache of
/// paraphrases: a τ-cut search has a handful of rows near the cut and the
/// rest far below it.
fn clustered(n: usize, dims: usize, rng: &mut rand::rngs::StdRng) -> Vec<Vec<f32>> {
    let centres: Vec<Vec<f32>> = (0..100).map(|_| unit(dims, rng)).collect();
    (0..n)
        .map(|i| {
            let noise = mc_tensor::rng::uniform_vec(dims, 0.03, rng);
            let mut row: Vec<f32> = centres[i % 100]
                .iter()
                .zip(&noise)
                .map(|(c, e)| c + e)
                .collect();
            vector::normalize(&mut row);
            row
        })
        .collect()
}

/// Rows the pre-screen let through, per τ-cut search of `index` with
/// nudged copies of `probes` (each of which must find a hit).
fn rescored_per_search(index: &dyn VectorIndex, probes: &[Vec<f32>]) -> f64 {
    let before = mc_store::rows::rescored_rows();
    for probe in probes {
        let mut query = probe.clone();
        query[3] += 0.05;
        vector::normalize(&mut query);
        let hits = index.search(&query, 5, TAU).unwrap();
        assert!(!hits.is_empty(), "a nudged stored row must find itself");
    }
    (mc_store::rows::rescored_rows() - before) as f64 / probes.len() as f64
}

/// The pre-screen cannot switch itself off silently: after every way an
/// `f32` row store is built or rebuilt, a τ-cut search re-scores a handful
/// of its rows in `f32`, not all of them.
#[test]
fn the_screen_is_live_after_every_way_a_store_is_built() {
    use mc_store::snapshot::{load_snapshot, save_snapshot, SnapshotView};
    use mc_store::{CacheEntry, IndexKind};

    let (n, dims) = (1_500, 64);
    let mut rng = mc_tensor::rng::seeded(2024);
    let rows = clustered(n, dims, &mut rng);
    let probes: Vec<Vec<f32>> = rows.iter().step_by(37).cloned().collect();
    let live = |what: &str, index: &dyn VectorIndex, probes: &[Vec<f32>]| {
        let per_search = rescored_per_search(index, probes);
        assert!(
            per_search >= 1.0 && per_search * 20.0 <= index.len() as f64,
            "{what}: {per_search} of {} rows re-scored per search",
            index.len()
        );
    };

    // push
    let mut index = flat(usize::MAX, &rows);
    live("push", &index, &probes);

    // replace: re-adding an id re-encodes its row in place.
    let replacements = clustered(n, dims, &mut rng);
    for id in (0..n).step_by(2) {
        index.add(id as u64, &replacements[id]).unwrap();
    }
    let current: Vec<Vec<f32>> = (0..n)
        .map(|id| {
            if id % 2 == 0 {
                replacements[id].clone()
            } else {
                rows[id].clone()
            }
        })
        .collect();
    let probes: Vec<Vec<f32>> = current.iter().step_by(37).cloned().collect();
    live("replace", &index, &probes);

    // swap-remove churn: the last row moves into every hole.
    for id in (0..n).step_by(3) {
        index.remove(id as u64).unwrap();
    }
    let fresh = clustered(n / 3, dims, &mut rng);
    for (i, row) in fresh.iter().enumerate() {
        index.add((n + i) as u64, row).unwrap();
    }
    let probes: Vec<Vec<f32>> = fresh.iter().step_by(11).cloned().collect();
    live("swap-remove churn", &index, &probes);

    // serde round trip: the shadow is not serialised, it is rebuilt.
    let json = serde_json::to_string(&index).unwrap();
    let back: FlatIndex = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    live("serde round trip", &back, &probes);

    // mapped snapshot restore: the shadow is rebuilt over the mapped rows.
    let entries: Vec<CacheEntry> = rows
        .iter()
        .enumerate()
        .map(|(id, row)| {
            let embedding = mc_tensor::Vector::from_vec(row.clone());
            CacheEntry::new(
                id as u64,
                format!("q{id}"),
                format!("a{id}"),
                embedding,
                None,
                id as u64,
            )
        })
        .collect();
    let kind = IndexKind::flat();
    let mut snapshot_index = kind.build(dims).unwrap();
    for entry in &entries {
        snapshot_index
            .add(entry.id, entry.embedding.as_slice())
            .unwrap();
    }
    let dir = std::env::temp_dir().join("mc_prescreen_properties");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("live_{}.snap", std::process::id()));
    let view = SnapshotView {
        entries: entries.iter().collect(),
        index: &snapshot_index,
        pins: &[],
        wal_len: 0,
        wal_head_crc: 0,
        wal_tail_crc: 0,
        tenant: None,
    };
    save_snapshot(&path, &view).unwrap();
    let restored = load_snapshot(&path, &kind).unwrap();
    std::fs::remove_file(&path).ok();
    let probes: Vec<Vec<f32>> = rows.iter().step_by(37).cloned().collect();
    live("mapped snapshot restore", &restored.index, &probes);

    // IVF retrain: every posting list is rebuilt with `push_row_from`.
    let config = IvfConfig {
        nlist: 8,
        nprobe: 8,
        train_min: 256,
        ..IvfConfig::default()
    };
    let trained = ivf(config, &rows);
    assert!(trained.is_trained());
    live("ivf retrain", &trained, &probes);
}
