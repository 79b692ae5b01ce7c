//! Integration tests of the vector-index seam: backend equivalence
//! (IVF with `nprobe == nlist` is exactly the flat top-k), recall at default
//! settings, eviction consistency, backend selection through
//! `MeanCacheConfig::index`, and the SQ8 row codec (round-trip error bound,
//! top-1 agreement with the exact scan, IVF-SQ8 recall).

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_store::{IndexKind, IvfConfig, VectorIndex};
use mc_tensor::quant::QuantizedVec;
use mc_workloads::EmbeddingCloud;
use meancache::{MeanCache, MeanCacheConfig, SemanticCache};
use proptest::prelude::*;

/// IVF configured to probe *every* cell: approximation disabled, only the
/// partitioning differs from the flat scan.
fn exhaustive_ivf(nlist: usize) -> IndexKind {
    IndexKind::Ivf(IvfConfig {
        nlist,
        nprobe: nlist,
        train_min: 32,
        kmeans_iters: 4,
        ..IvfConfig::default()
    })
}

fn unit_vectors(n: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = mc_tensor::rng::seeded(seed);
    (0..n)
        .map(|_| {
            let mut v = mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng);
            mc_tensor::vector::normalize(&mut v);
            v
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With `nprobe == nlist` the IVF index scans every cell, so its top-k
    /// must equal the flat index's exactly — same ids, same scores — on
    /// arbitrary random unit vectors.
    #[test]
    fn ivf_probing_all_cells_equals_flat_top_k(
        seed in 0u64..10_000,
        dims in 4usize..24,
        n in 64usize..220,
        k in 1usize..8,
    ) {
        let vectors = unit_vectors(n, dims, seed);
        let mut flat = IndexKind::flat().build(dims).unwrap();
        let mut ivf = exhaustive_ivf(5).build(dims).unwrap();
        for (id, v) in vectors.iter().enumerate() {
            flat.add(id as u64, v).unwrap();
            ivf.add(id as u64, v).unwrap();
        }
        for query in unit_vectors(6, dims, seed ^ 0xABCD) {
            let exact = flat.search(&query, k, -1.0).unwrap();
            let approx = ivf.search(&query, k, -1.0).unwrap();
            let exact_ids: Vec<u64> = exact.iter().map(|h| h.id).collect();
            let approx_ids: Vec<u64> = approx.iter().map(|h| h.id).collect();
            prop_assert_eq!(&exact_ids, &approx_ids);
            for (e, a) in exact.iter().zip(&approx) {
                prop_assert_eq!(e.score, a.score, "scores must be bit-identical");
            }
        }
    }

    /// SQ8 quantise → dequantise reconstructs every dimension to within half
    /// a quantisation step (`scale / 2`, the codec's documented bound), on
    /// arbitrary finite inputs.
    #[test]
    fn sq8_round_trip_error_is_within_half_a_step(
        seed in 0u64..10_000,
        dims in 1usize..300,
        magnitude in 0.01f32..100.0,
    ) {
        let mut rng = mc_tensor::rng::seeded(seed);
        let values = mc_tensor::rng::uniform_vec(dims, magnitude, &mut rng);
        let q = QuantizedVec::quantize(&values);
        let back = q.dequantize();
        // Half a step plus float-rounding slack proportional to the data.
        let bound = q.scale * 0.5 + magnitude * 1e-5 + 1e-7;
        for (dim, (orig, rec)) in values.iter().zip(&back).enumerate() {
            prop_assert!(
                (orig - rec).abs() <= bound,
                "dim {} reconstructed {} from {} (scale {})",
                dim, rec, orig, q.scale
            );
        }
    }

    /// On well-separated topic clouds (the shape a trained encoder gives a
    /// real cache), the SQ8 flat index returns the same top-1 entry as the
    /// exact f32 flat index: quantisation noise is far below the
    /// inter-cluster score gaps.
    #[test]
    fn sq8_flat_top1_agrees_with_f32_flat(seed in 0u64..5_000) {
        let dims = 32;
        let cloud = EmbeddingCloud::generate(400, dims, 12, 0.35, seed);
        let mut exact = IndexKind::flat().build(dims).unwrap();
        let mut quantized = IndexKind::flat_sq8().build(dims).unwrap();
        for (id, v) in cloud.vectors.iter().enumerate() {
            exact.add(id as u64, v).unwrap();
            quantized.add(id as u64, v).unwrap();
        }
        for probe in cloud.probes(8, 0.2) {
            let truth = exact.search(&probe, 1, -1.0).unwrap();
            let approx = quantized.search(&probe, 1, -1.0).unwrap();
            prop_assert_eq!(truth[0].id, approx[0].id, "top-1 diverged");
            prop_assert!((truth[0].score - approx[0].score).abs() < 0.05);
        }
    }
}

/// At default `nprobe` (a fraction of the cells) the IVF index must keep
/// recall@5 ≥ 0.9 against the flat ground truth on realistic topic-clustered
/// embeddings with paraphrase-style probes.
#[test]
fn ivf_recall_at_default_nprobe_stays_high() {
    let dims = 32;
    let entries = 10_000;
    let cloud = EmbeddingCloud::generate(entries, dims, entries / 50, 0.6, 4242);
    let mut flat = IndexKind::flat().build(dims).unwrap();
    let mut ivf = IndexKind::ivf().build(dims).unwrap();
    for (id, v) in cloud.vectors.iter().enumerate() {
        flat.add(id as u64, v).unwrap();
        ivf.add(id as u64, v).unwrap();
    }
    let mut hits = 0usize;
    let mut total = 0usize;
    for probe in cloud.probes(100, 0.25) {
        let truth = flat.search(&probe, 5, -1.0).unwrap();
        let approx = ivf.search(&probe, 5, -1.0).unwrap();
        total += truth.len();
        hits += truth
            .iter()
            .filter(|t| approx.iter().any(|a| a.id == t.id))
            .count();
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.9,
        "IVF recall@5 must stay >= 0.9 at default nprobe (got {recall:.3})"
    );
}

/// IVF-SQ8 — cell pruning *and* quantised rows — must still keep recall@5
/// ≥ 0.9 against the exact f32 flat ground truth at 10k entries.
#[test]
fn ivf_sq8_recall_at_default_nprobe_stays_high() {
    let dims = 32;
    let entries = 10_000;
    let cloud = EmbeddingCloud::generate(entries, dims, entries / 50, 0.6, 777);
    let mut flat = IndexKind::flat().build(dims).unwrap();
    let mut ivf_sq8 = IndexKind::ivf_sq8().build(dims).unwrap();
    for (id, v) in cloud.vectors.iter().enumerate() {
        flat.add(id as u64, v).unwrap();
        ivf_sq8.add(id as u64, v).unwrap();
    }
    // SQ8 rows really are quantised: at these 32 dims the whole index is
    // still >2x smaller despite the fixed id/cell-map/centroid overhead on
    // top of the 4x payload saving (at 768 dims the ratio reaches ~3.9x —
    // see exp_index).
    assert!(ivf_sq8.storage_bytes() * 2 < flat.storage_bytes());
    let mut hits = 0usize;
    let mut total = 0usize;
    for probe in cloud.probes(100, 0.25) {
        let truth = flat.search(&probe, 5, -1.0).unwrap();
        let approx = ivf_sq8.search(&probe, 5, -1.0).unwrap();
        total += truth.len();
        hits += truth
            .iter()
            .filter(|t| approx.iter().any(|a| a.id == t.id))
            .count();
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.9,
        "IVF-SQ8 recall@5 must stay >= 0.9 at default nprobe (got {recall:.3})"
    );
}

/// `remove` keeps both backends consistent: removed ids are gone, the rest
/// are still found exactly, and `len`/`contains` agree between backends.
#[test]
fn removals_keep_both_backends_consistent() {
    let dims = 16;
    let vectors = unit_vectors(600, dims, 99);
    let mut flat = IndexKind::flat().build(dims).unwrap();
    let mut ivf = IndexKind::Ivf(IvfConfig {
        nlist: 8,
        nprobe: 8,
        train_min: 64,
        ..IvfConfig::default()
    })
    .build(dims)
    .unwrap();
    for (id, v) in vectors.iter().enumerate() {
        flat.add(id as u64, v).unwrap();
        ivf.add(id as u64, v).unwrap();
    }
    // Remove a third of the entries, interleaved.
    for id in (0..600u64).step_by(3) {
        flat.remove(id).unwrap();
        ivf.remove(id).unwrap();
    }
    assert_eq!(flat.len(), ivf.len());
    for id in 0..600u64 {
        assert_eq!(flat.contains(id), ivf.contains(id), "id {id} diverged");
    }
    // Every surviving vector still finds itself as its own nearest
    // neighbour in both backends.
    for (id, v) in vectors.iter().enumerate().skip(1).step_by(7) {
        if !flat.contains(id as u64) {
            continue;
        }
        let flat_best = flat.best_match(v, 0.99).unwrap().unwrap();
        let ivf_best = ivf.best_match(v, 0.99).unwrap().unwrap();
        assert_eq!(flat_best.id, id as u64);
        assert_eq!(ivf_best.id, id as u64);
    }
    // Double-removal errors on both.
    assert!(flat.remove(0).is_err());
    assert!(ivf.remove(0).is_err());
}

/// `MeanCacheConfig::index` selects the backend, and a full cache lifecycle
/// (insert → hit → evict under capacity pressure) works identically through
/// both.
#[test]
fn meancache_config_selects_and_exercises_both_backends() {
    for kind in [IndexKind::flat(), IndexKind::ivf()] {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 3).unwrap();
        let mut cache = MeanCache::new(
            encoder,
            MeanCacheConfig {
                capacity: 40,
                ..MeanCacheConfig::default().with_threshold(0.6)
            }
            .with_index(kind.clone()),
        )
        .unwrap();
        assert_eq!(cache.index_kind(), kind.name());

        for i in 0..120 {
            cache
                .insert(
                    &format!("synthetic topic {i} question about subject {}", i % 37),
                    &format!("answer {i}"),
                    &[],
                )
                .unwrap();
        }
        // Eviction respected capacity and the index stayed in sync with the
        // store: an exact re-probe of a live entry must hit it.
        assert_eq!(cache.len(), 40, "backend {}", kind.name());
        let live_query = cache
            .entries()
            .next()
            .expect("cache is non-empty")
            .query
            .clone();
        let outcome = cache.lookup(&live_query, &[]);
        let hit = outcome
            .hit()
            .unwrap_or_else(|| panic!("exact probe of a live entry must hit ({})", kind.name()));
        assert!(hit.score > 0.99);
        assert!(cache.index_bytes() > 0);
    }
}
