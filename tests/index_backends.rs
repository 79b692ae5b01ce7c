//! Integration tests of the vector-index seam: removal consistency under
//! both row codecs, codec selection through `MeanCacheConfig::index`, and
//! the SQ8 row codec (round-trip error bound, top-1 agreement with the exact
//! scan, resident bytes).

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_store::{IndexKind, VectorIndex};
use mc_tensor::quant::QuantizedVec;
use mc_workloads::EmbeddingCloud;
use meancache::{MeanCache, MeanCacheConfig, SemanticCache};
use proptest::prelude::*;

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
        // SQ8 rows really are quantised: at these 32 dims the whole index
        // is > 2x smaller despite the fixed per-row id and constants (at
        // 768 dims the ratio reaches ~3.9x — see exp_index).
        prop_assert!(quantized.storage_bytes() * 2 < exact.storage_bytes());
        for probe in cloud.probes(8, 0.2) {
            let truth = exact.search(&probe, 1, -1.0).unwrap();
            let approx = quantized.search(&probe, 1, -1.0).unwrap();
            prop_assert_eq!(truth[0].id, approx[0].id, "top-1 diverged");
            prop_assert!((truth[0].score - approx[0].score).abs() < 0.05);
        }
    }
}

/// `remove` keeps both codecs consistent: removed ids are gone, the rest
/// are still found exactly, and `len`/`contains` agree between them.
#[test]
fn removals_keep_both_backends_consistent() {
    let dims = 16;
    let vectors = unit_vectors(600, dims, 99);
    let mut flat = IndexKind::flat().build(dims).unwrap();
    let mut sq8 = IndexKind::flat_sq8().build(dims).unwrap();
    for (id, v) in vectors.iter().enumerate() {
        flat.add(id as u64, v).unwrap();
        sq8.add(id as u64, v).unwrap();
    }
    // Remove a third of the entries, interleaved.
    for id in (0..600u64).step_by(3) {
        flat.remove(id).unwrap();
        sq8.remove(id).unwrap();
    }
    assert_eq!(flat.len(), sq8.len());
    for id in 0..600u64 {
        assert_eq!(flat.contains(id), sq8.contains(id), "id {id} diverged");
    }
    // Every surviving vector still finds itself as its own nearest
    // neighbour under both codecs.
    for (id, v) in vectors.iter().enumerate().skip(1).step_by(7) {
        if !flat.contains(id as u64) {
            continue;
        }
        let flat_best = flat.best_match(v, 0.99).unwrap().unwrap();
        let sq8_best = sq8.best_match(v, 0.99).unwrap().unwrap();
        assert_eq!(flat_best.id, id as u64);
        assert_eq!(sq8_best.id, id as u64);
    }
    // Double-removal errors on both.
    assert!(flat.remove(0).is_err());
    assert!(sq8.remove(0).is_err());
}

/// `MeanCacheConfig::index` selects the row codec, and a full cache
/// lifecycle (insert → hit → evict under capacity pressure) works
/// identically through both.
#[test]
fn meancache_config_selects_and_exercises_both_backends() {
    for kind in [IndexKind::flat(), IndexKind::flat_sq8()] {
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
