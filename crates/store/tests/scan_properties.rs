//! Properties of the fused index scan (`RowStore::scan` and everything built
//! on it), against the two-pass reference it replaced: score every row with
//! the single-row kernel, then `ops::top_k`, then the `min_score` cut.
//!
//! Equality is on score *bits*, so the same comparison proves the scan-shape
//! invariant: a row scores identically through `vector::dot` /
//! `dot_u8_asym` (row), a whole-store scan, a tiled split scan (parallel), a
//! `search_batch`, and an IVF posting list.

use mc_store::{FlatIndex, IvfConfig, IvfIndex, Quantization, SearchHit, VectorIndex};
use mc_tensor::quant::QuantizedVec;
use mc_tensor::{ops, vector};
use proptest::prelude::*;

const CODECS: [Quantization; 2] = [Quantization::F32, Quantization::Sq8];

/// `n` rows of `dims` floats: mostly random unit vectors, with duplicates
/// (exact score ties), over-long rows (scores clamp to exactly ±1, more
/// ties) and — when `nans` — rows holding a NaN (NaN scores).
fn corpus(n: usize, dims: usize, seed: u64, nans: bool) -> Vec<Vec<f32>> {
    let mut rng = mc_tensor::rng::seeded(seed);
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng);
        vector::normalize(&mut row);
        match i % 7 {
            2 if i >= 2 => row = rows[i - 2].clone(),
            4 => row.iter_mut().for_each(|v| *v *= 3.0),
            5 if nans => row[i % dims] = f32::NAN,
            _ => {}
        }
        rows.push(row);
    }
    rows
}

/// One row's score through the single-row kernel, as the index stores it.
fn row_score(codec: Quantization, query: &[f32], row: &[f32]) -> f32 {
    let raw = match codec {
        Quantization::F32 => vector::dot(query, row),
        Quantization::Sq8 => {
            let q = QuantizedVec::quantize(row);
            vector::dot_u8_asym(query, &q.codes, q.scale, q.min, vector::sum(query))
        }
    };
    raw.clamp(-1.0, 1.0)
}

/// The two-pass reference: all scores, `ops::top_k`, then the cut. Ids are
/// row positions (the tests insert ids `0..n` in order and never remove).
fn reference(
    codec: Quantization,
    rows: &[Vec<f32>],
    query: &[f32],
    k: usize,
    min_score: f32,
) -> Vec<(u64, u32)> {
    let scores: Vec<f32> = rows
        .iter()
        .map(|row| row_score(codec, query, row))
        .collect();
    ops::top_k(&scores, k)
        .into_iter()
        .filter(|(_, score)| *score >= min_score)
        .map(|(row, score)| (row as u64, score.to_bits()))
        .collect()
}

fn bits(hits: &[SearchHit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

fn flat(dims: usize, threshold: usize, codec: Quantization, rows: &[Vec<f32>]) -> FlatIndex {
    let mut index = FlatIndex::with_options(dims, threshold, codec).unwrap();
    for (id, row) in rows.iter().enumerate() {
        index.add(id as u64, row).unwrap();
    }
    index
}

fn ivf(dims: usize, config: IvfConfig, rows: &[Vec<f32>]) -> IvfIndex {
    let mut index = IvfIndex::new(dims, config).unwrap();
    for (id, row) in rows.iter().enumerate() {
        index.add(id as u64, row).unwrap();
    }
    index
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused top-k == reference top-k, for every scan shape, including ties,
    /// NaN scores, `k > len`, and every kind of `min_score`.
    #[test]
    fn fused_top_k_equals_the_two_pass_reference(
        seed in 0u64..1_000_000,
        dims in 1usize..40,
        n in 0usize..160,
        k in 0usize..200,
        cut_kind in 0u8..4,
        cut in -1.0f32..1.0,
    ) {
        let min_score = match cut_kind {
            0 => f32::NEG_INFINITY,
            1 => f32::NAN,
            _ => cut,
        };
        for codec in CODECS {
            // NaN rows only under f32: SQ8 cannot encode a NaN.
            let rows = corpus(n, dims, seed, codec == Quantization::F32);
            let mut rng = mc_tensor::rng::seeded(seed ^ 0xABCD);
            let mut query = mc_tensor::rng::uniform_vec(dims, 1.0, &mut rng);
            vector::normalize(&mut query);
            let expect = reference(codec, &rows, &query, k, min_score);

            let sequential = flat(dims, usize::MAX, codec, &rows);
            let split = flat(dims, 1, codec, &rows);
            prop_assert_eq!(&bits(&sequential.search(&query, k, min_score).unwrap()), &expect);
            prop_assert_eq!(&bits(&split.search(&query, k, min_score).unwrap()), &expect);
            // Eight queries take `search_batch`'s cross-query path.
            let batch = [query.as_slice(); 8];
            for hits in split.search_batch(&batch, k, min_score).unwrap() {
                prop_assert_eq!(&bits(&hits), &expect);
            }

            // An untrained IVF index is one posting list: same keys, same hits.
            let untrained = IvfConfig { train_min: usize::MAX, quantization: codec, ..IvfConfig::default() };
            let one_list = ivf(dims, untrained, &rows);
            prop_assert_eq!(&bits(&one_list.search(&query, k, min_score).unwrap()), &expect);

            // A trained index probing every cell holds the same rows in other
            // lists: ties may order differently, scores may not differ at all.
            let exhaustive = IvfConfig {
                nlist: 4, nprobe: 4, train_min: 16, kmeans_iters: 2, quantization: codec,
                ..IvfConfig::default()
            };
            let lists = ivf(dims, exhaustive, &rows);
            let hits = lists.search(&query, k, min_score).unwrap();
            let scores: Vec<u32> = hits.iter().map(|h| h.score.to_bits()).collect();
            let expect_scores: Vec<u32> = expect.iter().map(|&(_, s)| s).collect();
            prop_assert_eq!(scores, expect_scores);
            for hit in &hits {
                let alone = row_score(codec, &query, &rows[hit.id as usize]);
                prop_assert_eq!(hit.score.to_bits(), alone.to_bits(), "id {}", hit.id);
            }
            let batched = lists.search_batch(&[query.as_slice(); 3], k, min_score).unwrap();
            prop_assert!(batched.iter().all(|b| b == &hits));
        }
    }
}

/// Enough rows for the split scan to run on more than one pool thread (four
/// tiles and up), with a tie straddling a tile boundary.
#[test]
fn multi_tile_split_scan_matches_sequential_and_reference() {
    let (dims, n) = (8, 4_200);
    for codec in CODECS {
        let mut rows = corpus(n, dims, 77, false);
        rows[1_030] = rows[1_020].clone();
        let sequential = flat(dims, usize::MAX, codec, &rows);
        let split = flat(dims, 1, codec, &rows);
        for probe in [0usize, 1_020, 2_047, 4_199] {
            let mut query = rows[probe].clone();
            vector::normalize(&mut query);
            for (k, min_score) in [(1, 0.5), (6, -1.0), (40, 0.9), (5_000, 0.99)] {
                let expect = reference(codec, &rows, &query, k, min_score);
                assert_eq!(
                    bits(&sequential.search(&query, k, min_score).unwrap()),
                    expect
                );
                assert_eq!(bits(&split.search(&query, k, min_score).unwrap()), expect);
            }
        }
    }
}
