//! Choosing the index's row codec and replaying probes in batch.
//!
//! Run with:
//! ```text
//! cargo run --release --example index_backends
//! ```
//!
//! A MeanCache searches its cached embeddings with an exact flat scan;
//! `MeanCacheConfig::index` selects how that scan stores its rows. The
//! default (`IndexKind::flat()`) keeps exact `f32` rows;
//! `IndexKind::flat_sq8()` keeps one byte per dimension — a quarter of the
//! resident bytes, scores within one quantisation step.

use std::time::Instant;

use mc_store::{IndexKind, VectorIndex};
use mc_workloads::EmbeddingCloud;

fn main() {
    let dims = 64;
    let entries = 50_000;
    println!("building two indexes over {entries} topic-clustered {dims}-d embeddings...\n");
    let cloud = EmbeddingCloud::generate(entries, dims, entries / 50, 0.6, 7);

    // The same knob a cache deployment sets via MeanCacheConfig::index /
    // GptCacheConfig::index.
    let backends = [
        ("flat (f32)", IndexKind::flat()),
        ("flat (sq8)", IndexKind::flat_sq8()),
    ];

    let probes = cloud.probes(200, 0.25);
    let probe_refs: Vec<&[f32]> = probes.iter().map(|p| p.as_slice()).collect();

    let mut exact_top1: Vec<u64> = Vec::new();
    for (label, kind) in backends {
        let mut index = kind.build(dims).expect("valid index config");
        let started = Instant::now();
        for (id, v) in cloud.vectors.iter().enumerate() {
            index.add(id as u64, v).expect("consistent dims");
        }
        let build_s = started.elapsed().as_secs_f64();

        // Batched replay: every probe funnels through one search_batch pass.
        let started = Instant::now();
        let results = index
            .search_batch(&probe_refs, 5, 0.7)
            .expect("search succeeds");
        let per_probe = started.elapsed().as_secs_f64() / probes.len() as f64;

        let top1: Vec<u64> = results
            .iter()
            .map(|hits| hits.first().map_or(u64::MAX, |h| h.id))
            .collect();
        let agreement = if exact_top1.is_empty() {
            exact_top1 = top1;
            1.0
        } else {
            let agree = top1.iter().zip(&exact_top1).filter(|(a, b)| a == b).count();
            agree as f64 / top1.len() as f64
        };

        println!(
            "{label}  build {build_s:>6.2}s   {:>9.1} µs/probe   top-1 agreement vs f32 {:>5.1}%   {:.1} MB",
            per_probe * 1e6,
            agreement * 100.0,
            index.storage_bytes() as f64 / 1e6,
        );
    }
    println!(
        "\nSelect per deployment:\n  MeanCacheConfig::default().with_index(IndexKind::flat_sq8())"
    );
}
