//! Byte-level pin of the persisted files, and proof that a save written by
//! the previous build still loads through the snapshot state.
//!
//! Two fixed tiny-profile caches — flat `f32` under hash routing, flat SQ8
//! under centroid routing, each with one contextual chain — are saved and
//! every `P.shard{i}` / `P.shard{i}.snap` checksummed. The constants were
//! recorded on the commit before the append-side entry store was retired
//! (PR 23), under both kernel implementations of `mc_tensor::kernels` — they
//! write the same bytes; `tests/fixtures/pr23_save/` is what that commit's
//! build wrote for the same two caches.

use std::path::{Path, PathBuf};

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_store::IndexKind;
use meancache::persist::{load_sharded_cache_with_report, save_sharded_cache_with_config};
use meancache::{MeanCacheConfig, RoutingMode, SemanticCache, ShardedCache};

const SHARDS: usize = 2;
const ROOTS: usize = 8;
const FOLLOW_UP: &str = "and what about its second part";

fn scratch_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "mc_persistence_bytes_{tag}_{}_{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn root(i: usize) -> String {
    format!("pinned save topic number {i} with its own words")
}

/// The two pinned caches, by fixture directory name.
fn pinned_caches() -> [(&'static str, ShardedCache); 2] {
    [
        ("f32_hash", build(IndexKind::flat(), RoutingMode::Hash)),
        (
            "sq8_centroid",
            build(IndexKind::flat_sq8(), RoutingMode::Centroid),
        ),
    ]
}

fn build(index: IndexKind, routing: RoutingMode) -> ShardedCache {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
    let config = MeanCacheConfig::default()
        .with_threshold(0.7)
        .with_shards(SHARDS)
        .with_index(index)
        .with_routing(routing);
    let mut cache = ShardedCache::new(encoder, config).unwrap();
    let roots: Vec<String> = (0..ROOTS).map(root).collect();
    if routing == RoutingMode::Centroid {
        cache.seed_centroids_from_texts(&roots).unwrap();
    }
    for (i, root) in roots.iter().enumerate() {
        cache
            .insert(root, &format!("pinned response {i}"), &[])
            .unwrap();
    }
    cache
        .insert(FOLLOW_UP, "pinned follow-up", &[roots[3].clone()])
        .unwrap();
    cache
}

/// Every stored root, the follow-up under its own and under a foreign
/// conversation, and three queries nothing stored resembles: each is far
/// from τ, so the decision does not depend on the last ulp of a score.
fn decisions(cache: &ShardedCache) -> Vec<Option<String>> {
    let mut probes: Vec<(String, Vec<String>)> = (0..ROOTS).map(|i| (root(i), vec![])).collect();
    probes.push((FOLLOW_UP.to_string(), vec![root(3)]));
    probes.push((
        FOLLOW_UP.to_string(),
        vec!["write a short poem about the sea".to_string()],
    ));
    for i in 0..3 {
        probes.push((format!("zzqx novel probe {i} matching nothing"), vec![]));
    }
    probes
        .iter()
        .map(|(query, context)| {
            cache
                .probe(query, context)
                .hit()
                .map(|hit| hit.response.clone())
        })
        .collect()
}

fn shard_files(base: &Path) -> Vec<PathBuf> {
    (0..SHARDS)
        .flat_map(|shard| {
            let log = format!("{}.shard{shard}", base.display());
            [PathBuf::from(&log), PathBuf::from(format!("{log}.snap"))]
        })
        .collect()
}

#[test]
fn saved_files_are_pinned_byte_for_byte() {
    // shard0, shard0.snap, shard1, shard1.snap of each pinned cache.
    let expected: [[u64; 4]; 2] = [
        [
            0xf43f_5e85_a04f_d533,
            0xbfb4_b695_c14b_4660,
            0xc728_fa09_1e60_2575,
            0x01e3_d83f_64c5_155e,
        ],
        [
            0xaf49_91d5_3976_036b,
            0x26be_7961_e188_104f,
            0x3220_75c0_5b19_26b1,
            0xbe5e_488d_0199_eaf9,
        ],
    ];
    let dir = scratch_dir("pin");
    for ((name, cache), expected) in pinned_caches().iter().zip(expected) {
        let base = dir.join(name).join("cache.log");
        save_sharded_cache_with_config(cache, &base).unwrap();
        let got: Vec<u64> = shard_files(&base)
            .iter()
            .map(|file| fnv1a(&std::fs::read(file).unwrap()))
            .collect();
        assert_eq!(
            got, expected,
            "{name}: a persisted byte moved (shard0, shard0.snap, shard1, shard1.snap): {got:#x?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_save_written_by_the_previous_build_loads_through_the_snapshot_state() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr23_save");
    let dir = scratch_dir("parent_save");
    for (name, fresh) in pinned_caches() {
        // Load a copy: a load may write (a replayed shard gets a snapshot).
        let copy = dir.join(name);
        std::fs::create_dir_all(&copy).unwrap();
        for file in std::fs::read_dir(fixtures.join(name)).unwrap() {
            let file = file.unwrap();
            std::fs::copy(file.path(), copy.join(file.file_name())).unwrap();
        }
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        let (loaded, report) =
            load_sharded_cache_with_report(encoder, &copy.join("cache.log")).unwrap();
        assert_eq!(report.snapshot_loaded, SHARDS as u64, "{name}");
        assert_eq!(report.records_replayed, 0, "{name}");
        assert_eq!(loaded.len(), ROOTS + 1, "{name}");
        assert_eq!(loaded.routing(), fresh.routing(), "{name}");
        assert_eq!(loaded.root_pin_count(), fresh.root_pin_count(), "{name}");
        let got = decisions(&loaded);
        assert_eq!(got, decisions(&fresh), "{name}");
        assert!(got[..=ROOTS].iter().all(Option::is_some), "{name}: {got:?}");
        assert!(
            got[ROOTS + 1..].iter().all(Option::is_none),
            "{name}: {got:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
