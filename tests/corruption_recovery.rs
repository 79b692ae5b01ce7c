//! Corruption-recovery properties for the persistence layer.
//!
//! The durability contract: reading an entry log — any entry log, however
//! mangled — must either recover a checksum-valid **prefix** of what was
//! written or fail with a clean [`StoreError`]; it must never panic and
//! never surface a corrupted entry. These tests attack a pristine save two
//! ways (single byte flips at arbitrary offsets, truncation at arbitrary
//! and at *every* offset) and check both the raw [`read_entry_log`] layer
//! and the full sharded-cache load path on top of it.
//!
//! The `MCSNAP01` snapshot sidecar (see `docs/FORMAT.md`) extends the
//! contract rather than weakening it: snapshots are an *accelerator*, so a
//! mangled or version-bumped snapshot over a pristine log must cost only
//! restore speed — the load falls back to replay and recovers everything —
//! and a log that is no longer the dump its snapshot was written with must
//! restore by replay, exactly like a cache that never had a snapshot.

use std::path::PathBuf;
use std::sync::OnceLock;

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_store::wal::{crc32, frame_record};
use mc_store::{read_entry_log, write_compacted_log, CacheEntry, StoreError};
use mc_tensor::Vector;
use meancache::persist::{
    load_cache_with_report, load_sharded_cache_with_report, save_cache,
    save_sharded_cache_with_config, snapshot_path,
};
use meancache::{CacheError, MeanCache, MeanCacheConfig, SemanticCache, ShardedCache};
use proptest::prelude::*;

const SHARDS: usize = 2;
const ENTRIES: usize = 12;

fn scratch_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "mc_corruption_{tag}_{}_{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn shard_log_name(shard: usize) -> String {
    format!("cache.log.shard{shard}")
}

/// A pristine sharded save, captured once: the on-disk bytes of every
/// sidecar/log/snapshot plus the decoded per-shard entries (in log order)
/// to compare recovered state against.
struct Fixture {
    encoder: QueryEncoder,
    config: MeanCacheConfig,
    sidecar: Vec<u8>,
    shard_logs: Vec<Vec<u8>>,
    shard_snaps: Vec<Vec<u8>>,
    shard_entries: Vec<Vec<CacheEntry>>,
    responses: Vec<String>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        let config = MeanCacheConfig::default()
            .with_threshold(0.7)
            .with_shards(SHARDS);
        let mut cache = ShardedCache::new(encoder.clone(), config.clone()).unwrap();
        let mut responses = Vec::new();
        for i in 0..ENTRIES {
            let query = format!("corruption fixture topic number {i} with unique words");
            let response = format!("pristine stored response {i}");
            cache.insert(&query, &response, &[]).unwrap();
            responses.push(response);
        }
        let dir = scratch_dir("fixture");
        let base = dir.join("cache.log");
        save_sharded_cache_with_config(&cache, &base).unwrap();

        let sidecar = std::fs::read(dir.join("cache.log.config.json")).unwrap();
        let mut shard_logs = Vec::new();
        let mut shard_snaps = Vec::new();
        let mut shard_entries = Vec::new();
        for shard in 0..SHARDS {
            let path = dir.join(shard_log_name(shard));
            shard_logs.push(std::fs::read(&path).unwrap());
            shard_snaps.push(std::fs::read(snapshot_path(&path)).unwrap());
            shard_entries.push(read_entry_log(&path).unwrap().0);
        }
        std::fs::remove_dir_all(&dir).ok();
        Fixture {
            encoder,
            config,
            sidecar,
            shard_logs,
            shard_snaps,
            shard_entries,
            responses,
        }
    })
}

/// Writes a full copy of the save (sidecar, logs, snapshots) into a fresh
/// scratch dir, with one shard's log and/or snapshot bytes replaced.
/// Returns (dir, base path).
fn materialize_with(
    tag: &str,
    fx: &Fixture,
    shard: usize,
    log: Option<&[u8]>,
    snap: Option<&[u8]>,
) -> (PathBuf, PathBuf) {
    let dir = scratch_dir(tag);
    std::fs::write(dir.join("cache.log.config.json"), &fx.sidecar).unwrap();
    for (i, pristine) in fx.shard_logs.iter().enumerate() {
        let path = dir.join(shard_log_name(i));
        let log_bytes: &[u8] = match log {
            Some(mutated) if i == shard => mutated,
            _ => pristine,
        };
        let snap_bytes: &[u8] = match snap {
            Some(mutated) if i == shard => mutated,
            _ => &fx.shard_snaps[i],
        };
        std::fs::write(&path, log_bytes).unwrap();
        std::fs::write(snapshot_path(&path), snap_bytes).unwrap();
    }
    let base = dir.join("cache.log");
    (dir, base)
}

/// [`materialize_with`] for the log-mangling tests: one shard's log bytes
/// replaced by `mutated`, every snapshot left pristine (the fingerprint
/// mismatch then forces those shards back onto replay).
fn materialize(tag: &str, fx: &Fixture, shard: usize, mutated: &[u8]) -> (PathBuf, PathBuf) {
    materialize_with(tag, fx, shard, Some(mutated), None)
}

/// Recovered entries must be an exact byte-level prefix of what the
/// pristine log held — same ids, same contents, nothing reordered or
/// mutated.
fn assert_prefix_of_pristine(recovered: &[CacheEntry], pristine: &[CacheEntry]) {
    assert!(
        recovered.len() <= pristine.len(),
        "recovered more entries than were written"
    );
    for (got, want) in recovered.iter().zip(pristine) {
        assert_eq!(got, want, "recovered entry diverges from the pristine log");
    }
}

/// Every hit a loaded cache serves must carry a response string that was
/// actually stored — a mangled log may lose entries, never invent them.
fn assert_no_garbage_served(cache: &ShardedCache, fx: &Fixture) {
    for i in 0..ENTRIES {
        let query = format!("corruption fixture topic number {i} with unique words");
        if let Some(hit) = cache.probe(&query, &[]).hit() {
            assert!(
                fx.responses.contains(&hit.response),
                "loaded cache served a response that was never stored: {:?}",
                hit.response
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single flipped byte anywhere in a shard log: the raw read recovers
    /// a checksum-valid prefix or fails cleanly, and the sharded load on top
    /// never panics and never serves garbage.
    #[test]
    fn flipped_byte_recovers_prefix_or_fails_cleanly(
        shard in 0usize..SHARDS,
        frac in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let fx = fixture();
        let mut bytes = fx.shard_logs[shard].clone();
        let offset = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[offset] ^= mask;

        let (dir, base) = materialize("flip", fx, shard, &bytes);
        match read_entry_log(&dir.join(shard_log_name(shard))) {
            Ok((entries, _)) => assert_prefix_of_pristine(&entries, &fx.shard_entries[shard]),
            Err(StoreError::Corrupt(_)) => {}
            Err(other) => panic!("byte flip must not produce {other:?}"),
        }
        // The full load path must also hold the line: a clean error or a
        // cache that only ever serves stored responses.
        if let Ok((cache, _)) = load_sharded_cache_with_report(fx.encoder.clone(), &base) {
            assert_no_garbage_served(&cache, fx);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncation at an arbitrary offset is always recoverable: the valid
    /// prefix loads, the torn tail is dropped and reported.
    #[test]
    fn truncation_always_recovers_the_valid_prefix(
        shard in 0usize..SHARDS,
        frac in 0.0f64..1.0,
    ) {
        let fx = fixture();
        let full = &fx.shard_logs[shard];
        let cut = ((frac * full.len() as f64) as usize).min(full.len() - 1);
        let bytes = &full[..cut];

        let (dir, base) = materialize("cut", fx, shard, bytes);
        let (entries, stats) = read_entry_log(&dir.join(shard_log_name(shard)))
            .expect("a truncated log is a torn tail, never a hard error");
        assert_prefix_of_pristine(&entries, &fx.shard_entries[shard]);
        prop_assert!(
            stats.bytes_truncated <= cut as u64,
            "cannot drop more bytes than the file held"
        );
        if let Ok((cache, _)) = load_sharded_cache_with_report(fx.encoder.clone(), &base) {
            assert_no_garbage_served(&cache, fx);
            prop_assert!(SemanticCache::len(&cache) <= ENTRIES);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single flipped byte anywhere in a shard's `MCSNAP01` snapshot:
    /// the raw loader either fails with a clean `Corrupt` or — when the
    /// flip lands in alignment padding no checksum covers — decodes
    /// exactly the saved entries; it never surfaces mutated content. The
    /// sharded load on top must recover *everything*, because the logs are
    /// pristine and snapshots are only an accelerator.
    #[test]
    fn flipped_snapshot_byte_never_serves_garbage(
        shard in 0usize..SHARDS,
        frac in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let fx = fixture();
        let mut snap = fx.shard_snaps[shard].clone();
        let offset = ((frac * snap.len() as f64) as usize).min(snap.len() - 1);
        snap[offset] ^= mask;

        let (dir, base) = materialize_with("snapflip", fx, shard, None, Some(&snap));
        let snap_file = snapshot_path(&dir.join(shard_log_name(shard)));
        match mc_store::load_snapshot(&snap_file, &fx.config.index) {
            Ok(restored) => {
                prop_assert_eq!(restored.entries.len(), fx.shard_entries[shard].len());
                for entry in &restored.entries {
                    prop_assert!(
                        fx.shard_entries[shard].iter().any(|p| {
                            p.id == entry.id
                                && p.query == entry.query
                                && p.response == entry.response
                        }),
                        "snapshot decoded an entry that was never saved"
                    );
                }
            }
            Err(StoreError::Corrupt(_)) => {}
            Err(other) => panic!("snapshot byte flip must not produce {other:?}"),
        }
        let (cache, _) = load_sharded_cache_with_report(fx.encoder.clone(), &base)
            .expect("pristine logs must load regardless of snapshot damage");
        prop_assert_eq!(SemanticCache::len(&cache), ENTRIES);
        assert_no_garbage_served(&cache, fx);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Rewrites the backend tag of a snapshot's `INDEX_META` section (kind 4)
/// and re-seals the section, table and header checksums (`docs/FORMAT.md`),
/// so the tag is the only thing wrong with the file.
fn retag_snapshot_backend(snap: &mut [u8], tag: u32) {
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let table_end = 64 + u64_at(snap, 8) as usize * 32;
    let entry = (64..table_end)
        .step_by(32)
        .find(|&base| u32_at(snap, base) == 4)
        .expect("snapshot has an INDEX_META section");
    let (offset, len) = (
        u64_at(snap, entry + 8) as usize,
        u64_at(snap, entry + 16) as usize,
    );
    snap[offset..offset + 4].copy_from_slice(&tag.to_le_bytes());
    let crc = crc32(&snap[offset..offset + len]);
    snap[entry + 24..entry + 28].copy_from_slice(&crc.to_le_bytes());
    let crc = crc32(&snap[64..table_end]);
    snap[40..44].copy_from_slice(&crc.to_le_bytes());
    let crc = crc32(&snap[..60]);
    snap[60..64].copy_from_slice(&crc.to_le_bytes());
}

/// A snapshot this build cannot read must be rejected with a clean,
/// explicit error by the raw loader — and the full load must shrug it off,
/// replay that shard's log, answer exactly like the pristine save, and
/// (with snapshots enabled) rewrite the snapshot in a form this build
/// reads. Two such snapshots: one written by a future format revision
/// (`MCSNAP02`), and one whose backend tag is 1, the inverted-file (IVF)
/// index earlier builds could save. A config sidecar naming that index is
/// not an accelerator: the load fails with an error naming it.
#[test]
fn unreadable_snapshot_or_sidecar_is_refused_cleanly() {
    let fx = fixture();
    let (dir, base) = materialize_with("pristine", fx, 0, None, None);
    let (pristine, report) = load_sharded_cache_with_report(fx.encoder.clone(), &base).unwrap();
    assert_eq!(report.snapshot_loaded, SHARDS as u64);
    assert_eq!(report.records_replayed, 0);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        &fx.shard_snaps[0][..8],
        b"MCSNAP01",
        "fixture snapshot magic"
    );
    let mut future = fx.shard_snaps[0].clone();
    future[7] = b'2';
    let mut retired = fx.shard_snaps[0].clone();
    retag_snapshot_backend(&mut retired, 1);
    for (snap, expect) in [
        (future, "unsupported snapshot version"),
        (retired, "retired IVF index backend"),
    ] {
        let (dir, base) = materialize_with("unreadable", fx, 0, None, Some(&snap));
        let snap_file = snapshot_path(&dir.join(shard_log_name(0)));
        match mc_store::load_snapshot(&snap_file, &fx.config.index) {
            Err(StoreError::Corrupt(msg)) => assert!(
                msg.contains(expect),
                "the rejection must say `{expect}`, got: {msg}"
            ),
            other => panic!("`{expect}` must be rejected, got {other:?}"),
        }

        let (cache, report) = load_sharded_cache_with_report(fx.encoder.clone(), &base)
            .expect("replay fallback must absorb an unreadable snapshot");
        assert_eq!(SemanticCache::len(&cache), ENTRIES);
        assert_eq!(
            report.snapshot_loaded,
            SHARDS as u64 - 1,
            "only the unreadable shard may fall back to replay"
        );
        assert_eq!(
            report.records_replayed,
            fx.shard_entries[0].len() as u64 + 1,
            "the unreadable shard's log is replayed whole: every insert and the footer"
        );
        for i in 0..ENTRIES + 4 {
            let query = format!("corruption fixture topic number {i} with unique words");
            assert_eq!(
                cache.probe(&query, &[]),
                pristine.probe(&query, &[]),
                "`{expect}` diverged on {query}"
            );
        }
        // The migration pass rewrites the rejected snapshot readably.
        assert!(mc_store::load_snapshot(&snap_file, &fx.config.index).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    let sidecar = String::from_utf8(fx.sidecar.clone()).unwrap();
    let start = sidecar
        .find(r#"{"Flat":"#)
        .expect("sidecar names the index");
    let end = start + sidecar[start..].find("}}").unwrap() + 2;
    let retired = format!(
        r#"{}{{"Ivf":{{"nlist":0,"nprobe":8,"train_min":256}}}}{}"#,
        &sidecar[..start],
        &sidecar[end..]
    );
    let (dir, base) = materialize_with("retired_sidecar", fx, 0, None, None);
    std::fs::write(dir.join("cache.log.config.json"), retired).unwrap();
    match load_sharded_cache_with_report(fx.encoder.clone(), &base).err() {
        Some(CacheError::InvalidConfig(msg)) => assert!(
            msg.contains("Ivf") && msg.contains("IndexKind"),
            "the error must name the index: {msg}"
        ),
        other => panic!("a sidecar naming the retired index must be refused, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The insert frames of a dump of `entries`: the file minus its 8-byte
/// magic and its 17-byte footer frame.
fn insert_frames_of(entries: &[CacheEntry], scratch: &std::path::Path) -> Vec<u8> {
    write_compacted_log(scratch, entries.iter()).unwrap();
    let dump = std::fs::read(scratch).unwrap();
    dump[8..dump.len() - 17].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two-state property: a log that is no longer the dump its snapshot
    /// was written with — valid records appended, the file rewritten, the
    /// file shortened — restores by full replay, and answers every probe
    /// exactly like the same log loaded with no snapshot beside it.
    #[test]
    fn log_that_left_its_snapshot_restores_by_full_replay(
        base_n in 4usize..20,
        change in 0usize..3,
        extra_n in 1usize..6,
    ) {
        let fx = fixture();
        let dir = scratch_dir("stale");
        let path = dir.join("stale.log");
        let config = MeanCacheConfig {
            capacity: 64,
            ..MeanCacheConfig::default().with_threshold(0.7)
        };
        let template = || MeanCache::new(fx.encoder.clone(), config.clone()).unwrap();

        let mut cache = template();
        let base_query = |i: usize| format!("stale fixture base query {i} about subject {i}");
        for i in 0..base_n {
            cache.insert(&base_query(i), &format!("base response {i}"), &[]).unwrap();
        }
        save_cache(&cache, &path).unwrap();

        let extra_query =
            |t: usize| format!("stale fixture appended probe {t} on an unrelated theme");
        let extra: Vec<CacheEntry> = (0..extra_n)
            .map(|t| {
                let id = (base_n + t) as u64;
                let embedding = fx.encoder.encode(&extra_query(t));
                CacheEntry::new(id, extra_query(t), format!("extra response {t}"), embedding, None, id)
            })
            .collect();
        let mut log = std::fs::read(&path).unwrap();
        match change {
            // Whole, checksum-valid frames after the dump's own footer.
            0 => log.extend(insert_frames_of(&extra, &dir.join("frames.log"))),
            // A different dump under the old snapshot.
            1 => {
                let mut entries = read_entry_log(&path).unwrap().0;
                entries.extend(extra);
                write_compacted_log(&path, entries.iter()).unwrap();
                log = std::fs::read(&path).unwrap();
            }
            // A torn tail.
            _ => log.truncate(log.len() - extra_n * 7),
        }
        std::fs::write(&path, &log).unwrap();

        let (mut beside_snapshot, report) = load_cache_with_report(template(), &path).unwrap();
        prop_assert_eq!(report.snapshot_loaded, 0, "a stale snapshot must not load");
        // Reference: the same log with no snapshot sidecar.
        let replay_path = dir.join("replay.log");
        std::fs::write(&replay_path, &log).unwrap();
        let (mut via_replay, reference) = load_cache_with_report(template(), &replay_path).unwrap();
        prop_assert_eq!(report, reference);

        prop_assert_eq!(SemanticCache::len(&via_replay), SemanticCache::len(&beside_snapshot));
        if change < 2 {
            prop_assert_eq!(SemanticCache::len(&via_replay), base_n + extra_n);
        }
        let probes = (0..base_n)
            .map(base_query)
            .chain((0..extra_n).map(extra_query))
            .chain((0..4).map(|p| format!("novel zzqx probe {p} matching nothing stored")));
        for query in probes {
            prop_assert!(
                via_replay.lookup(&query, &[]) == beside_snapshot.lookup(&query, &[]),
                "diverged on {query}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The retired record kinds: a checksum-valid remove (kind 2) or touch
/// (kind 3) record, at the head or the tail of a log, makes the read fail
/// with `Corrupt` — it is neither applied nor skipped — and the full load
/// fails cleanly with it.
#[test]
fn retired_record_kinds_are_corrupt() {
    let fx = fixture();
    let id = fx.shard_entries[0][0].id.to_le_bytes();
    let touch = [id, 99u64.to_le_bytes(), 5u64.to_le_bytes()].concat();
    for (kind, payload) in [(2u8, &id[..]), (3u8, &touch[..])] {
        let mut frame = Vec::new();
        frame_record(&mut frame, kind, payload);
        let pristine = &fx.shard_logs[0];
        let at_head = [&pristine[..8], &frame[..], &pristine[8..]].concat();
        let at_tail = [&pristine[..], &frame[..]].concat();
        for log in [at_head, at_tail] {
            let (dir, base) = materialize("retired", fx, 0, &log);
            match read_entry_log(&dir.join(shard_log_name(0))) {
                Err(StoreError::Corrupt(_)) => {}
                other => panic!("kind {kind} must be Corrupt, got {other:?}"),
            }
            assert!(load_sharded_cache_with_report(fx.encoder.clone(), &base).is_err());
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Exhaustive sweep: truncate a small single log at **every** byte offset.
/// Uses a hand-built dump (no encoder) so the log stays small enough to read
/// a few thousand times.
#[test]
fn truncation_at_every_offset_recovers_a_prefix() {
    let dir = scratch_dir("sweep");
    let path = dir.join("sweep.log");
    let pristine: Vec<CacheEntry> = (0..6)
        .map(|id| {
            CacheEntry::new(
                id,
                format!("sweep query {id}"),
                format!("sweep response {id}"),
                Vector::from_vec(vec![id as f32, 0.5, -1.0]),
                None,
                id * 10,
            )
        })
        .collect();
    write_compacted_log(&path, pristine.iter()).unwrap();
    let full = std::fs::read(&path).unwrap();
    let victim = dir.join("victim.log");
    for cut in 0..full.len() {
        std::fs::write(&victim, &full[..cut]).unwrap();
        let (recovered, _) = read_entry_log(&victim)
            .unwrap_or_else(|e| panic!("truncation at byte {cut} must recover, got {e}"));
        assert!(
            recovered.len() <= pristine.len(),
            "offset {cut}: more entries than written"
        );
        for (got, want) in recovered.iter().zip(&pristine) {
            assert_eq!(got, want, "offset {cut}: recovered entry diverges");
        }
    }
    // Sanity: the untouched log replays everything.
    std::fs::write(&victim, &full).unwrap();
    assert_eq!(read_entry_log(&victim).unwrap().0, pristine);
    std::fs::remove_dir_all(&dir).ok();
}
