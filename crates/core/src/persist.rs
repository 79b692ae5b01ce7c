//! Persistence of the local cache across application restarts.
//!
//! The paper's implementation keeps the user's cache on disk with the
//! DiskCache library so responses survive restarts. Here a save dumps the
//! cache contents to an `mc-store` entry log
//! ([`mc_store::write_compacted_log`]) and a load reads them back
//! ([`mc_store::read_entry_log`]) into a fresh [`MeanCache`] built around the
//! same encoder. Every persisted file — log, snapshot, JSON sidecar — is
//! replaced whole through [`mc_store::atomic_write`], so a failed or
//! interrupted save leaves the previous one loadable.
//!
//! The entry log is **index-agnostic**: it stores raw `f32` embeddings (the
//! binary layout's `[u32 dims][f32 * dims]` payload), and loading re-inserts
//! them into whatever [`mc_store::VectorIndex`] backend the target cache's
//! configuration selects (an IVF-backed cache re-clusters as it refills).
//! [`save_cache_with_config`] / [`load_cache_with_config`] additionally
//! round-trip the [`MeanCacheConfig`] — including its
//! [`mc_store::IndexKind`], and therefore the row codec
//! ([`mc_store::Quantization`]) — through a JSON sidecar, so a deployment
//! can restore a cache without hard-coding which backend wrote it.
//!
//! **SQ8 caches round-trip with bit-identical codes.** The sidecar restores
//! the SQ8 [`mc_store::IndexKind`]; the raw-`f32` log is the codec's exact
//! input, and `QuantizedVec::quantize` is deterministic, so replaying the
//! log reproduces every row's codes and scale/min constants bit-for-bit
//! (asserted by `sq8_cache_round_trips_with_bit_identical_codes`). Keeping
//! the log at full precision — rather than persisting the codes themselves —
//! also means the store's context-chain embeddings stay exact, and a
//! deployment can flip codecs (or back) on an existing log with nothing but
//! a config change.
//!
//! **Sharded caches** persist as one entry log per shard plus the shared
//! config sidecar ([`save_sharded_cache_with_config`] /
//! [`load_sharded_cache_with_config`]): the sidecar's
//! [`MeanCacheConfig::shards`] and [`MeanCacheConfig::routing`] guarantee a
//! reload reassembles the exact same query → shard assignment. Under
//! [`crate::RoutingMode::Centroid`] the learned routing centroids ride in a
//! third sidecar (`<path>.routing.json`) with their `f32` components stored
//! as raw bit patterns, so reloaded routing is bit-identical to what was
//! saved; the root pin table rides in the per-shard snapshots (and is
//! rebuilt from the logs — which **are** the root → shard assignment —
//! whenever any shard had to fall back to replay).
//!
//! **Snapshots: the fast restart tier.** Every save also writes an
//! `MCSNAP01` snapshot sidecar (`<log>.snap`, see `docs/FORMAT.md` and
//! [`mc_store::snapshot`]) capturing the index arenas and entries in their
//! in-memory layout plus the [`LogFingerprint`] of the entry log written
//! with it. Loading takes one of two states, per log:
//!
//! 1. **Snapshot** — `<log>.snap` exists, every section checksum verifies,
//!    and the log on disk still has the recorded fingerprint (it is the very
//!    dump the snapshot accompanied): `mmap` the arenas and install them
//!    directly (no re-encoding, no re-insertion).
//! 2. **Full replay** — anything else (snapshot missing, corrupt, written
//!    for another tenant, or beside a log that has since been rewritten,
//!    grown or shortened) and the loader silently replays the log from the
//!    start — snapshots are an accelerator, never a correctness dependency.
//!
//! Two states are enough because nothing appends to a log: every file is
//! replaced by rename, so a crash leaves each of them old or new, never a
//! snapshot with later writes stranded behind it.
//!
//! **Resharding.** A save records its shard count and routing mode, and
//! loading with [`load_sharded_cache_with_config`] reproduces them exactly
//! (public-id stability depends on it). To reload under a *different*
//! shard count or [`crate::RoutingMode`], go through
//! [`reshard_saved_cache`], which restores the save faithfully and then
//! replays every entry through fresh routing via [`crate::reshard`]:
//!
//! ```
//! use mc_embedder::{ModelProfile, QueryEncoder};
//! use meancache::persist::{reshard_saved_cache, save_sharded_cache_with_config};
//! use meancache::{MeanCacheConfig, RoutingMode, SemanticCache, ShardedCache};
//!
//! let dir = std::env::temp_dir().join(format!("mc_persist_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("cache.log");
//!
//! let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
//! let config = MeanCacheConfig::default().with_threshold(0.6).with_shards(3);
//! let mut cache = ShardedCache::new(encoder.clone(), config.clone()).unwrap();
//! cache.insert("what is federated learning", "On-device training.", &[]).unwrap();
//! save_sharded_cache_with_config(&cache, &path).unwrap();
//!
//! // Reload as a 2-shard scatter-gather cache: same contents, new routing.
//! let resharded = reshard_saved_cache(
//!     encoder,
//!     &path,
//!     config.with_shards(2).with_routing(RoutingMode::ScatterGather),
//! )
//! .unwrap();
//! assert_eq!(resharded.shard_count(), 2);
//! assert!(resharded.probe("what is federated learning", &[]).is_hit());
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::path::{Path, PathBuf};

use mc_embedder::QueryEncoder;
use mc_store::{CacheEntry, LogFingerprint, RecoveryStats, SnapshotView};
use serde::{Deserialize, Serialize};

use crate::shard::RoutingMode;
use crate::{CacheError, MeanCache, MeanCacheConfig, Result, ShardedCache};

/// Path of the `MCSNAP01` snapshot sidecar for the entry log at `path`
/// (`<path>.snap`). See `docs/FORMAT.md` for the container layout.
pub fn snapshot_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".snap");
    PathBuf::from(name)
}

/// Atomically replaces the entry log at `path` with one dump of every
/// cached entry (a failed save leaves the previous one loadable) and writes
/// the `<path>.snap` zero-copy snapshot the loaders prefer over log replay.
///
/// # Errors
/// Propagates storage/IO failures.
pub fn save_cache(cache: &MeanCache, path: &Path) -> Result<()> {
    save_cache_with_pins(cache, path, &[], None)
}

/// [`save_cache`], additionally persisting `pins` — the shard's slice of
/// the sharded router's root-pin table — into the snapshot so an all-shard
/// snapshot restore can skip the pin rebuild. `tenant` tags the snapshot
/// with its owning tenant (`None` = default tenant, legacy byte-identical).
fn save_cache_with_pins(
    cache: &MeanCache,
    path: &Path,
    pins: &[(u64, u64)],
    tenant: Option<&str>,
) -> Result<()> {
    let mut entries: Vec<&CacheEntry> = cache.entries().collect();
    entries.sort_by_key(|e| e.id);
    let log = mc_store::write_compacted_log(path, entries.into_iter())?;
    write_snapshot_for(cache, path, log, pins, tenant)
}

/// Writes the `<path>.snap` snapshot for a cache whose entry log at `path`
/// has the fingerprint `log`; a loader restores from the snapshot only
/// while the log still has it, and replays the log otherwise.
fn write_snapshot_for(
    cache: &MeanCache,
    path: &Path,
    log: LogFingerprint,
    pins: &[(u64, u64)],
    tenant: Option<&str>,
) -> Result<()> {
    let mut entries: Vec<&CacheEntry> = cache.entries().collect();
    entries.sort_by_key(|e| (e.parent.is_some(), e.id));
    let view = SnapshotView {
        entries,
        index: cache.index(),
        pins,
        wal_len: log.len,
        wal_head_crc: log.head_crc,
        wal_tail_crc: log.tail_crc,
        tenant,
    };
    mc_store::save_snapshot(&snapshot_path(path), &view).map_err(CacheError::from)
}

/// Attempts the fast restore path: load `<path>.snap`, verify the entry
/// log is still the dump the snapshot was written with, and install the
/// result into `cache`. Returns the snapshot's persisted root pins on
/// success and `Ok(None)` — cache untouched — whenever *anything*
/// disqualifies the snapshot (file missing or corrupt, another tenant's,
/// a log with a different fingerprint), so the caller can fall back to
/// full log replay.
///
/// # Errors
/// Only propagates a failure full replay would hit too (index dimension
/// mismatch).
fn try_snapshot_restore(
    cache: &mut MeanCache,
    path: &Path,
    expected_tenant: Option<&str>,
) -> Result<Option<Vec<(u64, u64)>>> {
    let snap = snapshot_path(path);
    if !snap.exists() {
        return Ok(None);
    }
    let Ok(restored) = mc_store::load_snapshot(&snap, &cache.config().index) else {
        return Ok(None);
    };
    // A snapshot tagged for a different tenant (or a tag where none is
    // expected) is another caller's data: fall back to log replay rather
    // than install it. Legacy snapshots carry no tag and load as the
    // default tenant (`expected_tenant == None`).
    if restored.tenant.as_deref() != expected_tenant {
        return Ok(None);
    }
    let recorded = LogFingerprint {
        len: restored.wal_len,
        head_crc: restored.wal_head_crc,
        tail_crc: restored.wal_tail_crc,
    };
    if LogFingerprint::of_file(path).ok() != Some(recorded) {
        return Ok(None);
    }
    cache.install_restored(restored.index, restored.entries)?;
    Ok(Some(restored.pins))
}

/// Loads a previously saved cache from `path` into a fresh [`MeanCache`]
/// configured like `template` (same encoder, same configuration).
///
/// # Errors
/// Propagates storage/IO failures and dimension mismatches (e.g. when the
/// encoder's compression setting changed since the cache was saved).
pub fn load_cache(template: MeanCache, path: &Path) -> Result<MeanCache> {
    Ok(load_cache_with_report(template, path)?.0)
}

/// [`load_cache`], additionally reporting how the cache was restored: via
/// the `<path>.snap` mapped snapshot ([`RecoveryStats::snapshot_loaded`])
/// or, when no valid snapshot exists, by full log replay (checksummed
/// records replayed, torn/corrupt tail bytes dropped).
///
/// # Errors
/// See [`load_cache`].
pub fn load_cache_with_report(
    template: MeanCache,
    path: &Path,
) -> Result<(MeanCache, RecoveryStats)> {
    let mut cache = template;
    if try_snapshot_restore(&mut cache, path, None)?.is_some() {
        let recovery = RecoveryStats {
            snapshot_loaded: 1,
            ..RecoveryStats::default()
        };
        return Ok((cache, recovery));
    }
    let recovery = replay_log_into(&mut cache, path)?;
    Ok((cache, recovery))
}

/// Replays the entry log at `path` into `cache` (parents before children, so
/// a partially read log never leaves a dangling reference), returning the
/// log's crash-recovery stats.
fn replay_log_into(cache: &mut MeanCache, path: &Path) -> Result<RecoveryStats> {
    let (mut entries, recovery) = mc_store::read_entry_log(path)?;
    entries.sort_by_key(|e| (e.parent.is_some(), e.id));
    for entry in entries {
        cache.restore_entry(entry)?;
    }
    Ok(recovery)
}

/// Atomically replaces the JSON sidecar at `path` with `value`.
fn write_json_sidecar(path: &Path, value: &impl Serialize) -> Result<()> {
    let json =
        serde_json::to_string(value).map_err(|e| CacheError::InvalidConfig(e.to_string()))?;
    mc_store::atomic_write(path, &[json.as_bytes()]).map_err(CacheError::from)
}

/// Path of the JSON configuration sidecar for the log at `path`.
fn config_sidecar(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".config.json");
    PathBuf::from(name)
}

/// Saves the cache contents to `path` *and* its [`MeanCacheConfig`] (index
/// backend included) to a `<path>.config.json` sidecar, so the cache can be
/// restored without out-of-band knowledge of how it was configured.
///
/// The sidecar's `shards` field is normalised to `1`: what is being
/// persisted *is* a single unsharded log, even when the `MeanCache` was
/// built from a config whose (ignored) `shards` knob said otherwise — a
/// sidecar claiming more shards than there are logs would make the reload
/// path reject or, worse, misread the save.
///
/// # Errors
/// Propagates storage/IO failures.
pub fn save_cache_with_config(cache: &MeanCache, path: &Path) -> Result<()> {
    save_cache(cache, path)?;
    write_json_sidecar(
        &config_sidecar(path),
        &cache.config().clone().with_shards(1),
    )
}

/// Restores a cache saved by [`save_cache_with_config`]: reads the config
/// sidecar, builds a fresh [`MeanCache`] (with the persisted index backend)
/// around `encoder`, and replays the entry log into it.
///
/// # Errors
/// Propagates storage/IO failures, a missing or malformed sidecar, and
/// dimension mismatches. A sidecar recording more than one shard is
/// rejected: that save has per-shard logs and must go through
/// [`load_sharded_cache_with_config`] — opening the (absent) base-path log
/// here would silently present an empty cache as the loaded result.
pub fn load_cache_with_config(encoder: QueryEncoder, path: &Path) -> Result<MeanCache> {
    let config = read_config_sidecar(path)?;
    if config.effective_shards() > 1 {
        return Err(CacheError::InvalidConfig(format!(
            "cache at {} was saved with {} shards: load it with \
             load_sharded_cache_with_config",
            path.display(),
            config.effective_shards()
        )));
    }
    load_cache(MeanCache::new(encoder, config)?, path)
}

/// Reads and parses the `<path>.config.json` sidecar.
fn read_config_sidecar(path: &Path) -> Result<MeanCacheConfig> {
    let json = std::fs::read_to_string(config_sidecar(path)).map_err(mc_store::StoreError::from)?;
    serde_json::from_str(&json).map_err(|e| CacheError::InvalidConfig(e.to_string()))
}

/// Path of shard `i`'s entry log for the sharded cache rooted at `path`.
fn shard_log_path(path: &Path, shard: usize) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".shard{shard}"));
    PathBuf::from(name)
}

/// Path of the routing-state sidecar (centroids) for the save at `path`.
fn routing_sidecar(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".routing.json");
    PathBuf::from(name)
}

/// On-disk form of the centroid router state. `f32` centroid components
/// are stored as raw bit patterns (`u32`), because routing must survive a
/// save/load cycle *bit-identically* — a decimal round-trip that perturbed
/// one component could silently re-route a query family.
#[derive(Debug, Serialize, Deserialize)]
struct RoutingSidecar {
    /// One centroid per shard, components as `f32::to_bits`.
    centroid_bits: Vec<Vec<u32>>,
    /// Roots absorbed per centroid (the incremental update's schedule).
    counts: Vec<u64>,
}

/// Writes (or removes, when `cache` has no centroids) the routing sidecar.
fn save_routing_sidecar(cache: &ShardedCache, path: &Path) -> Result<()> {
    let (centroids, counts) = cache.centroid_state();
    let sidecar_path = routing_sidecar(path);
    if centroids.is_empty() {
        if sidecar_path.exists() {
            std::fs::remove_file(&sidecar_path).map_err(mc_store::StoreError::from)?;
        }
        return Ok(());
    }
    let sidecar = RoutingSidecar {
        centroid_bits: centroids
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect(),
        counts,
    };
    write_json_sidecar(&sidecar_path, &sidecar)
}

/// Restores the routing sidecar into `cache`, if one exists.
fn load_routing_sidecar(cache: &mut ShardedCache, path: &Path) -> Result<()> {
    let sidecar_path = routing_sidecar(path);
    if !sidecar_path.exists() {
        return Ok(());
    }
    let json = std::fs::read_to_string(&sidecar_path).map_err(mc_store::StoreError::from)?;
    let sidecar: RoutingSidecar =
        serde_json::from_str(&json).map_err(|e| CacheError::InvalidConfig(e.to_string()))?;
    let centroids: Vec<Vec<f32>> = sidecar
        .centroid_bits
        .iter()
        .map(|c| c.iter().map(|&bits| f32::from_bits(bits)).collect())
        .collect();
    cache.restore_centroid_state(centroids, sidecar.counts)
}

/// Persists a [`ShardedCache`]: one entry log per shard
/// (`<path>.shard0`, `<path>.shard1`, …) plus a single
/// `<path>.config.json` sidecar recording the [`MeanCacheConfig`] —
/// including the shard count, which [`load_sharded_cache_with_config`]
/// needs to reassemble the same routing. Stale shard logs beyond the live
/// shard count are removed so a re-save with fewer shards cannot leave
/// orphaned entries behind.
///
/// Shard logs keep **shard-local** entry ids; because routing is a fixed
/// hash of the query/conversation-root text and the shard count is restored
/// from the sidecar, a reload reassembles exactly the same entry → shard
/// assignment and therefore the same public (namespaced) ids.
///
/// # Errors
/// Propagates storage/IO failures.
pub fn save_sharded_cache_with_config(cache: &ShardedCache, path: &Path) -> Result<()> {
    save_sharded_cache_tagged(cache, path, None)
}

/// [`save_sharded_cache_with_config`] with the shard snapshots tagged as
/// belonging to `tenant` (`None` = default tenant; files stay
/// byte-identical to pre-tenancy saves). Loaders verify the tag — see
/// [`load_sharded_cache_tagged`].
///
/// # Errors
/// Propagates storage/IO failures.
pub fn save_sharded_cache_tagged(
    cache: &ShardedCache,
    path: &Path,
    tenant: Option<&str>,
) -> Result<()> {
    for shard in 0..cache.shard_count() {
        // Each shard's snapshot carries the router pins resolving to it, so
        // an all-shard snapshot restore reassembles the full pin table.
        let pins = cache.root_pins_for_shard(shard);
        cache.with_shard(shard, |inner| {
            save_cache_with_pins(inner, &shard_log_path(path, shard), &pins, tenant)
        })?;
    }
    // Clean up logs (and their snapshots) from a previous save with a
    // higher shard count, and a base-path log from a previous *unsharded*
    // save — either would be stale data sitting next to the sidecar about
    // to be written.
    let mut stale = cache.shard_count();
    loop {
        let log = shard_log_path(path, stale);
        let snap = snapshot_path(&log);
        let mut found = false;
        for file in [&log, &snap] {
            if file.exists() {
                std::fs::remove_file(file).map_err(mc_store::StoreError::from)?;
                found = true;
            }
        }
        if !found {
            break;
        }
        stale += 1;
    }
    for file in [path.to_path_buf(), snapshot_path(path)] {
        if file.exists() {
            std::fs::remove_file(&file).map_err(mc_store::StoreError::from)?;
        }
    }
    save_routing_sidecar(cache, path)?;
    write_json_sidecar(&config_sidecar(path), cache.config())
}

/// Restores a cache saved by [`save_sharded_cache_with_config`]: reads the
/// sidecar, builds a fresh [`ShardedCache`] with the persisted shard count
/// around `encoder`, and replays each shard's log into its shard.
///
/// # Errors
/// Propagates storage/IO failures, a missing or malformed sidecar, and
/// dimension mismatches. A missing shard log is an error, not an empty
/// shard: the save path writes every shard's log (empty shards included),
/// so absence means a truncated save or a log written by the *unsharded*
/// [`save_cache_with_config`] — silently loading the survivors would
/// present a partial cache as complete.
pub fn load_sharded_cache_with_config(encoder: QueryEncoder, path: &Path) -> Result<ShardedCache> {
    Ok(load_sharded_cache_with_report(encoder, path)?.0)
}

/// [`load_sharded_cache_with_config`], additionally aggregating the
/// recovery report across every shard: how many shards restored from their
/// mapped snapshot ([`RecoveryStats::snapshot_loaded`]), and the replay
/// stats (records replayed, torn tail bytes dropped) for shards that fell
/// back to full log replay — so callers, the serve layer in particular, can
/// surface exactly how a restart recovered.
///
/// Shards that fell back to log replay (typically a save written before
/// the snapshot tier existed) get their snapshot written as part of the
/// load, so the *second* restart takes the fast path.
///
/// # Errors
/// See [`load_sharded_cache_with_config`].
pub fn load_sharded_cache_with_report(
    encoder: QueryEncoder,
    path: &Path,
) -> Result<(ShardedCache, RecoveryStats)> {
    load_sharded_cache_tagged(encoder, path, None)
}

/// [`load_sharded_cache_with_report`] expecting shard snapshots tagged for
/// `tenant`: a snapshot tagged for a different tenant (or untagged when a
/// tag is expected) is skipped in favour of log replay, so one tenant's
/// snapshot can never be installed as another's. Legacy untagged saves
/// load as the default tenant (`tenant = None`).
///
/// # Errors
/// See [`load_sharded_cache_with_config`].
pub fn load_sharded_cache_tagged(
    encoder: QueryEncoder,
    path: &Path,
    tenant: Option<&str>,
) -> Result<(ShardedCache, RecoveryStats)> {
    let config = read_config_sidecar(path)?;
    let mut cache = ShardedCache::new(encoder, config)?;
    load_routing_sidecar(&mut cache, path)?;
    let mut recovery = RecoveryStats::default();
    let mut pins: Vec<(u64, u64)> = Vec::new();
    let mut replayed_shards: Vec<usize> = Vec::new();
    for shard in 0..cache.shard_count() {
        let log = shard_log_path(path, shard);
        if !log.exists() {
            return Err(CacheError::InvalidConfig(format!(
                "sharded cache at {} is missing shard log {}: the save was \
                 incomplete or written by the unsharded persistence path",
                path.display(),
                log.display()
            )));
        }
        match try_snapshot_restore(cache.shard_cache_mut(shard), &log, tenant)? {
            Some(shard_pins) => {
                recovery.snapshot_loaded += 1;
                pins.extend(shard_pins);
            }
            None => {
                replayed_shards.push(shard);
                recovery.merge(replay_log_into(cache.shard_cache_mut(shard), &log)?);
            }
        }
    }
    if cache.routing() != RoutingMode::Hash {
        if replayed_shards.is_empty() {
            // Every shard restored from its snapshot: the persisted pin
            // slices union back into the exact saved table.
            cache.restore_root_pins(pins);
        } else {
            // The logs are the root → shard assignment; rebuild the pin
            // table so exact repeats and follow-ups keep routing to their
            // entries.
            cache.rebuild_pins();
        }
    }
    // Give replayed shards a snapshot now so the next restart takes the
    // fast path.
    for shard in replayed_shards {
        let log = shard_log_path(path, shard);
        let shard_pins = cache.root_pins_for_shard(shard);
        let fingerprint = LogFingerprint::of_file(&log)?;
        cache.with_shard(shard, |inner| {
            write_snapshot_for(inner, &log, fingerprint, &shard_pins, tenant)
        })?;
    }
    Ok((cache, recovery))
}

/// Restores a save written by [`save_sharded_cache_with_config`] and then
/// replays it through **fresh routing** under `new_config` (a different
/// shard count and/or [`crate::RoutingMode`]) via [`crate::reshard`].
///
/// This is the supported way to change the topology of a persisted cache:
/// loading with the original sidecar keeps public ids stable, so any change
/// to `shards` or `routing` must go through an explicit reshard — public
/// ids are reassigned, contents and decisions are preserved. Save the
/// result back with [`save_sharded_cache_with_config`] to make the new
/// topology the persisted one.
///
/// # Errors
/// Propagates load failures (missing logs/sidecar) and
/// [`crate::CacheError::InvalidConfig`] for an invalid `new_config`.
pub fn reshard_saved_cache(
    encoder: QueryEncoder,
    path: &Path,
    new_config: MeanCacheConfig,
) -> Result<ShardedCache> {
    let restored = load_sharded_cache_with_config(encoder, path)?;
    crate::reshard(&restored, new_config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeanCacheConfig, SemanticCache};
    use mc_embedder::{ModelProfile, QueryEncoder};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("meancache_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{name}_{}_{}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn fresh_cache() -> MeanCache {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
        MeanCache::new(encoder, MeanCacheConfig::default().with_threshold(0.6)).unwrap()
    }

    #[test]
    fn save_and_reload_preserves_hits_and_context_chains() {
        let path = temp_path("roundtrip");
        let mut cache = fresh_cache();
        cache
            .insert("draw a line plot in python", "Use plt.plot.", &[])
            .unwrap();
        cache
            .insert(
                "change the color to red",
                "Pass color='red'.",
                &["draw a line plot in python".to_string()],
            )
            .unwrap();
        cache
            .insert("what is federated learning", "On-device training.", &[])
            .unwrap();
        save_cache(&cache, &path).unwrap();

        // Simulate a restart: a brand-new cache around the same encoder.
        let mut restored = load_cache(fresh_cache(), &path).unwrap();
        assert_eq!(restored.len(), 3);
        assert!(restored.lookup("what is federated learning", &[]).is_hit());
        // Context chains survive: the follow-up still requires its parent.
        assert!(restored
            .lookup(
                "change the color to red",
                &["draw a line plot in python".to_string()]
            )
            .is_hit());
        assert!(restored
            .lookup(
                "change the color to red",
                &["write a short poem about the sea".to_string()]
            )
            .is_miss());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_replaces_previous_contents() {
        let path = temp_path("replace");
        let mut first = fresh_cache();
        first.insert("old query", "old response", &[]).unwrap();
        save_cache(&first, &path).unwrap();

        let mut second = fresh_cache();
        second.insert("new query", "new response", &[]).unwrap();
        save_cache(&second, &path).unwrap();

        let restored = load_cache(fresh_cache(), &path).unwrap();
        assert_eq!(restored.len(), 1);
        assert!(restored.entries().any(|e| e.query == "new query"));
        assert!(!restored.entries().any(|e| e.query == "old query"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_leaves_the_previous_save_loadable() {
        use crate::{SemanticCache, ShardedCache};
        let path = temp_path("atomic_save");
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
        let config = MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(2);
        let filled = |tag: &str| {
            let mut cache = ShardedCache::new(encoder.clone(), config.clone()).unwrap();
            for i in 0..8 {
                cache
                    .insert(&format!("{tag} save subject {i}"), tag, &[])
                    .unwrap();
            }
            cache
        };
        let entry_set = |cache: &ShardedCache| {
            let mut all = Vec::new();
            for shard in 0..cache.shard_count() {
                cache.with_shard(shard, |inner| {
                    all.extend(
                        inner
                            .entries()
                            .map(|e| (e.query.clone(), e.response.clone())),
                    );
                });
            }
            all.sort();
            all
        };
        let first = filled("first");
        save_sharded_cache_with_config(&first, &path).unwrap();

        // A directory squatting on the first shard's temp path fails the
        // second save before it has replaced anything.
        let squatter = PathBuf::from(format!("{}.tmp", shard_log_path(&path, 0).display()));
        std::fs::create_dir(&squatter).unwrap();
        assert!(save_sharded_cache_with_config(&filled("second"), &path).is_err());

        let (restored, report) = load_sharded_cache_with_report(encoder.clone(), &path).unwrap();
        assert_eq!(entry_set(&restored), entry_set(&first));
        assert_eq!(
            report.snapshot_loaded, 2,
            "the first save's snapshots still match"
        );

        std::fs::remove_dir(&squatter).unwrap();
        for shard in 0..2 {
            let log = shard_log_path(&path, shard);
            std::fs::remove_file(snapshot_path(&log)).ok();
            std::fs::remove_file(&log).ok();
        }
        std::fs::remove_file(config_sidecar(&path)).ok();
    }

    #[test]
    fn loading_an_empty_store_yields_an_empty_cache() {
        let path = temp_path("empty");
        let restored = load_cache(fresh_cache(), &path).unwrap();
        assert!(restored.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn both_index_backends_round_trip_through_the_log() {
        use mc_store::IndexKind;
        for kind in [IndexKind::flat(), IndexKind::ivf()] {
            let path = temp_path(&format!("kind_{}", kind.name()));
            let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
            let config = MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_index(kind.clone());
            let mut cache = MeanCache::new(encoder.clone(), config.clone()).unwrap();
            for i in 0..30 {
                cache
                    .insert(
                        &format!("unique query number {i}"),
                        &format!("answer {i}"),
                        &[],
                    )
                    .unwrap();
            }
            save_cache(&cache, &path).unwrap();
            let template = MeanCache::new(encoder, config).unwrap();
            let mut restored = load_cache(template, &path).unwrap();
            assert_eq!(restored.len(), 30);
            assert_eq!(restored.index_kind(), kind.name());
            assert!(restored.lookup("unique query number 17", &[]).is_hit());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn config_sidecar_restores_the_index_backend_automatically() {
        use mc_store::IndexKind;
        let path = temp_path("sidecar");
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
        let mut cache = MeanCache::new(
            encoder.clone(),
            MeanCacheConfig::default()
                .with_threshold(0.55)
                .with_index(IndexKind::ivf()),
        )
        .unwrap();
        cache
            .insert("what is federated learning", "On-device.", &[])
            .unwrap();
        save_cache_with_config(&cache, &path).unwrap();

        // No template: the sidecar supplies the config, including the
        // IVF backend and the tuned threshold.
        let mut restored = load_cache_with_config(encoder.clone(), &path).unwrap();
        assert_eq!(restored.index_kind(), "ivf");
        assert!((restored.threshold() - 0.55).abs() < 1e-6);
        assert!(restored.lookup("what is federated learning", &[]).is_hit());

        // A missing sidecar is an error, not a silent default.
        let bare = temp_path("no_sidecar");
        save_cache(&cache, &bare).unwrap();
        assert!(load_cache_with_config(encoder, &bare).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(config_sidecar(&path)).ok();
        std::fs::remove_file(&bare).ok();
    }

    #[test]
    fn both_sq8_backends_round_trip_through_the_log() {
        use mc_store::IndexKind;
        for kind in [IndexKind::flat_sq8(), IndexKind::ivf_sq8()] {
            let path = temp_path(&format!("kind_{}", kind.name()));
            let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
            let config = MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_index(kind.clone());
            let mut cache = MeanCache::new(encoder.clone(), config.clone()).unwrap();
            for i in 0..30 {
                cache
                    .insert(
                        &format!("unique query number {i}"),
                        &format!("answer {i}"),
                        &[],
                    )
                    .unwrap();
            }
            save_cache(&cache, &path).unwrap();
            let template = MeanCache::new(encoder, config).unwrap();
            let mut restored = load_cache(template, &path).unwrap();
            assert_eq!(restored.len(), 30);
            assert_eq!(restored.index_kind(), kind.name());
            assert!(restored.lookup("unique query number 17", &[]).is_hit());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn sq8_cache_round_trips_with_bit_identical_codes() {
        use mc_store::{AnyIndex, IndexKind};
        let path = temp_path("sq8_codes");
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
        let mut cache = MeanCache::new(
            encoder.clone(),
            MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_index(IndexKind::flat_sq8()),
        )
        .unwrap();
        let ids: Vec<u64> = (0..25)
            .map(|i| {
                cache
                    .insert(&format!("distinct topic number {i}"), "resp", &[])
                    .unwrap()
            })
            .collect();
        save_cache_with_config(&cache, &path).unwrap();

        // No template: the sidecar alone must restore the SQ8 codec, and the
        // raw-f32 log + deterministic quantiser must reproduce every row's
        // stored codes and constants bit-for-bit.
        let restored = load_cache_with_config(encoder, &path).unwrap();
        assert_eq!(restored.index_kind(), "flat-sq8");
        let (AnyIndex::Flat(before), AnyIndex::Flat(after)) = (cache.index(), restored.index())
        else {
            panic!("both caches are flat-backed")
        };
        for &id in &ids {
            let (codes_a, scale_a, min_a) = before.sq8_row(id).expect("row saved");
            let (codes_b, scale_b, min_b) = after.sq8_row(id).expect("row restored");
            assert_eq!(
                codes_a, codes_b,
                "codes for entry {id} must be bit-identical"
            );
            assert_eq!(scale_a.to_bits(), scale_b.to_bits());
            assert_eq!(min_a.to_bits(), min_b.to_bits());
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(config_sidecar(&path)).ok();
    }

    #[test]
    fn centroid_routing_round_trips_bit_identically() {
        use crate::{RoutingMode, SemanticCache, ShardedCache};
        let path = temp_path("routing");
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
        let mut cache = ShardedCache::new(
            encoder.clone(),
            MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_shards(3)
                .with_routing(RoutingMode::Centroid),
        )
        .unwrap();
        let queries: Vec<String> = (0..18)
            .map(|i| format!("distinct persisted subject number {i}"))
            .collect();
        cache.seed_centroids_from_texts(&queries).unwrap();
        for q in &queries {
            cache.insert(q, "resp", &[]).unwrap();
        }
        save_sharded_cache_with_config(&cache, &path).unwrap();

        let restored = crate::persist::load_sharded_cache_with_config(encoder, &path).unwrap();
        assert_eq!(restored.routing(), RoutingMode::Centroid);
        assert!(restored.centroids_seeded());
        // Bit-identical centroids and rebuilt pins ⇒ identical routing:
        // every query (and every paraphrase-shaped fresh root) maps to the
        // same shard before and after the reload.
        for q in &queries {
            assert_eq!(
                cache.shard_of(q, &[]),
                restored.shard_of(q, &[]),
                "{q} re-routed after reload"
            );
            assert_eq!(cache.probe(q, &[]), restored.probe(q, &[]));
        }
        assert_eq!(restored.root_pin_count(), queries.len());
        for i in 0..40 {
            let fresh = format!("never inserted fresh root {i}");
            assert_eq!(
                cache.shard_of(&fresh, &[]),
                restored.shard_of(&fresh, &[]),
                "fresh root {i} re-routed after reload"
            );
        }
        // Cleanup (including the routing sidecar).
        for shard in 0..3 {
            std::fs::remove_file(shard_log_path(&path, shard)).ok();
        }
        std::fs::remove_file(config_sidecar(&path)).ok();
        std::fs::remove_file(routing_sidecar(&path)).ok();
    }

    #[test]
    fn save_writes_a_snapshot_and_load_prefers_it() {
        let path = temp_path("snap_prefer");
        let mut cache = fresh_cache();
        for i in 0..20 {
            cache
                .insert(&format!("snapshot subject {i}"), &format!("resp {i}"), &[])
                .unwrap();
        }
        save_cache(&cache, &path).unwrap();
        assert!(snapshot_path(&path).exists(), "save must write <path>.snap");

        let (restored, report) = load_cache_with_report(fresh_cache(), &path).unwrap();
        assert_eq!(
            report.snapshot_loaded, 1,
            "load must take the snapshot path"
        );
        assert_eq!(restored.len(), 20);
        let mut restored = restored;
        assert!(restored.lookup("snapshot subject 7", &[]).is_hit());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(snapshot_path(&path)).ok();
    }

    #[test]
    fn corrupt_or_stale_snapshot_falls_back_to_replay() {
        let path = temp_path("snap_fallback");
        let mut cache = fresh_cache();
        cache.insert("resilient entry", "resp", &[]).unwrap();
        save_cache(&cache, &path).unwrap();
        let snap = snapshot_path(&path);

        // Corrupt one payload byte in the middle of the snapshot.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();
        let (restored, report) = load_cache_with_report(fresh_cache(), &path).unwrap();
        assert_eq!(report.snapshot_loaded, 0, "corrupt snapshot must not load");
        assert_eq!(restored.len(), 1);

        // A stale snapshot (log rewritten underneath it) must also fall
        // back: re-save with different contents but restore the old snap.
        let old_snap = std::fs::read(&snap).ok();
        let mut second = fresh_cache();
        second.insert("completely different", "resp", &[]).unwrap();
        save_cache(&second, &path).unwrap();
        if let Some(old) = old_snap {
            std::fs::write(&snap, old).unwrap();
        }
        let (restored, report) = load_cache_with_report(fresh_cache(), &path).unwrap();
        assert_eq!(report.snapshot_loaded, 0);
        assert_eq!(restored.len(), 1);
        assert!(restored
            .entries()
            .any(|e| e.query == "completely different"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn legacy_sharded_save_is_migrated_to_snapshots_on_load() {
        use crate::{SemanticCache, ShardedCache};
        let path = temp_path("snap_migrate");
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
        let config = MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(3);
        let mut cache = ShardedCache::new(encoder.clone(), config).unwrap();
        for i in 0..12 {
            cache
                .insert(&format!("migrated subject {i}"), "resp", &[])
                .unwrap();
        }
        save_sharded_cache_with_config(&cache, &path).unwrap();
        // Simulate a save from before the snapshot tier existed.
        for shard in 0..3 {
            std::fs::remove_file(snapshot_path(&shard_log_path(&path, shard))).unwrap();
        }

        // First restart: full replay, but the load migrates — it writes the
        // missing snapshots.
        let (first, report) = load_sharded_cache_with_report(encoder.clone(), &path).unwrap();
        assert_eq!(report.snapshot_loaded, 0);
        assert_eq!(first.len(), 12);
        for shard in 0..3 {
            assert!(
                snapshot_path(&shard_log_path(&path, shard)).exists(),
                "load must write shard {shard}'s missing snapshot"
            );
        }

        // Second restart: every shard takes the fast path.
        let (second, report) = load_sharded_cache_with_report(encoder, &path).unwrap();
        assert_eq!(report.snapshot_loaded, 3);
        assert_eq!(second.len(), 12);
        assert!(second.probe("migrated subject 5", &[]).is_hit());
        for shard in 0..3 {
            let log = shard_log_path(&path, shard);
            std::fs::remove_file(snapshot_path(&log)).ok();
            std::fs::remove_file(&log).ok();
        }
        std::fs::remove_file(config_sidecar(&path)).ok();
    }

    #[test]
    fn snapshot_restore_is_decision_identical_to_replay() {
        // The same save loaded twice — once via the snapshot, once via
        // forced replay — must produce caches that answer identically.
        let path = temp_path("snap_identical");
        let mut cache = fresh_cache();
        for i in 0..25 {
            cache
                .insert(&format!("identity subject {i}"), &format!("resp {i}"), &[])
                .unwrap();
        }
        cache
            .insert(
                "a follow-up question",
                "follow resp",
                &["identity subject 3".to_string()],
            )
            .unwrap();
        save_cache(&cache, &path).unwrap();

        let (via_snapshot, report) = load_cache_with_report(fresh_cache(), &path).unwrap();
        assert_eq!(report.snapshot_loaded, 1);
        let snap = snapshot_path(&path);
        let snap_bytes = std::fs::read(&snap).unwrap();
        std::fs::remove_file(&snap).unwrap();
        let (via_replay, report) = load_cache_with_report(fresh_cache(), &path).unwrap();
        assert_eq!(report.snapshot_loaded, 0);
        std::fs::write(&snap, snap_bytes).unwrap();

        assert_eq!(via_snapshot.len(), via_replay.len());
        let probes: Vec<String> = (0..25)
            .map(|i| format!("identity subject {i}"))
            .chain(["a follow-up question".to_string()])
            .collect();
        let mut via_snapshot = via_snapshot;
        let mut via_replay = via_replay;
        for q in &probes {
            let ctx = ["identity subject 3".to_string()];
            assert_eq!(
                via_snapshot.lookup(q, &ctx),
                via_replay.lookup(q, &ctx),
                "lookup({q}) diverged between snapshot and replay restore"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn dimension_mismatch_is_reported_when_compression_changes() {
        let path = temp_path("mismatch");
        let mut cache = fresh_cache();
        cache.insert("a cached query", "a response", &[]).unwrap();
        save_cache(&cache, &path).unwrap();

        // Template whose encoder now compresses to 8 dimensions: the stored
        // 48-d embeddings no longer fit its index.
        let mut encoder = QueryEncoder::new(ModelProfile::tiny(), 11).unwrap();
        let corpus: Vec<String> = (0..30).map(|i| format!("corpus query {i}")).collect();
        encoder.fit_pca(&corpus, 8, 1).unwrap();
        let template =
            MeanCache::new(encoder, MeanCacheConfig::default().with_threshold(0.6)).unwrap();
        assert!(load_cache(template, &path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
