//! Persistent append-only cache store.
//!
//! Plays the role DiskCache plays in the paper's implementation: the user's
//! local cache must survive application restarts. Records are appended to a
//! checksummed binary log ([`crate::wal`]); opening the store replays the
//! log to rebuild the in-memory view. A torn trailing record (e.g. after a
//! crash mid-write) is detected by its CRC32, truncated off the file, and
//! reported in [`RecoveryStats`], so the store is always recoverable and
//! never loads a corrupted entry.
//!
//! ## Record layout
//!
//! The file starts with the [`wal::MAGIC`] header; every record is framed
//! as `[u32 frame_len][u32 crc32][u8 kind][payload]`:
//!
//! ```text
//! kind = 1 (Insert): [u64 id][u32 q_len][query][u32 r_len][response]
//!                    [u8 has_parent][u64 parent][u64 inserted_at]
//!                    [u64 last_access][u64 hits][u32 dims][f32 * dims]
//! kind = 2 (Remove): [u64 id]
//! kind = 3 (Touch):  [u64 id][u64 last_access][u64 hits]
//! kind = 127 (Footer): [u64 record_count] — written by `compact()`;
//!                    replay cross-checks the count against what it saw.
//! ```
//!
//! Logs written before the framed format (no magic header) are detected on
//! open, replayed with the legacy tolerant parser, and rewritten in place
//! as a framed snapshot — a one-time migration.
//!
//! Durability is governed by [`FsyncPolicy`] (see
//! [`DiskStore::open_with_policy`]); the default `Never` matches the
//! historical flush-only behaviour.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mc_tensor::Vector;

use crate::wal::{self, FramedLog, FsyncPolicy, RecoveryStats};
use crate::{failpoints, CacheEntry, Result, StoreError};

const KIND_INSERT: u8 = 1;
const KIND_REMOVE: u8 = 2;
const KIND_TOUCH: u8 = 3;
const KIND_FOOTER: u8 = 127;

/// A persistent, crash-tolerant store of cache entries.
#[derive(Debug)]
pub struct DiskStore {
    log: FramedLog,
    entries: BTreeMap<u64, CacheEntry>,
    recovery: RecoveryStats,
}

impl DiskStore {
    /// Opens (or creates) the store backed by the log file at `path`,
    /// replaying any existing records. Uses [`FsyncPolicy::Never`]
    /// (flush-only) durability; see [`DiskStore::open_with_policy`].
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Corrupt`] when checksum-valid interior records fail to
    /// decode. A torn or bit-flipped tail is not an error: replay recovers
    /// the valid prefix, truncates the rest, and reports it in
    /// [`DiskStore::recovery_stats`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_policy(path, FsyncPolicy::Never)
    }

    /// Opens the store with an explicit fsync policy for appends.
    ///
    /// # Errors
    /// See [`DiskStore::open`].
    pub fn open_with_policy(path: impl AsRef<Path>, policy: FsyncPolicy) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        if !wal::is_framed(&path)? {
            // Pre-framing log: replay with the legacy parser, then rewrite
            // the file as a framed snapshot (one-time migration).
            let (entries, recovery) = Self::replay_legacy(&path)?;
            write_compacted_log(&path, entries.values())?;
            let log = FramedLog::attach(&path, policy)?;
            return Ok(Self {
                log,
                entries,
                recovery,
            });
        }
        let (log, records, recovery) = FramedLog::open(&path, policy)?;
        let mut entries = BTreeMap::new();
        let mut seen: u64 = 0;
        for record in records {
            let mut payload = record.payload;
            match record.kind {
                KIND_INSERT => {
                    let entry = decode_insert(&mut payload)?;
                    entries.insert(entry.id, entry);
                }
                KIND_REMOVE => {
                    if payload.remaining() < 8 {
                        return Err(StoreError::Corrupt("remove record too short".into()));
                    }
                    let id = payload.get_u64_le();
                    entries.remove(&id);
                }
                KIND_TOUCH => {
                    if payload.remaining() < 24 {
                        return Err(StoreError::Corrupt("touch record too short".into()));
                    }
                    let id = payload.get_u64_le();
                    let last_access = payload.get_u64_le();
                    let hits = payload.get_u64_le();
                    if let Some(e) = entries.get_mut(&id) {
                        e.last_access = last_access;
                        e.hits = hits;
                    }
                }
                KIND_FOOTER => {
                    if payload.remaining() < 8 {
                        return Err(StoreError::Corrupt("snapshot footer too short".into()));
                    }
                    let count = payload.get_u64_le();
                    if count != seen {
                        return Err(StoreError::Corrupt(format!(
                            "snapshot footer expects {count} records, replay saw {seen}"
                        )));
                    }
                    continue;
                }
                other => {
                    return Err(StoreError::Corrupt(format!("unknown record kind {other}")));
                }
            }
            seen += 1;
        }
        Ok(Self {
            log,
            entries,
            recovery,
        })
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// What the last [`DiskStore::open`] replayed and truncated.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The fsync policy appends run under.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.log.policy()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: u64) -> Option<&CacheEntry> {
        self.entries.get(&id)
    }

    /// Iterates over live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.values()
    }

    /// Total approximate storage of the live entries (not the log file).
    pub fn storage_bytes(&self) -> usize {
        self.entries.values().map(|e| e.storage_bytes()).sum()
    }

    /// Appends an insert record and updates the in-memory view.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on write failure; the in-memory view is
    /// left unchanged in that case.
    pub fn insert(&mut self, entry: CacheEntry) -> Result<()> {
        let record = encode_insert(&entry);
        self.log.append(KIND_INSERT, &record)?;
        self.entries.insert(entry.id, entry);
        Ok(())
    }

    /// Appends a remove record.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] when the id is unknown and
    /// [`StoreError::Io`] on write failure (the entry stays in the store).
    pub fn remove(&mut self, id: u64) -> Result<CacheEntry> {
        let Some(entry) = self.entries.remove(&id) else {
            return Err(StoreError::NotFound(id));
        };
        let mut payload = BytesMut::with_capacity(8);
        payload.put_u64_le(id);
        if let Err(e) = self.log.append(KIND_REMOVE, &payload.freeze()) {
            // Failed to persist the removal: keep the in-memory view
            // consistent with the log rather than diverging.
            self.entries.insert(id, entry);
            return Err(e);
        }
        Ok(entry)
    }

    /// Records an access (hit) for `id`, persisting the updated metadata.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] for unknown ids and
    /// [`StoreError::Io`] on write failure.
    pub fn touch(&mut self, id: u64, now: u64) -> Result<()> {
        let entry = self.entries.get_mut(&id).ok_or(StoreError::NotFound(id))?;
        entry.touch(now);
        let mut payload = BytesMut::with_capacity(24);
        payload.put_u64_le(id);
        payload.put_u64_le(entry.last_access);
        payload.put_u64_le(entry.hits);
        let bytes = payload.freeze();
        self.log.append(KIND_TOUCH, &bytes)
    }

    /// Forces every appended record to stable storage regardless of policy.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Rewrites the log so it contains exactly one insert per live entry
    /// (dropping removed/touched history) plus a checksummed footer,
    /// shrinking the file.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn compact(&mut self) -> Result<()> {
        let path = self.log.path().to_path_buf();
        write_compacted_log(&path, self.entries.values())?;
        self.log = FramedLog::attach(&path, self.log.policy())?;
        Ok(())
    }

    /// Size of the backing log file in bytes.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the metadata cannot be read.
    pub fn log_bytes(&self) -> Result<u64> {
        self.log.len_bytes()
    }

    /// Decodes the records appended after byte `offset` — the tail an
    /// `MCSNAP01` snapshot did not capture (see `mc_store::snapshot`).
    /// Returns `Ok(None)` when that tail contains anything but insert
    /// records: a removal, touch, or compaction footer means the tail is
    /// not a pure append run, so the caller must fall back to replaying
    /// the whole log. Torn bytes at the end of the file are ignored,
    /// exactly as [`DiskStore::open`]'s replay would truncate them.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the file cannot be read and
    /// [`StoreError::Corrupt`] when `offset` lies outside the file or an
    /// insert record fails to decode.
    pub fn read_insert_tail(path: &Path, offset: u64) -> Result<Option<Vec<CacheEntry>>> {
        let (records, _torn) = wal::read_records_from(path, offset)?;
        let mut entries = Vec::with_capacity(records.len());
        for record in records {
            if record.kind != KIND_INSERT {
                return Ok(None);
            }
            let mut payload = record.payload;
            entries.push(decode_insert(&mut payload)?);
        }
        Ok(Some(entries))
    }

    /// Tolerant replay of a pre-framing log: `[u32 len][u8 kind][payload]`
    /// with no checksums. Stops at the first truncated or undecodable
    /// record (indistinguishable from a torn tail without CRCs).
    fn replay_legacy(path: &Path) -> Result<(BTreeMap<u64, CacheEntry>, RecoveryStats)> {
        let mut entries = BTreeMap::new();
        let mut stats = RecoveryStats::default();
        let mut reader = BufReader::new(File::open(path)?);
        let mut raw = Vec::new();
        reader.read_to_end(&mut raw)?;
        let mut buf = Bytes::from(raw);
        while buf.remaining() >= 5 {
            let len = (&buf[..4]).get_u32_le() as usize;
            if buf.remaining() < 4 + len || len == 0 {
                break;
            }
            let mut record = buf.clone();
            record.advance(4);
            let mut record = record.split_to(len);
            let kind = record.get_u8();
            let ok = match kind {
                KIND_INSERT => match decode_insert(&mut record) {
                    Ok(entry) => {
                        entries.insert(entry.id, entry);
                        true
                    }
                    Err(_) => false,
                },
                KIND_REMOVE => {
                    if record.remaining() < 8 {
                        false
                    } else {
                        let id = record.get_u64_le();
                        entries.remove(&id);
                        true
                    }
                }
                KIND_TOUCH => {
                    if record.remaining() < 24 {
                        false
                    } else {
                        let id = record.get_u64_le();
                        let last_access = record.get_u64_le();
                        let hits = record.get_u64_le();
                        if let Some(e) = entries.get_mut(&id) {
                            e.last_access = last_access;
                            e.hits = hits;
                        }
                        true
                    }
                }
                _ => false,
            };
            if !ok {
                break;
            }
            buf.advance(4 + len);
            stats.records_replayed += 1;
        }
        stats.bytes_truncated = buf.remaining() as u64;
        Ok((entries, stats))
    }
}

/// Atomically rewrites `path` as a compacted entry log: magic header, one
/// insert per entry, and a footer carrying the record count. Writes to
/// `<path>.compact`, fsyncs it, renames over `path`, then fsyncs the
/// directory — whatever `path` held before survives any failure up to the
/// rename. Returns the new log's length in bytes.
///
/// # Errors
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_compacted_log<'a>(
    path: &Path,
    entries: impl Iterator<Item = &'a CacheEntry>,
) -> Result<u64> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        std::fs::create_dir_all(parent)?;
    }
    // Suffix the whole file name: `with_extension` would map every
    // `<base>.shardN` of one sharded save to the same temp file.
    let mut tmp_path = path.as_os_str().to_os_string();
    tmp_path.push(".compact");
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(wal::MAGIC);
    let mut count: u64 = 0;
    for entry in entries {
        wal::frame_record(&mut buf, KIND_INSERT, &encode_insert(entry));
        count += 1;
    }
    wal::frame_record(&mut buf, KIND_FOOTER, &count.to_le_bytes());
    {
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&buf)?;
        if let Some(result) = failpoints::write_hook("wal.sync", &path.display().to_string(), 0) {
            result?;
        }
        tmp.sync_all()?;
    }
    std::fs::rename(&tmp_path, path)?;
    // Persist the rename itself (directory entry) where the platform
    // supports opening directories; best-effort elsewhere.
    if let Some(dir) = parent.and_then(|p| File::open(p).ok()) {
        dir.sync_all().ok();
    }
    Ok(buf.len() as u64)
}

fn encode_insert(entry: &CacheEntry) -> Bytes {
    let embedding = entry.embedding.as_slice();
    let mut buf = BytesMut::with_capacity(
        8 + 4 + entry.query.len() + 4 + entry.response.len() + 1 + 8 + 24 + 4 + embedding.len() * 4,
    );
    buf.put_u64_le(entry.id);
    buf.put_u32_le(entry.query.len() as u32);
    buf.put_slice(entry.query.as_bytes());
    buf.put_u32_le(entry.response.len() as u32);
    buf.put_slice(entry.response.as_bytes());
    buf.put_u8(u8::from(entry.parent.is_some()));
    buf.put_u64_le(entry.parent.unwrap_or(0));
    buf.put_u64_le(entry.inserted_at);
    buf.put_u64_le(entry.last_access);
    buf.put_u64_le(entry.hits);
    buf.put_u32_le(embedding.len() as u32);
    for &x in embedding {
        buf.put_f32_le(x);
    }
    buf.freeze()
}

fn decode_insert(buf: &mut Bytes) -> Result<CacheEntry> {
    let need = |buf: &Bytes, n: usize| -> Result<()> {
        if buf.remaining() < n {
            Err(StoreError::Corrupt(format!(
                "insert record truncated: need {n}, have {}",
                buf.remaining()
            )))
        } else {
            Ok(())
        }
    };
    need(buf, 8)?;
    let id = buf.get_u64_le();
    need(buf, 4)?;
    let q_len = buf.get_u32_le() as usize;
    need(buf, q_len)?;
    let query = String::from_utf8(buf.split_to(q_len).to_vec())
        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
    need(buf, 4)?;
    let r_len = buf.get_u32_le() as usize;
    need(buf, r_len)?;
    let response = String::from_utf8(buf.split_to(r_len).to_vec())
        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
    need(buf, 1 + 8 + 24 + 4)?;
    let has_parent = buf.get_u8() != 0;
    let parent_raw = buf.get_u64_le();
    let inserted_at = buf.get_u64_le();
    let last_access = buf.get_u64_le();
    let hits = buf.get_u64_le();
    let dims = buf.get_u32_le() as usize;
    need(buf, dims * 4)?;
    let mut embedding = Vec::with_capacity(dims);
    for _ in 0..dims {
        embedding.push(buf.get_f32_le());
    }
    Ok(CacheEntry {
        id,
        query,
        response,
        embedding: Vector::from_vec(embedding),
        parent: has_parent.then_some(parent_raw),
        inserted_at,
        last_access,
        hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mc_store_disk_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = format!(
            "{name}_{}_{}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        );
        dir.join(unique)
    }

    fn entry(id: u64, parent: Option<u64>) -> CacheEntry {
        CacheEntry::new(
            id,
            format!("query number {id}"),
            format!("response text for {id}"),
            Vector::from_vec(vec![id as f32 * 0.1, 0.5, -0.25]),
            parent,
            id * 10,
        )
    }

    #[test]
    fn insert_persists_across_reopen() {
        let path = temp_path("reopen");
        {
            let mut store = DiskStore::open(&path).unwrap();
            store.insert(entry(1, None)).unwrap();
            store.insert(entry(2, Some(1))).unwrap();
            assert_eq!(store.len(), 2);
        }
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovery_stats().records_replayed, 2);
        assert_eq!(store.recovery_stats().bytes_truncated, 0);
        let e2 = store.get(2).unwrap();
        assert_eq!(e2.parent, Some(1));
        assert_eq!(e2.query, "query number 2");
        assert_eq!(e2.embedding.as_slice(), &[0.2, 0.5, -0.25]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn remove_and_touch_are_replayed() {
        let path = temp_path("remove_touch");
        {
            let mut store = DiskStore::open(&path).unwrap();
            store.insert(entry(1, None)).unwrap();
            store.insert(entry(2, None)).unwrap();
            store.touch(1, 99).unwrap();
            store.touch(1, 120).unwrap();
            store.remove(2).unwrap();
            assert!(matches!(store.remove(2), Err(StoreError::NotFound(2))));
            assert!(matches!(store.touch(42, 1), Err(StoreError::NotFound(42))));
        }
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        let e1 = store.get(1).unwrap();
        assert_eq!(e1.hits, 2);
        assert_eq!(e1.last_access, 120);
        assert!(store.get(2).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_trailing_record_is_tolerated() {
        let path = temp_path("truncated");
        {
            let mut store = DiskStore::open(&path).unwrap();
            store.insert(entry(1, None)).unwrap();
            store.insert(entry(2, None)).unwrap();
        }
        // Simulate a crash mid-write by appending garbage that looks like the
        // start of a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, KIND_INSERT, 1, 2, 3]).unwrap();
        }
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "intact prefix must still be recovered");
        assert_eq!(store.recovery_stats().bytes_truncated, 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_interior_byte_recovers_the_prefix() {
        let path = temp_path("interior");
        {
            let mut store = DiskStore::open(&path).unwrap();
            for i in 0..5 {
                store.insert(entry(i, None)).unwrap();
            }
        }
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let store = DiskStore::open(&path).unwrap();
        // Whatever survived must be an exact prefix of what was written.
        assert!(store.len() < 5);
        for e in store.iter() {
            assert_eq!(e.query, format!("query number {}", e.id));
        }
        assert!(store.recovery_stats().bytes_truncated > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_log_is_migrated_to_framed_format() {
        let path = temp_path("legacy");
        // Write a legacy (unframed, no-CRC) log by hand: two inserts, one
        // touch, plus a torn tail.
        {
            let mut f = File::create(&path).unwrap();
            for e in [entry(1, None), entry(2, Some(1))] {
                let payload = encode_insert(&e);
                let mut framed = BytesMut::new();
                framed.put_u32_le(payload.len() as u32 + 1);
                framed.put_u8(KIND_INSERT);
                framed.extend_from_slice(&payload);
                f.write_all(&framed).unwrap();
            }
            let mut touch = BytesMut::new();
            touch.put_u32_le(25);
            touch.put_u8(KIND_TOUCH);
            touch.put_u64_le(1);
            touch.put_u64_le(777);
            touch.put_u64_le(9);
            f.write_all(&touch).unwrap();
            f.write_all(&[44, 0, 0, 0, KIND_INSERT, 9, 9]).unwrap();
        }
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).unwrap().last_access, 777);
        assert_eq!(store.get(1).unwrap().hits, 9);
        assert_eq!(store.recovery_stats().records_replayed, 3);
        assert_eq!(store.recovery_stats().bytes_truncated, 7);
        drop(store);
        // The file is now framed; reopening goes through the CRC path.
        assert!(wal::is_framed(&path).unwrap());
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(2).unwrap().parent, Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_entries() {
        let path = temp_path("compact");
        let mut store = DiskStore::open(&path).unwrap();
        for i in 0..20 {
            store.insert(entry(i, None)).unwrap();
        }
        for i in 0..19 {
            store.remove(i).unwrap();
        }
        for _ in 0..50 {
            store.touch(19, 7).unwrap();
        }
        let before = store.log_bytes().unwrap();
        store.compact().unwrap();
        let after = store.log_bytes().unwrap();
        assert!(
            after < before,
            "compaction must shrink the log ({before} -> {after})"
        );
        assert_eq!(store.len(), 1);
        // Still usable and durable after compaction.
        store.insert(entry(100, Some(19))).unwrap();
        drop(store);
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(19).unwrap().hits, 50);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_footer_mismatch_is_a_clean_error() {
        let path = temp_path("footer");
        {
            let mut store = DiskStore::open(&path).unwrap();
            store.insert(entry(1, None)).unwrap();
            store.compact().unwrap();
        }
        // Append a second footer claiming a wrong count; its CRC is valid so
        // only the count check can reject it.
        {
            let mut buf = Vec::new();
            wal::frame_record(&mut buf, KIND_FOOTER, &99u64.to_le_bytes());
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&buf).unwrap();
        }
        assert!(matches!(
            DiskStore::open(&path),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_remove_append_keeps_the_entry() {
        let path = temp_path("failed_remove");
        let tag = path.display().to_string();
        let mut store = DiskStore::open(&path).unwrap();
        store.insert(entry(1, None)).unwrap();
        failpoints::set_scoped(
            "wal.append",
            &tag,
            failpoints::FailAction::ErrorOnNth {
                n: 1,
                kind: std::io::ErrorKind::Other,
            },
        );
        assert!(matches!(store.remove(1), Err(StoreError::Io(_))));
        failpoints::clear_scoped("wal.append", &tag);
        // The entry is still present and removable once writes work again.
        assert!(store.get(1).is_some());
        assert!(store.remove(1).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_compacted_write_keeps_the_previous_log() {
        let path = temp_path("failed_compacted_write");
        let tag = path.display().to_string();
        let before = [entry(1, None), entry(2, Some(1))];
        let len = write_compacted_log(&path, before.iter()).unwrap();
        assert_eq!(len, std::fs::metadata(&path).unwrap().len());
        failpoints::set_scoped(
            "wal.sync",
            &tag,
            failpoints::FailAction::ErrorOnNth {
                n: 1,
                kind: std::io::ErrorKind::Other,
            },
        );
        let after = [entry(7, None)];
        assert!(matches!(
            write_compacted_log(&path, after.iter()),
            Err(StoreError::Io(_))
        ));
        failpoints::clear_scoped("wal.sync", &tag);
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.iter().cloned().collect::<Vec<_>>(), before);
        drop(store);
        // Once writes work again the same call replaces the log.
        write_compacted_log(&path, after.iter()).unwrap();
        let store = DiskStore::open(&path).unwrap();
        assert_eq!(store.iter().cloned().collect::<Vec<_>>(), after);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policies_round_trip_appends() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(2),
            FsyncPolicy::Never,
        ] {
            let path = temp_path("policy");
            let mut store = DiskStore::open_with_policy(&path, policy).unwrap();
            assert_eq!(store.fsync_policy(), policy);
            for i in 0..5 {
                store.insert(entry(i, None)).unwrap();
            }
            store.sync().unwrap();
            drop(store);
            let store = DiskStore::open(&path).unwrap();
            assert_eq!(store.len(), 5);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn iteration_is_in_ascending_id_order_and_storage_sums() {
        let path = temp_path("iter");
        let mut store = DiskStore::open(&path).unwrap();
        store.insert(entry(5, None)).unwrap();
        store.insert(entry(1, None)).unwrap();
        store.insert(entry(3, None)).unwrap();
        let ids: Vec<u64> = store.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert!(store.storage_bytes() > 0);
        assert!(!store.is_empty());
        assert_eq!(store.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn opening_a_fresh_path_creates_an_empty_store() {
        let path = temp_path("fresh");
        let store = DiskStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        std::fs::remove_file(&path).ok();
    }
}
