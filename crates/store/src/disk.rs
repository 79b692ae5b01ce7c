//! The entry log: a cache's entries dumped to one file, and read back.
//!
//! Plays the role DiskCache plays in the paper's implementation: the user's
//! local cache must survive application restarts. A save is a **dump** —
//! [`write_compacted_log`] atomically replaces the file with one insert
//! record per entry plus a footer — and nothing is ever appended to it, so
//! the file on disk is always exactly what one save wrote.
//! [`read_entry_log`] reads it back. It is still read defensively, as the
//! recovery copy behind the disposable snapshot: a torn or bit-flipped tail
//! is detected by its CRC32 ([`crate::wal`]), dropped, and reported in
//! [`RecoveryStats`], so a load never yields a corrupted entry.
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
//! kind = 127 (Footer): [u64 record_count] — closes the dump; the reader
//!                    cross-checks the count against what it saw.
//! ```
//!
//! Kinds 2 (remove) and 3 (touch) are retired: no save ever wrote one, a
//! reader rejects them as [`StoreError::Corrupt`], and the numbers are not
//! reused. Logs written before the framed format (no magic header) are
//! read with the legacy tolerant parser; the next save replaces them with
//! a framed dump.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mc_tensor::Vector;

use crate::snapshot::LogFingerprint;
use crate::wal::{self, RecoveryStats};
use crate::{failpoints, CacheEntry, Result, StoreError};

const KIND_INSERT: u8 = 1;
const KIND_FOOTER: u8 = 127;

/// Atomically replaces the file at `path` with the concatenation of
/// `parts` — the one way a persisted file is written whole. Writes to
/// `<path>.tmp`, fsyncs it, renames over `path`, then fsyncs the directory:
/// whatever `path` held before survives any failure up to the rename, and
/// a crash leaves the old file or the new one, never a torn one.
///
/// # Errors
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn atomic_write(path: &Path, parts: &[&[u8]]) -> Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        std::fs::create_dir_all(parent)?;
    }
    // Suffix the whole file name: `with_extension` would map every
    // `<base>.shardN` of one sharded save to the same temp file.
    let mut tmp_path = path.as_os_str().to_os_string();
    tmp_path.push(".tmp");
    {
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        for part in parts {
            tmp.write_all(part)?;
        }
        let tmp = tmp.into_inner().map_err(|e| e.into_error())?;
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
    Ok(())
}

/// Atomically rewrites `path` ([`atomic_write`]) as an entry log: magic
/// header, one insert per entry, and a footer carrying the record count.
/// Returns the fingerprint of the bytes written, which a snapshot taken
/// with this dump records to prove later that the log is still this one.
///
/// # Errors
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_compacted_log<'a>(
    path: &Path,
    entries: impl Iterator<Item = &'a CacheEntry>,
) -> Result<LogFingerprint> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(wal::MAGIC);
    let mut count: u64 = 0;
    for entry in entries {
        wal::frame_record(&mut buf, KIND_INSERT, &encode_insert(entry));
        count += 1;
    }
    wal::frame_record(&mut buf, KIND_FOOTER, &count.to_le_bytes());
    atomic_write(path, &[&buf])?;
    Ok(LogFingerprint::of_bytes(&buf))
}

/// Reads the entry log at `path` without touching it: the entries in file
/// order (ascending id, as every save writes them) and what the read
/// dropped. A missing file is an empty log. A torn or bit-flipped tail is
/// not an error: the checksum-valid prefix is returned and the rest counted
/// in [`RecoveryStats::bytes_truncated`].
///
/// # Errors
/// Returns [`StoreError::Io`] when the file cannot be read and
/// [`StoreError::Corrupt`] when a checksum-valid record fails to decode, is
/// of an unknown (or retired) kind, or is a footer whose count disagrees
/// with the inserts before it.
pub fn read_entry_log(path: &Path) -> Result<(Vec<CacheEntry>, RecoveryStats)> {
    let raw = wal::read_file(path)?;
    if !wal::is_framed(&raw) {
        return Ok(read_legacy(raw));
    }
    let (records, stats, _) = wal::scan(raw);
    let mut entries = Vec::with_capacity(records.len());
    for record in records {
        let mut payload = record.payload;
        match record.kind {
            KIND_INSERT => entries.push(decode_insert(&mut payload)?),
            KIND_FOOTER => {
                if payload.remaining() < 8 {
                    return Err(StoreError::Corrupt("log footer too short".into()));
                }
                let count = payload.get_u64_le();
                if count != entries.len() as u64 {
                    return Err(StoreError::Corrupt(format!(
                        "log footer expects {count} records, the read saw {}",
                        entries.len()
                    )));
                }
            }
            other => {
                return Err(StoreError::Corrupt(format!("unknown record kind {other}")));
            }
        }
    }
    Ok((entries, stats))
}

/// Tolerant read of a pre-framing log: `[u32 len][u8 kind][payload]` insert
/// records with no checksums. Stops at the first truncated or undecodable
/// record (indistinguishable from a torn tail without CRCs).
fn read_legacy(raw: Vec<u8>) -> (Vec<CacheEntry>, RecoveryStats) {
    let mut entries = Vec::new();
    let mut buf = Bytes::from(raw);
    while buf.remaining() >= 5 {
        let len = (&buf[..4]).get_u32_le() as usize;
        if buf.remaining() < 4 + len || len == 0 {
            break;
        }
        let mut record = buf.clone();
        record.advance(4);
        let mut record = record.split_to(len);
        if record.get_u8() != KIND_INSERT {
            break;
        }
        let Ok(entry) = decode_insert(&mut record) else {
            break;
        };
        entries.push(entry);
        buf.advance(4 + len);
    }
    let stats = RecoveryStats {
        records_replayed: entries.len() as u64,
        bytes_truncated: buf.remaining() as u64,
        ..RecoveryStats::default()
    };
    (entries, stats)
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

    fn append_bytes(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn insert_persists_across_reopen() {
        let path = temp_path("reopen");
        let written = [entry(1, None), entry(2, Some(1))];
        let fingerprint = write_compacted_log(&path, written.iter()).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(fingerprint, LogFingerprint::of_bytes(&on_disk));
        assert_eq!(fingerprint, LogFingerprint::of_file(&path).unwrap());
        let (entries, stats) = read_entry_log(&path).unwrap();
        assert_eq!(entries, written);
        // Two inserts and the footer.
        assert_eq!(stats.records_replayed, 3);
        assert_eq!(stats.bytes_truncated, 0);
        // Reading changes nothing on disk.
        assert_eq!(std::fs::read(&path).unwrap(), on_disk);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_trailing_record_is_tolerated() {
        let path = temp_path("truncated");
        let written = [entry(1, None), entry(2, None)];
        write_compacted_log(&path, written.iter()).unwrap();
        // Garbage that looks like the start of a record.
        append_bytes(&path, &[200, 0, 0, 0, KIND_INSERT, 1, 2, 3]);
        let (entries, stats) = read_entry_log(&path).unwrap();
        assert_eq!(entries, written, "intact prefix must still be recovered");
        assert_eq!(stats.bytes_truncated, 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_interior_byte_recovers_the_prefix() {
        let path = temp_path("interior");
        let written: Vec<CacheEntry> = (0..5).map(|i| entry(i, None)).collect();
        write_compacted_log(&path, written.iter()).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (entries, stats) = read_entry_log(&path).unwrap();
        // Whatever survived must be an exact prefix of what was written.
        assert!(entries.len() < 5);
        assert_eq!(entries, written[..entries.len()]);
        assert!(stats.bytes_truncated > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_log_is_migrated_to_framed_format() {
        let path = temp_path("legacy");
        // A legacy (unframed, no-CRC) log by hand: two inserts plus a torn
        // tail.
        let written = [entry(1, None), entry(2, Some(1))];
        {
            let mut f = File::create(&path).unwrap();
            for e in &written {
                let payload = encode_insert(e);
                let mut framed = BytesMut::new();
                framed.put_u32_le(payload.len() as u32 + 1);
                framed.put_u8(KIND_INSERT);
                framed.extend_from_slice(&payload);
                f.write_all(&framed).unwrap();
            }
            f.write_all(&[44, 0, 0, 0, KIND_INSERT, 9, 9]).unwrap();
        }
        let (entries, stats) = read_entry_log(&path).unwrap();
        assert_eq!(entries, written);
        assert_eq!(stats.records_replayed, 2);
        assert_eq!(stats.bytes_truncated, 7);
        // A load leaves the file alone; the next save is the migration.
        assert!(!wal::is_framed(&std::fs::read(&path).unwrap()));
        write_compacted_log(&path, entries.iter()).unwrap();
        assert!(wal::is_framed(&std::fs::read(&path).unwrap()));
        assert_eq!(read_entry_log(&path).unwrap().0, written);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_footer_mismatch_is_a_clean_error() {
        let path = temp_path("footer");
        write_compacted_log(&path, [entry(1, None)].iter()).unwrap();
        // A second footer claiming a wrong count; its CRC is valid so only
        // the count check can reject it.
        let mut buf = Vec::new();
        wal::frame_record(&mut buf, KIND_FOOTER, &99u64.to_le_bytes());
        append_bytes(&path, &buf);
        assert!(matches!(read_entry_log(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_compacted_write_keeps_the_previous_log() {
        let path = temp_path("failed_compacted_write");
        let tag = path.display().to_string();
        let before = [entry(1, None), entry(2, Some(1))];
        let written = write_compacted_log(&path, before.iter()).unwrap();
        assert_eq!(written.len, std::fs::metadata(&path).unwrap().len());
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
        assert_eq!(read_entry_log(&path).unwrap().0, before);
        // Once writes work again the same call replaces the log.
        write_compacted_log(&path, after.iter()).unwrap();
        assert_eq!(read_entry_log(&path).unwrap().0, after);
        std::fs::remove_file(&path).ok();
    }
}
