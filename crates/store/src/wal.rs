//! Crash-safe framed record log.
//!
//! The record framing both logs share: the serve-side operation WAL, which
//! is appended to ([`FramedLog`]), and the per-shard entry logs
//! `meancache::persist` writes, which are dumps — written whole by
//! [`crate::write_compacted_log`], read back by [`crate::read_entry_log`],
//! never appended to. The guarantees:
//!
//! * **Versioned framing.** A framed log starts with the 8-byte magic
//!   [`MAGIC`] (`MCWAL001`); the trailing digits version the record layout
//!   so a future format bump is detectable instead of misparsed.
//! * **Checksummed records.** Every record is
//!   `[u32 frame_len][u32 crc32][u8 kind][payload]` (little-endian), where
//!   `frame_len = 1 + payload.len()` and the CRC32 (IEEE polynomial) covers
//!   the kind byte and the payload. A flipped bit anywhere in a record is
//!   detected on replay.
//! * **Torn-tail recovery.** A crash mid-`write` leaves a partial final
//!   record. A reader scans the longest valid prefix and reports what it
//!   dropped in [`RecoveryStats`]; [`FramedLog::open`] also truncates the
//!   file back to that prefix so the next append lands after it. Replay
//!   never panics and never yields a record whose checksum does not match.
//! * **Configurable durability, applied per commit.** Writing a record
//!   ([`FramedLog::stage`]) and forcing it to stable storage
//!   ([`FramedLog::commit`]) are separate steps, so a caller holding several
//!   records pays one `fdatasync` for all of them; [`FramedLog::append`] is
//!   the two back to back. [`FsyncPolicy`] decides what a commit does:
//!   `Always` (one fdatasync covering everything staged — a record whose
//!   commit returned survives SIGKILL and power loss), `EveryN`
//!   (bounded-loss batching), or `Never` (OS page cache only; survives
//!   process crash but not power loss). The durability promise attaches to
//!   the commit: acknowledge a record only after the commit that follows
//!   its stage has returned. See `docs/ARCHITECTURE.md` ("Failure
//!   semantics").

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::str::FromStr;

use bytes::{Buf, Bytes};
use serde::{Deserialize, Serialize};

use crate::{failpoints, Result, StoreError};

/// Magic header identifying a framed log, version 001.
pub const MAGIC: &[u8; 8] = b"MCWAL001";

/// Per-record frame header: `[u32 frame_len][u32 crc32]`.
const FRAME_HEADER: usize = 8;

/// Upper bound on a single record's frame length. Anything larger is treated
/// as corruption rather than an attempt to allocate gigabytes from a
/// garbage length field.
pub const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// What a [`FramedLog::commit`] does with the records staged before it.
///
/// `Never` matches the historical behaviour (write into the OS page cache,
/// no fsync) and costs nothing on the hot path; `Always` makes every
/// committed record durable against power loss at the price of one
/// `fdatasync` per commit — per record for [`FramedLog::append`], per batch
/// for a caller that stages several records first; `EveryN(n)` syncs at the
/// first commit with `n` or more unsynced records behind it, bounding loss
/// to at most `n - 1` committed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` at every commit that has a record staged.
    Always,
    /// `fdatasync` at a commit once `n` records are unsynced (`n >= 1`).
    EveryN(u32),
    /// Never fsync; rely on the OS flushing the page cache.
    #[default]
    Never,
}

impl FsyncPolicy {
    /// Validates the policy (EveryN requires `n >= 1`).
    pub fn validate(self) -> std::result::Result<(), String> {
        match self {
            FsyncPolicy::EveryN(0) => Err("fsync policy every-n requires n >= 1".into()),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always`, `never`, or `every-N` (e.g. `every-64`).
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => {
                let n = s
                    .strip_prefix("every-")
                    .and_then(|n| n.parse::<u32>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!("invalid fsync policy {s:?} (expected always, never, or every-N)")
                    })?;
                Ok(FsyncPolicy::EveryN(n))
            }
        }
    }
}

/// What a restore recovered (and dropped) while loading persisted state:
/// filled by replay ([`FramedLog::open`], [`crate::read_entry_log`]), and by
/// the snapshot tier (`meancache::persist`) when an
/// [`MCSNAP01`](crate::snapshot) file served the load instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Checksummed records successfully replayed.
    pub records_replayed: u64,
    /// Bytes dropped from the tail (torn final record or corrupt suffix):
    /// truncated off the file by [`FramedLog::open`], left in place by the
    /// read-only [`crate::read_entry_log`] and [`read_records`].
    pub bytes_truncated: u64,
    /// Logs (shards) whose state was restored from a mapped snapshot
    /// instead of full log replay. Serde-defaulted so reports serialised
    /// before the snapshot tier existed still deserialise.
    #[serde(default)]
    pub snapshot_loaded: u64,
    /// Always zero: a snapshot restores only over the exact dump it was
    /// written with, so there is no tail to replay on top of one. Kept
    /// because `benchmark/` reads it; goes with the next `[benchmark]` PR.
    #[serde(default)]
    pub wal_tail_replayed: u64,
}

impl RecoveryStats {
    /// Accumulates another log's recovery stats into this one.
    pub fn merge(&mut self, other: RecoveryStats) {
        self.records_replayed += other.records_replayed;
        self.bytes_truncated += other.bytes_truncated;
        self.snapshot_loaded += other.snapshot_loaded;
        self.wal_tail_replayed += other.wal_tail_replayed;
    }
}

/// One replayed record: the kind byte plus its checksum-verified payload.
#[derive(Debug, Clone)]
pub struct Record {
    /// Application-defined record kind.
    pub kind: u8,
    /// Checksum-verified payload bytes.
    pub payload: Bytes,
}

/// Appends `[u32 frame_len][u32 crc][kind][payload]` for one record to `buf`.
pub fn frame_record(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let frame_len = 1 + payload.len() as u32;
    buf.extend_from_slice(&frame_len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(payload);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(payload);
}

/// `true` when `raw` is (the prefix of) a framed log: empty (a fresh log),
/// a strict prefix of [`MAGIC`] (a torn header) or starting with it. Any
/// other leading bytes mean a pre-framing legacy log.
pub(crate) fn is_framed(raw: &[u8]) -> bool {
    let head = raw.len().min(MAGIC.len());
    raw[..head] == MAGIC[..head]
}

/// A checksummed append-only record log with torn-tail recovery.
#[derive(Debug)]
pub struct FramedLog {
    file: File,
    policy: FsyncPolicy,
    /// Records staged since the last sync. Not counted under
    /// [`FsyncPolicy::Never`], where nothing would ever reset it.
    unsynced_appends: u32,
    /// Failpoint scope tag (the log's path), so tests can target one log
    /// without perturbing every other open log in the process.
    tag: String,
}

impl FramedLog {
    /// Opens (or creates) the framed log at `path`, replaying every valid
    /// record and truncating any torn or corrupt tail in place.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Corrupt`] when the file exists but is not a framed log
    /// (no [`MAGIC`] header).
    pub fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(Self, Vec<Record>, RecoveryStats)> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let (records, stats, valid_end) = scan_file(&path)?;
        // Truncate the torn/corrupt tail (and write a missing header) so the
        // next append lands directly after the last valid record.
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let actual_len = file.metadata()?.len();
        let keep = if valid_end == 0 {
            MAGIC.len() as u64
        } else {
            valid_end as u64
        };
        if actual_len > keep || valid_end == 0 {
            file.set_len(valid_end as u64)?;
        }
        let mut log = Self {
            file,
            policy,
            unsynced_appends: 0,
            tag: path.display().to_string(),
        };
        if valid_end == 0 {
            log.write_frame(MAGIC)?;
            log.file.sync_data()?;
        }
        Ok((log, records, stats))
    }

    /// Appends one checksummed record, fsyncing per the configured policy:
    /// [`FramedLog::stage`] then [`FramedLog::commit`].
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on write or sync failure. A failed append
    /// may leave a torn record at the tail; the next [`FramedLog::open`]
    /// truncates it.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<()> {
        self.stage(kind, payload)?;
        self.commit().map(|_| ())
    }

    /// Writes one checksummed record to the file without syncing it. The
    /// record is durable — and may be acknowledged — only once a later
    /// [`FramedLog::commit`] has returned.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on write failure. A failed write may
    /// leave a torn record at the tail; the next [`FramedLog::open`]
    /// truncates it.
    pub fn stage(&mut self, kind: u8, payload: &[u8]) -> Result<()> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + 1 + payload.len());
        frame_record(&mut frame, kind, payload);
        self.write_frame(&frame)?;
        if self.policy != FsyncPolicy::Never {
            self.unsynced_appends += 1;
        }
        Ok(())
    }

    /// Applies the fsync policy to every record staged so far — the one
    /// sync a batch of records shares. Returns whether an `fdatasync` ran:
    /// under `Always` when anything is staged, under `EveryN(n)` once `n`
    /// records are unsynced, under `Never` never.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the sync fails. The staged records
    /// stay written and counted, so the next commit retries the sync.
    pub fn commit(&mut self) -> Result<bool> {
        let due = match self.policy {
            FsyncPolicy::Always => self.unsynced_appends > 0,
            FsyncPolicy::EveryN(n) => self.unsynced_appends >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(due)
    }

    /// Forces all appended records to stable storage (`fdatasync`).
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(result) = failpoints::write_hook("wal.sync", &self.tag, 0) {
            result.map(|_| ()).map_err(StoreError::from)?;
        }
        self.file.sync_data()?;
        self.unsynced_appends = 0;
        Ok(())
    }

    /// Truncates the log back to just the magic header (drops every record).
    ///
    /// Used after the log's contents have been captured in a snapshot.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on failure.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(MAGIC.len() as u64)?;
        self.file.sync_data()?;
        self.unsynced_appends = 0;
        Ok(())
    }

    /// Size of the backing file in bytes.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the metadata cannot be read.
    pub fn len_bytes(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Writes raw bytes, retrying short writes and injected `EINTR`/`EAGAIN`.
    fn write_frame(&mut self, mut buf: &[u8]) -> Result<()> {
        while !buf.is_empty() {
            let n = match failpoints::write_hook("wal.append", &self.tag, buf.len()) {
                // Injected short write: really write only the capped prefix.
                Some(Ok(cap)) => self.file.write(&buf[..cap.min(buf.len())]),
                Some(Err(e)) => Err(e),
                None => self.file.write(buf),
            };
            match n {
                Ok(0) => {
                    return Err(StoreError::Io(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "wal append wrote zero bytes",
                    )))
                }
                Ok(n) => buf = &buf[n..],
                Err(e)
                    if e.kind() == ErrorKind::Interrupted || e.kind() == ErrorKind::WouldBlock =>
                {
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

/// Parses the next record off `buf`, returning it plus its framed length.
/// Returns `None` on a torn or corrupt record (replay must stop there).
fn next_record(buf: &mut Bytes) -> Option<(Record, usize)> {
    if buf.remaining() < FRAME_HEADER {
        return None;
    }
    let frame_len = (&buf[..4]).get_u32_le();
    let crc_stored = (&buf[4..8]).get_u32_le();
    if frame_len == 0 || frame_len > MAX_RECORD_LEN {
        return None;
    }
    let frame_len = frame_len as usize;
    if buf.remaining() < FRAME_HEADER + frame_len {
        return None;
    }
    let mut crc = Crc32::new();
    crc.update(&buf[FRAME_HEADER..FRAME_HEADER + frame_len]);
    if crc.finish() != crc_stored {
        return None;
    }
    buf.advance(FRAME_HEADER);
    let mut record = buf.split_to(frame_len);
    let kind = record.get_u8();
    Some((
        Record {
            kind,
            payload: record,
        },
        FRAME_HEADER + frame_len,
    ))
}

/// Incremental IEEE CRC32 (the polynomial used by zlib/gzip/ethernet).
///
/// Hand-rolled because the build is offline. The kernel is slicing-by-16 —
/// sixteen parallel lookup tables consuming 16 input bytes per step —
/// because the snapshot tier ([`crate::snapshot`]) checksums multi-megabyte
/// arena sections on every restore, where the classic one-byte-per-step
/// loop would dominate the restore time the snapshot exists to eliminate.
/// The value is bit-identical to the byte-at-a-time formulation (the unit
/// tests pin both against known vectors).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

static CRC32_TABLE16: [[u32; 256]; 16] = build_crc32_table16();

const fn build_crc32_table16() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut t = 1;
        while t < 16 {
            crc = (crc >> 8) ^ tables[0][(crc & 0xFF) as usize];
            tables[t][i] = crc;
            t += 1;
        }
        i += 1;
    }
    tables
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            let a = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let b = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            let c = u32::from_le_bytes([chunk[8], chunk[9], chunk[10], chunk[11]]);
            let d = u32::from_le_bytes([chunk[12], chunk[13], chunk[14], chunk[15]]);
            state = CRC32_TABLE16[15][(a & 0xFF) as usize]
                ^ CRC32_TABLE16[14][((a >> 8) & 0xFF) as usize]
                ^ CRC32_TABLE16[13][((a >> 16) & 0xFF) as usize]
                ^ CRC32_TABLE16[12][(a >> 24) as usize]
                ^ CRC32_TABLE16[11][(b & 0xFF) as usize]
                ^ CRC32_TABLE16[10][((b >> 8) & 0xFF) as usize]
                ^ CRC32_TABLE16[9][((b >> 16) & 0xFF) as usize]
                ^ CRC32_TABLE16[8][(b >> 24) as usize]
                ^ CRC32_TABLE16[7][(c & 0xFF) as usize]
                ^ CRC32_TABLE16[6][((c >> 8) & 0xFF) as usize]
                ^ CRC32_TABLE16[5][((c >> 16) & 0xFF) as usize]
                ^ CRC32_TABLE16[4][(c >> 24) as usize]
                ^ CRC32_TABLE16[3][(d & 0xFF) as usize]
                ^ CRC32_TABLE16[2][((d >> 8) & 0xFF) as usize]
                ^ CRC32_TABLE16[1][((d >> 16) & 0xFF) as usize]
                ^ CRC32_TABLE16[0][(d >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ CRC32_TABLE16[0][((state ^ b as u32) & 0xFF) as usize];
        }
        self.state = state;
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The bytes of the log at `path`; a missing file is an empty log.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>> {
    match std::fs::read(path) {
        Ok(raw) => Ok(raw),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Scans the bytes of a framed log ([`is_framed`]): its checksum-valid
/// records, what the scan dropped, and the byte length of the valid prefix
/// — 0 when there is no header yet (empty file, torn header).
pub(crate) fn scan(raw: Vec<u8>) -> (Vec<Record>, RecoveryStats, usize) {
    let mut stats = RecoveryStats::default();
    if raw.len() < MAGIC.len() {
        stats.bytes_truncated = raw.len() as u64;
        return (Vec::new(), stats, 0);
    }
    let mut buf = Bytes::from(raw);
    buf.advance(MAGIC.len());
    let mut records = Vec::new();
    let mut valid_end = MAGIC.len();
    while let Some((record, frame)) = next_record(&mut buf) {
        valid_end += frame;
        records.push(record);
    }
    stats.records_replayed = records.len() as u64;
    stats.bytes_truncated = buf.remaining() as u64;
    (records, stats, valid_end)
}

/// [`scan`] of the file at `path`, refusing one that is not a framed log.
fn scan_file(path: &Path) -> Result<(Vec<Record>, RecoveryStats, usize)> {
    let raw = read_file(path)?;
    if !is_framed(&raw) {
        return Err(StoreError::Corrupt(format!(
            "{} is not a framed log (missing {MAGIC:?} header)",
            path.display()
        )));
    }
    Ok(scan(raw))
}

/// Reads the framed log at `path` without touching it: every
/// checksum-valid record up to the first torn or corrupt frame, with the
/// bytes after it counted in [`RecoveryStats::bytes_truncated`]. A missing
/// file reads as an empty log.
///
/// # Errors
/// Returns [`StoreError::Io`] when the file cannot be read and
/// [`StoreError::Corrupt`] when it is not a framed log.
pub fn read_records(path: &Path) -> Result<(Vec<Record>, RecoveryStats)> {
    let (records, stats, _) = scan_file(path)?;
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mc_store_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = format!(
            "{name}_{}_{}.wal",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        );
        dir.join(unique)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!(
            "every-64".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::EveryN(64)
        );
        assert!("every-0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every-8");
        assert!(FsyncPolicy::EveryN(0).validate().is_err());
        assert!(FsyncPolicy::Always.validate().is_ok());
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_path("round_trip");
        {
            let (mut log, records, stats) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
            assert!(records.is_empty());
            assert_eq!(stats, RecoveryStats::default());
            log.append(1, b"hello").unwrap();
            log.append(2, b"").unwrap();
            log.append(3, &[0xde, 0xad, 0xbe, 0xef]).unwrap();
        }
        let (_log, records, stats) = FramedLog::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, 1);
        assert_eq!(&records[0].payload[..], b"hello");
        assert_eq!(records[1].kind, 2);
        assert!(records[1].payload.is_empty());
        assert_eq!(&records[2].payload[..], &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(stats.records_replayed, 3);
        assert_eq!(stats.bytes_truncated, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let path = temp_path("torn");
        {
            let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
            log.append(1, b"first record payload").unwrap();
            log.append(2, b"second").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_end = MAGIC.len() + FRAME_HEADER + 1 + b"first record payload".len();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, records, stats) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
            let expect = if cut >= first_end + FRAME_HEADER + 1 + b"second".len() {
                2
            } else if cut >= first_end {
                1
            } else {
                0
            };
            assert_eq!(records.len(), expect, "cut at {cut}");
            assert_eq!(stats.records_replayed, expect as u64, "cut at {cut}");
            // The file was truncated back to its valid prefix on disk.
            let len = std::fs::metadata(&path).unwrap().len();
            assert!(len >= MAGIC.len() as u64, "cut at {cut}");
            // Reopening after truncation must be clean: no further loss.
            let (_, records2, stats2) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
            assert_eq!(records2.len(), expect, "reopen after cut at {cut}");
            assert_eq!(stats2.bytes_truncated, 0, "reopen after cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_never_yield_a_corrupt_record() {
        let path = temp_path("flip");
        {
            let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
            log.append(1, b"payload one").unwrap();
            log.append(1, b"payload two").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for pos in MAGIC.len()..full.len() {
            let mut corrupted = full.clone();
            corrupted[pos] ^= 0x40;
            std::fs::write(&path, &corrupted).unwrap();
            let (_, records, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
            // Whatever survives must be an exact prefix of what was written.
            assert!(records.len() <= 2, "flip at {pos}");
            for (i, r) in records.iter().enumerate() {
                let expect: &[u8] = if i == 0 {
                    b"payload one"
                } else {
                    b"payload two"
                };
                assert_eq!(&r.payload[..], expect, "flip at {pos}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_continue_after_recovery() {
        let path = temp_path("continue");
        {
            let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::EveryN(2)).unwrap();
            log.append(1, b"keep").unwrap();
        }
        // Torn tail: half a frame header.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0]).unwrap();
        }
        {
            let (mut log, records, stats) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(stats.bytes_truncated, 3);
            log.append(2, b"after").unwrap();
        }
        let (_, records, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(&records[1].payload[..], b"after");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_drops_all_records_but_keeps_the_log_usable() {
        let path = temp_path("reset");
        let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Always).unwrap();
        log.append(1, b"gone").unwrap();
        log.reset().unwrap();
        log.append(2, b"kept").unwrap();
        drop(log);
        let (_, records, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_recovers_an_empty_log() {
        let path = temp_path("torn_header");
        std::fs::write(&path, &MAGIC[..3]).unwrap();
        let (_, records, stats) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        assert!(records.is_empty());
        assert_eq!(stats.bytes_truncated, 3);
        assert_eq!(std::fs::read(&path).unwrap(), MAGIC);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_framed_file_is_rejected_cleanly() {
        let path = temp_path("legacy");
        std::fs::write(&path, [5, 0, 0, 0, 1, 2, 3, 4, 5]).unwrap();
        assert!(matches!(
            FramedLog::open(&path, FsyncPolicy::Never),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failpoint_error_on_nth_append_surfaces_and_log_recovers() {
        let path = temp_path("failpoint_err");
        let tag = path.display().to_string();
        let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        failpoints::set_scoped(
            "wal.append",
            &tag,
            failpoints::FailAction::ErrorOnNth {
                n: 2,
                kind: ErrorKind::Other,
            },
        );
        log.append(1, b"ok").unwrap();
        assert!(log.append(1, b"fails").is_err());
        failpoints::clear_scoped("wal.append", &tag);
        log.append(1, b"ok again").unwrap();
        drop(log);
        // The failed append may have torn the tail; recovery must cope.
        let (_, records, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        assert!(records.iter().any(|r| &r.payload[..] == b"ok"));
        assert!(records.iter().any(|r| &r.payload[..] == b"ok again"));
        assert!(!records.iter().any(|r| &r.payload[..] == b"fails"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_is_stage_plus_commit_byte_for_byte() {
        let records: [(u8, &[u8]); 3] = [(1, b"first"), (4, b""), (5, &[0xff; 300])];
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(2),
            FsyncPolicy::Never,
        ] {
            let appended = temp_path("appended");
            let staged = temp_path("staged");
            {
                let (mut log, _, _) = FramedLog::open(&appended, policy).unwrap();
                for (kind, payload) in records {
                    log.append(kind, payload).unwrap();
                }
                let (mut log, _, _) = FramedLog::open(&staged, policy).unwrap();
                for (kind, payload) in records {
                    log.stage(kind, payload).unwrap();
                }
                log.commit().unwrap();
            }
            assert_eq!(
                std::fs::read(&appended).unwrap(),
                std::fs::read(&staged).unwrap(),
                "{policy}"
            );
            std::fs::remove_file(&appended).ok();
            std::fs::remove_file(&staged).ok();
        }
    }

    #[test]
    fn commit_applies_the_policy_to_everything_staged() {
        // Always: one sync covers the whole batch, and an empty commit is free.
        let path = temp_path("commit_always");
        let tag = path.display().to_string();
        let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Always).unwrap();
        // A zero delay injects nothing; it only counts the syncs.
        failpoints::set_scoped(
            "wal.sync",
            &tag,
            failpoints::FailAction::Delay { micros: 0 },
        );
        for i in 0..5u8 {
            log.stage(1, &[i]).unwrap();
        }
        assert!(log.commit().unwrap());
        assert!(!log.commit().unwrap(), "nothing staged, nothing to sync");
        assert_eq!(failpoints::hits("wal.sync", &tag), 1);
        failpoints::clear_scoped("wal.sync", &tag);
        std::fs::remove_file(&path).ok();

        // EveryN(4): whatever the batch sizes, no commit point leaves four
        // records that a caller may have acknowledged but no sync covers.
        let path = temp_path("commit_every_n");
        let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::EveryN(4)).unwrap();
        let mut synced = Vec::new();
        for batch in [1, 1, 1, 1, 3, 2, 6, 1, 2, 4, 3] {
            for _ in 0..batch {
                log.stage(1, b"r").unwrap();
            }
            synced.push(log.commit().unwrap());
            assert!(log.unsynced_appends < 4, "after a batch of {batch}");
        }
        assert_eq!(
            synced,
            [false, false, false, true, false, true, true, false, false, true, false]
        );
        std::fs::remove_file(&path).ok();

        // Never: commits do nothing and the counter has nothing to count.
        let path = temp_path("commit_never");
        let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        for _ in 0..10 {
            log.stage(1, b"r").unwrap();
        }
        assert!(!log.commit().unwrap());
        assert_eq!(log.unsynced_appends, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_commit_keeps_the_records_and_the_next_commit_retries() {
        let path = temp_path("commit_fails");
        let tag = path.display().to_string();
        let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Always).unwrap();
        failpoints::set_scoped(
            "wal.sync",
            &tag,
            failpoints::FailAction::ErrorOnNth {
                n: 1,
                kind: ErrorKind::Other,
            },
        );
        for i in 0..3u8 {
            log.stage(1, &[i]).unwrap();
        }
        assert!(matches!(log.commit(), Err(StoreError::Io(_))));
        // The records were written whole: the log replays them as it stands.
        let (records, stats) = read_records(&path).unwrap();
        assert_eq!((records.len(), stats.bytes_truncated), (3, 0));
        // The failed sync still owes those three; the next commit pays.
        log.stage(1, &[3]).unwrap();
        assert!(log.commit().unwrap());
        assert_eq!(failpoints::hits("wal.sync", &tag), 2);
        assert_eq!(log.unsynced_appends, 0);
        failpoints::clear_scoped("wal.sync", &tag);
        drop(log);
        let (_, records, stats) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(stats.bytes_truncated, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failpoint_short_writes_and_eintr_are_retried_transparently() {
        let path = temp_path("failpoint_short");
        let tag = path.display().to_string();
        let (mut log, _, _) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        failpoints::set_scoped(
            "wal.append",
            &tag,
            failpoints::FailAction::ShortWrite { max: 3 },
        );
        log.append(7, b"short writes still land whole").unwrap();
        failpoints::set_scoped(
            "wal.append",
            &tag,
            failpoints::FailAction::Eintr { times: 4 },
        );
        log.append(8, b"eintr retried").unwrap();
        failpoints::set_scoped(
            "wal.append",
            &tag,
            failpoints::FailAction::Eagain { times: 2 },
        );
        log.append(9, b"eagain retried").unwrap();
        failpoints::clear_scoped("wal.append", &tag);
        drop(log);
        let (_, records, stats) = FramedLog::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(stats.records_replayed, 3);
        assert_eq!(stats.bytes_truncated, 0);
        assert_eq!(&records[0].payload[..], b"short writes still land whole");
        assert_eq!(&records[1].payload[..], b"eintr retried");
        assert_eq!(&records[2].payload[..], b"eagain retried");
        std::fs::remove_file(&path).ok();
    }
}
