//! `MCSNAP01` — the versioned, mmap-able snapshot container behind instant
//! restarts.
//!
//! An entry log ([`crate::read_entry_log`]) is replayed one framed record at
//! a time: decode, re-quantise, re-insert — O(n) work that at 100k+ entries
//! turns a restart into seconds. A snapshot is the opposite trade: the exact
//! arenas the index already holds — SQ8 codes, `f32` rows, the id table —
//! written once in their in-memory layout, so a restore is
//! `mmap(2)` + checksum + pointer fixup, **zero-copy** over the file. The
//! restored index serves reads directly off the mapped arenas
//! ([`crate::rows`]'s copy-on-write [`RowStore`] arenas) and only
//! materialises heap copies if the process later mutates them.
//!
//! The container format is fixed-layout little-endian, fully specified in
//! [`docs/FORMAT.md`](https://github.com/meancache/meancache/blob/main/docs/FORMAT.md#mcsnap01)
//! (the in-repo normative spec — section `MCSNAP01`): a 64-byte header, a
//! CRC-protected section table, and 8-byte-aligned sections each carrying
//! its own CRC32. Every persisted byte is accounted for there; this module
//! is the reference implementation. Readers must treat an unknown *version*
//! as an error and unknown *section kinds* as ignorable — see the
//! compatibility rules in the spec.
//!
//! Snapshots are written through [`crate::atomic_write`], like the entry
//! log they accompany, so a crash mid-write leaves the previous snapshot (or
//! none) — never a torn one. A snapshot also records the [`LogFingerprint`]
//! of the entry log it was written with; the persistence layer restores from
//! it only while the log on disk is still exactly that dump, and replays the
//! log otherwise — see `meancache::persist`.
//!
//! # Save → mmap-load round trip
//!
//! ```
//! use mc_store::{CacheEntry, IndexKind, VectorIndex};
//! use mc_store::snapshot::{load_snapshot, save_snapshot, SnapshotView};
//! use mc_tensor::Vector;
//!
//! let dir = std::env::temp_dir().join("mc_snapshot_doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join(format!("roundtrip_{}.snap", std::process::id()));
//!
//! // Two cached entries plus the matching flat index over their embeddings.
//! let entries: Vec<CacheEntry> = (0..2u64)
//!     .map(|id| CacheEntry::new(
//!         id,
//!         format!("question {id}"),
//!         format!("answer {id}"),
//!         Vector::from_vec(vec![1.0 - id as f32, id as f32]),
//!         None,
//!         id,
//!     ))
//!     .collect();
//! let kind = IndexKind::flat();
//! let mut index = kind.build(2).unwrap();
//! for e in &entries {
//!     index.add(e.id, e.embedding.as_slice()).unwrap();
//! }
//!
//! save_snapshot(&path, &SnapshotView {
//!     entries: entries.iter().collect(),
//!     index: &index,
//!     pins: &[],
//!     wal_len: 8,
//!     wal_head_crc: 0,
//!     wal_tail_crc: 0,
//!     tenant: None,
//! }).unwrap();
//!
//! // The loader mmaps the file and rebuilds the index over the mapped
//! // arenas — no row is decoded or re-encoded.
//! let restored = load_snapshot(&path, &kind).unwrap();
//! assert_eq!(restored.entries, entries);
//! assert_eq!(restored.index.len(), 2);
//! assert_eq!(restored.wal_len, 8);
//! std::fs::remove_file(&path).ok();
//! ```

use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use mc_tensor::Vector;

use crate::entry::CacheEntry;
use crate::flat::FlatIndex;
use crate::index::{IndexKind, VectorIndex};
use crate::mmap::MapRegion;
use crate::rows::{Arena, Quantization, RowParts, RowStore};
use crate::wal::Crc32;
use crate::{Result, StoreError};

/// File magic: `"MCSNAP"` + two ASCII version digits. Bump the digits for
/// any layout change a version-01 reader cannot parse.
pub const MAGIC: &[u8; 8] = b"MCSNAP01";

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;

/// Length of one section-table entry in bytes.
pub const TABLE_ENTRY_LEN: usize = 32;

/// Every payload section starts at a multiple of this (and the base address
/// of a mapping is at least 8-aligned), so `u64`/`f32` arenas can be
/// reinterpreted in place.
pub const SECTION_ALIGN: usize = 8;

// Section kinds. Readers ignore kinds they do not recognise (forward
// compatibility); writers never reuse a retired kind number.
/// Fixed-width per-entry metadata (48 bytes per entry).
pub const SEC_ENTRY_META: u32 = 1;
/// Concatenated UTF-8 query + response text, in entry order.
pub const SEC_ENTRY_TEXT: u32 = 2;
/// Entry embeddings: `count × dims` little-endian `f32`.
pub const SEC_ENTRY_EMB: u32 = 3;
/// Index shape: backend tag, row codec, dims, row count.
pub const SEC_INDEX_META: u32 = 4;
/// Conversation-root shard pins: `count × (u64 root_hash, u64 shard)`.
pub const SEC_ROOT_PINS: u32 = 5;
/// Owning tenant's name as UTF-8 bytes (absent for legacy/default-tenant
/// snapshots — additive section, old readers skip it, old files load as
/// the default tenant).
pub const SEC_TENANT_TAG: u32 = 6;
/// Flat backend: row ids (`u64` each, row order).
pub const SEC_FLAT_IDS: u32 = 10;
/// Flat backend, f32 codec: row values.
pub const SEC_FLAT_F32: u32 = 11;
/// Flat backend, SQ8 codec: row codes.
pub const SEC_FLAT_SQ8_CODES: u32 = 12;
/// Flat backend, SQ8 codec: per-row scales.
pub const SEC_FLAT_SQ8_SCALES: u32 = 13;
/// Flat backend, SQ8 codec: per-row minima.
pub const SEC_FLAT_SQ8_MINS: u32 = 14;
// Kinds 20–26 held the retired inverted-file backend's arenas; they are
// never reused.

const ENTRY_META_BYTES: usize = 48;
const INDEX_META_BYTES: usize = 48;
/// How much of the log each [`LogFingerprint`] CRC covers.
const FINGERPRINT_SPAN: usize = 4096;

/// Borrowed view of everything one snapshot persists.
///
/// Built by the persistence layer (`meancache::persist`) from a live cache;
/// [`save_snapshot`] serialises it without copying the big arenas.
pub struct SnapshotView<'a> {
    /// The cached entries, **in the order a log replay would restore them**
    /// (parents before children) — the loader re-inserts in this order so a
    /// snapshot restore is decision-identical to replay.
    pub entries: Vec<&'a CacheEntry>,
    /// The live index whose arenas are captured verbatim.
    pub index: &'a FlatIndex,
    /// Conversation-root shard pins `(root_hash, shard)` owned by this
    /// snapshot's shard (empty for unsharded caches / hash routing).
    pub pins: &'a [(u64, u64)],
    /// [`LogFingerprint::len`] of the entry log this snapshot accompanies.
    pub wal_len: u64,
    /// [`LogFingerprint::head_crc`] of that log.
    pub wal_head_crc: u32,
    /// [`LogFingerprint::tail_crc`] of that log.
    pub wal_tail_crc: u32,
    /// Owning tenant, written as a [`SEC_TENANT_TAG`] section when `Some`.
    /// `None` (the default tenant) keeps the file byte-identical to
    /// pre-tenancy snapshots.
    pub tenant: Option<&'a str>,
}

/// What [`load_snapshot`] reconstructs.
#[derive(Debug)]
pub struct RestoredSnapshot {
    /// The entries, in saved (replay) order, ready for store insertion.
    pub entries: Vec<CacheEntry>,
    /// The index, rebuilt over arenas borrowed from the mapped file.
    pub index: FlatIndex,
    /// Conversation-root shard pins `(root_hash, shard)`.
    pub pins: Vec<(u64, u64)>,
    /// [`LogFingerprint::len`] recorded at save time.
    pub wal_len: u64,
    /// [`LogFingerprint::head_crc`] recorded at save time.
    pub wal_head_crc: u32,
    /// [`LogFingerprint::tail_crc`] recorded at save time.
    pub wal_tail_crc: u32,
    /// `true` when the arenas borrow a live `mmap` (zero-copy), `false` on
    /// the heap fallback.
    pub mapped: bool,
    /// Owning tenant recorded at save time (`None` for legacy/default-tenant
    /// snapshots).
    pub tenant: Option<String>,
}

// ---- writer ----------------------------------------------------------------

/// One payload section, assembled as a list of byte chunks so large arenas
/// are borrowed rather than copied.
struct Section<'a> {
    kind: u32,
    chunks: Vec<Cow<'a, [u8]>>,
}

impl<'a> Section<'a> {
    fn new(kind: u32) -> Self {
        Self {
            kind,
            chunks: Vec::new(),
        }
    }

    fn push(&mut self, chunk: Cow<'a, [u8]>) {
        self.chunks.push(chunk);
    }

    fn len(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    fn crc(&self) -> u32 {
        let mut crc = Crc32::new();
        for chunk in &self.chunks {
            crc.update(chunk);
        }
        crc.finish()
    }
}

/// Reinterprets `f32` values as little-endian bytes (borrowed on LE hosts).
fn le_f32s(values: &[f32]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: f32 is POD; on an LE host the in-memory bytes are the
        // on-disk representation.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(values.as_ptr() as *const u8, values.len() * 4)
        })
    } else {
        let mut out = Vec::with_capacity(values.len() * 4);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Cow::Owned(out)
    }
}

/// Reinterprets `u64` values as little-endian bytes (borrowed on LE hosts).
fn le_u64s(values: &[u64]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: u64 is POD; LE host bytes are the on-disk representation.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(values.as_ptr() as *const u8, values.len() * 8)
        })
    } else {
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Cow::Owned(out)
    }
}

/// Pushes the row-payload sections of `rows` under its codec: one values
/// section for `f32`, codes + scales + mins for SQ8.
fn push_row_payload<'a>(sections: &mut Vec<Section<'a>>, rows: &'a RowStore) {
    match rows.parts().1 {
        RowParts::Sq8 {
            codes,
            scales,
            mins,
        } => {
            for (kind, chunk) in [
                (SEC_FLAT_SQ8_CODES, Cow::Borrowed(codes)),
                (SEC_FLAT_SQ8_SCALES, le_f32s(scales)),
                (SEC_FLAT_SQ8_MINS, le_f32s(mins)),
            ] {
                let mut section = Section::new(kind);
                section.push(chunk);
                sections.push(section);
            }
        }
        RowParts::F32 { values } => {
            let mut section = Section::new(SEC_FLAT_F32);
            section.push(le_f32s(values));
            sections.push(section);
        }
    }
}

fn build_sections<'a>(view: &'a SnapshotView<'a>) -> Result<Vec<Section<'a>>> {
    let mut sections = Vec::new();

    // Entry sections.
    let mut meta = Vec::with_capacity(view.entries.len() * ENTRY_META_BYTES);
    let mut text = Section::new(SEC_ENTRY_TEXT);
    let mut emb = Section::new(SEC_ENTRY_EMB);
    let dims = view.index.dims();
    for entry in &view.entries {
        if entry.embedding.len() != dims {
            return Err(StoreError::DimensionMismatch {
                expected: dims,
                got: entry.embedding.len(),
            });
        }
        meta.extend_from_slice(&entry.id.to_le_bytes());
        meta.extend_from_slice(&entry.parent.map(|p| p + 1).unwrap_or(0).to_le_bytes());
        meta.extend_from_slice(&entry.inserted_at.to_le_bytes());
        meta.extend_from_slice(&entry.last_access.to_le_bytes());
        meta.extend_from_slice(&entry.hits.to_le_bytes());
        meta.extend_from_slice(&(entry.query.len() as u32).to_le_bytes());
        meta.extend_from_slice(&(entry.response.len() as u32).to_le_bytes());
        text.push(Cow::Borrowed(entry.query.as_bytes()));
        text.push(Cow::Borrowed(entry.response.as_bytes()));
        emb.push(le_f32s(entry.embedding.as_slice()));
    }
    let mut meta_sec = Section::new(SEC_ENTRY_META);
    meta_sec.push(Cow::Owned(meta));
    sections.push(meta_sec);
    sections.push(text);
    sections.push(emb);

    // Index shape + arena sections. Tag 0 is the flat backend; the two
    // watermark words are zero and the list count one, as version 01 has
    // always written them for a flat index.
    let index = view.index;
    let (tag, trained_at_len, mutations, list_count) = (0u32, 0u64, 0u64, 1u64);
    let quant = match index.quantization() {
        Quantization::F32 => 0u32,
        Quantization::Sq8 => 1u32,
    };
    let mut index_meta = Vec::with_capacity(INDEX_META_BYTES);
    index_meta.extend_from_slice(&tag.to_le_bytes());
    index_meta.extend_from_slice(&quant.to_le_bytes());
    index_meta.extend_from_slice(&(dims as u64).to_le_bytes());
    index_meta.extend_from_slice(&(index.len() as u64).to_le_bytes());
    index_meta.extend_from_slice(&trained_at_len.to_le_bytes());
    index_meta.extend_from_slice(&mutations.to_le_bytes());
    index_meta.extend_from_slice(&list_count.to_le_bytes());
    let mut index_meta_sec = Section::new(SEC_INDEX_META);
    index_meta_sec.push(Cow::Owned(index_meta));
    sections.push(index_meta_sec);

    let mut ids_sec = Section::new(SEC_FLAT_IDS);
    ids_sec.push(le_u64s(index.rows().ids()));
    sections.push(ids_sec);
    push_row_payload(&mut sections, index.rows());

    // Root pins.
    let mut pins = Vec::with_capacity(view.pins.len() * 16);
    for (root, shard) in view.pins {
        pins.extend_from_slice(&root.to_le_bytes());
        pins.extend_from_slice(&shard.to_le_bytes());
    }
    let mut pins_sec = Section::new(SEC_ROOT_PINS);
    pins_sec.push(Cow::Owned(pins));
    sections.push(pins_sec);

    // Tenant tag (additive; absent for the default tenant so pre-tenancy
    // readers and writers stay byte-compatible).
    if let Some(tenant) = view.tenant {
        let mut tenant_sec = Section::new(SEC_TENANT_TAG);
        tenant_sec.push(Cow::Borrowed(tenant.as_bytes()));
        sections.push(tenant_sec);
    }

    Ok(sections)
}

/// Writes an [`MCSNAP01`](self) snapshot of `view` to `path`, atomically
/// ([`crate::atomic_write`]) — a crash mid-save leaves the previous
/// snapshot (or none), never a torn file.
///
/// # Errors
/// Returns [`StoreError::Io`] on filesystem failures and
/// [`StoreError::DimensionMismatch`] when an entry embedding disagrees with
/// the index dimensionality.
pub fn save_snapshot(path: &Path, view: &SnapshotView<'_>) -> Result<()> {
    let sections = build_sections(view)?;

    // Lay out the file: header, table, 8-aligned payload sections.
    let mut offset = (HEADER_LEN + sections.len() * TABLE_ENTRY_LEN) as u64;
    let mut table = Vec::with_capacity(sections.len() * TABLE_ENTRY_LEN);
    let mut layout = Vec::with_capacity(sections.len());
    for section in &sections {
        let pad = (SECTION_ALIGN as u64 - offset % SECTION_ALIGN as u64) % SECTION_ALIGN as u64;
        offset += pad;
        let len = section.len();
        table.extend_from_slice(&section.kind.to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
        table.extend_from_slice(&offset.to_le_bytes());
        table.extend_from_slice(&len.to_le_bytes());
        table.extend_from_slice(&section.crc().to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
        layout.push(pad as usize);
        offset += len;
    }
    let total_len = offset;

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    header.extend_from_slice(&total_len.to_le_bytes());
    header.extend_from_slice(&view.wal_len.to_le_bytes());
    header.extend_from_slice(&view.wal_head_crc.to_le_bytes());
    header.extend_from_slice(&view.wal_tail_crc.to_le_bytes());
    header.extend_from_slice(&crate::wal::crc32(&table).to_le_bytes());
    header.resize(HEADER_LEN - 4, 0);
    let header_crc = crate::wal::crc32(&header);
    header.extend_from_slice(&header_crc.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);

    const ZEROS: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];
    let mut parts: Vec<&[u8]> = vec![&header, &table];
    for (section, &pad) in sections.iter().zip(&layout) {
        parts.push(&ZEROS[..pad]);
        parts.extend(section.chunks.iter().map(|chunk| &**chunk));
    }
    crate::atomic_write(path, &parts)
}

/// What a snapshot remembers of the entry log it was written with: the
/// log's length and the CRC32 of its first and of its last
/// `min(4096, len)` bytes. A save rewrites the log whole, so a log that
/// still has this fingerprint is the dump the snapshot accompanied; any
/// other log — rewritten, grown, shortened — is restored by replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFingerprint {
    /// Byte length of the log.
    pub len: u64,
    /// CRC32 of the first `min(4096, len)` bytes.
    pub head_crc: u32,
    /// CRC32 of the last `min(4096, len)` bytes.
    pub tail_crc: u32,
}

impl LogFingerprint {
    /// Fingerprint of a log held in memory.
    pub fn of_bytes(log: &[u8]) -> Self {
        let span = log.len().min(FINGERPRINT_SPAN);
        Self {
            len: log.len() as u64,
            head_crc: crate::wal::crc32(&log[..span]),
            tail_crc: crate::wal::crc32(&log[log.len() - span..]),
        }
    }

    /// Fingerprint of the log at `path`, reading only the two spans.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the file cannot be read.
    pub fn of_file(path: &Path) -> Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut buf = vec![0u8; len.min(FINGERPRINT_SPAN as u64) as usize];
        file.read_exact(&mut buf)?;
        let head_crc = crate::wal::crc32(&buf);
        file.seek(SeekFrom::End(-(buf.len() as i64)))?;
        file.read_exact(&mut buf)?;
        Ok(Self {
            len,
            head_crc,
            tail_crc: crate::wal::crc32(&buf),
        })
    }
}

// ---- loader ----------------------------------------------------------------

/// One parsed (and checksum-verified) section: absolute offset + length.
#[derive(Clone, Copy)]
struct Sec {
    offset: usize,
    len: usize,
}

fn get_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

fn get_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// Decodes little-endian `f32`s out of a byte slice.
fn read_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

struct Parsed {
    region: Arc<MapRegion>,
    sections: Vec<(u32, Sec)>,
    wal_len: u64,
    wal_head_crc: u32,
    wal_tail_crc: u32,
}

impl Parsed {
    /// The verified payload of the first section of `kind`, if present.
    fn section(&self, kind: u32) -> Option<Sec> {
        self.sections
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, sec)| *sec)
    }

    fn required(&self, kind: u32, name: &str) -> Result<Sec> {
        self.section(kind)
            .ok_or_else(|| StoreError::Corrupt(format!("snapshot is missing section {name}")))
    }

    fn bytes(&self, sec: Sec) -> &[u8] {
        &self.region.bytes()[sec.offset..sec.offset + sec.len]
    }
}

fn parse_container(path: &Path, region: MapRegion) -> Result<Parsed> {
    let bytes = region.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Corrupt(format!(
            "{}: {} bytes is too short for an MCSNAP01 snapshot",
            path.display(),
            bytes.len()
        )));
    }
    if &bytes[..8] != MAGIC {
        if bytes[..6] == MAGIC[..6] {
            return Err(StoreError::Corrupt(format!(
                "{}: unsupported snapshot version {:?} (this reader supports {:?})",
                path.display(),
                String::from_utf8_lossy(&bytes[6..8]),
                String::from_utf8_lossy(&MAGIC[6..8]),
            )));
        }
        return Err(StoreError::Corrupt(format!(
            "{}: not an MCSNAP01 snapshot (bad magic)",
            path.display()
        )));
    }
    let header_crc = get_u32(bytes, HEADER_LEN - 4);
    if crate::wal::crc32(&bytes[..HEADER_LEN - 4]) != header_crc {
        return Err(StoreError::Corrupt(format!(
            "{}: snapshot header checksum mismatch",
            path.display()
        )));
    }
    let section_count = get_u64(bytes, 8);
    let total_len = get_u64(bytes, 16);
    let wal_len = get_u64(bytes, 24);
    let wal_head_crc = get_u32(bytes, 32);
    let wal_tail_crc = get_u32(bytes, 36);
    let table_crc = get_u32(bytes, 40);
    if total_len != bytes.len() as u64 {
        return Err(StoreError::Corrupt(format!(
            "{}: snapshot claims {total_len} bytes but the file holds {}",
            path.display(),
            bytes.len()
        )));
    }
    if section_count > 1 << 20 {
        return Err(StoreError::Corrupt(format!(
            "{}: implausible section count {section_count}",
            path.display()
        )));
    }
    let table_end = HEADER_LEN + section_count as usize * TABLE_ENTRY_LEN;
    if table_end > bytes.len() {
        return Err(StoreError::Corrupt(format!(
            "{}: section table runs past the end of the file",
            path.display()
        )));
    }
    if crate::wal::crc32(&bytes[HEADER_LEN..table_end]) != table_crc {
        return Err(StoreError::Corrupt(format!(
            "{}: section table checksum mismatch",
            path.display()
        )));
    }
    let mut sections = Vec::with_capacity(section_count as usize);
    for i in 0..section_count as usize {
        let base = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let kind = get_u32(bytes, base);
        let offset = get_u64(bytes, base + 8);
        let len = get_u64(bytes, base + 16);
        let crc = get_u32(bytes, base + 24);
        let end = offset.checked_add(len).filter(|&e| e <= total_len);
        if end.is_none()
            || offset < table_end as u64
            || !offset.is_multiple_of(SECTION_ALIGN as u64)
        {
            return Err(StoreError::Corrupt(format!(
                "{}: section {kind} window {offset}+{len} is invalid",
                path.display()
            )));
        }
        let payload = &bytes[offset as usize..(offset + len) as usize];
        if crate::wal::crc32(payload) != crc {
            return Err(StoreError::Corrupt(format!(
                "{}: section {kind} checksum mismatch",
                path.display()
            )));
        }
        if sections.iter().any(|(k, _)| *k == kind) {
            return Err(StoreError::Corrupt(format!(
                "{}: duplicate section {kind}",
                path.display()
            )));
        }
        sections.push((
            kind,
            Sec {
                offset: offset as usize,
                len: len as usize,
            },
        ));
    }
    Ok(Parsed {
        region: Arc::new(region),
        sections,
        wal_len,
        wal_head_crc,
        wal_tail_crc,
    })
}

fn decode_entries(parsed: &Parsed, dims: usize) -> Result<Vec<CacheEntry>> {
    let meta = parsed.required(SEC_ENTRY_META, "ENTRY_META")?;
    let text = parsed.required(SEC_ENTRY_TEXT, "ENTRY_TEXT")?;
    let emb = parsed.required(SEC_ENTRY_EMB, "ENTRY_EMB")?;
    if meta.len % ENTRY_META_BYTES != 0 {
        return Err(StoreError::Corrupt(format!(
            "ENTRY_META length {} is not a multiple of {ENTRY_META_BYTES}",
            meta.len
        )));
    }
    let count = meta.len / ENTRY_META_BYTES;
    if emb.len != count * dims * 4 {
        return Err(StoreError::Corrupt(format!(
            "ENTRY_EMB holds {} bytes for {count} entries of {dims} dims",
            emb.len
        )));
    }
    let meta_bytes = parsed.bytes(meta);
    let text_bytes = parsed.bytes(text);
    let emb_bytes = parsed.bytes(emb);
    let mut entries = Vec::with_capacity(count);
    let mut text_off = 0usize;
    for i in 0..count {
        let base = i * ENTRY_META_BYTES;
        let id = get_u64(meta_bytes, base);
        let parent_plus_one = get_u64(meta_bytes, base + 8);
        let inserted_at = get_u64(meta_bytes, base + 16);
        let last_access = get_u64(meta_bytes, base + 24);
        let hits = get_u64(meta_bytes, base + 32);
        let q_len = get_u32(meta_bytes, base + 40) as usize;
        let r_len = get_u32(meta_bytes, base + 44) as usize;
        let text_end = text_off
            .checked_add(q_len)
            .and_then(|e| e.checked_add(r_len))
            .filter(|&e| e <= text_bytes.len())
            .ok_or_else(|| StoreError::Corrupt(format!("entry {i} text runs past ENTRY_TEXT")))?;
        let query = std::str::from_utf8(&text_bytes[text_off..text_off + q_len])
            .map_err(|_| StoreError::Corrupt(format!("entry {i} query is not UTF-8")))?;
        let response = std::str::from_utf8(&text_bytes[text_off + q_len..text_end])
            .map_err(|_| StoreError::Corrupt(format!("entry {i} response is not UTF-8")))?;
        text_off = text_end;
        let embedding = read_f32s(&emb_bytes[i * dims * 4..(i + 1) * dims * 4]);
        entries.push(CacheEntry {
            id,
            query: query.to_string(),
            response: response.to_string(),
            embedding: Vector::from_vec(embedding),
            parent: parent_plus_one.checked_sub(1),
            inserted_at,
            last_access,
            hits,
        });
    }
    if text_off != text_bytes.len() {
        return Err(StoreError::Corrupt(format!(
            "ENTRY_TEXT holds {} bytes but entries account for {text_off}",
            text_bytes.len()
        )));
    }
    Ok(entries)
}

/// Builds the flat index's [`RowStore`] with arenas borrowing the mapped
/// region.
fn mapped_row_store(
    parsed: &Parsed,
    dims: usize,
    quant: Quantization,
    rows: usize,
    ids: Sec,
) -> Result<RowStore> {
    let region = &parsed.region;
    let ids_arena = Arena::mapped(Arc::clone(region), ids.offset, rows)?;
    match quant {
        Quantization::F32 => {
            let values = parsed.section(SEC_FLAT_F32).ok_or_else(|| {
                StoreError::Corrupt("snapshot is missing the f32 row section".into())
            })?;
            let values_arena = Arena::mapped(Arc::clone(region), values.offset, rows * dims)?;
            RowStore::from_arenas_f32(dims, ids_arena, values_arena)
        }
        Quantization::Sq8 => {
            let (Some(codes), Some(scales), Some(mins)) = (
                parsed.section(SEC_FLAT_SQ8_CODES),
                parsed.section(SEC_FLAT_SQ8_SCALES),
                parsed.section(SEC_FLAT_SQ8_MINS),
            ) else {
                return Err(StoreError::Corrupt(
                    "snapshot is missing the SQ8 row sections".into(),
                ));
            };
            let codes_arena = Arena::mapped(Arc::clone(region), codes.offset, rows * dims)?;
            let scales_arena = Arena::mapped(Arc::clone(region), scales.offset, rows)?;
            let mins_arena = Arena::mapped(Arc::clone(region), mins.offset, rows)?;
            RowStore::from_arenas_sq8(dims, ids_arena, codes_arena, scales_arena, mins_arena)
        }
    }
}

fn build_index(parsed: &Parsed, kind: &IndexKind) -> Result<(FlatIndex, usize)> {
    let meta = parsed.required(SEC_INDEX_META, "INDEX_META")?;
    if meta.len != INDEX_META_BYTES {
        return Err(StoreError::Corrupt(format!(
            "INDEX_META is {} bytes, expected {INDEX_META_BYTES}",
            meta.len
        )));
    }
    let meta_bytes = parsed.bytes(meta);
    let tag = get_u32(meta_bytes, 0);
    let quant_code = get_u32(meta_bytes, 4);
    let dims = get_u64(meta_bytes, 8) as usize;
    let rows = get_u64(meta_bytes, 16) as usize;
    match tag {
        0 => {}
        // Written by builds that still had the inverted-file backend.
        1 => {
            return Err(StoreError::Corrupt(
                "snapshot was written for the retired IVF index backend; \
                 only flat snapshots load"
                    .into(),
            ))
        }
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown snapshot index backend tag {other}"
            )))
        }
    }
    if dims == 0 {
        return Err(StoreError::Corrupt("snapshot index has zero dims".into()));
    }
    let quant = match quant_code {
        0 => Quantization::F32,
        1 => Quantization::Sq8,
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown snapshot row codec {other}"
            )))
        }
    };
    if quant != kind.quantization() {
        return Err(StoreError::Corrupt(format!(
            "snapshot stores {} rows but the configuration wants {}",
            quant.name(),
            kind.quantization().name()
        )));
    }
    let ids = parsed.required(SEC_FLAT_IDS, "FLAT_IDS")?;
    if ids.len != rows * 8 {
        return Err(StoreError::Corrupt(format!(
            "FLAT_IDS holds {} bytes for {rows} rows",
            ids.len
        )));
    }
    let store = mapped_row_store(parsed, dims, quant, rows, ids)?;
    let IndexKind::Flat {
        parallel_threshold, ..
    } = kind;
    let index = FlatIndex::from_snapshot_parts(dims, *parallel_threshold, store)?;
    Ok((index, dims))
}

fn decode_pins(parsed: &Parsed) -> Result<Vec<(u64, u64)>> {
    let pins = parsed.required(SEC_ROOT_PINS, "ROOT_PINS")?;
    if pins.len % 16 != 0 {
        return Err(StoreError::Corrupt(format!(
            "ROOT_PINS length {} is not a multiple of 16",
            pins.len
        )));
    }
    Ok(parsed
        .bytes(pins)
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
        .collect())
}

/// Loads the snapshot at `path`, reconstructing the index **zero-copy**
/// over the mapped file (see the module docs). `kind` is the configured
/// index — the snapshot must have been written for a flat index with the
/// same row codec, or the load fails and the caller falls back to log
/// replay.
///
/// # Errors
/// Returns [`StoreError::Io`] when the file cannot be read and
/// [`StoreError::Corrupt`] for any structural problem: bad magic or
/// version, checksum mismatch (header, table, or any section), truncated
/// or inconsistent sections, a retired or unknown backend tag, or a codec
/// mismatch with `kind`.
/// Never panics on arbitrary bytes — the corruption suite flips bytes at
/// every offset to hold that line.
pub fn load_snapshot(path: &Path, kind: &IndexKind) -> Result<RestoredSnapshot> {
    load_snapshot_with(path, kind, true)
}

/// [`load_snapshot`] with an explicit mapping choice: `use_mmap = false`
/// forces the portable read-to-heap fallback (used by tests and
/// non-`mmap` platforms; semantics are identical, restore is O(file size)).
///
/// # Errors
/// See [`load_snapshot`].
pub fn load_snapshot_with(
    path: &Path,
    kind: &IndexKind,
    use_mmap: bool,
) -> Result<RestoredSnapshot> {
    if cfg!(target_endian = "big") {
        // Snapshot arenas are reinterpreted in place and the format is
        // little-endian; a BE host must take the log-replay path instead.
        return Err(StoreError::Corrupt(
            "snapshots are little-endian; this host must replay the log".into(),
        ));
    }
    let region = if use_mmap {
        MapRegion::load(path)?
    } else {
        MapRegion::load_heap(path)?
    };
    let mapped = region.is_mmap();
    let parsed = parse_container(path, region)?;
    let (index, dims) = build_index(&parsed, kind)?;
    let entries = decode_entries(&parsed, dims)?;
    if index.len() != entries.len() {
        return Err(StoreError::Corrupt(format!(
            "snapshot holds {} entries but indexes {} rows",
            entries.len(),
            index.len()
        )));
    }
    let pins = decode_pins(&parsed)?;
    let tenant = match parsed.section(SEC_TENANT_TAG) {
        Some(sec) => Some(
            std::str::from_utf8(parsed.bytes(sec))
                .map_err(|_| StoreError::Corrupt("TENANT_TAG is not valid UTF-8".into()))?
                .to_string(),
        ),
        None => None,
    };
    Ok(RestoredSnapshot {
        entries,
        index,
        pins,
        wal_len: parsed.wal_len,
        wal_head_crc: parsed.wal_head_crc,
        wal_tail_crc: parsed.wal_tail_crc,
        mapped,
        tenant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VectorIndex;
    use mc_tensor::{rng, vector};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mc_store_snapshot_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{name}_{}_{}.snap",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn build_state(kind: &IndexKind, n: usize, dims: usize) -> (Vec<CacheEntry>, FlatIndex) {
        let mut rng = rng::seeded(42);
        let mut index = kind.build(dims).unwrap();
        let mut entries = Vec::new();
        for id in 0..n as u64 {
            let mut v = rng::uniform_vec(dims, 1.0, &mut rng);
            vector::normalize(&mut v);
            let entry = CacheEntry::new(
                id,
                format!("query {id}"),
                format!("response {id}"),
                Vector::from_vec(v),
                (id % 7 == 3).then(|| id.saturating_sub(1)),
                id,
            );
            index.add(id, entry.embedding.as_slice()).unwrap();
            entries.push(entry);
        }
        (entries, index)
    }

    fn save(path: &Path, entries: &[CacheEntry], index: &FlatIndex, pins: &[(u64, u64)]) {
        save_snapshot(
            path,
            &SnapshotView {
                entries: entries.iter().collect(),
                index,
                pins,
                wal_len: 8,
                wal_head_crc: 0xAB,
                wal_tail_crc: 0xCD,
                tenant: None,
            },
        )
        .unwrap();
    }

    #[test]
    fn tenant_tag_round_trips_and_legacy_files_have_none() {
        let kind = IndexKind::flat();
        let (entries, index) = build_state(&kind, 8, 16);
        let path = temp_path("tenant_tag");
        save_snapshot(
            &path,
            &SnapshotView {
                entries: entries.iter().collect(),
                index: &index,
                pins: &[],
                wal_len: 0,
                wal_head_crc: 0,
                wal_tail_crc: 0,
                tenant: Some("acme"),
            },
        )
        .unwrap();
        let restored = load_snapshot(&path, &kind).unwrap();
        assert_eq!(restored.tenant.as_deref(), Some("acme"));
        std::fs::remove_file(&path).ok();

        // Default-tenant saves omit the section entirely (legacy shape).
        let legacy = temp_path("tenant_tag_legacy");
        save(&legacy, &entries, &index, &[]);
        let restored = load_snapshot(&legacy, &kind).unwrap();
        assert_eq!(restored.tenant, None);
        std::fs::remove_file(&legacy).ok();
    }

    #[test]
    fn round_trips_every_backend() {
        for kind in [IndexKind::flat(), IndexKind::flat_sq8()] {
            // 37 dims leaves no row of a mapped arena 32-byte aligned and
            // gives the scan kernel a body step and a scalar tail: mapped
            // rows must score bit-identically to owned.
            let (entries, index) = build_state(&kind, 600, 37);
            let path = temp_path(&format!("roundtrip_{}", kind.name()));
            save(&path, &entries, &index, &[(7, 0), (9, 1)]);
            for use_mmap in [true, false] {
                let restored = load_snapshot_with(&path, &kind, use_mmap).unwrap();
                assert_eq!(restored.entries, entries, "{}", kind.name());
                assert_eq!(restored.pins, vec![(7, 0), (9, 1)]);
                assert_eq!(restored.wal_len, 8);
                assert_eq!(restored.index.len(), index.len());
                assert_eq!(restored.index.quantization(), index.quantization());
                // Identical search results — for SQ8, codes must have moved
                // bit-identically (same scores, not just close ones).
                let mut rng = rng::seeded(7);
                for _ in 0..20 {
                    let mut q = rng::uniform_vec(37, 1.0, &mut rng);
                    vector::normalize(&mut q);
                    assert_eq!(
                        restored.index.search(&q, 5, -1.0).unwrap(),
                        index.search(&q, 5, -1.0).unwrap(),
                        "{}",
                        kind.name()
                    );
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn restored_index_is_mutable_via_copy_on_write() {
        let kind = IndexKind::flat_sq8();
        let (entries, index) = build_state(&kind, 50, 16);
        let path = temp_path("cow");
        save(&path, &entries, &index, &[]);
        let mut restored = load_snapshot(&path, &kind).unwrap();
        // Removing and re-adding through the mapped arenas must work (the
        // arenas detach to the heap under the hood).
        restored.index.remove(10).unwrap();
        assert!(!restored.index.contains(10));
        let mut rng = rng::seeded(3);
        let mut v = rng::uniform_vec(16, 1.0, &mut rng);
        vector::normalize(&mut v);
        restored.index.add(1000, &v).unwrap();
        assert!(restored.index.contains(1000));
        assert_eq!(restored.index.len(), 50);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_harmless() {
        // A snapshot is small enough here to attack exhaustively: flipping
        // any byte must either fail with Corrupt or (for bytes the reader
        // never trusts, of which there are none outside padding) load the
        // identical state. It must never panic or return garbage silently.
        let kind = IndexKind::flat_sq8();
        let (entries, index) = build_state(&kind, 8, 4);
        let path = temp_path("flip");
        save(&path, &entries, &index, &[(1, 0)]);
        let pristine = std::fs::read(&path).unwrap();
        let victim = temp_path("flip_victim");
        for offset in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[offset] ^= 0x40;
            std::fs::write(&victim, &bytes).unwrap();
            match load_snapshot(&victim, &kind) {
                Err(StoreError::Corrupt(_)) => {}
                Ok(restored) => {
                    // Only a flip inside alignment padding can load — and
                    // then the state must be byte-identical to the original.
                    assert_eq!(restored.entries, entries, "offset {offset}");
                    assert_eq!(restored.pins, vec![(1, 0)], "offset {offset}");
                }
                Err(other) => panic!("offset {offset}: unexpected error {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&victim).ok();
    }

    #[test]
    fn truncation_never_panics() {
        let kind = IndexKind::flat();
        let (entries, index) = build_state(&kind, 12, 4);
        let path = temp_path("trunc");
        save(&path, &entries, &index, &[]);
        let pristine = std::fs::read(&path).unwrap();
        let victim = temp_path("trunc_victim");
        for cut in 0..pristine.len() {
            std::fs::write(&victim, &pristine[..cut]).unwrap();
            assert!(
                matches!(load_snapshot(&victim, &kind), Err(StoreError::Corrupt(_))),
                "cut {cut} must be Corrupt"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&victim).ok();
    }

    #[test]
    fn future_version_is_rejected_with_a_clear_error() {
        let kind = IndexKind::flat();
        let (entries, index) = build_state(&kind, 4, 4);
        let path = temp_path("version");
        save(&path, &entries, &index, &[]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = b'2'; // MCSNAP01 -> MCSNAP02
        std::fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&path, &kind).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unsupported snapshot version"),
            "error must name the version problem: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_and_codec_mismatches_are_rejected() {
        let (entries, index) = build_state(&IndexKind::flat(), 6, 4);
        let path = temp_path("mismatch");
        save(&path, &entries, &index, &[]);
        // Wrong codec.
        assert!(matches!(
            load_snapshot(&path, &IndexKind::flat_sq8()),
            Err(StoreError::Corrupt(_))
        ));
        // A backend tag other than flat, with every checksum made valid
        // again: tag 1 (the retired inverted-file backend) is named as such.
        let pristine = std::fs::read(&path).unwrap();
        for (tag, expect) in [(1u32, "retired"), (2, "unknown")] {
            let mut bytes = pristine.clone();
            retag_backend(&mut bytes, tag);
            std::fs::write(&path, &bytes).unwrap();
            match load_snapshot(&path, &IndexKind::flat()) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains(expect), "{msg}"),
                other => panic!("tag {tag} must be refused, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Rewrites INDEX_META's backend tag and re-seals the section, table
    /// and header checksums, so only the tag differs from a valid file.
    fn retag_backend(bytes: &mut [u8], tag: u32) {
        let count = get_u64(bytes, 8) as usize;
        let table_end = HEADER_LEN + count * TABLE_ENTRY_LEN;
        let entry = (HEADER_LEN..table_end)
            .step_by(TABLE_ENTRY_LEN)
            .find(|&base| get_u32(bytes, base) == SEC_INDEX_META)
            .unwrap();
        let offset = get_u64(bytes, entry + 8) as usize;
        bytes[offset..offset + 4].copy_from_slice(&tag.to_le_bytes());
        let crc = crate::wal::crc32(&bytes[offset..offset + INDEX_META_BYTES]);
        bytes[entry + 24..entry + 28].copy_from_slice(&crc.to_le_bytes());
        let crc = crate::wal::crc32(&bytes[HEADER_LEN..table_end]);
        bytes[40..44].copy_from_slice(&crc.to_le_bytes());
        let crc = crate::wal::crc32(&bytes[..HEADER_LEN - 4]);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn log_fingerprint_tracks_length_head_and_tail() {
        let path = temp_path("fingerprint");
        let pristine = vec![7u8; 10_000];
        std::fs::write(&path, &pristine).unwrap();
        let full = LogFingerprint::of_file(&path).unwrap();
        assert_eq!(full, LogFingerprint::of_bytes(&pristine));
        assert_eq!(full.len, 10_000);
        // A log that grew, shrank, or changed inside either span no longer
        // matches; the file and the in-memory fingerprints keep agreeing.
        let mut grown = pristine.clone();
        grown.extend_from_slice(&[9u8; 100]);
        let mut head_flip = pristine.clone();
        head_flip[0] ^= 0xFF;
        let mut tail_flip = pristine.clone();
        tail_flip[9_999] ^= 0xFF;
        // Shorter than one span: both CRCs cover the whole log.
        let short = b"MCWAL001".to_vec();
        for other in [
            grown,
            pristine[..9_000].to_vec(),
            head_flip,
            tail_flip,
            short,
        ] {
            std::fs::write(&path, &other).unwrap();
            let got = LogFingerprint::of_file(&path).unwrap();
            assert_eq!(got, LogFingerprint::of_bytes(&other));
            assert_ne!(got, full);
        }
        std::fs::remove_file(&path).ok();
    }
}
