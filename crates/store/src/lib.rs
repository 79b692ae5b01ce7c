//! # mc-store
//!
//! Cache-storage substrate for MeanCache.
//!
//! The paper persists each user's local cache with the DiskCache library and
//! searches cached query embeddings with SBERT's semantic search. This crate
//! provides the equivalent building blocks:
//!
//! * [`entry`] — the cache record: query, response, embedding, context link,
//!   and the access metadata eviction policies need.
//! * [`policy`] — LRU / LFU / FIFO eviction.
//! * [`memstore`] — a bounded in-memory store applying an eviction policy,
//!   with its entries kept in eviction order so an insert never scans.
//! * [`disk`] — the persistent entry log, mirroring DiskCache's role: a
//!   cache's entries dumped atomically to one checksummed file
//!   ([`write_compacted_log`]) and read back ([`read_entry_log`]), plus
//!   [`atomic_write`], the one way any persisted file is written whole.
//! * [`index`] — the **vector-index seam**: the [`VectorIndex`] trait every
//!   search backend implements (the moral equivalent of SBERT
//!   `semantic_search`, which the paper notes handles up to ~1M cached
//!   entries), the [`IndexKind`] selection knob, and the [`AnyIndex`]
//!   concrete dispatcher.
//! * [`flat`] — [`FlatIndex`], the exact brute-force backend with
//!   rayon-parallel scoring above a configurable size threshold.
//! * [`ivf`] — [`IvfIndex`], the k-means inverted-file ANN backend
//!   (`nlist`/`nprobe`) for large caches.
//! * [`rows`] — the **row-codec layer**: [`RowStore`], the contiguous
//!   `(id, row)` arena both backends store embeddings in, parameterised by
//!   [`Quantization`] — exact `f32` rows or SQ8 (one `u8` code per dimension
//!   plus a per-row scale/min, ~4× smaller, scanned with a fused asymmetric
//!   `f32 × u8` kernel). Arenas are either heap-owned or borrowed from a
//!   mapped snapshot with copy-on-write semantics.
//! * [`snapshot`] — the `MCSNAP01` zero-copy snapshot container: index
//!   arenas and entries written in their in-memory layout, restored by
//!   `mmap` + checksum instead of log replay (see `docs/FORMAT.md`).
//! * [`mmap`] — the raw-syscall memory-mapping shim ([`mmap::MapRegion`])
//!   snapshots load through, with a portable read-to-heap fallback.
//!
//! ## Choosing an index backend
//!
//! [`FlatIndex`] is exact and allocation-lean — the right default while a
//! cache holds up to a few tens of thousands of entries. [`IvfIndex`] prunes
//! the scan to `nprobe` of `nlist` k-means cells, cutting lookup cost by
//! roughly `nlist / nprobe` at ≥0.9 recall with default settings; pick it
//! for 100k+ entries. Orthogonally, either backend can store SQ8 rows
//! ([`IndexKind::flat_sq8`] / [`IndexKind::ivf_sq8`]) to cut resident
//! embedding bytes ~4× and make the scan memory-bandwidth-friendly, at a
//! sub-quantisation-step score error (top-k ordering is preserved on
//! anything but near-ties). All combinations round-trip through serde and
//! the disk log, and all are driven through [`VectorIndex`] / [`AnyIndex`],
//! so swapping backends *or codecs* is a configuration change
//! ([`IndexKind`]), not a code change.

pub mod disk;
pub mod entry;
pub mod failpoints;
pub mod flat;
pub mod index;
pub mod ivf;
pub mod memstore;
pub mod mmap;
pub mod policy;
pub mod rows;
pub mod snapshot;
pub mod wal;

pub use disk::{atomic_write, read_entry_log, write_compacted_log};
pub use entry::CacheEntry;
pub use flat::{FlatIndex, DEFAULT_PARALLEL_SEARCH_THRESHOLD};
pub use index::{AnyIndex, IndexKind, SearchHit, VectorIndex};
pub use ivf::{IvfConfig, IvfIndex, MAX_NLIST};
pub use memstore::MemoryStore;
pub use policy::EvictionPolicy;
pub use rows::{Quantization, RowStore};
pub use snapshot::{load_snapshot, save_snapshot, LogFingerprint, RestoredSnapshot, SnapshotView};
pub use wal::{FramedLog, FsyncPolicy, RecoveryStats};

/// Errors surfaced by the storage substrate.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (persisted files only).
    Io(std::io::Error),
    /// A record could not be encoded/decoded.
    Corrupt(String),
    /// The store has no entry with the requested id.
    NotFound(u64),
    /// An embedding's dimensionality did not match the index.
    DimensionMismatch { expected: usize, got: usize },
    /// Invalid configuration (e.g. zero capacity).
    InvalidConfig(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt record: {m}"),
            StoreError::NotFound(id) => write!(f, "entry {id} not found"),
            StoreError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            StoreError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = StoreError::NotFound(7);
        assert!(e.to_string().contains('7'));
        let e = StoreError::DimensionMismatch {
            expected: 64,
            got: 768,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("768"));
        let e: StoreError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(StoreError::Corrupt("bad".into())
            .to_string()
            .contains("bad"));
        assert!(StoreError::InvalidConfig("cap".into())
            .to_string()
            .contains("cap"));
    }
}
