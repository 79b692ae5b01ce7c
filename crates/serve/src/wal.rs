//! Serve-side write-ahead log: crash durability for acknowledged writes.
//!
//! The batcher owns the cache in memory and only snapshots it on `Save` or
//! graceful shutdown — a `kill -9` between snapshots would silently drop
//! every acknowledged insert since the last one. The [`ServeWal`] closes
//! that window: each `Insert`/`Flush`/`Invalidate` is staged as it executes
//! and the batcher commits once per batch (one `fdatasync` for all of them
//! under [`FsyncPolicy::Always`]) *before* any of the batch's tickets
//! resolve, so an acknowledged write survives a crash. On restart the
//! server replays the WAL on top of the loaded snapshot, then truncates it
//! once the next snapshot lands (the snapshot now covers everything the WAL
//! held).
//!
//! The on-disk format is the checksummed [`FramedLog`] from `mc-store`:
//! torn tails self-truncate on open, so a crash before a commit returns
//! loses only records nobody was told about — never the log.

use std::path::{Path, PathBuf};

use mc_store::{FramedLog, FsyncPolicy, RecoveryStats, StoreError};

use crate::protocol::{put_str, put_strs, Cursor};

/// Record kind: one acknowledged `Insert { query, response, context }`
/// (legacy, pre-tenancy: replays into the default tenant).
const OP_INSERT: u8 = 1;
/// Record kind: one acknowledged `Flush` (legacy, pre-tenancy: drops
/// everything before it, across all tenants).
const OP_FLUSH: u8 = 2;
/// Record kind: one acknowledged tenant-scoped insert
/// (`str tenant, str query, str response, [str] context`).
const OP_TENANT_INSERT: u8 = 3;
/// Record kind: one acknowledged tenant-scoped flush (`str tenant`).
const OP_TENANT_FLUSH: u8 = 4;
/// Record kind: one acknowledged invalidation (`str tenant, u64 epoch`).
const OP_INVALIDATE: u8 = 5;

/// One logical operation replayed from the WAL, in append order. A
/// `tenant` of `None` means the record predates tenancy (kinds 1/2) and
/// applies to the default tenant (insert) or every tenant (flush) — the
/// replayer resolves it; new records always carry their tenant explicitly.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Re-apply this insert on top of the loaded snapshot.
    Insert {
        /// Owning tenant (`None` = legacy record, default tenant).
        tenant: Option<String>,
        /// The query text.
        query: String,
        /// The cached response.
        response: String,
        /// Conversation context, most recent turn last.
        context: Vec<String>,
    },
    /// The cache was flushed here: discard the earlier replayed ops it
    /// covers (`None` = legacy record, every tenant).
    Flush {
        /// Flushed tenant (`None` = legacy record, every tenant).
        tenant: Option<String>,
    },
    /// The tenant's invalidation epoch was bumped here. Survives flushes —
    /// epochs are monotonic and must be restored even when no entries are.
    Invalidate {
        /// The tenant whose epoch advanced.
        tenant: String,
        /// The epoch value acknowledged to the client.
        epoch: u64,
    },
}

/// The WAL's path for a given persist path: `<persist_path>.wal` (extension
/// appended, not replaced, so `cache.bin` and `cache.wal` never collide).
pub fn wal_path(persist_path: &Path) -> PathBuf {
    let mut os = persist_path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// The serve operation log. A thin typed layer over [`FramedLog`]: encoding
/// reuses the wire protocol's length-prefixed string codec, durability and
/// torn-tail recovery are the framed log's.
#[derive(Debug)]
pub struct ServeWal {
    log: FramedLog,
}

impl ServeWal {
    /// Opens (or creates) the WAL at `path`, returning the ops to replay on
    /// top of the snapshot and what recovery dropped.
    ///
    /// A `Flush` record discards the ops before it during decode, mirroring
    /// what replay would do anyway — callers apply the returned ops in
    /// order without special-casing.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// when a checksum-valid record fails to decode (version skew — the
    /// checksum rules out disk damage).
    pub fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(Self, Vec<WalOp>, RecoveryStats), StoreError> {
        let (log, records, stats) = FramedLog::open(path, policy)?;
        let mut ops: Vec<WalOp> = Vec::with_capacity(records.len());
        for record in records {
            let mut cursor = Cursor::new(&record.payload);
            match record.kind {
                OP_INSERT | OP_TENANT_INSERT => {
                    let op = (|| -> Result<WalOp, crate::protocol::ProtocolError> {
                        let tenant = (record.kind == OP_TENANT_INSERT)
                            .then(|| cursor.str())
                            .transpose()?;
                        let query = cursor.str()?;
                        let response = cursor.str()?;
                        let context = cursor.strs()?;
                        cursor.finish()?;
                        Ok(WalOp::Insert {
                            tenant,
                            query,
                            response,
                            context,
                        })
                    })()
                    .map_err(|e| {
                        StoreError::Corrupt(format!("WAL insert record failed to decode: {e}"))
                    })?;
                    ops.push(op);
                }
                OP_FLUSH => {
                    // Everything before the (legacy, all-tenant) flush is
                    // gone; replaying it would only be re-evicted. Epoch
                    // bumps survive — they are monotonic state, not entries.
                    ops.retain(|op| matches!(op, WalOp::Invalidate { .. }));
                }
                OP_TENANT_FLUSH => {
                    let tenant = (|| -> Result<String, crate::protocol::ProtocolError> {
                        let tenant = cursor.str()?;
                        cursor.finish()?;
                        Ok(tenant)
                    })()
                    .map_err(|e| {
                        StoreError::Corrupt(format!("WAL flush record failed to decode: {e}"))
                    })?;
                    // Only this tenant's earlier inserts are gone. (New logs
                    // are always tenant-explicit; a legacy `None` insert can
                    // only coexist with legacy flushes.)
                    ops.retain(
                        |op| !matches!(op, WalOp::Insert { tenant: Some(t), .. } if *t == tenant),
                    );
                }
                OP_INVALIDATE => {
                    let op = (|| -> Result<WalOp, crate::protocol::ProtocolError> {
                        let tenant = cursor.str()?;
                        let epoch = cursor.u64()?;
                        cursor.finish()?;
                        Ok(WalOp::Invalidate { tenant, epoch })
                    })()
                    .map_err(|e| {
                        StoreError::Corrupt(format!("WAL invalidate record failed to decode: {e}"))
                    })?;
                    ops.push(op);
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "WAL record has unknown kind {other}"
                    )));
                }
            }
        }
        Ok((Self { log }, ops, stats))
    }

    /// Appends one acknowledged insert as a legacy (default-tenant) record.
    /// Fsyncs per the open policy.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the append or sync fails.
    pub fn append_insert(
        &mut self,
        query: &str,
        response: &str,
        context: &[String],
    ) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(12 + query.len() + response.len());
        put_str(&mut payload, query);
        put_str(&mut payload, response);
        put_strs(&mut payload, context);
        self.log.append(OP_INSERT, &payload)
    }

    /// Stages one tenant-scoped insert: written, not yet synced. Acknowledge
    /// it only after the next [`ServeWal::commit`] returns.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the write fails.
    pub fn stage_insert(
        &mut self,
        tenant: &str,
        query: &str,
        response: &str,
        context: &[String],
    ) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(16 + tenant.len() + query.len() + response.len());
        put_str(&mut payload, tenant);
        put_str(&mut payload, query);
        put_str(&mut payload, response);
        put_strs(&mut payload, context);
        self.log.stage(OP_TENANT_INSERT, &payload)
    }

    /// Appends one acknowledged legacy (all-tenant) flush. Fsyncs per the
    /// open policy.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the append or sync fails.
    pub fn append_flush(&mut self) -> Result<(), StoreError> {
        self.log.append(OP_FLUSH, &[])
    }

    /// Stages one tenant-scoped flush (see [`ServeWal::stage_insert`]).
    ///
    /// # Errors
    /// [`StoreError::Io`] when the write fails.
    pub fn stage_flush(&mut self, tenant: &str) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(4 + tenant.len());
        put_str(&mut payload, tenant);
        self.log.stage(OP_TENANT_FLUSH, &payload)
    }

    /// Stages one epoch bump (see [`ServeWal::stage_insert`]).
    ///
    /// # Errors
    /// [`StoreError::Io`] when the write fails.
    pub fn stage_invalidate(&mut self, tenant: &str, epoch: u64) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(12 + tenant.len());
        put_str(&mut payload, tenant);
        payload.extend_from_slice(&epoch.to_le_bytes());
        self.log.stage(OP_INVALIDATE, &payload)
    }

    /// Applies the open policy to everything staged — the commit point the
    /// staged records' acknowledgements wait for. Returns whether an
    /// `fdatasync` ran ([`FramedLog::commit`]).
    ///
    /// # Errors
    /// [`StoreError::Io`] when the sync fails.
    pub fn commit(&mut self) -> Result<bool, StoreError> {
        self.log.commit()
    }

    /// Truncates the WAL back to empty — called right after a snapshot
    /// lands, which now covers everything the WAL held.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the truncate fails.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.log.reset()
    }

    /// Forces buffered appends to disk regardless of policy.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the fsync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mc_serve_wal_tests");
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

    fn insert(q: &str) -> WalOp {
        WalOp::Insert {
            tenant: None,
            query: q.into(),
            response: format!("{q}-response"),
            context: vec!["turn one".into()],
        }
    }

    fn tenant_insert(tenant: &str, q: &str) -> WalOp {
        WalOp::Insert {
            tenant: Some(tenant.into()),
            query: q.into(),
            response: format!("{q}-response"),
            context: Vec::new(),
        }
    }

    fn append(wal: &mut ServeWal, op: &WalOp) {
        match op {
            WalOp::Insert {
                tenant: None,
                query,
                response,
                context,
            } => wal.append_insert(query, response, context).unwrap(),
            WalOp::Insert {
                tenant: Some(tenant),
                query,
                response,
                context,
            } => wal.stage_insert(tenant, query, response, context).unwrap(),
            WalOp::Flush { tenant: None } => wal.append_flush().unwrap(),
            WalOp::Flush {
                tenant: Some(tenant),
            } => wal.stage_flush(tenant).unwrap(),
            WalOp::Invalidate { tenant, epoch } => wal.stage_invalidate(tenant, *epoch).unwrap(),
        }
        wal.commit().unwrap();
    }

    #[test]
    fn ops_replay_in_append_order() {
        let path = temp_path("t");
        let ops = vec![insert("a"), insert("b"), insert("c")];
        {
            let (mut wal, replayed, _) = ServeWal::open(&path, FsyncPolicy::Always).unwrap();
            assert!(replayed.is_empty());
            for op in &ops {
                append(&mut wal, op);
            }
        }
        let (_, replayed, stats) = ServeWal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replayed, ops);
        assert_eq!(stats.records_replayed, 3);
        assert_eq!(stats.bytes_truncated, 0);
    }

    #[test]
    fn flush_discards_everything_before_it() {
        let path = temp_path("t");
        {
            let (mut wal, _, _) = ServeWal::open(&path, FsyncPolicy::Always).unwrap();
            append(&mut wal, &insert("gone"));
            append(&mut wal, &WalOp::Flush { tenant: None });
            append(&mut wal, &insert("kept"));
        }
        let (_, replayed, _) = ServeWal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replayed, vec![insert("kept")]);
    }

    #[test]
    fn tenant_records_round_trip_and_scope_their_flush() {
        let path = temp_path("t");
        {
            let (mut wal, _, _) = ServeWal::open(&path, FsyncPolicy::Always).unwrap();
            append(&mut wal, &tenant_insert("acme", "gone"));
            append(&mut wal, &tenant_insert("beta", "survives"));
            append(
                &mut wal,
                &WalOp::Invalidate {
                    tenant: "acme".into(),
                    epoch: 3,
                },
            );
            append(
                &mut wal,
                &WalOp::Flush {
                    tenant: Some("acme".into()),
                },
            );
            append(&mut wal, &tenant_insert("acme", "kept"));
        }
        let (_, replayed, _) = ServeWal::open(&path, FsyncPolicy::Never).unwrap();
        // The acme flush dropped only acme's earlier insert; beta's insert
        // and the epoch bump survive, in order.
        assert_eq!(
            replayed,
            vec![
                tenant_insert("beta", "survives"),
                WalOp::Invalidate {
                    tenant: "acme".into(),
                    epoch: 3,
                },
                tenant_insert("acme", "kept"),
            ]
        );
    }

    #[test]
    fn legacy_flush_spares_epoch_bumps() {
        let path = temp_path("t");
        {
            let (mut wal, _, _) = ServeWal::open(&path, FsyncPolicy::Always).unwrap();
            append(&mut wal, &tenant_insert("acme", "gone"));
            append(
                &mut wal,
                &WalOp::Invalidate {
                    tenant: "acme".into(),
                    epoch: 9,
                },
            );
            append(&mut wal, &WalOp::Flush { tenant: None });
        }
        let (_, replayed, _) = ServeWal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(
            replayed,
            vec![WalOp::Invalidate {
                tenant: "acme".into(),
                epoch: 9,
            }]
        );
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_path("t");
        {
            let (mut wal, _, _) = ServeWal::open(&path, FsyncPolicy::Always).unwrap();
            append(&mut wal, &insert("snapshotted"));
            wal.reset().unwrap();
            append(&mut wal, &insert("after"));
        }
        let (_, replayed, _) = ServeWal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replayed, vec![insert("after")]);
    }

    #[test]
    fn torn_tail_loses_only_the_last_record() {
        use std::fs::OpenOptions;
        let path = temp_path("t");
        {
            let (mut wal, _, _) = ServeWal::open(&path, FsyncPolicy::Always).unwrap();
            append(&mut wal, &insert("durable"));
            append(&mut wal, &insert("torn"));
        }
        let full = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 3)
            .unwrap();
        let (_, replayed, stats) = ServeWal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replayed, vec![insert("durable")]);
        assert_eq!(stats.records_replayed, 1);
        assert!(stats.bytes_truncated > 0);
    }

    #[test]
    fn wal_path_appends_the_extension() {
        assert_eq!(
            wal_path(Path::new("/tmp/cache.bin")),
            PathBuf::from("/tmp/cache.bin.wal")
        );
        assert_eq!(wal_path(Path::new("snap")), PathBuf::from("snap.wal"));
    }
}
