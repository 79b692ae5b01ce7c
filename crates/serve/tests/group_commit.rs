//! Group-commit invariants of the batcher: the batch, not the request, is
//! the unit of syncing and of replying, and `ack ⇒ durable` holds to the
//! letter while it is.
//!
//! Every test parks the batcher inside a WAL sync with the `wal.sync`
//! failpoint's `Hold` action (scoped to the test's own WAL path, so the
//! tests run in parallel), queues the requests that must share a batch
//! while it is parked, and then walks the batcher from one commit point to
//! the next by re-arming the point — no sleeps decide an interleaving.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_serve::wal::wal_path;
use mc_serve::{
    ServeConfig, ServePipeline, ServeReply, ServeRequest, ServeStatsSnapshot, ServeWal, Ticket,
    WalOp,
};
use mc_store::failpoints::{self, FailAction};
use mc_store::wal::read_records;
use mc_store::FsyncPolicy;
use meancache::{MeanCacheConfig, ShardedCache, DEFAULT_TENANT};

const SYNC: &str = "wal.sync";

/// A pipeline persisting under its own scratch directory with
/// `fsync = Always`, plus the failpoint tag of its WAL.
struct Fixture {
    pipeline: ServePipeline,
    dir: PathBuf,
    wal: PathBuf,
    tag: String,
}

impl Fixture {
    /// `max_batch` is the size of the batch under test: `pop_batch` returns
    /// the moment it holds that many, so the requests queued while the
    /// batcher is parked form exactly one batch.
    fn start(name: &str, max_batch: usize) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "mc_serve_group_commit_{name}_{}_{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let persist = dir.join("cache.log");
        let wal = wal_path(&persist);
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        let cache = ShardedCache::new(
            encoder,
            MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_shards(2),
        )
        .unwrap();
        let config = ServeConfig {
            max_batch,
            persist_path: Some(persist),
            fsync: FsyncPolicy::Always,
            ..ServeConfig::default()
        };
        Self {
            pipeline: ServePipeline::start(cache, &config).unwrap(),
            tag: wal.display().to_string(),
            dir,
            wal,
        }
    }

    fn submit(&self, request: ServeRequest) -> Ticket {
        self.pipeline.submit(request).unwrap()
    }

    /// Parks the batcher: a lone priming insert whose commit is held.
    fn park(&self) -> Ticket {
        failpoints::set_scoped(SYNC, &self.tag, FailAction::Hold);
        let primer = self.submit(insert("primer"));
        self.await_syncs(1);
        assert!(primer.try_reply().is_none(), "the primer's sync is held");
        primer
    }

    /// Lets the held sync go and arms `next` for the one after it.
    fn step(&self, next: FailAction) {
        failpoints::set_scoped(SYNC, &self.tag, next);
    }

    /// Blocks until the currently armed action has seen `n` syncs.
    fn await_syncs(&self, n: u64) {
        let started = Instant::now();
        while failpoints::hits(SYNC, &self.tag) < n {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "the batcher never reached its sync"
            );
            std::thread::yield_now();
        }
    }

    fn syncs(&self) -> u64 {
        failpoints::hits(SYNC, &self.tag)
    }

    fn disarm(&self) {
        failpoints::clear_scoped(SYNC, &self.tag);
    }

    fn stats(&self) -> ServeStatsSnapshot {
        match self.submit(ServeRequest::Stats).wait() {
            ServeReply::Stats(stats) => *stats,
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// Records in the WAL file as it stands, read without opening it.
    fn wal_records(&self) -> usize {
        let (records, stats) = read_records(&self.wal).unwrap();
        assert_eq!(stats.bytes_truncated, 0, "the WAL has a torn tail");
        records.len()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.disarm();
        self.pipeline.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn insert(query: &str) -> ServeRequest {
    ServeRequest::Insert {
        query: query.into(),
        response: format!("{query} response"),
        context: Vec::new(),
    }
}

fn lookup(query: &str) -> ServeRequest {
    ServeRequest::Lookup {
        query: query.into(),
        context: Vec::new(),
    }
}

fn unresolved(tickets: &[Ticket]) -> usize {
    tickets.iter().filter(|t| t.try_reply().is_none()).count()
}

#[test]
fn one_sync_covers_a_batch_and_no_ack_leaves_before_it() {
    const N: usize = 8;
    let fx = Fixture::start("one_sync", N);
    let primer = fx.park();
    let tickets: Vec<Ticket> = (0..N)
        .map(|i| fx.submit(insert(&format!("group commit subject {i}"))))
        .collect();

    fx.step(FailAction::Hold);
    assert!(matches!(primer.wait(), ServeReply::Inserted(_)));
    fx.await_syncs(1);
    // All N are applied and staged, the one sync covering them is in
    // flight, and not one of them has been acknowledged.
    assert_eq!(fx.wal_records(), N + 1);
    assert_eq!(unresolved(&tickets), N);

    // A zero delay injects nothing; it counts any further sync.
    fx.step(FailAction::Delay { micros: 0 });
    for ticket in &tickets {
        assert!(matches!(ticket.wait(), ServeReply::Inserted(_)));
    }
    assert_eq!(fx.syncs(), 0, "the batch needed no second sync");
    let stats = fx.stats();
    assert_eq!(stats.wal_appends, N as u64 + 1);
    assert_eq!(stats.wal_syncs, 2, "one for the primer, one for the batch");
    assert_eq!(stats.wal_append_errors, 0);
}

#[test]
fn save_mid_batch_commits_and_releases_the_writes_before_it() {
    let fx = Fixture::start("save", 4);
    let primer = fx.park();
    let before = [
        fx.submit(insert("before save one")),
        fx.submit(insert("before save two")),
    ];
    let save = fx.submit(ServeRequest::Save);
    let after = fx.submit(insert("after save"));

    fx.step(FailAction::Hold);
    primer.wait();
    fx.await_syncs(1);
    // The save is a commit point: the sync for the writes before it runs
    // first, and nothing has been answered yet.
    assert_eq!(unresolved(&before), 2);

    fx.step(FailAction::Hold);
    fx.await_syncs(1);
    // Held again at the end of the batch: the writes before the save were
    // released at the save, the save and the write after it were not.
    assert_eq!(unresolved(&before), 0);
    assert!(save.try_reply().is_none() && after.try_reply().is_none());
    // The save emptied the WAL of all it covered; only the later insert
    // has been staged since.
    assert_eq!(fx.wal_records(), 1);

    fx.disarm();
    assert_eq!(save.wait(), ServeReply::Saved(3));
    assert!(matches!(after.wait(), ServeReply::Inserted(_)));
    assert_eq!(fx.stats().wal_syncs, 3);
}

#[test]
fn flush_and_invalidate_acks_wait_for_the_commit_like_inserts() {
    let fx = Fixture::start("control", 2);
    let primer = fx.park();
    let flush = fx.submit(ServeRequest::Flush);
    let invalidate = fx.submit(ServeRequest::Invalidate {
        tenant: DEFAULT_TENANT.into(),
        epoch: 0,
    });

    fx.step(FailAction::Hold);
    primer.wait();
    fx.await_syncs(1);
    assert!(flush.try_reply().is_none() && invalidate.try_reply().is_none());

    fx.disarm();
    assert_eq!(flush.wait(), ServeReply::Flushed(1));
    assert_eq!(invalidate.wait(), ServeReply::Invalidated(1));
    let stats = fx.stats();
    assert_eq!((stats.wal_appends, stats.wal_syncs), (3, 2));
}

#[test]
fn a_failed_sync_still_acks_the_batch_and_counts_every_record() {
    const N: usize = 5;
    let fx = Fixture::start("sync_fails", N);
    let primer = fx.park();
    let tickets: Vec<Ticket> = (0..N)
        .map(|i| fx.submit(insert(&format!("degraded durability subject {i}"))))
        .collect();

    fx.step(FailAction::ErrorOnNth {
        n: 1,
        kind: std::io::ErrorKind::Other,
    });
    primer.wait();
    // Today's policy, per record: the writes are applied in memory, so they
    // are acknowledged, and the degradation is counted.
    for ticket in &tickets {
        assert!(matches!(ticket.wait(), ServeReply::Inserted(_)));
    }
    let stats = fx.stats();
    assert_eq!(stats.wal_append_errors, N as u64);
    assert_eq!((stats.wal_appends, stats.wal_syncs), (1, 1), "the primer's");
    assert_eq!(stats.entries, N + 1);
    fx.disarm();

    // The log the failed sync left behind replays every record.
    let copy = fx.dir.join("copy.wal");
    std::fs::copy(&fx.wal, &copy).unwrap();
    let (_, ops, recovery) = ServeWal::open(&copy, FsyncPolicy::Never).unwrap();
    assert_eq!(recovery.bytes_truncated, 0);
    assert_eq!(ops.len(), N + 1);
    assert!(ops.iter().all(|op| matches!(op, WalOp::Insert { .. })));
}

#[test]
fn a_lookup_behind_an_insert_hits_and_waits_for_the_insert_s_sync() {
    let fx = Fixture::start("read_your_batch", 2);
    let primer = fx.park();
    let write = fx.submit(insert("what the lookup is about to ask"));
    let read = fx.submit(lookup("what the lookup is about to ask"));

    fx.step(FailAction::Hold);
    primer.wait();
    fx.await_syncs(1);
    // The lookup has executed — and saw an insert that is not durable yet,
    // so its reply waits for the same sync.
    assert!(write.try_reply().is_none() && read.try_reply().is_none());

    fx.disarm();
    assert!(matches!(write.wait(), ServeReply::Inserted(_)));
    match read.wait() {
        ServeReply::Outcome(outcome) => assert_eq!(
            outcome.hit().expect("the batch's own insert").response,
            "what the lookup is about to ask response"
        ),
        other => panic!("expected an outcome, got {other:?}"),
    }
}
