//! The three served workloads: an in-process `Server::start` on a four-shard
//! flat-SQ8 `ShardedCache`, default `ServeConfig` (batch 64 / 200 µs, memo
//! 4 096, singleflight on), driven over loopback TCP by this process.
//!
//! * `serve_hot` — closed loop, one generator thread, two connections with a
//!   pipelined window of 16 each; Zipf draws from 2 048 memoised texts plus
//!   2 % inserts. Encoder and scan are nearly bypassed: framing, event loop,
//!   batcher, memo and singleflight do the work.
//! * `serve_cold_open` — open loop at a fixed 2 000 requests/s on one
//!   connection (a sender thread that sleeps to each due time, a reader
//!   blocked in `read`); every text unique, so memo and singleflight never
//!   help and the encoder and the SQ8 scan dominate; queueing shows as
//!   latency from the due time.
//! * `durable_fill` — closed loop, one connection, window 8, 80 % inserts
//!   under `fsync: Always`, a `Save` closing every segment; set-up saves the
//!   cache, leaves a WAL tail, drops it and restores it; after the run the
//!   persisted files are copied aside and restored, and the last 2 000
//!   acknowledged inserts must all hit verbatim in the copy.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_bench::TrainedModel;
use mc_embedder::{ModelProfile, QueryEncoder};
use mc_serve::protocol::Response;
use mc_serve::wal::wal_path;
use mc_serve::{ServeConfig, ServeWal, Server, ServerHandle};
use mc_store::{FsyncPolicy, IndexKind, RecoveryStats};
use meancache::persist::{load_sharded_cache_with_report, save_sharded_cache_with_config};
use meancache::{MeanCacheConfig, SemanticCache, ShardedCache};

use crate::corpus::filler;
use crate::gen_serve::{
    self, ServePlan, COLD_CAPACITY, DURABLE_CAPACITY, DURABLE_RESPONSE_LEN, HOT_CAPACITY, SHARDS,
};
use crate::host::sched_totals;
use crate::ladder::{LadderInput, Rung, ServerSide};
use crate::plan::{Insert, Lookup, Op, Tally};
use crate::run::{scratch_dir, Env, Finish, Runner, Segment};
use crate::sched::Schedule;
use crate::spans::Spans;
use crate::wire::{frame_of, Conn};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
    Durable,
}

/// The constants of one served workload. Op counts are sized for segments of
/// about 2.5 s on the reference machine and never derived from durations.
struct Spec {
    limit_us: f64,
    capacity: usize,
    connections: usize,
    window: usize,
    ops_per_segment: usize,
}

/// Arrival rate of the open loop.
pub const COLD_RATE: u64 = 1_000;
/// Inserts left in the WAL (not yet in any snapshot) before each restore.
const WAL_TAIL: usize = 500;
/// Filler ids of the WAL tail written during `durable_fill` set-up.
const SETUP_TAIL_BASE: u64 = 50_000_000;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Cold => "serve_cold_open",
            Kind::Durable => "durable_fill",
        }
    }

    fn spec(self) -> Spec {
        match self {
            Kind::Hot => Spec {
                limit_us: 10_000.0,
                capacity: HOT_CAPACITY,
                connections: 2,
                window: 16,
                ops_per_segment: 62_000,
            },
            Kind::Cold => Spec {
                limit_us: 10_000.0,
                capacity: COLD_CAPACITY,
                connections: 1,
                window: usize::MAX,
                ops_per_segment: (COLD_RATE as f64 * crate::run::SEGMENT_SECONDS) as usize,
            },
            Kind::Durable => Spec {
                limit_us: 50_000.0,
                capacity: DURABLE_CAPACITY,
                connections: 1,
                window: 8,
                ops_per_segment: 7_000,
            },
        }
    }

    pub fn limit_us(self) -> f64 {
        self.spec().limit_us
    }

    /// Trace positions one segment consumes per connection.
    fn positions_per_segment(self) -> usize {
        match self {
            Kind::Hot => self.spec().ops_per_segment / 2,
            Kind::Cold => self.spec().ops_per_segment,
            // The `Save` that closes the segment.
            Kind::Durable => self.spec().ops_per_segment + 1,
        }
    }
}

/// A trace with its request frames encoded ahead of time, so the generator
/// thread copies bytes instead of building requests.
pub struct ServedPlan {
    plan: ServePlan,
    frames: Vec<Vec<Vec<u8>>>,
}

fn cache_config(threshold: f32, capacity: usize) -> MeanCacheConfig {
    MeanCacheConfig {
        capacity,
        ..MeanCacheConfig::default()
            .with_threshold(threshold)
            .with_index(IndexKind::flat_sq8())
            .with_shards(SHARDS)
    }
}

pub fn plan(kind: Kind, env: &Env, seed: u64, segments: usize) -> Arc<ServedPlan> {
    // Routing depends on the text and the shard count only, so a throw-away
    // cache with the serving topology answers `shard_of` for the real one.
    let tiny = QueryEncoder::new(ModelProfile::tiny(), 0).expect("tiny profile");
    let router = ShardedCache::new(tiny, cache_config(0.5, 1)).expect("valid config");
    let shard_of = |text: &str| router.shard_of(text, &[]);
    let spec = kind.spec();
    let plan = match kind {
        Kind::Hot => gen_serve::hot_plan(
            &env.corpus,
            seed,
            segments * kind.positions_per_segment(),
            &shard_of,
        ),
        Kind::Cold => {
            gen_serve::cold_plan(&env.corpus, seed, segments, spec.ops_per_segment, &shard_of)
        }
        Kind::Durable => gen_serve::durable_plan(
            seed,
            segments,
            spec.ops_per_segment,
            WAL_TAIL,
            &shard_of,
            &env.corpus,
        ),
    };
    let frames = plan
        .conns
        .iter()
        .map(|trace| trace.table.iter().map(frame_of).collect())
        .collect();
    Arc::new(ServedPlan { plan, frames })
}

pub struct Served {
    kind: Kind,
    model: TrainedModel,
    plan: Arc<ServedPlan>,
    handle: Option<ServerHandle>,
    conns: Vec<Conn>,
    /// Next trace position per connection.
    cursors: Vec<usize>,
    /// `storage_bytes() / len()` of the prefilled cache.
    memory_bytes_per_entry: f64,
    /// `durable_fill`: directory holding the persisted cache.
    persist_dir: Option<PathBuf>,
    /// `durable_fill`: what the set-up's snapshot restore reported.
    restore_report: Option<RecoveryStats>,
    serve_config: ServeConfig,
}

fn persist_path(dir: &Path) -> PathBuf {
    dir.join("cache.log")
}

impl Served {
    pub fn set_up(kind: Kind, env: &Env, plan: Arc<ServedPlan>, traced: bool) -> Self {
        let spec = kind.spec();
        let model = env.train();
        let mut cache = build_cache(&model, spec.capacity, &plan.plan.prefill);
        let memory_bytes_per_entry = cache.storage_bytes() as f64 / cache.len() as f64;
        let mut serve_config = ServeConfig {
            trace_sample: u64::from(traced),
            ..ServeConfig::default()
        };
        let mut persist_dir = None;
        let mut restore_report = None;
        if kind == Kind::Durable {
            // Save, leave a WAL tail the snapshot does not cover, drop the
            // cache, and come back the way a restarted server does: snapshot
            // restore here, WAL replay inside `Server::start`.
            let dir = scratch_dir(if traced { "durable_traced" } else { "durable" });
            let path = persist_path(&dir);
            save_sharded_cache_with_config(&cache, &path).expect("set-up save");
            let (mut wal, _, _) =
                ServeWal::open(wal_path(&path), FsyncPolicy::Always).expect("set-up WAL");
            for i in 0..WAL_TAIL as u64 {
                let text = filler(SETUP_TAIL_BASE + i);
                let response = crate::corpus::response_for(&text, DURABLE_RESPONSE_LEN);
                wal.append_insert(&text, &response, &[])
                    .expect("set-up WAL append");
            }
            drop(wal);
            drop(cache);
            let (restored, report) =
                load_sharded_cache_with_report(model.encoder.clone(), &path).expect("restore");
            cache = restored;
            serve_config.persist_path = Some(path);
            serve_config.fsync = FsyncPolicy::Always;
            serve_config.restored = report;
            restore_report = Some(report);
            persist_dir = Some(dir);
        }
        let handle = Server::start(cache, &serve_config, "127.0.0.1:0").expect("server start");
        let conns = (0..spec.connections)
            .map(|_| Conn::connect(handle.addr()).expect("connect"))
            .collect();
        Self {
            kind,
            model,
            cursors: vec![0; spec.connections],
            plan,
            handle: Some(handle),
            conns,
            memory_bytes_per_entry,
            persist_dir,
            restore_report,
            serve_config,
        }
    }

    /// Sends the next `count` requests of `conn` in one write and notes when.
    fn issue(&mut self, conn: usize, count: usize, inflight: &mut VecDeque<(usize, Instant)>) {
        let start = self.cursors[conn];
        let trace = &self.plan.plan.conns[conn];
        assert!(
            start + count <= trace.seq.len(),
            "trace of connection {conn} exhausted"
        );
        let mut bytes = Vec::new();
        for position in start..start + count {
            bytes.extend_from_slice(&self.plan.frames[conn][trace.seq[position] as usize]);
        }
        self.cursors[conn] += count;
        let sent = Instant::now();
        self.conns[conn].send(&bytes).expect("send");
        inflight.extend((start..start + count).map(|position| (position, sent)));
    }

    /// Closed loop: keeps `window` requests in flight per connection, blocks
    /// in `read` on one connection after the other, and refills a connection
    /// by as many requests as it just completed. Every connection gets the
    /// same `per_conn` share of the segment and none may run more than a
    /// window ahead of the slowest, so a segment is exactly the same ops in
    /// every run and all connections stay busy to its end. Issuing stops at
    /// the share and the pipes drain, so segments start and end empty.
    fn closed_segment(&mut self, per_conn: usize, spans: &mut Option<&mut Spans>) -> Tally {
        let spec = self.kind.spec();
        let mut tally = Tally::default();
        let mut inflight: Vec<VecDeque<(usize, Instant)>> = vec![VecDeque::new(); spec.connections];
        let mut issued = vec![0usize; spec.connections];
        let mut replies = Vec::new();
        loop {
            for conn in 0..spec.connections {
                let slowest = *issued.iter().min().expect("at least one connection");
                let refill = (spec.window - inflight[conn].len())
                    .min(per_conn - issued[conn])
                    .min(slowest + spec.window - issued[conn]);
                if refill > 0 {
                    self.issue(conn, refill, &mut inflight[conn]);
                    issued[conn] += refill;
                }
            }
            if inflight.iter().all(VecDeque::is_empty) {
                return tally;
            }
            for (conn, pending) in inflight.iter_mut().enumerate() {
                if pending.is_empty() {
                    continue;
                }
                replies.clear();
                self.conns[conn].recv(&mut replies).expect("recv");
                let received = Instant::now();
                for reply in replies.drain(..) {
                    let (position, sent) = pending.pop_front().expect("reply without request");
                    let op = self.plan.plan.conns[conn].op(position);
                    account(
                        &mut tally,
                        op,
                        reply,
                        (received - sent).as_secs_f64() * 1e6,
                        spec.limit_us,
                    );
                    if let Some(spans) = spans.as_deref_mut() {
                        spans.record("serve.request", sent, received, None, position as u32);
                    }
                }
            }
        }
    }

    /// Open loop: a sender thread sleeps to each due time and writes the
    /// request; this thread blocks in `read` and times every reply from the
    /// request's due time. Nothing is shared between the two but the clock.
    fn open_segment(&mut self, total: usize, spans: &mut Option<&mut Spans>) -> (Tally, Vec<f64>) {
        let spec = self.kind.spec();
        let schedule = Schedule::per_second(COLD_RATE);
        let first = self.cursors[0];
        self.cursors[0] += total;
        let plan = Arc::clone(&self.plan);
        let mut sender_stream = self.conns[0].sender().expect("clone socket");
        let mut tally = Tally::default();
        let start = Instant::now();
        let late_us = std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                let trace = &plan.plan.conns[0];
                schedule.drive(start, total as u64, |i| {
                    let frame = &plan.frames[0][trace.seq[first + i as usize] as usize];
                    sender_stream.write_all(frame).expect("send");
                })
            });
            let mut replies = Vec::new();
            let mut completed = 0u64;
            while completed < total as u64 {
                replies.clear();
                self.conns[0].recv(&mut replies).expect("recv");
                let received = Instant::now();
                for reply in replies.drain(..) {
                    let due = start + Duration::from_nanos(schedule.due_ns(completed));
                    let position = first + completed as usize;
                    let us = received.saturating_duration_since(due).as_secs_f64() * 1e6;
                    account(
                        &mut tally,
                        self.plan.plan.conns[0].op(position),
                        reply,
                        us,
                        spec.limit_us,
                    );
                    if let Some(spans) = spans.as_deref_mut() {
                        spans.record("serve.request", due, received, None, position as u32);
                    }
                    completed += 1;
                }
            }
            sender.join().expect("sender thread")
        });
        (tally, late_us)
    }

    /// Window-1 lookups whose reply must be verbatim.
    fn probe_verbatim(conn: &mut Conn, probes: &[Lookup], limit_us: f64) -> Tally {
        let mut tally = Tally::default();
        for probe in probes {
            let op = Op::Lookup(probe.clone());
            let frame = frame_of(&op);
            let sent = Instant::now();
            let reply = conn.call(&frame).expect("probe");
            let us = sent.elapsed().as_secs_f64() * 1e6;
            account(&mut tally, &op, reply, us, limit_us);
        }
        tally
    }

    /// `durable_fill`'s closing act: the WAL-tail inserts, then — before any
    /// shutdown could auto-save — copy the persisted files aside, restore the
    /// copy (last snapshot + WAL tail) and require the last acknowledged
    /// inserts in it, verbatim.
    fn durability_check(&mut self) -> (Tally, f64) {
        let spec = self.kind.spec();
        let tail_tally = self.closed_segment(WAL_TAIL, &mut None);
        let dir = self.persist_dir.clone().expect("durable_fill persists");
        let entries = self.server_side().expect("served").stats.entries;
        let copy = scratch_dir("durable_copy");
        let mut disk_bytes = 0;
        for file in std::fs::read_dir(&dir).expect("persist dir").flatten() {
            disk_bytes += file.metadata().expect("metadata").len();
            std::fs::copy(file.path(), copy.join(file.file_name())).expect("copy aside");
        }
        let path = persist_path(&copy);
        let (restored, report) = load_sharded_cache_with_report(self.model.encoder.clone(), &path)
            .expect("restore copy");
        let config = ServeConfig {
            persist_path: Some(path),
            restored: report,
            ..self.serve_config.clone()
        };
        let second = Server::start(restored, &config, "127.0.0.1:0").expect("second server");
        let mut conn = Conn::connect(second.addr()).expect("connect");
        let mut tally =
            Self::probe_verbatim(&mut conn, &self.plan.plan.residency_probes, spec.limit_us);
        drop(conn);
        second.shutdown();
        std::fs::remove_dir_all(&copy).ok();
        tally.absorb(tail_tally);
        (tally, disk_bytes as f64 / entries as f64)
    }
}

fn build_cache(model: &TrainedModel, capacity: usize, prefill: &[Insert]) -> ShardedCache {
    let config = cache_config(model.threshold, capacity);
    let mut cache = ShardedCache::new(model.encoder.clone(), config).expect("valid config");
    for insert in prefill {
        cache
            .insert(&insert.text, &insert.response, &insert.context)
            .expect("prefill insert");
    }
    assert_eq!(cache.len(), capacity, "prefill fills the cache exactly");
    cache
}

/// Checks one reply against the op that caused it and tallies it.
fn account(tally: &mut Tally, op: &Op, reply: Response, us: f64, limit_us: f64) {
    match (op, reply) {
        (Op::Lookup(l), Response::Hit { response, .. }) => {
            tally.lookup_done(l, Some(&response), us, limit_us)
        }
        (Op::Lookup(l), Response::Miss) => tally.lookup_done(l, None, us, limit_us),
        (Op::Insert(_), Response::Inserted(_)) => tally.insert_done(us, limit_us),
        (Op::Save, Response::Saved(_)) => {
            tally.attempted += 1;
            tally.saves += 1;
            tally.in_limit += u64::from(us <= limit_us);
        }
        (op, reply) => {
            tally.attempted += 1;
            tally.fail(|| format!("{op:?} was answered with {reply:?}"));
        }
    }
}

impl Runner for Served {
    fn segment(&mut self, _index: usize, mut spans: Option<&mut Spans>) -> Segment {
        let per_conn = self.kind.positions_per_segment();
        let sched_before = sched_totals();
        let started = Instant::now();
        let (tally, late_us) = match self.kind {
            Kind::Cold => self.open_segment(per_conn, &mut spans),
            Kind::Hot | Kind::Durable => (self.closed_segment(per_conn, &mut spans), Vec::new()),
        };
        Segment {
            wall_s: started.elapsed().as_secs_f64(),
            sched: sched_totals().since(sched_before),
            tally,
            late_us,
        }
    }

    fn finish(&mut self) -> Finish {
        let limit_us = self.kind.spec().limit_us;
        match self.kind {
            Kind::Durable => {
                let (tally, bytes_per_entry) = self.durability_check();
                Finish {
                    tally,
                    bytes_per_entry,
                }
            }
            Kind::Hot | Kind::Cold => Finish {
                tally: Self::probe_verbatim(
                    &mut self.conns[0],
                    &self.plan.plan.residency_probes,
                    limit_us,
                ),
                bytes_per_entry: self.memory_bytes_per_entry,
            },
        }
    }

    fn ladder_input(&mut self) -> LadderInput {
        let spec = self.kind.spec();
        let side = self.server_side().expect("served");
        let plan = &self.plan.plan;
        let sample = (self.kind.positions_per_segment()..plan.conns[0].seq.len())
            .filter_map(|position| match plan.conns[0].op(position) {
                Op::Lookup(l) => Some(l.clone()),
                _ => None,
            })
            .take(crate::ladder::SAMPLE)
            .collect();
        LadderInput {
            model_threshold: self.model.threshold,
            cache: build_cache(&self.model, spec.capacity, &plan.prefill),
            serve_memo: true,
            warm_memo: self.kind == Kind::Hot,
            sample,
            top_rung: Rung::Loopback,
            evictions: side.stats.shard_stats.iter().map(|s| s.evictions).sum(),
            restore_replayed: self.restore_report.map(|report| {
                report.records_replayed + report.wal_tail_replayed + side.stats.wal_replayed
            }),
        }
    }

    fn server_side(&mut self) -> Option<ServerSide> {
        let handle = self.handle.as_ref()?;
        let stats = mc_serve::Client::connect(handle.addr())
            .and_then(|mut c| c.stats())
            .expect("stats");
        Some(ServerSide {
            stats,
            io_events: handle.io_event_count(),
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        if let Some(dir) = &self.persist_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
