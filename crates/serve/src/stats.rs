//! The serving stats plane: live atomic counters on the hot path
//! ([`ServeMetrics`]) and the point-in-time [`ServeStatsSnapshot`] a `Stats`
//! request returns (serialised as JSON on the wire, so dashboards and the
//! bench harness parse one schema).

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mc_embedder::{MemoObserver, MemoOutcome};
use mc_metrics::trace::{flag, Stage, Trace, TraceSnapshot};
use mc_metrics::{percentile_from_log2_buckets, LatencyHistogram, Tracer};
use mc_store::RecoveryStats;
use meancache::{SemanticCache, ShardStat, ShardedCache, TenantedCache};
use serde::{Deserialize, Serialize};

/// Number of batch-size histogram buckets: bucket `i` counts batches of
/// size in `(2^(i-1), 2^i]` — i.e. 1, 2, 3–4, 5–8, … — with the last bucket
/// absorbing everything larger.
pub const BATCH_HIST_BUCKETS: usize = 12;

/// Slots in the flight recorder. Fixed at construction: ~256 traces is a
/// useful post-incident window and a bounded memory cost.
pub const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// Per-stage latency histograms the pipeline feeds. The stage names double
/// as the `stage` label in the text exposition.
pub const STAGE_HIST_NAMES: [&str; 5] = ["queue_wait", "encode", "probe", "commit", "write_flush"];

/// The server identity [`ServeStatsSnapshot::render_text`] exposes as a
/// `serve_build_info` labelled gauge: crate version plus the runtime
/// choices (poller kind, fsync policy) that a scrape should capture.
#[derive(Debug, Clone, Default)]
struct BuildInfo {
    poller: String,
    fsync: String,
}

/// Live counters the pipeline bumps on its hot path. All relaxed atomics:
/// monotonic tallies, never used to synchronise other memory. The tracer,
/// slow-request log, and per-stage histograms live here too so the event
/// loop and the batcher share one sink.
#[derive(Debug)]
pub struct ServeMetrics {
    admitted: AtomicU64,
    shed: AtomicU64,
    served_hits: AtomicU64,
    served_misses: AtomicU64,
    inserts: AtomicU64,
    control: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    coalesced: AtomicU64,
    singleflight: AtomicU64,
    pins_swept: AtomicU64,
    ttl_reclaimed: AtomicU64,
    deadline_expired: AtomicU64,
    panics_caught: AtomicU64,
    wal_appends: AtomicU64,
    wal_syncs: AtomicU64,
    wal_append_errors: AtomicU64,
    wal_replayed: AtomicU64,
    idle_reaped: AtomicU64,
    recovered_records: AtomicU64,
    recovered_bytes_truncated: AtomicU64,
    restore_snapshot_shards: AtomicU64,
    batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    latency: LatencyHistogram,
    /// When this metrics plane was created (= server start, for uptime).
    started: Instant,
    /// Sampling gate + flight recorder for per-request traces.
    tracer: Tracer,
    /// Per-stage latency histograms, indexed like [`STAGE_HIST_NAMES`].
    stage_hists: [LatencyHistogram; 5],
    /// Identity labels for the `serve_build_info` gauge (cold path only).
    build_info: Mutex<BuildInfo>,
    /// Open slow-request log, when `--trace-log` is configured. Written
    /// only for requests over the slow threshold — never on the fast path.
    slow_log: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self {
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served_hits: AtomicU64::new(0),
            served_misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            control: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            singleflight: AtomicU64::new(0),
            pins_swept: AtomicU64::new(0),
            ttl_reclaimed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            wal_append_errors: AtomicU64::new(0),
            wal_replayed: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            recovered_records: AtomicU64::new(0),
            recovered_bytes_truncated: AtomicU64::new(0),
            restore_snapshot_shards: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHistogram::default(),
            started: Instant::now(),
            tracer: Tracer::new(FLIGHT_RECORDER_CAPACITY),
            stage_hists: std::array::from_fn(|_| LatencyHistogram::default()),
            build_info: Mutex::new(BuildInfo::default()),
            slow_log: Mutex::new(None),
        }
    }
}

/// Feeds every memo consultation into the `encode` stage histogram: memo
/// hits record ~0 µs (no encoder run), misses record the measured encoder
/// time. Installed on the [`mc_embedder::EmbeddingMemo`] at pipeline start.
#[derive(Debug)]
pub struct EncodeStageObserver(Arc<ServeMetrics>);

impl EncodeStageObserver {
    /// Wraps the shared metrics plane.
    pub fn new(metrics: Arc<ServeMetrics>) -> Self {
        EncodeStageObserver(metrics)
    }
}

impl MemoObserver for EncodeStageObserver {
    fn memo_consulted(&self, outcome: MemoOutcome) {
        self.0.stage_hists[1].record_micros(outcome.encode_micros);
    }
}

impl ServeMetrics {
    /// A request made it into the admission queue.
    pub fn record_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused because the queue was full.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A lookup was answered (`hit` says how).
    pub fn record_served(&self, hit: bool) {
        if hit {
            self.served_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.served_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An insert was executed.
    pub fn record_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// A control request (stats / threshold / flush) was executed.
    pub fn record_control(&self) {
        self.control.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` duplicate lookups in one batch were answered by a single probe
    /// (request coalescing / singleflight).
    pub fn record_coalesced(&self, n: u64) {
        if n > 0 {
            self.coalesced.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The batcher pulled a batch of `size` requests off the queue.
    pub fn record_batch(&self, size: usize) {
        if size == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        let bucket = (usize::BITS - (size - 1).leading_zeros()) as usize;
        let bucket = bucket.min(BATCH_HIST_BUCKETS - 1);
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A duplicate lookup attached to an identical request already in
    /// flight across batches (cross-batch singleflight) instead of being
    /// enqueued.
    pub fn record_singleflight(&self) {
        self.singleflight.fetch_add(1, Ordering::Relaxed);
    }

    /// A root-pin GC sweep dropped `n` dead pins.
    pub fn record_pins_swept(&self, n: u64) {
        if n > 0 {
            self.pins_swept.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The lifecycle sweep physically reclaimed `n` TTL-expired or
    /// epoch-invalidated entries.
    pub fn record_ttl_reclaimed(&self, n: u64) {
        if n > 0 {
            self.ttl_reclaimed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A lookup's deadline expired before the batcher reached it; the
    /// ticket resolved to a retryable deadline-exceeded failure.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A panic in per-batch cache work was caught and converted into error
    /// replies instead of taking the batcher thread down.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// One WAL commit covered `appended` acknowledged writes; `synced` says
    /// whether it ran an `fdatasync` (the fsync policy may not have asked).
    pub fn record_wal_commit(&self, appended: u64, synced: bool) {
        self.wal_appends.fetch_add(appended, Ordering::Relaxed);
        self.wal_syncs
            .fetch_add(u64::from(synced), Ordering::Relaxed);
    }

    /// `n` WAL writes failed (or the commit covering them, or a truncate);
    /// the writes were still acknowledged from memory, durability for them
    /// is degraded until the next snapshot.
    pub fn record_wal_append_errors(&self, n: u64) {
        self.wal_append_errors.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` WAL ops were replayed into the cache at startup.
    pub fn record_wal_replayed(&self, n: u64) {
        if n > 0 {
            self.wal_replayed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// An idle connection was reaped by the event loop.
    pub fn record_idle_reaped(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds what a restore did at startup into the stats plane: shards
    /// restored from their snapshot, and what replay — of the other shards'
    /// entry logs and of the serve WAL — replayed and dropped.
    pub fn record_recovery(&self, stats: RecoveryStats) {
        self.recovered_records
            .fetch_add(stats.records_replayed, Ordering::Relaxed);
        self.recovered_bytes_truncated
            .fetch_add(stats.bytes_truncated, Ordering::Relaxed);
        self.restore_snapshot_shards
            .fetch_add(stats.snapshot_loaded, Ordering::Relaxed);
    }

    /// Records one request's admission-to-resolution latency.
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency.record(elapsed);
    }

    /// Requests shed so far (exposed for backpressure-aware harnesses).
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The request tracer: sampling gate plus flight recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records time a request spent in the admission queue (`queue_wait`).
    pub fn record_queue_wait_micros(&self, micros: u64) {
        self.stage_hists[0].record_micros(micros);
    }

    /// Records one shard-probe duration (`probe`). Coalesced runs report
    /// the batch time amortised over the unique probes.
    pub fn record_probe_micros(&self, micros: u64) {
        self.stage_hists[2].record_micros(micros);
    }

    /// Records one feedback-commit duration (`commit`).
    pub fn record_commit_micros(&self, micros: u64) {
        self.stage_hists[3].record_micros(micros);
    }

    /// Records one connection-flush duration on the event loop
    /// (`write_flush`).
    pub fn record_write_flush(&self, elapsed: Duration) {
        self.stage_hists[4].record(elapsed);
    }

    /// Applies the tracing knobs and, when a path is given, opens (and
    /// truncates) the slow-request log. Called once at pipeline start.
    pub fn configure_tracing(
        &self,
        sample_every: u64,
        slow_threshold: Duration,
        trace_log: Option<&std::path::Path>,
    ) -> std::io::Result<()> {
        self.tracer.set_sample_every(sample_every);
        self.tracer
            .set_slow_threshold_us(slow_threshold.as_micros().min(u128::from(u64::MAX)) as u64);
        if let Some(path) = trace_log {
            let file = std::fs::File::create(path)?;
            *lock(&self.slow_log) = Some(std::io::BufWriter::new(file));
        }
        Ok(())
    }

    /// Records the identity labels for the `serve_build_info` gauge.
    pub fn set_build_info(&self, poller: &str, fsync: &str) {
        let mut info = lock(&self.build_info);
        info.poller = poller.to_string();
        info.fsync = fsync.to_string();
    }

    /// Finishes a request on the batcher side: records its end-to-end
    /// latency and, when the request is an outlier (over the slow
    /// threshold, or carrying `extra_flags` such as deadline-expired or
    /// panicked), forces it into the flight recorder and the slow-request
    /// log — synthesising a minimal trace when the request wasn't sampled,
    /// so outliers *always* land in the recorder.
    pub fn record_done(
        &self,
        elapsed: Duration,
        kind: &'static str,
        trace: Option<&Arc<Trace>>,
        extra_flags: u64,
    ) {
        self.record_latency(elapsed);
        let total_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let slow = self.tracer.is_slow(total_us);
        if let Some(t) = trace {
            if extra_flags != 0 {
                t.set_flag(extra_flags);
            }
            if slow {
                t.set_flag(flag::SLOW);
            }
        }
        if extra_flags == 0 && !slow {
            return; // sampled traces are recorded at the `written` mark
        }
        let t = match trace {
            Some(t) => Arc::clone(t),
            None => {
                // Unsampled outlier: synthesise a trace carrying only the
                // end-to-end time so it still lands in the recorder.
                let t = self.tracer.force_begin(kind);
                t.mark_at(Stage::Committed, total_us);
                t.set_flag(extra_flags | if slow { flag::SLOW } else { 0 });
                t
            }
        };
        self.tracer.record(&t);
        self.log_outlier(&t.snapshot());
    }

    /// The event-loop side of a trace's life: marks the `written` stage and
    /// commits the sampled trace to the flight recorder (first caller wins,
    /// so a trace already force-recorded as an outlier is not duplicated).
    pub fn finish_written(&self, trace: &Arc<Trace>) {
        trace.mark(Stage::Written);
        self.tracer.record(trace);
    }

    /// Appends one JSON trace line to the slow-request log, if configured.
    fn log_outlier(&self, snap: &TraceSnapshot) {
        let mut guard = lock(&self.slow_log);
        if let Some(writer) = guard.as_mut() {
            if let Ok(line) = serde_json::to_string(snap) {
                let _ = writeln!(writer, "{line}");
                let _ = writer.flush();
            }
        }
    }
}

/// Locks a mutex, recovering from poisoning (metrics must not be lost to a
/// panicked writer elsewhere).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-tenant occupancy and decision counters at snapshot time: the
/// tenancy rows of the stats plane (and of `mctop`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStatSnapshot {
    /// Tenant name.
    pub name: String,
    /// Resident entries in this tenant's cache.
    pub entries: usize,
    /// Capacity quota (entries; 0 = inherits the template capacity).
    pub quota: usize,
    /// Current invalidation epoch.
    pub epoch: u64,
    /// Cache-level lookups this tenant has issued.
    pub lookups: u64,
    /// Cache-level hits this tenant has seen (post-screening hits may be
    /// lower; see `expired` / `invalidated`).
    pub hits: u64,
    /// `hits / lookups` (0 when no lookups yet).
    pub hit_rate: f64,
    /// Probe hits screened into misses because the entry's TTL lapsed.
    pub expired: u64,
    /// Probe hits screened into misses because the entry predates the
    /// tenant's invalidation epoch.
    pub invalidated: u64,
    /// Entries the lifecycle sweep physically reclaimed for this tenant.
    pub reclaimed: u64,
}

/// Point-in-time serving statistics: what the control plane's `Stats`
/// request returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStatsSnapshot {
    /// Cached entries across all shards.
    pub entries: usize,
    /// Shard count of the served cache.
    pub shards: usize,
    /// Entries per shard (occupancy skew diagnostic).
    pub shard_occupancy: Vec<usize>,
    /// Shard-routing mode name (`hash` / `centroid` / `scatter-gather`).
    /// Deserialises to an empty string for snapshots written before
    /// routing modes existed.
    #[serde(default)]
    pub routing: String,
    /// Conversation roots pinned to a shard by the semantic routing modes
    /// (0 under hash routing).
    #[serde(default)]
    pub routing_pins: usize,
    /// Whether centroid routing has seeded centroids (false = hash
    /// fallback in effect).
    #[serde(default)]
    pub centroids_seeded: bool,
    /// The live cosine threshold τ.
    pub threshold: f32,
    /// Cache-level lookup count (includes probes from any path).
    pub cache_lookups: u64,
    /// Cache-level hit count.
    pub cache_hits: u64,
    /// `cache_hits / cache_lookups` (0 when no lookups yet).
    pub hit_rate: f64,
    /// Requests admitted into the pipeline.
    pub admitted: u64,
    /// Requests shed at the admission queue (`Overloaded`).
    pub shed: u64,
    /// Lookups answered with a hit by the pipeline.
    pub served_hits: u64,
    /// Lookups answered with a miss by the pipeline.
    pub served_misses: u64,
    /// Inserts executed by the pipeline.
    pub inserts: u64,
    /// Control requests (stats / threshold / flush) executed.
    pub control: u64,
    /// Duplicate lookups answered by a coalesced probe (singleflight).
    /// Deserialises to 0 for snapshots written before this field existed.
    #[serde(default)]
    pub coalesced: u64,
    /// Duplicate lookups that attached to an identical in-flight request
    /// across batch boundaries (cross-batch singleflight).
    #[serde(default)]
    pub singleflight: u64,
    /// Dead conversation-root pins dropped by the periodic GC sweep.
    #[serde(default)]
    pub routing_pins_swept: u64,
    /// Lookups whose deadline expired in the queue (answered with a
    /// retryable deadline-exceeded failure instead of a probe).
    #[serde(default)]
    pub deadline_expired: u64,
    /// Panics caught in per-batch cache work and converted into error
    /// replies (the batcher thread survived each one).
    #[serde(default)]
    pub panics_caught: u64,
    /// Acknowledged writes appended to the serve WAL.
    #[serde(default)]
    pub wal_appends: u64,
    /// `fdatasync` calls the WAL's commits ran. `wal_appends / wal_syncs`
    /// is the group-commit size: writes made durable per sync.
    #[serde(default)]
    pub wal_syncs: u64,
    /// WAL appends that failed (durability degraded until next snapshot).
    #[serde(default)]
    pub wal_append_errors: u64,
    /// WAL ops replayed into the cache at startup (writes that would have
    /// been lost without the WAL).
    #[serde(default)]
    pub wal_replayed: u64,
    /// Idle connections reaped by the event loop.
    #[serde(default)]
    pub idle_reaped: u64,
    /// Log records (entry logs of replayed shards + serve WAL) replayed by
    /// crash recovery at startup.
    #[serde(default)]
    pub recovered_records: u64,
    /// Bytes of torn or corrupt log tail dropped by recovery at startup.
    #[serde(default)]
    pub recovered_bytes_truncated: u64,
    /// Shards (across tenants) the startup restore took from their mapped
    /// snapshot; every other shard was replayed from its entry log.
    #[serde(default)]
    pub restore_snapshot_shards: u64,
    /// Embedding memo-cache hits (0 when the memo is disabled).
    #[serde(default)]
    pub memo_hits: u64,
    /// Embedding memo-cache misses.
    #[serde(default)]
    pub memo_misses: u64,
    /// Embedding memo-cache evictions.
    #[serde(default)]
    pub memo_evictions: u64,
    /// Entries currently held by the embedding memo-cache.
    #[serde(default)]
    pub memo_entries: usize,
    /// Approximate bytes held by the embedding memo-cache.
    #[serde(default)]
    pub memo_bytes: usize,
    /// Request latency histogram (admission → resolution): bucket `i`
    /// counts requests in `(2^(i-1), 2^i]` microseconds, bucket 0 absorbs
    /// 0–1 µs, last bucket open-ended. Percentiles are derivable
    /// client-side with `mc_metrics::percentile_from_log2_buckets`.
    #[serde(default)]
    pub latency_hist: Vec<u64>,
    /// Batches the micro-batcher formed.
    pub batches: u64,
    /// Mean formed-batch size (0 when no batches yet).
    pub avg_batch: f64,
    /// Batch-size histogram: bucket `i` counts batches of size in
    /// `(2^(i-1), 2^i]`, last bucket open-ended.
    pub batch_hist: Vec<u64>,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Whole seconds since the server started.
    #[serde(default)]
    pub uptime_seconds: u64,
    /// Crate version of the serving binary.
    #[serde(default)]
    pub version: String,
    /// Readiness-poller kind the event loop chose (`epoll` / `poll`);
    /// empty when no event loop reported one (e.g. pipeline-only tests).
    #[serde(default)]
    pub poller: String,
    /// WAL fsync policy name; empty when unreported.
    #[serde(default)]
    pub fsync: String,
    /// Per-stage latency histograms in [`STAGE_HIST_NAMES`] order, each
    /// using the same log2 bucket scheme as `latency_hist`.
    #[serde(default)]
    pub stage_hists: Vec<Vec<u64>>,
    /// Per-shard cache counters (occupancy, probes, hits, evictions, lock
    /// contention) at snapshot time.
    #[serde(default)]
    pub shard_stats: Vec<ShardStat>,
    /// Trace sampling rate: 0 = tracing disabled, N = every Nth request.
    #[serde(default)]
    pub trace_sample_every: u64,
    /// Slow-request threshold in microseconds (0 = no slow detection).
    #[serde(default)]
    pub trace_slow_threshold_us: u64,
    /// Traces the flight recorder dropped under slot contention.
    #[serde(default)]
    pub trace_dropped: u64,
    /// Entries the lifecycle sweep physically reclaimed (TTL-expired or
    /// epoch-invalidated), across all tenants.
    #[serde(default)]
    pub ttl_reclaimed: u64,
    /// Per-tenant rows, in deterministic (sorted-name) order. Empty for
    /// snapshots collected without a tenancy layer (and for snapshots
    /// written before tenancy existed).
    #[serde(default)]
    pub tenants: Vec<TenantStatSnapshot>,
}

impl ServeStatsSnapshot {
    /// Builds a snapshot from the live cache, pipeline counters and queue
    /// state. Called on the batcher thread, so cache numbers are consistent
    /// with every request ordered before the `Stats` request.
    pub fn collect(
        cache: &ShardedCache,
        metrics: &ServeMetrics,
        queue_depth: usize,
        queue_capacity: usize,
    ) -> Self {
        let cache_stats = cache.stats();
        let batches = metrics.batches.load(Ordering::Relaxed);
        let batched_requests = metrics.batched_requests.load(Ordering::Relaxed);
        let memo = cache.embedding_memo().map(|m| m.stats());
        let build = lock(&metrics.build_info).clone();
        Self {
            entries: cache.len(),
            shards: cache.shard_count(),
            shard_occupancy: cache.shard_lens(),
            routing: cache.routing().name().to_string(),
            routing_pins: cache.root_pin_count(),
            centroids_seeded: cache.centroids_seeded(),
            threshold: cache.threshold(),
            cache_lookups: cache_stats.lookups,
            cache_hits: cache_stats.hits,
            hit_rate: if cache_stats.lookups == 0 {
                0.0
            } else {
                cache_stats.hits as f64 / cache_stats.lookups as f64
            },
            admitted: metrics.admitted.load(Ordering::Relaxed),
            shed: metrics.shed.load(Ordering::Relaxed),
            served_hits: metrics.served_hits.load(Ordering::Relaxed),
            served_misses: metrics.served_misses.load(Ordering::Relaxed),
            inserts: metrics.inserts.load(Ordering::Relaxed),
            control: metrics.control.load(Ordering::Relaxed),
            coalesced: metrics.coalesced.load(Ordering::Relaxed),
            singleflight: metrics.singleflight.load(Ordering::Relaxed),
            routing_pins_swept: metrics.pins_swept.load(Ordering::Relaxed),
            deadline_expired: metrics.deadline_expired.load(Ordering::Relaxed),
            panics_caught: metrics.panics_caught.load(Ordering::Relaxed),
            wal_appends: metrics.wal_appends.load(Ordering::Relaxed),
            wal_syncs: metrics.wal_syncs.load(Ordering::Relaxed),
            wal_append_errors: metrics.wal_append_errors.load(Ordering::Relaxed),
            wal_replayed: metrics.wal_replayed.load(Ordering::Relaxed),
            idle_reaped: metrics.idle_reaped.load(Ordering::Relaxed),
            recovered_records: metrics.recovered_records.load(Ordering::Relaxed),
            recovered_bytes_truncated: metrics.recovered_bytes_truncated.load(Ordering::Relaxed),
            restore_snapshot_shards: metrics.restore_snapshot_shards.load(Ordering::Relaxed),
            memo_hits: memo.as_ref().map_or(0, |m| m.hits),
            memo_misses: memo.as_ref().map_or(0, |m| m.misses),
            memo_evictions: memo.as_ref().map_or(0, |m| m.evictions),
            memo_entries: memo.as_ref().map_or(0, |m| m.entries),
            memo_bytes: memo.as_ref().map_or(0, |m| m.bytes),
            latency_hist: metrics.latency.snapshot(),
            batches,
            avg_batch: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            batch_hist: metrics
                .batch_hist
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            queue_depth,
            queue_capacity,
            uptime_seconds: metrics.started.elapsed().as_secs(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            poller: build.poller,
            fsync: build.fsync,
            stage_hists: metrics.stage_hists.iter().map(|h| h.snapshot()).collect(),
            shard_stats: cache.shard_stats(),
            trace_sample_every: metrics.tracer.sample_every(),
            trace_slow_threshold_us: metrics.tracer.slow_threshold_us(),
            trace_dropped: metrics.tracer.recorder().dropped(),
            ttl_reclaimed: metrics.ttl_reclaimed.load(Ordering::Relaxed),
            tenants: Vec::new(),
        }
    }

    /// [`ServeStatsSnapshot::collect`] over a whole tenancy layer: the
    /// shard-level view comes from the default tenant's cache (the
    /// template, and the only cache a single-tenant deployment has), the
    /// `entries` total and the per-tenant rows span every tenant.
    pub fn collect_tenanted(
        tenants: &TenantedCache,
        metrics: &ServeMetrics,
        queue_depth: usize,
        queue_capacity: usize,
    ) -> Self {
        let default = tenants
            .tenant(tenants.default_tenant())
            .expect("default tenant always exists");
        let mut snapshot = Self::collect(default.cache(), metrics, queue_depth, queue_capacity);
        snapshot.entries = tenants.iter().map(|(_, store)| store.len()).sum();
        snapshot.tenants = tenants
            .iter()
            .map(|(name, store)| {
                let stats = store.cache().stats();
                TenantStatSnapshot {
                    name: name.to_string(),
                    entries: store.len(),
                    quota: store.quota(),
                    epoch: store.epoch(),
                    lookups: stats.lookups,
                    hits: stats.hits,
                    hit_rate: if stats.lookups == 0 {
                        0.0
                    } else {
                        stats.hits as f64 / stats.lookups as f64
                    },
                    expired: store.expired(),
                    invalidated: store.invalidated(),
                    reclaimed: store.reclaimed(),
                }
            })
            .collect();
        snapshot
    }

    /// Renders the snapshot as a Prometheus-style plain-text exposition —
    /// the payload of the `/metrics`-style `Metrics` wire request. One
    /// `name value` line per counter/gauge, histograms as cumulative
    /// `_bucket{le="..."}` series with `le` in microseconds (batch-size
    /// buckets use a plain `le` count), plus derived `p50/p90/p99` gauges
    /// so a `grep` is enough to read the latency story.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let mut gauge = |name: &str, value: f64| {
            let _ = writeln!(out, "{name} {value}");
        };
        gauge("serve_entries", self.entries as f64);
        gauge("serve_shards", self.shards as f64);
        gauge("serve_routing_pins", self.routing_pins as f64);
        gauge(
            "serve_routing_pins_swept_total",
            self.routing_pins_swept as f64,
        );
        gauge("serve_threshold", f64::from(self.threshold));
        gauge("serve_cache_lookups_total", self.cache_lookups as f64);
        gauge("serve_cache_hits_total", self.cache_hits as f64);
        gauge("serve_hit_rate", self.hit_rate);
        gauge("serve_admitted_total", self.admitted as f64);
        gauge("serve_shed_total", self.shed as f64);
        gauge("serve_served_hits_total", self.served_hits as f64);
        gauge("serve_served_misses_total", self.served_misses as f64);
        gauge("serve_inserts_total", self.inserts as f64);
        gauge("serve_control_total", self.control as f64);
        gauge("serve_coalesced_total", self.coalesced as f64);
        gauge("serve_singleflight_total", self.singleflight as f64);
        gauge("serve_deadline_expired_total", self.deadline_expired as f64);
        gauge("serve_panics_caught_total", self.panics_caught as f64);
        gauge("serve_wal_appends_total", self.wal_appends as f64);
        gauge("serve_wal_syncs_total", self.wal_syncs as f64);
        gauge(
            "serve_wal_append_errors_total",
            self.wal_append_errors as f64,
        );
        gauge("serve_wal_replayed_total", self.wal_replayed as f64);
        gauge("serve_idle_reaped_total", self.idle_reaped as f64);
        gauge("serve_recovered_records", self.recovered_records as f64);
        gauge(
            "serve_recovered_bytes_truncated",
            self.recovered_bytes_truncated as f64,
        );
        gauge(
            "serve_restore_snapshot_shards",
            self.restore_snapshot_shards as f64,
        );
        gauge("serve_batches_total", self.batches as f64);
        gauge("serve_avg_batch", self.avg_batch);
        gauge("serve_queue_depth", self.queue_depth as f64);
        gauge("serve_queue_capacity", self.queue_capacity as f64);
        gauge("serve_memo_hits_total", self.memo_hits as f64);
        gauge("serve_memo_misses_total", self.memo_misses as f64);
        gauge("serve_memo_evictions_total", self.memo_evictions as f64);
        gauge("serve_memo_entries", self.memo_entries as f64);
        gauge("serve_memo_bytes", self.memo_bytes as f64);
        for p in [0.5, 0.9, 0.99] {
            let quantile = percentile_from_log2_buckets(&self.latency_hist, p);
            let _ = writeln!(out, "serve_latency_us{{quantile=\"{p}\"}} {quantile}");
        }
        let mut cumulative = 0u64;
        for (i, count) in self.latency_hist.iter().enumerate() {
            cumulative += count;
            let _ = writeln!(
                out,
                "serve_latency_us_bucket{{le=\"{}\"}} {cumulative}",
                1u64 << i.min(63)
            );
        }
        let _ = writeln!(out, "serve_latency_us_count {cumulative}");
        let mut cumulative = 0u64;
        for (i, count) in self.batch_hist.iter().enumerate() {
            cumulative += count;
            let _ = writeln!(
                out,
                "serve_batch_size_bucket{{le=\"{}\"}} {cumulative}",
                1u64 << i.min(63)
            );
        }
        let _ = writeln!(out, "serve_batch_size_count {cumulative}");
        let _ = writeln!(out, "serve_uptime_seconds {}", self.uptime_seconds);
        let _ = writeln!(
            out,
            "serve_build_info{{version=\"{}\",poller=\"{}\",fsync=\"{}\"}} 1",
            self.version, self.poller, self.fsync
        );
        for (name, hist) in STAGE_HIST_NAMES.iter().zip(&self.stage_hists) {
            for p in [0.5, 0.9, 0.99] {
                let quantile = percentile_from_log2_buckets(hist, p);
                let _ = writeln!(
                    out,
                    "serve_stage_us{{stage=\"{name}\",quantile=\"{p}\"}} {quantile}"
                );
            }
            let count: u64 = hist.iter().sum();
            let _ = writeln!(out, "serve_stage_us_count{{stage=\"{name}\"}} {count}");
        }
        for (i, shard) in self.shard_stats.iter().enumerate() {
            for (metric, value) in [
                ("occupancy", shard.occupancy as u64),
                ("probes_total", shard.probes),
                ("hits_total", shard.hits),
                ("evictions_total", shard.evictions),
                ("lock_contended_total", shard.lock_contended),
                ("lock_wait_us_total", shard.lock_wait_us),
            ] {
                let _ = writeln!(out, "serve_shard_{metric}{{shard=\"{i}\"}} {value}");
            }
        }
        let _ = writeln!(out, "serve_trace_sample_every {}", self.trace_sample_every);
        let _ = writeln!(
            out,
            "serve_trace_slow_threshold_us {}",
            self.trace_slow_threshold_us
        );
        let _ = writeln!(out, "serve_trace_dropped_total {}", self.trace_dropped);
        let _ = writeln!(out, "serve_ttl_reclaimed_total {}", self.ttl_reclaimed);
        for tenant in &self.tenants {
            for (metric, value) in [
                ("entries", tenant.entries as f64),
                ("quota", tenant.quota as f64),
                ("epoch", tenant.epoch as f64),
                ("lookups_total", tenant.lookups as f64),
                ("hits_total", tenant.hits as f64),
                ("hit_rate", tenant.hit_rate),
                ("expired_total", tenant.expired as f64),
                ("invalidated_total", tenant.invalidated as f64),
                ("reclaimed_total", tenant.reclaimed as f64),
            ] {
                let _ = writeln!(
                    out,
                    "serve_tenant_{metric}{{tenant=\"{}\"}} {value}",
                    tenant.name
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_histogram_buckets_are_power_of_two_ranges() {
        let metrics = ServeMetrics::default();
        metrics.record_batch(1); // bucket 0
        metrics.record_batch(2); // bucket 1
        metrics.record_batch(3); // bucket 2 (3-4)
        metrics.record_batch(4); // bucket 2
        metrics.record_batch(5); // bucket 3 (5-8)
        metrics.record_batch(1 << 20); // clamped into the last bucket
        metrics.record_batch(0); // ignored
        let hist: Vec<u64> = metrics
            .batch_hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 1);
        assert_eq!(hist[2], 2);
        assert_eq!(hist[3], 1);
        assert_eq!(hist[BATCH_HIST_BUCKETS - 1], 1);
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn snapshot_reports_counters_and_serialises() {
        let encoder = mc_embedder::QueryEncoder::new(mc_embedder::ModelProfile::tiny(), 7).unwrap();
        let mut cache = ShardedCache::new(
            encoder,
            meancache::MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_shards(2),
        )
        .unwrap();
        cache
            .insert("what is federated learning", "FL.", &[])
            .unwrap();
        let _ = cache.lookup("what is federated learning", &[]);
        let metrics = ServeMetrics::default();
        metrics.record_admitted();
        metrics.record_served(true);
        metrics.record_batch(1);
        metrics.record_shed();
        let snap = ServeStatsSnapshot::collect(&cache, &metrics, 3, 64);
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.shard_occupancy.iter().sum::<usize>(), 1);
        assert_eq!(snap.cache_hits, 1);
        assert!((snap.hit_rate - 1.0).abs() < 1e-9);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.queue_depth, 3);
        assert!((snap.avg_batch - 1.0).abs() < 1e-9);
        // Wire schema: JSON round-trip through the serde shim.
        let json = serde_json::to_string(&snap).unwrap();
        let back: ServeStatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        // Old snapshots (no memo/latency/singleflight fields) still parse.
        let legacy: ServeStatsSnapshot =
            serde_json::from_str(&json.replace("\"memo_hits\":0,", "")).unwrap();
        assert_eq!(legacy.memo_hits, 0);
    }

    #[test]
    fn metrics_text_exposes_counters_and_latency_percentiles() {
        let encoder = mc_embedder::QueryEncoder::new(mc_embedder::ModelProfile::tiny(), 7).unwrap();
        let mut cache = ShardedCache::new(
            encoder,
            meancache::MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_shards(2),
        )
        .unwrap();
        cache.set_embedding_memo(Some(std::sync::Arc::new(mc_embedder::EmbeddingMemo::new(
            64, 0,
        ))));
        let metrics = ServeMetrics::default();
        metrics.record_admitted();
        metrics.record_served(true);
        metrics.record_singleflight();
        metrics.record_pins_swept(3);
        for _ in 0..9 {
            metrics.record_latency(Duration::from_micros(100));
        }
        metrics.record_latency(Duration::from_micros(10_000));
        let snap = ServeStatsSnapshot::collect(&cache, &metrics, 0, 64);
        assert_eq!(snap.singleflight, 1);
        assert_eq!(snap.routing_pins_swept, 3);
        assert_eq!(snap.latency_hist.iter().sum::<u64>(), 10);
        let text = snap.render_text();
        assert!(text.contains("serve_admitted_total 1"));
        assert!(text.contains("serve_singleflight_total 1"));
        assert!(text.contains("serve_routing_pins_swept_total 3"));
        assert!(text.contains("serve_memo_entries 0"));
        // 100µs lands in bucket 7 (upper bound 128µs); the p50 gauge
        // reports that bucket's upper bound.
        assert!(text.contains("serve_latency_us{quantile=\"0.5\"} 128"));
        assert!(text.contains("serve_latency_us_count 10"));
        // Every line is `name[{labels}] value`.
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            assert!(parts.next().is_some(), "metric name missing in {line:?}");
            assert!(
                parts.next().unwrap().parse::<f64>().is_ok(),
                "non-numeric value in {line:?}"
            );
            assert_eq!(parts.next(), None, "trailing tokens in {line:?}");
        }
    }

    #[test]
    fn stage_histograms_build_info_and_shard_series_render() {
        let encoder = mc_embedder::QueryEncoder::new(mc_embedder::ModelProfile::tiny(), 7).unwrap();
        let mut cache = ShardedCache::new(
            encoder,
            meancache::MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_shards(2),
        )
        .unwrap();
        cache
            .insert("what is pca compression", "PCA.", &[])
            .unwrap();
        let metrics = ServeMetrics::default();
        metrics.set_build_info("epoll", "never");
        metrics.record_queue_wait_micros(100);
        metrics.record_probe_micros(900);
        metrics.record_commit_micros(5);
        metrics.record_write_flush(Duration::from_micros(50));
        let snap = ServeStatsSnapshot::collect(&cache, &metrics, 0, 64);
        assert_eq!(snap.version, env!("CARGO_PKG_VERSION"));
        assert_eq!(snap.poller, "epoll");
        assert_eq!(snap.fsync, "never");
        assert_eq!(snap.stage_hists.len(), STAGE_HIST_NAMES.len());
        // queue_wait got one sample, encode none (no memo installed here).
        assert_eq!(snap.stage_hists[0].iter().sum::<u64>(), 1);
        assert_eq!(snap.stage_hists[1].iter().sum::<u64>(), 0);
        assert_eq!(snap.shard_stats.len(), 2);
        assert_eq!(
            snap.shard_stats.iter().map(|s| s.occupancy).sum::<usize>(),
            1
        );
        let text = snap.render_text();
        assert!(text.contains("serve_uptime_seconds"));
        assert!(text.contains(&format!(
            "serve_build_info{{version=\"{}\",poller=\"epoll\",fsync=\"never\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        // 100µs → bucket upper bound 128; 900µs → 1024.
        assert!(text.contains("serve_stage_us{stage=\"queue_wait\",quantile=\"0.5\"} 128"));
        assert!(text.contains("serve_stage_us{stage=\"probe\",quantile=\"0.99\"} 1024"));
        assert!(text.contains("serve_stage_us_count{stage=\"write_flush\"} 1"));
        assert!(text.contains("serve_shard_occupancy{shard=\"0\"}"));
        assert!(text.contains("serve_shard_lock_contended_total{shard=\"1\"} 0"));
        assert!(text.contains("serve_trace_sample_every 0"));
        // The labelled lines keep the `name value` two-token shape.
        for line in text.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "bad line {line:?}");
        }
    }

    #[test]
    fn record_done_forces_outliers_into_recorder_and_slow_log() {
        use mc_metrics::trace::flag;
        let path = std::env::temp_dir().join(format!(
            "mc-serve-slowlog-{}-{:p}.jsonl",
            std::process::id(),
            &BATCH_HIST_BUCKETS
        ));
        let metrics = ServeMetrics::default();
        metrics
            .configure_tracing(1, Duration::from_micros(500), Some(&path))
            .unwrap();
        // A sampled trace that crosses the slow threshold is recorded and
        // logged at resolve time.
        let trace = metrics.tracer().begin("lookup").expect("1-in-1 sampling");
        trace.mark(mc_metrics::Stage::Dequeued);
        metrics.record_done(Duration::from_micros(1_000), "lookup", Some(&trace), 0);
        // An unsampled deadline-expired request still lands in the recorder
        // via a synthesised trace.
        metrics.tracer().set_sample_every(0);
        metrics.record_done(
            Duration::from_micros(10),
            "lookup",
            None,
            flag::DEADLINE_EXPIRED,
        );
        // A fast, unflagged request is not recorded.
        metrics.record_done(Duration::from_micros(10), "lookup", None, 0);
        let dump = metrics.tracer().dump();
        assert_eq!(dump.traces.len(), 2);
        assert!(dump.traces.iter().any(|t| t.slow));
        assert!(dump.traces.iter().any(|t| t.deadline_expired));
        assert!(dump.traces.iter().all(|t| t.is_monotone()));
        let log = std::fs::read_to_string(&path).unwrap();
        assert_eq!(log.lines().count(), 2);
        for line in log.lines() {
            let snap: mc_metrics::TraceSnapshot = serde_json::from_str(line).unwrap();
            assert!(snap.is_monotone());
        }
        let _ = std::fs::remove_file(&path);
    }
}
