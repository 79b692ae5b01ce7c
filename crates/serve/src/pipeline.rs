//! The serving pipeline: a bounded admission queue feeding one micro-batcher
//! thread that owns the tenant caches ([`TenantedCache`]) outright.
//!
//! Single ownership is the ordering story: every cache-touching request —
//! lookups, inserts, threshold updates, flushes, stats snapshots — flows
//! through the same FIFO queue and executes on the batcher thread, so the
//! observable history is one total order consistent with per-connection
//! submission order. Within that order the batcher is free to *group*: runs
//! of consecutive same-tenant lookups become one
//! [`SemanticCache::probe_batch`] call followed by per-outcome commits in
//! submission order, which is decision-identical to looking each up
//! sequentially (probes never observe commits — commits only touch eviction
//! recency metadata). Runs never span tenants, so one tenant's probes stay
//! bit-independent of a neighbour's traffic.
//!
//! The batch is also the unit of syncing and of replying: writes stage
//! their WAL records as they execute, one commit (one `fdatasync` under
//! `fsync = Always`) covers the batch, and only then do the batch's tickets
//! resolve, together — see [`ServeConfig::fsync`] for what an ack promises.
//!
//! Backpressure: the queue refuses pushes at capacity
//! ([`SubmitError::Overloaded`]) instead of buffering unboundedly, and
//! shutdown closes the queue but drains everything already admitted — every
//! ticket ever returned by [`ServePipeline::submit`] resolves.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mc_embedder::EmbeddingMemo;
use mc_metrics::trace::{flag, Stage, Trace};
use mc_store::{FsyncPolicy, RecoveryStats, StoreError};
use meancache::persist::{load_sharded_cache_tagged, save_sharded_cache_tagged};
use meancache::{
    reshard, CacheDecisionOutcome, CacheError, RoutingMode, SemanticCache, ShardedCache,
    TenantedCache, DEFAULT_TENANT,
};
use serde::{Deserialize, Serialize};

use crate::protocol::ErrorCode;
use crate::queue::{BoundedQueue, SubmitError};
use crate::stats::{ServeMetrics, ServeStatsSnapshot};
use crate::wal::{wal_path, ServeWal, WalOp};

/// One tenant a server is configured to accept: wire name, the shared
/// secret its clients present in the `Hello` handshake, and its capacity
/// quota (entries; `0` = inherit the template cache's capacity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeTenant {
    /// Tenant name (the storage namespace and the `tenant` label in
    /// metrics). At most [`crate::protocol::MAX_TENANT_LEN`] bytes on the
    /// wire.
    pub name: String,
    /// Shared secret the tenant's clients must present. Compared in
    /// constant time by the event loop.
    pub token: String,
    /// Capacity quota in entries (`0` = inherit the template capacity). A
    /// tenant at quota evicts its *own* LRU tail, never a neighbour's.
    pub quota: usize,
}

/// Configuration of the serving pipeline and the server around it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum requests the micro-batcher groups into one pass. `1`
    /// disables batching (every request is its own batch).
    pub max_batch: usize,
    /// How long an open batch lingers for stragglers after its first
    /// request arrives. Bounded added latency: a lone request is delayed by
    /// at most this much.
    pub max_wait: Duration,
    /// Admission-queue capacity; pushes beyond it are shed with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Concurrent connections the server admits; one reader and one writer
    /// pool thread are budgeted per connection, and connections beyond the
    /// limit are refused with a `Busy` frame.
    pub max_connections: usize,
    /// Artificial delay applied to every formed batch before it executes.
    /// Zero in production; tests raise it to simulate a slow consumer and
    /// exercise the load-shedding path deterministically.
    pub batch_delay: Duration,
    /// Where the cache persists: the target of the `Save` control command
    /// and of the automatic save on graceful shutdown. `None` (the
    /// default) disables both — the cache lives and dies in memory. The
    /// default tenant persists at this exact path (byte-identical to
    /// pre-tenancy layouts); extra tenants persist beside it at
    /// `<path>.tenant.<name>` plus a `<path>.tenants.json` manifest.
    pub persist_path: Option<PathBuf>,
    /// Capacity (entries) of the embedding memo-cache installed in front of
    /// the query encoder. `0` disables the memo. The memo is sound because
    /// the encoder is frozen for the server's lifetime and its tokenizer
    /// lowercases, so `trim().to_lowercase()`-equal texts encode
    /// identically. The memo is shared *across* tenants deliberately:
    /// memoized embeddings are pure functions of the query text, so sharing
    /// leaks no decisions, only speed.
    pub memo_capacity: usize,
    /// Byte bound on the embedding memo-cache (`0` = unbounded; the entry
    /// capacity still applies).
    pub memo_max_bytes: usize,
    /// Collapse identical `(tenant, query, context)` lookups that are in
    /// flight *across* batches: a duplicate attaches to the pending ticket
    /// instead of re-entering the queue. (Within-batch duplicates are
    /// always coalesced regardless of this switch.) The tenant is part of
    /// the key: one tenant's ticket never resolves with another tenant's
    /// frame.
    pub singleflight: bool,
    /// How often the batcher sweeps dead conversation-root pins from the
    /// routing table — and, with tenancy, lazily reclaims TTL-expired and
    /// epoch-invalidated entries. Zero disables the sweep. Sweeps run on
    /// the batcher thread between batches, so they serialise with inserts;
    /// an idle server does not sweep, which is fine — stale entries are
    /// already screened into misses at probe time.
    pub pin_sweep_interval: Duration,
    /// Per-request deadline, measured from admission. A *lookup* whose
    /// deadline has already expired when the batcher reaches it is not
    /// probed: its ticket resolves to a retryable deadline-exceeded
    /// failure, so a client that has given up stops costing probe work.
    /// Inserts and control commands always execute — dropping an
    /// acknowledged-admission write would be the confusing kind of fast.
    /// `Duration::ZERO` (the default) disables deadlines.
    pub request_deadline: Duration,
    /// Close connections with no traffic for this long (enforced by the
    /// event loop, not the pipeline; lives here because [`ServeConfig`] is
    /// the one config that reaches the server). `Duration::ZERO` (the
    /// default) disables reaping — idle connections cost only a file
    /// descriptor, so reaping is an operator policy, not a necessity.
    pub idle_timeout: Duration,
    /// Fsync policy for the serve write-ahead log (only consulted when
    /// [`ServeConfig::persist_path`] is set). `Always` makes every
    /// acknowledged write durable before its response leaves; `Never` (the
    /// default) leaves flushing to the OS — a crash loses the un-flushed tail,
    /// a graceful stop loses nothing.
    pub fsync: FsyncPolicy,
    /// What snapshot-load recovery replayed and truncated before the
    /// server started (reported by
    /// [`meancache::persist::load_sharded_cache_with_report`]); folded
    /// into the stats plane next to the WAL's own recovery numbers.
    pub restored: RecoveryStats,
    /// Per-request trace sampling: every Nth request gets a full
    /// [`mc_metrics::Trace`] through the stage pipeline. `0` disables
    /// sampling entirely (outliers — slow / deadline-expired / panicked
    /// requests — are still force-recorded with a synthesised trace).
    /// The default, 64, keeps the hot path at one relaxed counter bump.
    pub trace_sample: u64,
    /// Requests slower than this end-to-end are flagged slow, forced into
    /// the flight recorder, and appended to the slow-request log when one
    /// is configured. `Duration::ZERO` (the default) disables slow
    /// detection.
    pub trace_slow: Duration,
    /// Path of the slow-request log: one JSON trace per line for every
    /// outlier request. `None` (the default) disables the log.
    pub trace_log: Option<PathBuf>,
    /// Tenants this server accepts via the `Hello` handshake, each with a
    /// token and a capacity quota. Empty (the default) means the server is
    /// effectively single-tenant: only the default tenant exists.
    pub tenants: Vec<ServeTenant>,
    /// The tenant legacy clients (no `Hello` handshake) are served as.
    /// `None` refuses un-authenticated data requests with a retryable
    /// `Unauthenticated` failure. The default, `Some("default")`, keeps
    /// pre-tenancy clients working unchanged.
    pub default_tenant: Option<String>,
    /// Per-entry time-to-live: a probe hit on an entry older than this is
    /// screened into a miss, and the sweep reclaims the entry lazily.
    /// `Duration::ZERO` (the default) disables expiry. TTLs are wall-clock
    /// leases measured from insert (or restore) time; they restart on
    /// server restart.
    pub ttl: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            max_connections: 32,
            batch_delay: Duration::ZERO,
            persist_path: None,
            memo_capacity: 4096,
            memo_max_bytes: 0,
            singleflight: true,
            pin_sweep_interval: Duration::from_secs(30),
            request_deadline: Duration::ZERO,
            idle_timeout: Duration::ZERO,
            fsync: FsyncPolicy::Never,
            restored: RecoveryStats::default(),
            trace_sample: 64,
            trace_slow: Duration::ZERO,
            trace_log: None,
            tenants: Vec::new(),
            default_tenant: Some(DEFAULT_TENANT.to_string()),
            ttl: Duration::ZERO,
        }
    }
}

/// A request the pipeline executes on the batcher thread.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Semantic lookup under an optional conversation context.
    Lookup {
        /// The query text.
        query: String,
        /// Conversation context, most recent turn last.
        context: Vec<String>,
    },
    /// Store a fresh (query, response) pair.
    Insert {
        /// The query text.
        query: String,
        /// The response to cache.
        response: String,
        /// Conversation context, most recent turn last.
        context: Vec<String>,
    },
    /// Snapshot the stats plane.
    Stats,
    /// Replace the cosine threshold τ on every tenant's shards.
    SetThreshold(f32),
    /// Switch the shard-routing mode by resharding every tenant's cache in
    /// place (every entry is replayed through fresh routing; public ids are
    /// reassigned). Totally ordered with the lookups around it, like every
    /// control command.
    SetRouting(RoutingMode),
    /// Persist every tenant's cache to [`ServeConfig::persist_path`].
    Save,
    /// Drop the submitting tenant's cached entries (its cache is rebuilt
    /// empty in place; neighbours are untouched).
    Flush,
    /// Render the stats plane as a plain-text metrics exposition.
    Metrics,
    /// Dump the flight recorder (recent + outlier request traces) as JSON.
    TraceDump,
    /// Bump a tenant's invalidation epoch: entries inserted before the bump
    /// are screened into misses at probe time and reclaimed lazily. `0`
    /// advances by one; a non-zero epoch is applied as `max(current, epoch)`
    /// (idempotent for retries).
    Invalidate {
        /// The tenant whose epoch advances.
        tenant: String,
        /// Target epoch (`0` = advance by one).
        epoch: u64,
    },
}

/// Classifies a request for trace labels (`Trace::kind`).
pub(crate) fn request_kind(request: &ServeRequest) -> &'static str {
    match request {
        ServeRequest::Lookup { .. } => "lookup",
        ServeRequest::Insert { .. } => "insert",
        _ => "control",
    }
}

/// What a [`ServeRequest`] resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReply {
    /// Lookup outcome (hit with payload, or miss).
    Outcome(CacheDecisionOutcome),
    /// Insert succeeded with this public entry id.
    Inserted(u64),
    /// Stats snapshot.
    Stats(Box<ServeStatsSnapshot>),
    /// Control command acknowledged.
    Ack,
    /// Flush completed; this many entries were dropped.
    Flushed(u64),
    /// Save completed; this many entries were persisted.
    Saved(u64),
    /// Plain-text metrics exposition
    /// ([`ServeStatsSnapshot::render_text`]).
    MetricsText(String),
    /// Flight-recorder dump as JSON (an [`mc_metrics::TraceDump`]).
    TraceJson(String),
    /// Invalidate applied; the tenant's epoch is now this value.
    Invalidated(u64),
    /// The request failed. `code` classifies the failure on the wire,
    /// `retryable` tells the client whether the request definitively did
    /// not execute (safe to resend), and `message` is operator-facing.
    Failed {
        /// Machine-readable failure class (crosses the wire as a byte).
        code: ErrorCode,
        /// `true` iff the request is known not to have executed.
        retryable: bool,
        /// Operator-facing detail.
        message: String,
    },
}

impl ServeReply {
    /// Shorthand for a failure reply.
    fn failed(code: ErrorCode, retryable: bool, message: impl Into<String>) -> Self {
        ServeReply::Failed {
            code,
            retryable,
            message: message.into(),
        }
    }
}

struct TicketState {
    reply: Option<ServeReply>,
    /// Callbacks run exactly once, on the resolving thread, after the
    /// reply is set. The event-driven server parks a waker here (a resolved
    /// ticket must nudge the loop to flush the response); the singleflight
    /// table parks its own removal here.
    watchers: Vec<Box<dyn FnOnce() + Send>>,
}

struct TicketInner {
    state: Mutex<TicketState>,
    ready: Condvar,
    /// The sampled trace riding on this request, when the tracer picked it.
    /// Set at creation, never mutated — every stage marks through here.
    trace: Option<Arc<Trace>>,
}

impl std::fmt::Debug for TicketInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("ticket lock poisoned");
        f.debug_struct("TicketInner")
            .field("reply", &state.reply)
            .field("watchers", &state.watchers.len())
            .finish()
    }
}

/// A claim on one submitted request's eventual reply. Cloneable; any clone
/// may wait, poll, or register a resolution callback.
#[derive(Debug, Clone)]
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    fn new(trace: Option<Arc<Trace>>) -> Self {
        Ticket(Arc::new(TicketInner {
            state: Mutex::new(TicketState {
                reply: None,
                watchers: Vec::new(),
            }),
            ready: Condvar::new(),
            trace,
        }))
    }

    /// A ticket born resolved (protocol-level replies that never enter the
    /// pipeline, e.g. `Busy`).
    pub fn resolved(reply: ServeReply) -> Self {
        let ticket = Ticket::new(None);
        ticket.resolve(reply);
        ticket
    }

    /// The sampled trace riding on this request, if any.
    pub(crate) fn trace(&self) -> Option<&Arc<Trace>> {
        self.0.trace.as_ref()
    }

    /// Resolves the ticket. Called exactly once per submitted ticket, by
    /// the batcher's release step; a second call is a bug (checked in debug
    /// builds) and never replaces the reply a waiter may already have read.
    /// Watchers run here, on the resolving thread, after the lock is
    /// released — so a watcher may freely take other locks.
    pub(crate) fn resolve(&self, reply: ServeReply) {
        let watchers = {
            let mut state = self.0.state.lock().expect("ticket lock poisoned");
            if state.reply.is_some() {
                debug_assert!(false, "a ticket resolves exactly once");
                return;
            }
            state.reply = Some(reply);
            std::mem::take(&mut state.watchers)
        };
        self.0.ready.notify_all();
        for watcher in watchers {
            watcher();
        }
    }

    /// Registers a callback to run when the ticket resolves (immediately,
    /// on this thread, when it already has).
    pub(crate) fn on_resolve(&self, f: impl FnOnce() + Send + 'static) {
        let mut state = self.0.state.lock().expect("ticket lock poisoned");
        if state.reply.is_some() {
            drop(state);
            f();
        } else {
            state.watchers.push(Box::new(f));
        }
    }

    /// Blocks until the reply is available and clones it out.
    pub fn wait(&self) -> ServeReply {
        let mut state = self.0.state.lock().expect("ticket lock poisoned");
        loop {
            if let Some(reply) = state.reply.as_ref() {
                return reply.clone();
            }
            state = self.0.ready.wait(state).expect("ticket lock poisoned");
        }
    }

    /// The reply if already available, without blocking (the response
    /// writer uses this to coalesce only what is ready).
    pub fn try_reply(&self) -> Option<ServeReply> {
        self.0
            .state
            .lock()
            .expect("ticket lock poisoned")
            .reply
            .clone()
    }

    fn downgrade(&self) -> Weak<TicketInner> {
        Arc::downgrade(&self.0)
    }
}

#[derive(Debug)]
struct Submitted {
    /// The tenant this request executes under (resolved at submission:
    /// either the connection's authenticated tenant or the configured
    /// default).
    tenant: String,
    request: ServeRequest,
    ticket: Ticket,
    /// When the request was admitted; resolution records the difference
    /// into the latency histogram.
    accepted_at: Instant,
}

/// Key of an in-flight lookup in the cross-batch singleflight table. The
/// tenant leads: one tenant's pending ticket must never be handed to
/// another tenant's identical query.
type InflightKey = (String, String, Vec<String>);

/// On-disk manifest record for one tenant (at
/// `<persist_path>.tenants.json`): enough to restore quotas and epochs
/// across restarts. Written on every save; absent for pre-tenancy layouts.
#[derive(Debug, Serialize, Deserialize)]
struct TenantManifest {
    name: String,
    quota: usize,
    epoch: u64,
}

/// Filesystem-safe rendering of a tenant name for path suffixes.
fn tenant_suffix(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Where a non-default tenant's cache persists, relative to the base
/// persist path.
pub(crate) fn tenant_cache_path(base: &Path, name: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".tenant.{}", tenant_suffix(name)));
    PathBuf::from(os)
}

/// Where the tenant manifest persists, relative to the base persist path.
pub(crate) fn tenant_manifest_path(base: &Path) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(".tenants.json");
    PathBuf::from(os)
}

/// The serving pipeline: admission queue + metrics + the batcher thread
/// that owns the tenant caches. See the module docs for semantics.
#[derive(Debug)]
pub struct ServePipeline {
    queue: Arc<BoundedQueue<Submitted>>,
    metrics: Arc<ServeMetrics>,
    batcher: Mutex<Option<JoinHandle<()>>>,
    /// Cross-batch singleflight: lookups currently in the queue or being
    /// executed, keyed by `(tenant, query, context)`. `None` when disabled.
    inflight: Option<Arc<Mutex<HashMap<InflightKey, Ticket>>>>,
    /// The tenant tenant-less submissions ([`ServePipeline::submit`])
    /// execute under.
    default_tenant: String,
}

impl ServePipeline {
    /// Takes ownership of `cache` (which becomes the default tenant's
    /// store *and* the template every configured tenant's private cache is
    /// cloned from) and starts the batcher thread. Installs the embedding
    /// memo-cache when [`ServeConfig::memo_capacity`] is non-zero — shared
    /// across tenants, which is sound because memoized embeddings are pure
    /// functions of the query text.
    ///
    /// When [`ServeConfig::persist_path`] is set, restores every tenant
    /// recorded in the `<path>.tenants.json` manifest (epochs, quotas, and
    /// each tenant's cache from `<path>.tenant.<name>`), then opens
    /// (creating if absent) the serve write-ahead log at `<persist_path>.wal`
    /// and replays any acknowledged writes a crash stranded there *before*
    /// serving begins — so a restart after `kill -9` observes every write
    /// the WAL made durable, each under its own tenant.
    ///
    /// # Errors
    /// Propagates WAL open/recovery failures ([`StoreError::Io`] on
    /// filesystem trouble, [`StoreError::Corrupt`] on an undecodable
    /// checksum-valid record) and invalid tenant configuration. A server
    /// that cannot establish its durability story should fail loudly at
    /// startup, not serve without it.
    pub fn start(mut cache: ShardedCache, config: &ServeConfig) -> Result<Self, StoreError> {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let metrics = Arc::new(ServeMetrics::default());
        metrics
            .configure_tracing(
                config.trace_sample,
                config.trace_slow,
                config.trace_log.as_deref(),
            )
            .map_err(StoreError::Io)?;
        if config.memo_capacity > 0 {
            let mut memo = EmbeddingMemo::new(config.memo_capacity, config.memo_max_bytes);
            // Every memo consultation feeds the `encode` stage histogram.
            memo.set_observer(Arc::new(crate::stats::EncodeStageObserver::new(
                Arc::clone(&metrics),
            )));
            cache.set_embedding_memo(Some(Arc::new(memo)));
        }
        metrics.record_recovery(config.restored);
        let default_name = config
            .default_tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let ttl = (!config.ttl.is_zero()).then_some(config.ttl);
        let mut tenants = TenantedCache::new(&default_name, cache, ttl);
        for spec in &config.tenants {
            tenants
                .add_tenant(&spec.name, spec.quota)
                .map_err(cache_to_store_err)?;
        }
        if let Some(path) = &config.persist_path {
            restore_tenants(&mut tenants, path, &metrics);
        }
        let wal = match &config.persist_path {
            None => None,
            Some(path) => {
                let (wal, ops, stats) = ServeWal::open(wal_path(path), config.fsync)?;
                metrics.record_recovery(stats);
                metrics.record_wal_replayed(ops.len() as u64);
                replay_wal_ops(&mut tenants, &ops);
                Some(wal)
            }
        };
        let batcher = {
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let config = config.clone();
            std::thread::Builder::new()
                .name("mc-serve-batcher".into())
                .spawn(move || batcher_loop(tenants, wal, &queue, &metrics, &config))
                .expect("batcher thread spawn failed")
        };
        Ok(Self {
            queue,
            metrics,
            batcher: Mutex::new(Some(batcher)),
            inflight: config
                .singleflight
                .then(|| Arc::new(Mutex::new(HashMap::new()))),
            default_tenant: default_name,
        })
    }

    /// Submits a request under the default tenant, tracing it from here
    /// when the sampler picks it; the returned ticket resolves once the
    /// batcher has executed it. Never blocks.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] when the admission queue is full (the
    /// request is shed), [`SubmitError::ShutDown`] after
    /// [`ServePipeline::shutdown`].
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket, SubmitError> {
        let trace = self.metrics.tracer().begin(request_kind(&request));
        if let Some(t) = &trace {
            // Direct pipeline callers skip the wire: accepted = decoded.
            t.mark(Stage::Accepted);
            t.mark(Stage::Decoded);
        }
        let tenant = self.default_tenant.clone();
        self.submit_for(&tenant, request, trace)
    }

    /// Submits a request under an explicit tenant, with the trace its
    /// caller began (the server starts it at frame-accept time, so the
    /// trace covers decode and queueing, not just execution) or `None` to
    /// leave it untraced.
    ///
    /// With singleflight enabled, a lookup identical to one already in
    /// flight *for the same tenant* attaches to the pending ticket instead
    /// of re-entering the queue: both callers get the same outcome from one
    /// probe (and one commit). Decision-identical — probes are pure and the
    /// duplicate would have been coalesced had it landed in the same batch
    /// anyway — but the duplicate skips the queue entirely, so a thundering
    /// herd costs one queue slot, not many. Lookups from *different*
    /// tenants never share a ticket, no matter how equal the query text.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] when the admission queue is full,
    /// [`SubmitError::ShutDown`] after [`ServePipeline::shutdown`].
    pub fn submit_for(
        &self,
        tenant: &str,
        request: ServeRequest,
        trace: Option<Arc<Trace>>,
    ) -> Result<Ticket, SubmitError> {
        let key = match (&self.inflight, &request) {
            (Some(_), ServeRequest::Lookup { query, context }) => {
                Some((tenant.to_string(), query.clone(), context.clone()))
            }
            _ => None,
        };
        if let (Some(inflight), Some(key)) = (&self.inflight, &key) {
            let table = inflight.lock().expect("singleflight lock poisoned");
            if let Some(pending) = table.get(key) {
                self.metrics.record_singleflight();
                return Ok(pending.clone());
            }
        }
        let ticket = Ticket::new(trace);
        let result = self.queue.push(Submitted {
            tenant: tenant.to_string(),
            request,
            ticket: ticket.clone(),
            accepted_at: Instant::now(),
        });
        match result {
            Ok(()) => {
                self.metrics.record_admitted();
                if let Some(t) = ticket.trace() {
                    t.mark(Stage::Enqueued);
                }
                if let (Some(inflight), Some(key)) = (&self.inflight, key) {
                    inflight
                        .lock()
                        .expect("singleflight lock poisoned")
                        .insert(key.clone(), ticket.clone());
                    // Remove the entry exactly when this ticket resolves.
                    // The watcher holds a Weak so an ill-fated ticket can't
                    // keep itself alive through its own callback, and the
                    // pointer check means a newer in-flight entry under the
                    // same key is never removed by an older resolve.
                    let table = Arc::clone(inflight);
                    let me = ticket.downgrade();
                    ticket.on_resolve(move || {
                        let mut table = table.lock().expect("singleflight lock poisoned");
                        let matches = table
                            .get(&key)
                            .zip(me.upgrade())
                            .is_some_and(|(entry, me)| Arc::ptr_eq(&entry.0, &me));
                        if matches {
                            table.remove(&key);
                        }
                    });
                }
                Ok(ticket)
            }
            Err(SubmitError::Overloaded) => {
                self.metrics.record_shed();
                Err(SubmitError::Overloaded)
            }
            Err(e) => Err(e),
        }
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The pipeline's live counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The tenant tenant-less submissions execute under.
    pub fn default_tenant(&self) -> &str {
        &self.default_tenant
    }

    /// Graceful shutdown: closes the queue (new submissions fail with
    /// [`SubmitError::ShutDown`]), lets the batcher drain everything
    /// already admitted — resolving every outstanding ticket — and joins
    /// it. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close();
        let handle = self.batcher.lock().expect("batcher handle poisoned").take();
        if let Some(handle) = handle {
            // A panicked batcher is a bug, but the shutdown path is the
            // wrong place to double the damage: propagating here turns one
            // dead thread into a panic inside Drop (and an abort during
            // unwinding). Log it and let the process finish its teardown.
            if handle.join().is_err() {
                eprintln!(
                    "mc-serve: batcher thread panicked outside batch execution; \
                     shutting down without its final drain"
                );
            }
        }
    }
}

impl Drop for ServePipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Maps a cache-layer error into the store-level error `start` returns.
fn cache_to_store_err(e: CacheError) -> StoreError {
    match e {
        CacheError::Store(e) => e,
        other => StoreError::InvalidConfig(other.to_string()),
    }
}

/// Restores persisted tenant state beside the default tenant's cache (which
/// the caller loaded from the base path before [`ServePipeline::start`]):
/// reads the tenant manifest, re-applies quotas and epochs, loads each
/// non-default tenant's cache from `<path>.tenant.<name>` (verifying its
/// snapshot tenant tag), and re-registers lifecycle metadata for every
/// restored entry. Restore is tolerant: a tenant whose files are missing or
/// unreadable starts empty (its acknowledged tail is still in the WAL) —
/// one bad tenant must not block the rest of the fleet from serving.
fn restore_tenants(tenants: &mut TenantedCache, path: &Path, metrics: &ServeMetrics) {
    let manifest: Vec<TenantManifest> = match std::fs::read_to_string(tenant_manifest_path(path)) {
        Err(_) => return, // pre-tenancy layout: nothing tenant-aware saved yet
        Ok(text) => match serde_json::from_str(&text) {
            Ok(manifest) => manifest,
            Err(e) => {
                eprintln!("mc-serve: unreadable tenant manifest (starting tenants empty): {e}");
                return;
            }
        },
    };
    let default_name = tenants.default_tenant().to_string();
    let template = tenants
        .tenant(&default_name)
        .expect("default tenant always exists");
    let encoder = template.cache().encoder().clone();
    let memo = template.cache().embedding_memo().cloned();
    for entry in &manifest {
        // A manifested tenant missing from the live config is still
        // restored (quota from the manifest): its data exists and its
        // clients may re-authenticate after a config round-trip.
        if let Err(e) = tenants.add_tenant(&entry.name, entry.quota) {
            eprintln!("mc-serve: skipping manifest tenant {:?}: {e}", entry.name);
            continue;
        }
        tenants.restore_epoch(&entry.name, entry.epoch);
        if entry.name != default_name {
            let tpath = tenant_cache_path(path, &entry.name);
            match load_sharded_cache_tagged(encoder.clone(), &tpath, Some(&entry.name)) {
                Ok((mut loaded, stats)) => {
                    metrics.record_recovery(stats);
                    loaded.set_embedding_memo(memo.clone());
                    if entry.quota > 0 {
                        loaded.set_total_capacity(entry.quota);
                    }
                    *tenants.cache_mut(&entry.name).expect("tenant added above") = loaded;
                }
                Err(e) => {
                    eprintln!(
                        "mc-serve: tenant {:?} cache at {} unrestorable (starting empty, \
                         WAL replay still applies): {e}",
                        entry.name,
                        tpath.display()
                    );
                    continue;
                }
            }
        }
        // Restored entries re-enter lifecycle tracking under the manifest
        // epoch, with their TTL clocks restarted (TTLs are wall-clock
        // leases; they do not survive a restart).
        let ids = tenants
            .tenant(&entry.name)
            .map(|s| s.cache().entry_ids())
            .unwrap_or_default();
        for id in ids {
            tenants.register_restored(&entry.name, id, entry.epoch);
        }
    }
}

/// Re-applies crash-stranded WAL ops to the freshly restored tenant caches.
/// Legacy records (no tenant) map to the default tenant — a legacy flush
/// meant "the whole process" and flushes every tenant. Replay is tolerant
/// at the entry level: an op the live config refuses (it was accepted by
/// the pre-crash config) is logged and skipped — one odd entry must not
/// block recovery of the rest.
fn replay_wal_ops(tenants: &mut TenantedCache, ops: &[WalOp]) {
    let default_name = tenants.default_tenant().to_string();
    for op in ops {
        match op {
            WalOp::Insert {
                tenant,
                query,
                response,
                context,
            } => {
                let name = tenant.as_deref().unwrap_or(&default_name);
                if tenants.tenant(name).is_none() {
                    // The tenant held acknowledged data pre-crash; recreate
                    // it (template quota) rather than dropping the write.
                    if let Err(e) = tenants.add_tenant(name, 0) {
                        eprintln!("mc-serve: cannot recreate WAL tenant {name:?}: {e}");
                        continue;
                    }
                }
                if let Err(e) = tenants.insert(name, query, response, context) {
                    eprintln!("mc-serve: skipping unre-playable WAL insert {query:?}: {e}");
                }
            }
            WalOp::Flush { tenant: None } => {
                if let Err(e) = tenants.flush_all() {
                    eprintln!("mc-serve: WAL flush replay failed: {e}");
                }
            }
            WalOp::Flush { tenant: Some(name) } => {
                if let Err(e) = tenants.flush(name) {
                    eprintln!("mc-serve: WAL tenant-flush replay failed for {name:?}: {e}");
                }
            }
            WalOp::Invalidate { tenant, epoch } => {
                // The record carries the *resulting* epoch; max-merge keeps
                // replay idempotent.
                tenants.restore_epoch(tenant, *epoch);
            }
        }
    }
}

/// Persists every tenant: the default tenant at the base path exactly as a
/// single-tenant server would (legacy files stay byte-identical), each
/// extra tenant tagged at `<path>.tenant.<name>`, plus the quota/epoch
/// manifest. Returns the total entries persisted.
fn persist_all(tenants: &TenantedCache, path: &Path) -> meancache::Result<u64> {
    let mut saved = 0u64;
    for (name, store) in tenants.iter() {
        if name == tenants.default_tenant() {
            save_sharded_cache_tagged(store.cache(), path, None)?;
        } else {
            save_sharded_cache_tagged(store.cache(), &tenant_cache_path(path, name), Some(name))?;
        }
        saved += store.len() as u64;
    }
    let manifest: Vec<TenantManifest> = tenants
        .iter()
        .map(|(name, store)| TenantManifest {
            name: name.to_string(),
            quota: store.quota(),
            epoch: store.epoch(),
        })
        .collect();
    let text =
        serde_json::to_string(&manifest).map_err(|e| CacheError::InvalidConfig(e.to_string()))?;
    mc_store::atomic_write(&tenant_manifest_path(path), &[text.as_bytes()])?;
    Ok(saved)
}

fn batcher_loop(
    mut tenants: TenantedCache,
    wal: Option<ServeWal>,
    queue: &BoundedQueue<Submitted>,
    metrics: &ServeMetrics,
    config: &ServeConfig,
) {
    let mut wal = BatchedWal { wal, staged: 0 };
    let mut batch: Vec<Submitted> = Vec::with_capacity(config.max_batch.max(1));
    let mut last_sweep = Instant::now();
    loop {
        batch.clear();
        if !queue.pop_batch(config.max_batch, config.max_wait, &mut batch) {
            break; // closed and fully drained
        }
        // One clock read covers the whole batch's queue-wait accounting.
        let dequeued_at = Instant::now();
        for item in &batch {
            metrics.record_queue_wait_micros(
                dequeued_at
                    .saturating_duration_since(item.accepted_at)
                    .as_micros() as u64,
            );
            if let Some(t) = item.ticket.trace() {
                t.mark(Stage::Dequeued);
            }
        }
        if !config.batch_delay.is_zero() {
            std::thread::sleep(config.batch_delay);
        }
        metrics.record_batch(batch.len());
        for item in &batch {
            if let Some(t) = item.ticket.trace() {
                t.mark(Stage::Batched);
            }
        }
        execute_batch(&mut tenants, &mut wal, &batch, queue, metrics, config);
        // GC sweep: between batches the batcher is the only cache writer,
        // so both the root-pin sweep and the TTL/epoch reclaim serialise
        // with inserts by construction.
        if !config.pin_sweep_interval.is_zero() && last_sweep.elapsed() >= config.pin_sweep_interval
        {
            metrics.record_ttl_reclaimed(tenants.sweep() as u64);
            let mut pins = 0;
            for (_, store) in tenants.iter() {
                pins += store.cache().sweep_root_pins();
            }
            metrics.record_pins_swept(pins as u64);
            last_sweep = Instant::now();
        }
    }
    // Graceful-shutdown persistence: the queue is closed and drained, the
    // batcher owns the caches outright, so this is the one place a final
    // save observes every acknowledged write. The save writes each shard's
    // entry log *and* its `MCSNAP01` mmap snapshot (docs/FORMAT.md) for
    // every tenant, so the next boot restores zero-copy instead of
    // replaying. The save supersedes the serve WAL, which resets so the
    // next boot does not replay what the save already holds.
    if let Some(path) = &config.persist_path {
        match persist_all(&tenants, path) {
            Ok(_) => {
                if let Some(wal) = wal.wal.as_mut() {
                    if let Err(e) = wal.reset() {
                        eprintln!("mc-serve: failed to reset WAL after shutdown save: {e}");
                    }
                }
            }
            Err(e) => eprintln!(
                "mc-serve: failed to persist cache to {} on shutdown: {e}",
                path.display()
            ),
        }
    }
}

/// The serve WAL as the batcher drives it: writes stage their records as
/// they execute, and each commit point pays one [`ServeWal::commit`] — one
/// `fdatasync` under [`FsyncPolicy::Always`] — for all of them before any
/// of their tickets resolve.
struct BatchedWal {
    /// `None` when the server runs without a persist path.
    wal: Option<ServeWal>,
    /// Records staged since the last commit.
    staged: u64,
}

impl BatchedWal {
    /// Stages the record of a write that has just executed. A failed write
    /// degrades durability (the write survives in memory and in the next
    /// snapshot) but must not fail the already-executed request — it is
    /// logged and counted so operators see the degradation.
    fn stage(
        &mut self,
        metrics: &ServeMetrics,
        stage: impl FnOnce(&mut ServeWal) -> Result<(), StoreError>,
    ) {
        let Some(wal) = self.wal.as_mut() else { return };
        match stage(wal) {
            Ok(()) => self.staged += 1,
            Err(e) => {
                metrics.record_wal_append_errors(1);
                eprintln!("mc-serve: WAL append failed (durability degraded until next save): {e}");
            }
        }
    }

    /// Commits everything staged: the sync every held write ack waits for.
    /// A failed commit is the degradation of a failed stage, once for each
    /// record it was meant to cover.
    fn commit(&mut self, metrics: &ServeMetrics) {
        let staged = std::mem::take(&mut self.staged);
        let Some(wal) = self.wal.as_mut() else { return };
        if staged == 0 {
            return;
        }
        match wal.commit() {
            Ok(synced) => metrics.record_wal_commit(staged, synced),
            Err(e) => {
                metrics.record_wal_append_errors(staged);
                eprintln!(
                    "mc-serve: WAL commit of {staged} record(s) failed \
                     (durability degraded until next save): {e}"
                );
            }
        }
    }
}

/// A request the batch has executed but not yet answered: the reply its
/// ticket resolves with at the next commit point, and the flight-recorder
/// flags of how it ended (`flag::DEADLINE_EXPIRED`, `flag::PANICKED`, or 0).
type Held = (ServeReply, u64);

/// Executes one formed batch in submission order, grouping maximal runs of
/// consecutive *same-tenant* lookups into single `probe_batch` passes with
/// duplicate requests **coalesced**: identical `(query, context)` pairs in
/// one run — the thundering-herd shape a popular cache service sees
/// constantly — are probed once and their outcome fanned out to every
/// requester (singleflight, the request-collapsing CDNs and inference
/// servers do). Probes are pure against the frozen-within-the-batch cache,
/// so coalescing is response-identical to probing each duplicate; commits
/// still run once per *request* in submission order, so eviction recency
/// matches sequential serving exactly. Runs break at tenant boundaries —
/// coalescing never crosses tenants.
///
/// The batch, not the request, is the unit of syncing and of replying.
/// Every request parks its reply in `held` as it executes; the end of the
/// batch — and a `Save`, which resets the WAL — is a commit point, where
/// [`commit_and_release`] pays one WAL commit for every write staged so far
/// and only then resolves the parked tickets. So `ack ⇒ durable` holds to
/// the letter (no write is acknowledged before the sync covering its record
/// returns, and no lookup that saw a not-yet-durable insert is answered
/// before it either), while N writes cost one `fdatasync` and N replies one
/// event-loop wake-up. A batch of one commits and releases exactly as a
/// lone request always did.
fn execute_batch(
    tenants: &mut TenantedCache,
    wal: &mut BatchedWal,
    batch: &[Submitted],
    queue: &BoundedQueue<Submitted>,
    metrics: &ServeMetrics,
    config: &ServeConfig,
) {
    let mut held: Vec<Option<Held>> = batch.iter().map(|_| None).collect();
    // `batch[..released]` have been answered already.
    let mut released = 0;
    let mut i = 0;
    while i < batch.len() {
        let is_lookup = matches!(batch[i].request, ServeRequest::Lookup { .. });
        if !is_lookup {
            if matches!(batch[i].request, ServeRequest::Save) {
                // The save truncates the WAL; what is staged must be
                // committed (and may as well be answered) before that.
                commit_and_release(wal, &batch[released..i], &mut held[released..i], metrics);
                released = i;
            }
            held[i] = Some(execute_control(
                tenants, wal, &batch[i], queue, metrics, config,
            ));
            i += 1;
            continue;
        }
        let mut j = i;
        while j < batch.len()
            && matches!(batch[j].request, ServeRequest::Lookup { .. })
            && batch[j].tenant == batch[i].tenant
        {
            j += 1;
        }
        execute_lookup_run(tenants, &batch[i..j], &mut held[i..j], metrics, config);
        i = j;
    }
    commit_and_release(wal, &batch[released..], &mut held[released..], metrics);
}

/// A commit point: one WAL commit for everything staged, then — and only
/// then — every parked reply of `items` leaves, in submission order. This is
/// the one place a batch's tickets resolve; resolving them back to back is
/// also what lets the event loop's waker coalesce a batch into one wake-up.
fn commit_and_release(
    wal: &mut BatchedWal,
    items: &[Submitted],
    held: &mut [Option<Held>],
    metrics: &ServeMetrics,
) {
    wal.commit(metrics);
    for (item, slot) in items.iter().zip(held) {
        let (reply, flags) = slot
            .take()
            .expect("every executed request parks exactly one reply");
        let trace = item.ticket.trace();
        if !matches!(item.request, ServeRequest::Lookup { .. }) {
            // A write's commit stage ends with the sync that covers it.
            if let Some(t) = trace {
                t.mark(Stage::Committed);
            }
        }
        // Outliers (slow, deadline-expired, panicked) always land in the
        // flight recorder: `record_done` force-records them, synthesising a
        // trace when the request wasn't sampled.
        metrics.record_done(
            item.accepted_at.elapsed(),
            request_kind(&item.request),
            trace,
            flags,
        );
        item.ticket.resolve(reply);
    }
}

/// True when `item` has outlived the configured per-request deadline.
fn past_deadline(item: &Submitted, config: &ServeConfig) -> bool {
    !config.request_deadline.is_zero() && item.accepted_at.elapsed() > config.request_deadline
}

/// Executes one maximal run of consecutive same-tenant lookups, parking
/// each reply in its `held` slot: expired deadlines are answered without
/// probing, the rest probe (coalesced when the run has duplicates) behind a
/// panic fence — a panic in cache code answers the run's unfinished lookups
/// with a retryable error instead of killing the batcher and stranding
/// every future request. Every outcome is screened through the tenant's
/// TTL/epoch rules before it is parked.
fn execute_lookup_run(
    tenants: &TenantedCache,
    run: &[Submitted],
    held: &mut [Option<Held>],
    metrics: &ServeMetrics,
    config: &ServeConfig,
) {
    let tenant = run[0].tenant.as_str();
    // Deadline pass: a lookup whose client has already given up is not
    // worth a probe. Lookups are read-only, so skipping one is invisible
    // to the served history; the reply is retryable.
    let mut live: Vec<(&Submitted, &mut Option<Held>)> = Vec::with_capacity(run.len());
    for (item, slot) in run.iter().zip(held) {
        if past_deadline(item, config) {
            metrics.record_deadline_expired();
            *slot = Some((
                ServeReply::failed(
                    ErrorCode::DeadlineExceeded,
                    true,
                    format!(
                        "queued past the {:?} request deadline; not executed",
                        config.request_deadline
                    ),
                ),
                flag::DEADLINE_EXPIRED,
            ));
        } else {
            live.push((item, slot));
        }
    }
    if live.is_empty() {
        return;
    }
    let Some(store) = tenants.tenant(tenant) else {
        // Unknown tenant (direct pipeline callers only; the server
        // validates at handshake time): a lookup against a namespace with
        // no cache is a miss by definition.
        for (_, slot) in live {
            metrics.record_served(false);
            *slot = Some((ServeReply::Outcome(CacheDecisionOutcome::Miss), 0));
        }
        return;
    };
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        // Fault injection: lets the test suite prove the panic fence holds
        // without contriving a real cache bug. Inert outside test builds.
        // The tag is the run's first query so tests can scope the fuse to
        // their own traffic.
        let fuse_tag = match &live[0].0.request {
            ServeRequest::Lookup { query, .. } => query.as_str(),
            _ => "lookup",
        };
        if let Some(Err(e)) = mc_store::failpoints::write_hook("serve.batch.work", fuse_tag, 0) {
            panic!("injected batch-work panic: {e}");
        }
        if let [(item, slot)] = &mut live[..] {
            // Singleton run: the plain probe path, no batch machinery. This
            // is also the entire hot path of a `max_batch = 1` (unbatched)
            // configuration.
            let ServeRequest::Lookup { query, context } = &item.request else {
                unreachable!("run contains only lookups");
            };
            let trace = item.ticket.trace();
            if let Some(t) = trace {
                // Pre-resolve the embedding through the memo so the probe's
                // internal encode is a guaranteed memo hit — this attributes
                // the encode to hit/miss without perturbing the result.
                if let Some(hit) = store.cache().warm_memo(query) {
                    t.set_flag(if hit { flag::MEMO_HIT } else { flag::MEMO_MISS });
                }
                t.mark(Stage::Encoded);
            }
            let probe_start = Instant::now();
            let outcome = tenants.screen(tenant, store.cache().probe(query, context));
            let probe_end = Instant::now();
            metrics.record_probe_micros(
                probe_end.saturating_duration_since(probe_start).as_micros() as u64,
            );
            if let Some(t) = trace {
                t.mark(Stage::Probed);
            }
            tenants.commit(tenant, &outcome);
            metrics.record_commit_micros(probe_end.elapsed().as_micros() as u64);
            if let Some(t) = trace {
                t.mark(Stage::Committed);
            }
            metrics.record_served(outcome.is_hit());
            **slot = Some((ServeReply::Outcome(outcome), 0));
            return;
        }
        // Coalesce duplicates: probe each distinct (query, context) once.
        let mut unique: Vec<(&str, &[String])> = Vec::with_capacity(live.len());
        let mut index_of: HashMap<(&str, &[String]), usize> = HashMap::with_capacity(live.len());
        let assigned: Vec<usize> = live
            .iter()
            .map(|(item, _)| match &item.request {
                ServeRequest::Lookup { query, context } => *index_of
                    .entry((query.as_str(), context.as_slice()))
                    .or_insert_with(|| {
                        unique.push((query.as_str(), context.as_slice()));
                        unique.len() - 1
                    }),
                _ => unreachable!("run contains only lookups"),
            })
            .collect();
        metrics.record_coalesced((live.len() - unique.len()) as u64);
        let coalesced = live.len() > unique.len();
        // Sampled items get their memo consultation attributed before the
        // batch probe (cheap: the probe's own encode becomes a memo hit).
        for (item, _) in &live {
            if let Some(t) = item.ticket.trace() {
                if let ServeRequest::Lookup { query, .. } = &item.request {
                    if let Some(hit) = store.cache().warm_memo(query) {
                        t.set_flag(if hit { flag::MEMO_HIT } else { flag::MEMO_MISS });
                    }
                }
                t.mark(Stage::Encoded);
                if coalesced {
                    t.set_flag(flag::COALESCED);
                }
            }
        }
        let probe_start = Instant::now();
        let outcomes = store.cache().probe_batch(&unique);
        // Amortise the batch probe over its unique probes: one histogram
        // sample per probe actually executed.
        let probe_us = probe_start.elapsed().as_micros() as u64 / unique.len().max(1) as u64;
        for _ in &unique {
            metrics.record_probe_micros(probe_us);
        }
        for (item, _) in &live {
            if let Some(t) = item.ticket.trace() {
                t.mark(Stage::Probed);
            }
        }
        // Screen, then commit in submission order before parking each
        // reply: the served history (including LRU touches) matches
        // sequential `lookup` calls exactly. A screened (expired/stale) hit
        // is answered as a miss and is *not* committed — dead entries get no
        // recency credit.
        for ((item, slot), &unique_index) in live.iter_mut().zip(&assigned) {
            let outcome = tenants.screen(tenant, outcomes[unique_index].clone());
            let commit_start = Instant::now();
            tenants.commit(tenant, &outcome);
            metrics.record_commit_micros(commit_start.elapsed().as_micros() as u64);
            if let Some(t) = item.ticket.trace() {
                t.mark(Stage::Committed);
            }
            metrics.record_served(outcome.is_hit());
            **slot = Some((ServeReply::Outcome(outcome), 0));
        }
    }));
    if fenced.is_err() {
        // The cache's locks recover from poisoning (probes never leave
        // partial writes), so the next batch proceeds; every lookup the
        // panic left unanswered gets a retryable reply — lookups are
        // read-only, so "not executed" is certain.
        metrics.record_panic_caught();
        for (_, slot) in live.iter_mut().filter(|(_, slot)| slot.is_none()) {
            **slot = Some((
                ServeReply::failed(
                    ErrorCode::Panicked,
                    true,
                    "cache work panicked mid-batch; lookup not executed",
                ),
                flag::PANICKED,
            ));
        }
    }
}

/// Executes one non-lookup request and returns the reply to park for it.
fn execute_control(
    tenants: &mut TenantedCache,
    wal: &mut BatchedWal,
    item: &Submitted,
    queue: &BoundedQueue<Submitted>,
    metrics: &ServeMetrics,
    config: &ServeConfig,
) -> Held {
    // Panic fence: a panic inside cache work answers this request with an
    // error frame instead of killing the batcher thread. Writes are
    // append-or-nothing at the cache layer, but a panic leaves "whether it
    // applied" unknown — the reply says so and is marked retryable per the
    // wire taxonomy (a duplicate insert of identical content is benign).
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        control_reply(tenants, wal, item, queue, metrics, config)
    }));
    match fenced {
        Ok(reply) => (reply, 0),
        Err(_) => {
            metrics.record_panic_caught();
            let reply = ServeReply::failed(
                ErrorCode::Panicked,
                true,
                "cache work panicked mid-request; whether it applied is unknown",
            );
            (reply, flag::PANICKED)
        }
    }
}

fn control_reply(
    tenants: &mut TenantedCache,
    wal: &mut BatchedWal,
    item: &Submitted,
    queue: &BoundedQueue<Submitted>,
    metrics: &ServeMetrics,
    config: &ServeConfig,
) -> ServeReply {
    match &item.request {
        ServeRequest::Insert {
            query,
            response,
            context,
        } => match tenants.insert(&item.tenant, query, response, context) {
            Ok(id) => {
                metrics.record_insert();
                // Staged now, committed (fsynced per policy) with the rest
                // of the batch before the ticket resolves: under `--fsync
                // always` an acknowledged insert is already durable when
                // the client reads its response. Always tenant-explicit —
                // only legacy logs carry bare inserts.
                wal.stage(metrics, |w| {
                    w.stage_insert(&item.tenant, query, response, context)
                });
                ServeReply::Inserted(id)
            }
            Err(e) => ServeReply::failed(ErrorCode::Internal, false, format!("insert failed: {e}")),
        },
        ServeRequest::Stats => {
            metrics.record_control();
            ServeReply::Stats(Box::new(ServeStatsSnapshot::collect_tenanted(
                tenants,
                metrics,
                queue.len(),
                queue.capacity(),
            )))
        }
        ServeRequest::Metrics => {
            metrics.record_control();
            let snapshot = ServeStatsSnapshot::collect_tenanted(
                tenants,
                metrics,
                queue.len(),
                queue.capacity(),
            );
            // Which dot kernel this server scores with. Appended here rather
            // than rendered from the snapshot: the snapshot is a wire type,
            // and the answer must be the serving process's, not a client's.
            let isa = mc_tensor::kernels::active_isa();
            let kernel = format!("serve_kernel_info{{isa=\"{isa}\"}} 1\n");
            ServeReply::MetricsText(snapshot.render_text() + &kernel)
        }
        ServeRequest::TraceDump => {
            metrics.record_control();
            ServeReply::TraceJson(metrics.tracer().dump_json())
        }
        ServeRequest::SetThreshold(threshold) => {
            if (0.0..=1.0).contains(threshold) {
                metrics.record_control();
                for (_, cache) in tenants.caches_mut() {
                    cache.set_threshold(*threshold);
                }
                ServeReply::Ack
            } else {
                ServeReply::failed(
                    ErrorCode::BadRequest,
                    false,
                    format!("threshold {threshold} must be in [0, 1]"),
                )
            }
        }
        ServeRequest::SetRouting(mode) => {
            metrics.record_control();
            let mut error = None;
            for (name, cache) in tenants.caches_mut() {
                if cache.routing() == *mode {
                    continue;
                }
                match reshard(cache, cache.config().clone().with_routing(*mode)) {
                    Ok(new_cache) => *cache = new_cache,
                    Err(e) => {
                        error = Some(format!(
                            "reshard of tenant {name:?} to {} failed: {e}",
                            mode.name()
                        ));
                        break;
                    }
                }
            }
            match error {
                None => ServeReply::Ack,
                Some(message) => ServeReply::failed(ErrorCode::Internal, false, message),
            }
        }
        ServeRequest::Save => {
            metrics.record_control();
            match &config.persist_path {
                None => ServeReply::failed(
                    ErrorCode::BadRequest,
                    false,
                    "no persist path configured (start the server with --persist)",
                ),
                Some(path) => match persist_all(tenants, path) {
                    Ok(saved) => {
                        // The snapshot now covers everything the WAL held;
                        // truncate so the next boot does not double-replay.
                        if let Some(wal) = wal.wal.as_mut() {
                            if let Err(e) = wal.reset() {
                                metrics.record_wal_append_errors(1);
                                eprintln!("mc-serve: WAL reset after save failed: {e}");
                            }
                        }
                        ServeReply::Saved(saved)
                    }
                    Err(e) => {
                        ServeReply::failed(ErrorCode::Internal, false, format!("save failed: {e}"))
                    }
                },
            }
        }
        ServeRequest::Flush => {
            metrics.record_control();
            match tenants.tenant(&item.tenant) {
                None => ServeReply::failed(
                    ErrorCode::BadRequest,
                    false,
                    format!("unknown tenant {:?}", item.tenant),
                ),
                Some(store) => {
                    let evicted = store.len() as u64;
                    // Empty the tenant's shards in place: the live config
                    // (which tracks threshold updates) and any seeded
                    // routing centroids survive the flush — dropping the
                    // centroids would silently degrade centroid routing to
                    // its hash fallback. Neighbouring tenants are untouched.
                    match tenants.flush(&item.tenant) {
                        Ok(()) => {
                            wal.stage(metrics, |w| w.stage_flush(&item.tenant));
                            ServeReply::Flushed(evicted)
                        }
                        Err(e) => ServeReply::failed(
                            ErrorCode::Internal,
                            false,
                            format!("flush failed: {e}"),
                        ),
                    }
                }
            }
        }
        ServeRequest::Invalidate { tenant, epoch } => {
            metrics.record_control();
            match tenants.invalidate(tenant, *epoch) {
                Some(new_epoch) => {
                    // Eagerly reclaim what the bump just killed. Probe-time
                    // screening already hides stale entries, but they would
                    // otherwise shadow re-inserts of the same query until
                    // the periodic sweep — an explicit invalidation is rare
                    // enough to afford the sweep inline, totally ordered
                    // with the traffic around it.
                    metrics.record_ttl_reclaimed(tenants.sweep() as u64);
                    // The WAL records the *resulting* epoch so replay is a
                    // max-merge, idempotent under retries and reordering.
                    wal.stage(metrics, |w| w.stage_invalidate(tenant, new_epoch));
                    ServeReply::Invalidated(new_epoch)
                }
                None => ServeReply::failed(
                    ErrorCode::BadRequest,
                    false,
                    format!("unknown tenant {tenant:?}"),
                ),
            }
        }
        ServeRequest::Lookup { .. } => unreachable!("lookups are handled in runs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_embedder::{ModelProfile, QueryEncoder};
    use meancache::MeanCacheConfig;

    fn cache(shards: usize) -> ShardedCache {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        ShardedCache::new(
            encoder,
            MeanCacheConfig::default()
                .with_threshold(0.6)
                .with_shards(shards),
        )
        .unwrap()
    }

    fn lookup(query: &str) -> ServeRequest {
        ServeRequest::Lookup {
            query: query.into(),
            context: Vec::new(),
        }
    }

    fn insert(query: &str, response: &str) -> ServeRequest {
        ServeRequest::Insert {
            query: query.into(),
            response: response.into(),
            context: Vec::new(),
        }
    }

    #[test]
    fn insert_then_lookup_round_trips_through_the_pipeline() {
        let pipeline = ServePipeline::start(cache(4), &ServeConfig::default()).unwrap();
        let inserted = pipeline
            .submit(insert("what is federated learning", "On-device training."))
            .unwrap()
            .wait();
        assert!(matches!(inserted, ServeReply::Inserted(_)));
        let hit = pipeline
            .submit(lookup("what is federated learning"))
            .unwrap()
            .wait();
        match hit {
            ServeReply::Outcome(outcome) => {
                assert!(outcome.is_hit());
                assert_eq!(outcome.hit().unwrap().response, "On-device training.");
            }
            other => panic!("expected an outcome, got {other:?}"),
        }
        let miss = pipeline.submit(lookup("never inserted")).unwrap().wait();
        assert!(matches!(
            miss,
            ServeReply::Outcome(CacheDecisionOutcome::Miss)
        ));
        pipeline.shutdown();
        assert_eq!(
            pipeline.submit(ServeRequest::Stats).map(|_| ()),
            Err(SubmitError::ShutDown)
        );
    }

    #[test]
    fn control_plane_orders_with_lookups() {
        let pipeline = ServePipeline::start(cache(2), &ServeConfig::default()).unwrap();
        pipeline
            .submit(insert(
                "how do I bake sourdough bread",
                "Ferment overnight.",
            ))
            .unwrap()
            .wait();
        // Stats sees the insert (total order through the queue).
        let stats = match pipeline.submit(ServeRequest::Stats).unwrap().wait() {
            ServeReply::Stats(snapshot) => snapshot,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.inserts, 1);
        // Threshold update applies to later lookups; invalid ones fail.
        assert_eq!(
            pipeline
                .submit(ServeRequest::SetThreshold(0.99))
                .unwrap()
                .wait(),
            ServeReply::Ack
        );
        assert!(matches!(
            pipeline
                .submit(ServeRequest::SetThreshold(7.0))
                .unwrap()
                .wait(),
            ServeReply::Failed { .. }
        ));
        // Flush empties; the lookup ordered after it misses.
        assert_eq!(
            pipeline.submit(ServeRequest::Flush).unwrap().wait(),
            ServeReply::Flushed(1)
        );
        let after = pipeline
            .submit(lookup("how do I bake sourdough bread"))
            .unwrap()
            .wait();
        assert!(matches!(
            after,
            ServeReply::Outcome(CacheDecisionOutcome::Miss)
        ));
        // And the flushed cache kept the updated threshold.
        let stats = match pipeline.submit(ServeRequest::Stats).unwrap().wait() {
            ServeReply::Stats(snapshot) => snapshot,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(stats.entries, 0);
        assert!((stats.threshold - 0.99).abs() < 1e-6);
    }

    #[test]
    fn identical_inflight_lookups_share_one_ticket_across_batches() {
        // max_batch = 1 plus a batch delay parks the batcher on the insert
        // long enough for both lookups to be submitted while the first is
        // still queued — the deterministic cross-batch duplicate shape.
        let config = ServeConfig {
            max_batch: 1,
            batch_delay: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let pipeline = ServePipeline::start(cache(2), &config).unwrap();
        pipeline
            .submit(insert("what is federated learning", "On-device training."))
            .unwrap();
        let first = pipeline
            .submit(lookup("what is federated learning"))
            .unwrap();
        let second = pipeline
            .submit(lookup("what is federated learning"))
            .unwrap();
        // The duplicate attached to the pending ticket — same allocation.
        assert!(
            Arc::ptr_eq(&first.0, &second.0),
            "duplicate lookup must share the in-flight ticket"
        );
        // A *different* lookup gets its own ticket.
        let other = pipeline.submit(lookup("something else entirely")).unwrap();
        assert!(!Arc::ptr_eq(&first.0, &other.0));
        assert!(matches!(first.wait(), ServeReply::Outcome(o) if o.is_hit()));
        assert!(matches!(second.wait(), ServeReply::Outcome(o) if o.is_hit()));
        other.wait();
        // After resolution the key is free again: a fresh lookup re-enters
        // the pipeline with a fresh ticket.
        let after = pipeline
            .submit(lookup("what is federated learning"))
            .unwrap();
        assert!(!Arc::ptr_eq(&first.0, &after.0));
        after.wait();
        let stats = match pipeline.submit(ServeRequest::Stats).unwrap().wait() {
            ServeReply::Stats(snapshot) => snapshot,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(stats.singleflight, 1);
        // The attached duplicate never hit the queue: 5 admitted requests
        // (insert, 2 distinct lookups, re-lookup, stats), not 6.
        assert_eq!(stats.admitted, 5);
        // Latency was recorded once per *executed* request (the snapshot
        // is collected before the stats request's own latency lands).
        assert_eq!(stats.latency_hist.iter().sum::<u64>(), 4);
    }

    #[test]
    fn singleflight_off_gives_every_lookup_its_own_ticket() {
        let config = ServeConfig {
            max_batch: 1,
            batch_delay: Duration::from_millis(30),
            singleflight: false,
            ..ServeConfig::default()
        };
        let pipeline = ServePipeline::start(cache(2), &config).unwrap();
        pipeline.submit(insert("q", "r")).unwrap();
        let first = pipeline.submit(lookup("q")).unwrap();
        let second = pipeline.submit(lookup("q")).unwrap();
        assert!(!Arc::ptr_eq(&first.0, &second.0));
        first.wait();
        second.wait();
    }

    #[test]
    fn deadline_expired_lookups_always_land_in_the_flight_recorder() {
        let config = ServeConfig {
            max_batch: 1,
            batch_delay: Duration::from_millis(30),
            request_deadline: Duration::from_millis(5),
            trace_sample: 0, // prove force-recording, not sampling
            ..ServeConfig::default()
        };
        let pipeline = ServePipeline::start(cache(2), &config).unwrap();
        let reply = pipeline
            .submit(lookup("a lookup whose client gave up"))
            .unwrap()
            .wait();
        assert!(matches!(
            reply,
            ServeReply::Failed {
                code: ErrorCode::DeadlineExceeded,
                retryable: true,
                ..
            }
        ));
        let dump = pipeline.metrics().tracer().dump();
        assert_eq!(dump.traces.len(), 1);
        assert!(dump.traces[0].deadline_expired);
        assert!(dump.traces[0].is_monotone());
        pipeline.shutdown();
    }

    #[test]
    fn trace_dump_returns_sampled_monotone_traces() {
        let config = ServeConfig {
            trace_sample: 1,
            // Everything counts as slow, so traces are recorded at resolve
            // time (no event loop runs here to mark `written`).
            trace_slow: Duration::from_micros(1),
            ..ServeConfig::default()
        };
        let pipeline = ServePipeline::start(cache(2), &config).unwrap();
        pipeline
            .submit(insert("what is federated learning", "On-device training."))
            .unwrap()
            .wait();
        pipeline
            .submit(lookup("what is federated learning"))
            .unwrap()
            .wait();
        let json = match pipeline.submit(ServeRequest::TraceDump).unwrap().wait() {
            ServeReply::TraceJson(json) => json,
            other => panic!("expected a trace dump, got {other:?}"),
        };
        let dump: mc_metrics::TraceDump = serde_json::from_str(&json).unwrap();
        assert_eq!(dump.sample_every, 1);
        assert!(dump.traces.len() >= 2);
        assert!(dump.traces.iter().all(|t| t.is_monotone()));
        // The lookup trace walked the full stage ladder and got its memo
        // consultation attributed.
        let lookup_trace = dump
            .traces
            .iter()
            .find(|t| t.kind == "lookup")
            .expect("lookup trace present");
        for stage in ["enqueued", "dequeued", "encoded", "probed", "committed"] {
            assert!(
                lookup_trace.stage_us(stage).is_some(),
                "missing stage {stage}"
            );
        }
        assert!(lookup_trace.memo_hit.is_some());
        assert!(lookup_trace.slow);
        pipeline.shutdown();
    }

    #[test]
    fn metrics_request_renders_the_text_exposition() {
        let pipeline = ServePipeline::start(cache(2), &ServeConfig::default()).unwrap();
        pipeline
            .submit(insert("what is federated learning", "On-device training."))
            .unwrap()
            .wait();
        let text = match pipeline.submit(ServeRequest::Metrics).unwrap().wait() {
            ServeReply::MetricsText(text) => text,
            other => panic!("expected metrics text, got {other:?}"),
        };
        assert!(text.contains("serve_entries 1"));
        assert!(text.contains("serve_inserts_total 1"));
        assert!(text.contains("serve_latency_us_count"));
        let isa = mc_tensor::kernels::active_isa();
        assert!(["avx2+fma", "portable"].contains(&isa));
        assert!(text.ends_with(&format!("serve_kernel_info{{isa=\"{isa}\"}} 1\n")));
        // The default config installs the embedding memo; the insert
        // encoded (and memoized) one embedding.
        assert!(text.contains("serve_memo_entries 1"));
        // Tenancy: the default tenant's per-tenant series render too.
        assert!(text.contains("serve_tenant_entries{tenant=\"default\"} 1"));
    }

    #[test]
    fn tenants_are_isolated_through_the_pipeline() {
        let config = ServeConfig {
            tenants: vec![
                ServeTenant {
                    name: "acme".into(),
                    token: "acme-secret".into(),
                    quota: 0,
                },
                ServeTenant {
                    name: "beta".into(),
                    token: "beta-secret".into(),
                    quota: 0,
                },
            ],
            ..ServeConfig::default()
        };
        let pipeline = ServePipeline::start(cache(2), &config).unwrap();
        pipeline
            .submit_for("acme", insert("what is rust", "acme answer"), None)
            .unwrap()
            .wait();
        // The same query misses for every other tenant (and the default).
        let acme = pipeline
            .submit_for("acme", lookup("what is rust"), None)
            .unwrap()
            .wait();
        assert!(matches!(acme, ServeReply::Outcome(o) if o.is_hit()));
        let beta = pipeline
            .submit_for("beta", lookup("what is rust"), None)
            .unwrap()
            .wait();
        assert!(matches!(
            beta,
            ServeReply::Outcome(CacheDecisionOutcome::Miss)
        ));
        let default = pipeline.submit(lookup("what is rust")).unwrap().wait();
        assert!(matches!(
            default,
            ServeReply::Outcome(CacheDecisionOutcome::Miss)
        ));
        // Flush is tenant-scoped: flushing beta leaves acme's entry alone.
        assert_eq!(
            pipeline
                .submit_for("beta", ServeRequest::Flush, None)
                .unwrap()
                .wait(),
            ServeReply::Flushed(0)
        );
        let still = pipeline
            .submit_for("acme", lookup("what is rust"), None)
            .unwrap()
            .wait();
        assert!(matches!(still, ServeReply::Outcome(o) if o.is_hit()));
        // The stats plane reports all three tenants.
        let stats = match pipeline.submit(ServeRequest::Stats).unwrap().wait() {
            ServeReply::Stats(snapshot) => snapshot,
            other => panic!("expected stats, got {other:?}"),
        };
        let names: Vec<&str> = stats.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["acme", "beta", "default"]);
        assert_eq!(stats.tenants[0].entries, 1);
        assert_eq!(stats.tenants[1].entries, 0);
        pipeline.shutdown();
    }

    #[test]
    fn invalidate_bumps_the_epoch_and_screens_old_entries() {
        let pipeline = ServePipeline::start(cache(2), &ServeConfig::default()).unwrap();
        pipeline
            .submit(insert("pre-upgrade question", "pre-upgrade answer"))
            .unwrap()
            .wait();
        assert!(matches!(
            pipeline
                .submit(lookup("pre-upgrade question"))
                .unwrap()
                .wait(),
            ServeReply::Outcome(o) if o.is_hit()
        ));
        assert_eq!(
            pipeline
                .submit(ServeRequest::Invalidate {
                    tenant: DEFAULT_TENANT.into(),
                    epoch: 0,
                })
                .unwrap()
                .wait(),
            ServeReply::Invalidated(1)
        );
        // The old entry is screened into a miss at probe time.
        assert!(matches!(
            pipeline
                .submit(lookup("pre-upgrade question"))
                .unwrap()
                .wait(),
            ServeReply::Outcome(CacheDecisionOutcome::Miss)
        ));
        // Fresh inserts under the new epoch serve normally.
        pipeline
            .submit(insert("pre-upgrade question", "post-upgrade answer"))
            .unwrap()
            .wait();
        let reply = pipeline
            .submit(lookup("pre-upgrade question"))
            .unwrap()
            .wait();
        match reply {
            ServeReply::Outcome(outcome) => {
                assert_eq!(outcome.hit().unwrap().response, "post-upgrade answer");
            }
            other => panic!("expected an outcome, got {other:?}"),
        }
        // Unknown tenants fail cleanly.
        assert!(matches!(
            pipeline
                .submit(ServeRequest::Invalidate {
                    tenant: "nobody".into(),
                    epoch: 0,
                })
                .unwrap()
                .wait(),
            ServeReply::Failed {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        pipeline.shutdown();
    }

    #[test]
    fn singleflight_never_shares_tickets_across_tenants() {
        let config = ServeConfig {
            max_batch: 1,
            batch_delay: Duration::from_millis(50),
            tenants: vec![ServeTenant {
                name: "acme".into(),
                token: "s".into(),
                quota: 0,
            }],
            ..ServeConfig::default()
        };
        let pipeline = ServePipeline::start(cache(2), &config).unwrap();
        pipeline.submit(insert("shared question", "r")).unwrap();
        let default_ticket = pipeline.submit(lookup("shared question")).unwrap();
        let acme_ticket = pipeline
            .submit_for("acme", lookup("shared question"), None)
            .unwrap();
        // Same query text, different tenants: never the same ticket.
        assert!(
            !Arc::ptr_eq(&default_ticket.0, &acme_ticket.0),
            "tenants must not share singleflight tickets"
        );
        // And the outcomes differ: default hits its insert, acme misses.
        assert!(matches!(default_ticket.wait(), ServeReply::Outcome(o) if o.is_hit()));
        assert!(matches!(
            acme_ticket.wait(),
            ServeReply::Outcome(CacheDecisionOutcome::Miss)
        ));
        pipeline.shutdown();
    }
}
