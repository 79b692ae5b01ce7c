//! # mc-serve
//!
//! The production serving front-end of the MeanCache reproduction: the layer
//! that turns independent client requests into batched, backpressured probes
//! against a [`meancache::ShardedCache`] — the shape of a GPTCache-style
//! semantic-cache service fronting an LLM API.
//!
//! ```text
//!  clients ──TCP──▶ event loop (1 thread: epoll/poll readiness)
//!                     │ accept ≤ max_connections (Busy at the door)
//!                     │ non-blocking reads ─▶ FrameAssembler ─▶ decode
//!                     │ submit / Overloaded        ▲ dirty-mark + Waker
//!                     ▼                            │ on ticket resolve
//!        bounded admission queue ──▶ cross-batch singleflight attach
//!                     │ pop_batch(max_batch, max_wait)
//!                     ▼
//!            micro-batcher thread ──▶ root-pin GC sweep (periodic)
//!        probe_batch ─▶ ordered commit ─▶ writes staged on the WAL
//!                     │ one WAL commit (one fdatasync) per batch, then
//!                     │ every ticket of the batch ─▶ latency histogram
//!                     ▼
//!       ShardedCache ─▶ EmbeddingMemo (sharded LRU in front of encoder)
//! ```
//!
//! Five layers, one module each:
//!
//! * **Event loop** ([`server`], [`poller`]) — one thread owns the listener
//!   and every connection through a readiness [`poller::Poller`] (epoll;
//!   the crate is Linux-only). Sockets
//!   are non-blocking with per-connection read/write buffers and a
//!   partial-frame state machine ([`protocol::FrameAssembler`]), so 10k
//!   idle connections cost file descriptors, not threads — total thread
//!   count is two (loop + batcher) regardless of connection count. The
//!   connection budget is enforced at accept time: beyond
//!   [`ServeConfig::max_connections`] a fresh socket gets a `Busy` frame
//!   and is closed before a single payload byte is parsed.
//! * **Micro-batcher** ([`pipeline`]) — an admission queue of bounded
//!   capacity feeds a single batcher thread that collects up to
//!   [`ServeConfig::max_batch`] requests (waiting at most
//!   [`ServeConfig::max_wait`] after the first), then drives the whole batch
//!   through [`meancache::SemanticCache::probe_batch`] and commits outcomes
//!   strictly in submission order — so batched responses are
//!   decision-identical to sequential lookups. The batch is also the unit
//!   of syncing and of replying: writes stage their WAL records as they
//!   execute, the end of the batch (and a `Save`) is a commit point that
//!   pays one `fdatasync` for all of them under `--fsync always`, and only
//!   then do the batch's tickets resolve, back to back — no write is
//!   acknowledged before the sync covering it, and a batch costs the event
//!   loop one wake-up. When the queue is full,
//!   [`ServePipeline::submit`] fails fast with
//!   [`queue::SubmitError::Overloaded`] and the connection layer answers
//!   `Busy`: load is shed at the door, not buffered into unbounded latency.
//!   Identical `(query, context)` lookups already in flight attach to the
//!   pending ticket (cross-batch singleflight) instead of re-entering the
//!   queue.
//! * **Embedding memo-cache** — a sharded, capacity- and bytes-bounded LRU
//!   ([`mc_embedder::EmbeddingMemo`]) in front of the query encoder, keyed
//!   on normalized query text. Sound because the encoder is frozen for the
//!   server's lifetime and its tokenizer lowercases; hit decisions are
//!   bit-identical to encoding from scratch (property-tested in
//!   `meancache`).
//! * **Wire protocol** ([`protocol`], [`client`]) — length-prefixed frames
//!   over plain `std::net` TCP (offline-friendly; no async runtime): `u32`
//!   little-endian payload length, one request or response per frame,
//!   pipelining allowed (responses come back in submission order per
//!   connection). [`client::Client`] is the blocking counterpart; the
//!   `serve` binary wires config → cache → listener.
//! * **Stats/control plane** ([`stats`]) — a `Stats` request returns a
//!   [`stats::ServeStatsSnapshot`] (hit rate, queue depth, batch-size and
//!   latency histograms, memo and singleflight counters, per-shard
//!   occupancy); a `Metrics` request returns the same data as a
//!   Prometheus-style text exposition. `SetThreshold` and `Flush` commands
//!   travel the same protocol and execute on the batcher thread, totally
//!   ordered with the lookups around them.
//! * **Tracing / flight recorder** — every Nth request (and *every* slow,
//!   deadline-expired, or panicked one) carries an [`mc_metrics::Trace`]
//!   that records a monotone timestamp per pipeline stage (accepted →
//!   decoded → enqueued → dequeued → batched → encoded → probed →
//!   committed → written). Completed traces land in a fixed-capacity ring
//!   ([`mc_metrics::trace::Tracer`]) dumpable as JSON via the `TraceDump`
//!   opcode, feed per-stage latency histograms in the `Metrics`
//!   exposition, and — past [`ServeConfig::trace_slow`] — are appended to
//!   the slow-request log. The `mctop` binary polls `Stats` and renders a
//!   live terminal dashboard on top of all of this.
//! * **Multi-tenancy** — a connection binds a tenant with a
//!   `Hello{tenant, token}` handshake (constant-time token check;
//!   un-authenticated connections serve [`ServeConfig::default_tenant`]),
//!   and every data opcode executes against that tenant's private cache in
//!   a [`meancache::TenantedCache`]: per-tenant quotas evict the tenant's
//!   own LRU tail, `Invalidate` bumps a per-tenant epoch, TTLs screen aged
//!   entries at probe time, and WAL/snapshot records carry the tenant tag
//!   so recovery lands in the right namespace. See the "Multi-tenancy"
//!   section of `docs/ARCHITECTURE.md`.
//!
//! ## Why micro-batching
//!
//! A probe that arrives alone pays the whole pipeline per request: a queue
//! push, a batcher wakeup, a per-shard lock acquisition, an index dispatch,
//! a response write syscall. Under load those fixed costs are the bulk of
//! the bill — the index scan itself is microseconds at serving shard sizes.
//! Batching amortises all of them: one wakeup, one partition pass, one lock
//! per touched shard, one `search_batch` per shard, and coalesced response
//! writes per connection. The repository benchmark's `serve_hot` workload
//! (`BENCHMARK.json`) measures the effect end to end over localhost TCP.

pub mod client;
pub mod pipeline;
pub mod poller;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;
pub mod wal;

pub use client::{Client, ClientConfig, ClientError};
pub use pipeline::{ServeConfig, ServePipeline, ServeReply, ServeRequest, ServeTenant, Ticket};
pub use poller::{Event, Interest, Poller, Waker};
pub use protocol::{ErrorCode, FrameAssembler, Request, Response, MAX_TENANT_LEN};
pub use queue::{BoundedQueue, SubmitError};
pub use server::{Server, ServerHandle};
pub use stats::{
    EncodeStageObserver, ServeMetrics, ServeStatsSnapshot, TenantStatSnapshot, STAGE_HIST_NAMES,
};
pub use wal::{ServeWal, WalOp};
