//! The TCP serving front: one event-loop thread owning the listener and
//! every connection through a readiness [`Poller`], all cache work delegated
//! to the [`ServePipeline`].
//!
//! ## Why an event loop
//!
//! The previous front end spent two pool threads per connection (a blocking
//! reader and a blocking writer), so the thread budget *was* the admission
//! limit and 10k mostly-idle connections would have meant 20k parked
//! threads. Here every socket is non-blocking and registered with an epoll
//! (or portable `poll(2)`) poller: idle connections cost a file descriptor
//! and a table entry, and the loop does work only when a socket is actually
//! ready. Total thread count is two — this loop and the batcher —
//! regardless of connection count.
//!
//! ## Connection admission
//!
//! The connection budget is enforced *at accept time*: when
//! [`ServeConfig::max_connections`] sockets are live, a new connection gets
//! a best-effort [`Response::Busy`] frame and is closed before a single
//! byte of it is read or parsed — shed at the door, mirroring the
//! per-request shedding the admission queue does.
//!
//! ## Response ordering and flow control
//!
//! Each connection keeps a FIFO of outcomes (immediate responses and
//! pipeline tickets). Resolved entries at the head are encoded into a write
//! buffer and flushed as far as the socket allows; a ticket resolving on
//! the batcher thread marks the connection dirty and nudges the loop
//! through a [`Waker`], so responses still leave in submission order with
//! whole micro-batches coalescing into single `write` calls. A client that
//! stops reading accumulates write buffer up to a high-water mark, at which
//! point the loop stops *reading* from it (backpressure through TCP)
//! instead of parking a thread in `write_all`.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] (or a client's [`Request::Shutdown`]) flags
//! the stop, drains the pipeline — resolving every admitted ticket — and
//! the loop switches to drain mode: no more accepts, no more reads, flush
//! every pending response (bounded by a deadline), close, exit. In-flight
//! requests are answered; only new work is refused.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mc_metrics::trace::{Stage, Trace};
use meancache::ShardedCache;

use crate::pipeline::{request_kind, ServeConfig, ServePipeline, ServeReply, ServeRequest};
use crate::poller::{wake_pair, Interest, Poller, PollerKind, WakeReceiver, Waker};
use crate::protocol::{write_frame, ErrorCode, FrameAssembler, Request, Response, MAX_TENANT_LEN};
use crate::queue::SubmitError;
use crate::Ticket;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the wake receiver.
const TOKEN_WAKER: u64 = 1;
/// First connection token.
const TOKEN_FIRST_CONN: u64 = 2;

/// Once a connection's unflushed write backlog reaches this, the loop stops
/// reading from it until the backlog drains — per-connection backpressure
/// instead of unbounded buffering for a client that stops reading.
const WRITE_HIGH_WATER: usize = 64 * 1024;

/// How long drain mode keeps flushing pending responses after a stop before
/// abandoning unread clients.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// What the connection owes the client for one request, in submission order.
enum Out {
    /// A protocol-level response that never entered the pipeline.
    Ready(Response),
    /// A pipeline ticket still resolving.
    Pending(Ticket),
}

struct ServerShared {
    pipeline: ServePipeline,
    stop: AtomicBool,
    stop_lock: Mutex<()>,
    stop_signal: Condvar,
    waker: Waker,
    /// Connections whose ticket resolved since the loop last looked;
    /// drained (with the waker) every loop iteration.
    dirty: Mutex<Vec<u64>>,
    /// Readiness events the loop has processed — observable work. The
    /// idle-churn test asserts this grows with *active* sockets, not with
    /// the number of idle ones.
    io_events: AtomicU64,
    local_addr: SocketAddr,
}

impl ServerShared {
    /// Flags the server for shutdown, wakes whoever is parked in
    /// [`ServerHandle::wait`], and nudges the event loop. Never joins
    /// anything — safe to call from any thread (including the loop itself,
    /// on a client's `Shutdown` request).
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let guard = self.stop_lock.lock().expect("stop lock poisoned");
            self.stop_signal.notify_all();
            drop(guard);
            self.waker.wake();
        }
    }

    /// Marks a connection as having a freshly resolved ticket and nudges
    /// the loop. Called from ticket watchers on the batcher thread.
    fn mark_dirty(&self, token: u64) {
        self.dirty.lock().expect("dirty list poisoned").push(token);
        self.waker.wake();
    }
}

/// The serving front-end. Construct with [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), takes ownership of
    /// `cache`, and starts serving: one event-loop thread + the
    /// micro-batching pipeline. Uses the platform's best poller (epoll on
    /// Linux, `poll(2)` elsewhere).
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    pub fn start(
        cache: ShardedCache,
        config: &ServeConfig,
        addr: impl std::net::ToSocketAddrs,
    ) -> io::Result<ServerHandle> {
        let kind = if cfg!(target_os = "linux") {
            PollerKind::Epoll
        } else {
            PollerKind::Poll
        };
        Self::start_with_poller(cache, config, addr, kind)
    }

    /// [`Server::start`] with an explicit readiness backend (the `serve`
    /// binary's `--poller` flag; CI smokes both).
    ///
    /// # Errors
    /// Propagates socket and poller-creation errors.
    pub fn start_with_poller(
        cache: ShardedCache,
        config: &ServeConfig,
        addr: impl std::net::ToSocketAddrs,
        poller: PollerKind,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut poller = Poller::new(poller)?;
        let (waker, wake_rx) = wake_pair()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.raw_fd(), TOKEN_WAKER, Interest::READ)?;
        // WAL open/recovery failures surface as startup errors: a server
        // that cannot establish its durability story must not serve.
        let pipeline = ServePipeline::start(cache, config)
            .map_err(|e| io::Error::other(format!("serve WAL recovery failed: {e}")))?;
        pipeline.metrics().set_build_info(
            match poller.kind() {
                PollerKind::Epoll => "epoll",
                PollerKind::Poll => "poll",
            },
            &config.fsync.to_string(),
        );
        let shared = Arc::new(ServerShared {
            pipeline,
            stop: AtomicBool::new(false),
            stop_lock: Mutex::new(()),
            stop_signal: Condvar::new(),
            waker,
            dirty: Mutex::new(Vec::new()),
            io_events: AtomicU64::new(0),
            local_addr,
        });
        let max_connections = config.max_connections.max(1);
        let idle_timeout = config.idle_timeout;
        let tenant_tokens: HashMap<String, String> = config
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.token.clone()))
            .collect();
        let legacy_tenant = config.default_tenant.clone();
        let io = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mc-serve-io".into())
                .spawn(move || {
                    EventLoop {
                        listener,
                        poller,
                        wake_rx,
                        addr_tag: shared.local_addr.to_string(),
                        shared: &shared,
                        max_connections,
                        idle_timeout,
                        tenant_tokens,
                        legacy_tenant,
                        last_idle_sweep: Instant::now(),
                        conns: HashMap::new(),
                        next_token: TOKEN_FIRST_CONN,
                    }
                    .run()
                })
                .expect("io thread spawn failed")
        };
        Ok(ServerHandle {
            shared,
            io: Some(io),
        })
    }
}

/// Owns a running server's lifecycle: its address, its shutdown, its join.
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    io: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (the actual port when bound with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Admission-queue depth right now (diagnostics).
    pub fn queue_depth(&self) -> usize {
        self.shared.pipeline.queue_depth()
    }

    /// Readiness events the event loop has processed so far. Grows with
    /// traffic, not with idle connections — the property the idle-churn
    /// test pins down.
    pub fn io_event_count(&self) -> u64 {
        self.shared.io_events.load(Ordering::Relaxed)
    }

    /// Blocks until some client sends [`Request::Shutdown`], then runs the
    /// graceful teardown. The `serve` binary's main thread parks here.
    pub fn wait(mut self) {
        let mut guard = self.shared.stop_lock.lock().expect("stop lock poisoned");
        while !self.shared.stop.load(Ordering::SeqCst) {
            guard = self
                .shared
                .stop_signal
                .wait(guard)
                .expect("stop lock poisoned");
        }
        drop(guard);
        self.finish();
    }

    /// Graceful shutdown: stop accepting, drain the pipeline (every
    /// admitted request is answered), flush pending responses, join the
    /// loop.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.shared.request_stop();
        // Drain in-flight work: every ticket resolves, each resolution
        // marks its connection dirty and wakes the loop, which flushes the
        // responses out in drain mode.
        self.shared.pipeline.shutdown();
        if let Some(io) = self.io.take() {
            // Same reasoning as the batcher join: a panicked loop already
            // dropped its connections, and re-panicking here would abort
            // the process out of Drop during unwinding. Log and move on.
            if io.join().is_err() {
                eprintln!("mc-serve: io thread panicked; skipping its drain phase");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.io.is_some() {
            self.finish();
        }
    }
}

/// One live connection's state in the event loop.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Responses owed, in submission order.
    out: VecDeque<Out>,
    /// Traces of responses encoded into `wbuf` but not yet fully flushed;
    /// their `written` stage is marked when the backlog drains.
    unwritten_traces: Vec<Arc<Trace>>,
    /// Encoded-but-unflushed response bytes; `wpos` marks how far the
    /// socket has accepted them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// No further reads (EOF, protocol error, or server drain); the
    /// connection closes once `out` and `wbuf` are empty.
    closing: bool,
    /// Last time the socket showed life (bytes read or written) — the
    /// idle-reaper's clock.
    last_activity: Instant,
    /// The tenant this connection authenticated as via `Hello`. `None`
    /// means un-authenticated: per-tenant requests fall back to the
    /// configured default tenant, or are refused when there is none.
    tenant: Option<String>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            assembler: FrameAssembler::new(),
            out: VecDeque::new(),
            unwritten_traces: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            interest: Interest::READ,
            closing: false,
            last_activity: Instant::now(),
            tenant: None,
        }
    }

    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The interest this connection should be registered with right now.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing && self.backlog() < WRITE_HIGH_WATER,
            writable: self.backlog() > 0,
        }
    }

    /// Done: nothing owed and no more coming.
    fn finished(&self) -> bool {
        self.closing && self.out.is_empty() && self.backlog() == 0
    }
}

struct EventLoop<'a> {
    listener: TcpListener,
    poller: Poller,
    wake_rx: WakeReceiver,
    /// Failpoint scope tag for this server's socket writes (its bound
    /// address), so fault-injection tests target one server's connections
    /// without perturbing others in the same process.
    addr_tag: String,
    shared: &'a Arc<ServerShared>,
    max_connections: usize,
    /// Reap connections idle longer than this; zero disables reaping (and
    /// keeps the poll wait unbounded — an idle server sleeps).
    idle_timeout: Duration,
    /// Accepted `Hello` credentials: tenant name → shared secret.
    tenant_tokens: HashMap<String, String>,
    /// The tenant un-authenticated connections serve as (`None` = refuse
    /// their per-tenant requests until they say `Hello`).
    legacy_tenant: Option<String>,
    last_idle_sweep: Instant,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl EventLoop<'_> {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut draining_since: Option<Instant> = None;
        loop {
            let stopping = self.shared.stop.load(Ordering::SeqCst);
            if stopping && draining_since.is_none() {
                draining_since = Some(Instant::now());
                self.enter_drain_mode();
            }
            if let Some(since) = draining_since {
                if self.conns.is_empty() || since.elapsed() >= DRAIN_DEADLINE {
                    break;
                }
            }
            // Blocking wait while serving; short slices while draining so
            // the deadline is honoured even if no event ever fires, and
            // bounded slices when idle reaping is on so the reaper runs on
            // a silent socket set too.
            let timeout = if draining_since.is_some() {
                Some(Duration::from_millis(50))
            } else if self.idle_timeout.is_zero() {
                None
            } else {
                Some((self.idle_timeout / 4).max(Duration::from_millis(10)))
            };
            let Ok(n) = self.poller.wait(&mut events, timeout) else {
                break; // poller failure: nothing sane left to do
            };
            self.shared.io_events.fetch_add(n as u64, Ordering::Relaxed);
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(draining_since.is_some()),
                    TOKEN_WAKER => self.wake_rx.drain(),
                    token => self.conn_ready(token, event.readable, event.writable, event.hangup),
                }
            }
            self.pump_dirty();
            if draining_since.is_none() {
                self.reap_idle();
            }
        }
        // Deadline expired (or clean exit): drop whatever is left.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Closes connections that have shown no socket activity for
    /// [`ServeConfig::idle_timeout`]. Connections still owed a response are
    /// spared — a long-queued ticket is the server's debt, not the
    /// client's silence. Sweeps are amortised to every `idle_timeout / 4`
    /// so the O(connections) walk never dominates a busy loop.
    fn reap_idle(&mut self) {
        if self.idle_timeout.is_zero() || self.last_idle_sweep.elapsed() < self.idle_timeout / 4 {
            return;
        }
        self.last_idle_sweep = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                conn.out.is_empty()
                    && conn.backlog() == 0
                    && conn.last_activity.elapsed() >= self.idle_timeout
            })
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.close_conn(token);
            self.shared.pipeline.metrics().record_idle_reaped();
        }
    }

    /// Switches to drain mode: stop accepting, stop reading, flush what is
    /// owed. Idle connections close here and now.
    fn enter_drain_mode(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
            }
            self.pump_conn(token);
        }
    }

    /// Accepts every pending connection; beyond the budget (or while
    /// draining), sheds with a best-effort `Busy` frame before a single
    /// payload byte is read — refused clients learn immediately instead of
    /// queueing behind admitted ones.
    fn accept_ready(&mut self, draining: bool) {
        loop {
            let mut stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if draining || self.conns.len() >= self.max_connections {
                // Accepted sockets are blocking by default; a 6-byte frame
                // into a fresh send buffer cannot stall.
                let _ = write_frame(&mut stream, &Response::Busy.encode());
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                continue;
            }
            self.conns.insert(token, Conn::new(stream));
        }
    }

    /// Handles readiness on a connection: read and parse what is available,
    /// then pump the write side.
    fn conn_ready(&mut self, token: u64, readable: bool, _writable: bool, hangup: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // already closed this iteration
        };
        if hangup {
            // Peer closed its write half (or the socket errored). Stop
            // reading; pending responses still get a flush attempt — a
            // half-closed client may well be waiting for them.
            conn.closing = true;
        }
        if readable && !conn.closing {
            self.read_ready(token);
        }
        // Writable readiness (and post-read fallout) both funnel into the
        // same pump: encode what resolved, flush what fits.
        self.pump_conn(token);
    }

    /// Reads until `WouldBlock`/EOF, feeding the frame assembler and
    /// submitting every complete request in order.
    fn read_ready(&mut self, token: u64) {
        let mut rbuf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Backpressure: a client we owe too many unflushed bytes stops
            // being read until the backlog drains.
            if conn.backlog() >= WRITE_HIGH_WATER {
                return;
            }
            match conn.stream.read(&mut rbuf) {
                Ok(0) => {
                    conn.closing = true;
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.assembler.extend(&rbuf[..n]);
                    self.parse_frames(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.closing = true;
                    }
                    return;
                }
            }
        }
    }

    /// Drains complete frames out of the assembler into request handling.
    fn parse_frames(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing {
                return;
            }
            match conn.assembler.next_frame() {
                Ok(None) => return,
                Ok(Some(payload)) => self.handle_frame(token, &payload),
                Err(e) => {
                    // Framing is no longer trustworthy: answer the error,
                    // then hang up.
                    conn.out
                        .push_back(Out::Ready(Response::Error(e.to_string())));
                    conn.closing = true;
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches one request frame.
    fn handle_frame(&mut self, token: u64, payload: &[u8]) {
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                // The *frame* was well-formed — only its payload wasn't —
                // so the stream is still in sync. Answer with a per-request
                // failure and keep serving the connection; only framing
                // errors (handled in `parse_frames`) are fatal.
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.out.push_back(Out::Ready(Response::Fail {
                        code: ErrorCode::BadRequest,
                        retryable: false,
                        message: e.to_string(),
                    }));
                }
                return;
            }
        };
        let out = match request {
            Request::Ping => Out::Ready(Response::Pong),
            Request::Shutdown => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.out.push_back(Out::Ready(Response::Ack));
                    conn.closing = true;
                }
                self.shared.request_stop();
                return;
            }
            Request::Hello {
                tenant,
                token: secret,
            } => Out::Ready(self.authenticate(token, tenant, &secret)),
            other => {
                let conn_tenant = self.conns.get(&token).and_then(|c| c.tenant.clone());
                // Per-tenant requests execute under the connection's
                // authenticated tenant, else the configured default; a
                // server without a default refuses them until the client
                // says Hello. Cross-tenant control (stats, metrics, tuning,
                // save) never needs a namespace and always passes.
                let needs_tenant = matches!(
                    other,
                    Request::Lookup { .. }
                        | Request::Insert { .. }
                        | Request::Flush
                        | Request::Invalidate { .. }
                );
                let tenant = match &conn_tenant {
                    Some(t) => t.clone(),
                    None => match &self.legacy_tenant {
                        Some(t) => t.clone(),
                        None if !needs_tenant => self.shared.pipeline.default_tenant().to_string(),
                        None => {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.out.push_back(Out::Ready(Response::Fail {
                                    code: ErrorCode::Unauthenticated,
                                    retryable: true,
                                    message: "no default tenant on this server; \
                                              authenticate with Hello first"
                                        .into(),
                                }));
                            }
                            return;
                        }
                    },
                };
                let serve_request = match other {
                    Request::Lookup { query, context } => ServeRequest::Lookup { query, context },
                    Request::Insert {
                        query,
                        response,
                        context,
                    } => ServeRequest::Insert {
                        query,
                        response,
                        context,
                    },
                    Request::Stats => ServeRequest::Stats,
                    Request::Metrics => ServeRequest::Metrics,
                    Request::TraceDump => ServeRequest::TraceDump,
                    Request::SetThreshold(t) => ServeRequest::SetThreshold(t),
                    Request::SetRouting(mode) => ServeRequest::SetRouting(mode),
                    Request::Save => ServeRequest::Save,
                    Request::Flush => ServeRequest::Flush,
                    Request::Invalidate {
                        tenant: target,
                        epoch,
                    } => {
                        if target.is_empty() || target.len() > MAX_TENANT_LEN {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.out.push_back(Out::Ready(Response::Fail {
                                    code: ErrorCode::BadRequest,
                                    retryable: false,
                                    message: format!(
                                        "tenant name must be 1..={MAX_TENANT_LEN} bytes"
                                    ),
                                }));
                            }
                            return;
                        }
                        // An authenticated connection may only invalidate
                        // its own namespace; un-authenticated (operator /
                        // legacy) connections may target any tenant.
                        if conn_tenant.as_deref().is_some_and(|t| t != target) {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.out.push_back(Out::Ready(Response::Fail {
                                    code: ErrorCode::Unauthenticated,
                                    retryable: false,
                                    message: format!(
                                        "authenticated as {:?}; cannot invalidate {target:?}",
                                        conn_tenant.as_deref().unwrap_or_default()
                                    ),
                                }));
                            }
                            return;
                        }
                        ServeRequest::Invalidate {
                            tenant: target,
                            epoch,
                        }
                    }
                    Request::Ping | Request::Shutdown | Request::Hello { .. } => {
                        unreachable!("handled above")
                    }
                };
                // Sampled requests get a trace from frame-accept onwards, so
                // queue and execution stages measure against the wire
                // arrival, not the batcher's first sight of the request.
                let trace = self
                    .shared
                    .pipeline
                    .metrics()
                    .tracer()
                    .begin(request_kind(&serve_request));
                if let Some(t) = &trace {
                    t.mark(Stage::Accepted);
                    t.mark(Stage::Decoded);
                }
                match self
                    .shared
                    .pipeline
                    .submit_for(&tenant, serve_request, trace)
                {
                    Ok(ticket) => {
                        // Resolution (on the batcher thread) marks this
                        // connection dirty and nudges the loop; an
                        // already-resolved ticket runs the watcher inline,
                        // which is just as correct.
                        let shared = Arc::clone(self.shared);
                        ticket.on_resolve(move || shared.mark_dirty(token));
                        Out::Pending(ticket)
                    }
                    Err(SubmitError::Overloaded) => Out::Ready(Response::Busy),
                    Err(SubmitError::ShutDown) => Out::Ready(Response::Fail {
                        code: ErrorCode::ShuttingDown,
                        retryable: true,
                        message: "server is shutting down".into(),
                    }),
                }
            }
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.out.push_back(out);
        }
    }

    /// Handles a `Hello` handshake: validates the tenant name, compares the
    /// presented token against the configured secret in constant time, and
    /// binds the connection to the tenant on success. Failure keeps the
    /// connection open — a client may retry with corrected credentials, and
    /// (on servers with a default tenant) may keep serving as the default.
    fn authenticate(&mut self, token: u64, tenant: String, secret: &str) -> Response {
        if tenant.is_empty() || tenant.len() > MAX_TENANT_LEN {
            return Response::Fail {
                code: ErrorCode::BadRequest,
                retryable: false,
                message: format!("tenant name must be 1..={MAX_TENANT_LEN} bytes"),
            };
        }
        // Compare against a dummy secret when the tenant is unknown so the
        // reply time does not distinguish "no such tenant" from "bad
        // token".
        let expected = self.tenant_tokens.get(&tenant);
        let reference = expected.map_or("", String::as_str);
        if constant_time_eq(reference.as_bytes(), secret.as_bytes()) && expected.is_some() {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.tenant = Some(tenant);
            }
            Response::Welcome
        } else {
            Response::Fail {
                code: ErrorCode::Unauthenticated,
                retryable: false,
                message: "unknown tenant or bad token".into(),
            }
        }
    }

    /// Pumps every connection the batcher marked dirty since the last
    /// iteration. Work here is O(resolved tickets), never O(connections).
    fn pump_dirty(&mut self) {
        loop {
            let dirty =
                std::mem::take(&mut *self.shared.dirty.lock().expect("dirty list poisoned"));
            if dirty.is_empty() {
                return;
            }
            for token in dirty {
                self.pump_conn(token);
            }
        }
    }

    /// Encodes resolved head-of-line outcomes into the write buffer,
    /// flushes as far as the socket allows, updates poller interest, and
    /// closes the connection when it is finished (or broken).
    fn pump_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Encode every response that is ready at the head of the line.
        while let Some(head) = conn.out.front() {
            let (response, trace) = match head {
                Out::Ready(response) => (response.clone(), None),
                Out::Pending(ticket) => match ticket.try_reply() {
                    Some(reply) => (reply_to_response(reply), ticket.trace().cloned()),
                    None => break,
                },
            };
            if let Some(t) = trace {
                conn.unwritten_traces.push(t);
            }
            conn.out.pop_front();
            if write_frame(&mut conn.wbuf, &response.encode()).is_err() {
                // Oversize response payload: nothing recoverable.
                conn.closing = true;
                conn.out.clear();
                break;
            }
        }
        // Flush.
        let mut broken = false;
        let flush_start = (conn.wpos < conn.wbuf.len()).then(Instant::now);
        while conn.wpos < conn.wbuf.len() {
            let pending = &conn.wbuf[conn.wpos..];
            // Fault injection (inert outside tests / the `failpoints`
            // feature): a hook may cap the write short or inject an error,
            // exercising the partial-write and broken-pipe paths.
            let wrote = match mc_store::failpoints::write_hook(
                "serve.conn.write",
                &self.addr_tag,
                pending.len(),
            ) {
                Some(Ok(cap)) => conn.stream.write(&pending[..cap.min(pending.len())]),
                Some(Err(e)) => Err(e),
                None => conn.stream.write(pending),
            };
            match wrote {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if let Some(start) = flush_start {
            self.shared
                .pipeline
                .metrics()
                .record_write_flush(start.elapsed());
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            // Everything encoded so far is on the wire: close out the
            // sampled traces (marks `written`, commits to the recorder).
            for trace in conn.unwritten_traces.drain(..) {
                self.shared.pipeline.metrics().finish_written(&trace);
            }
        } else if conn.wpos >= WRITE_HIGH_WATER {
            // Reclaim flushed prefix so a slow reader cannot grow the
            // buffer unboundedly behind a large backlog.
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        if broken || conn.finished() {
            self.close_conn(token);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            conn.interest = desired;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, token, desired);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // Deregister before the fd closes: the poll(2) backend keeps
            // its own registration table.
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }
}

/// Byte-equality that touches every byte of both inputs regardless of
/// where (or whether) they differ, so a `Hello` rejection's timing does not
/// leak how much of the token matched. Length still shapes the loop bound —
/// acceptable, since token lengths are not secret here.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Maps a pipeline reply onto its wire form.
fn reply_to_response(reply: ServeReply) -> Response {
    match reply {
        ServeReply::Outcome(outcome) => Response::from_outcome(&outcome),
        ServeReply::Inserted(id) => Response::Inserted(id),
        ServeReply::Stats(snapshot) => match serde_json::to_string(&*snapshot) {
            Ok(json) => Response::Stats(json),
            Err(_) => Response::Error("stats snapshot failed to serialise".into()),
        },
        ServeReply::Ack => Response::Ack,
        ServeReply::Flushed(n) => Response::Flushed(n),
        ServeReply::Saved(n) => Response::Saved(n),
        ServeReply::MetricsText(text) => Response::Metrics(text),
        ServeReply::TraceJson(json) => Response::TraceDump(json),
        ServeReply::Invalidated(epoch) => Response::Invalidated(epoch),
        ServeReply::Failed {
            code,
            retryable,
            message,
        } => Response::Fail {
            code,
            retryable,
            message,
        },
    }
}
