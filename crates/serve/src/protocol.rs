//! The wire protocol: length-prefixed frames over a byte stream, with a
//! hand-rolled little-endian binary codec for requests and responses.
//!
//! ## Frame layout
//!
//! ```text
//! ┌───────────────┬──────────────────────────┐
//! │ len: u32 LE   │ payload (len bytes)      │
//! └───────────────┴──────────────────────────┘
//! payload := opcode: u8, fields...
//! str     := len: u32 LE, utf-8 bytes
//! [str]   := count: u32 LE, count × str
//! ```
//!
//! One request or response per frame. Clients may pipeline: a server
//! processes a connection's frames in order and writes responses in the
//! same order, so no sequence numbers are needed. Frames above
//! [`MAX_FRAME_LEN`] are rejected before allocation (a malformed or hostile
//! length prefix must not OOM the server).
//!
//! ## Error-code taxonomy
//!
//! Failures travel on three distinct frames, by blast radius:
//!
//! * **`Busy` (0x87)** — admission control refused the request before any
//!   work happened (queue full, connection budget exhausted). Always safe
//!   to retry after backoff; the connection stays open.
//! * **`Fail` (0x8b)** — *this request* failed; the connection stays open
//!   and pipelined neighbours are unaffected. Carries an [`ErrorCode`], an
//!   explicit `retryable` flag, and a human-readable message:
//!   - [`ErrorCode::BadRequest`] — the request decoded as a frame but was
//!     semantically invalid (e.g. unknown opcode, malformed payload).
//!     Not retryable: the same bytes will fail the same way.
//!   - [`ErrorCode::DeadlineExceeded`] — the request sat in the batcher's
//!     queue past the server's `request_deadline`. Retryable: a later
//!     attempt may find a shorter queue.
//!   - [`ErrorCode::Overloaded`] — shed after admission (a queued ticket
//!     dropped during shutdown-drain overflow). Retryable.
//!   - [`ErrorCode::Panicked`] — the cache work for this request panicked;
//!     the panic was isolated (`catch_unwind`) and counted. Retryable: the
//!     panic was almost certainly input- or timing-specific, and state is
//!     still consistent.
//!   - [`ErrorCode::Internal`] — any other server-side failure (e.g. a
//!     persistence error on `Save`). Not retryable by default.
//!   - [`ErrorCode::ShuttingDown`] — the server is draining; retryable
//!     against a replacement instance, not this one.
//! * **`Error` (0x86)** — legacy protocol-level failure; the server closes
//!   the connection after sending it (the stream can no longer be trusted,
//!   e.g. an unframeable byte stream). Clients should treat it as fatal for
//!   the connection, not the server.
//!
//! The [`crate::Client`] maps `Busy` and retryable `Fail` frames into its
//! jittered-backoff retry loop; see `docs/ARCHITECTURE.md` ("Failure
//! semantics") for the full client retry contract.

use std::io::{self, Read, Write};

use meancache::{CacheDecisionOutcome, CacheHit, RoutingMode};

/// Upper bound on a frame payload (16 MiB): far above any legitimate
/// query/response, far below an allocation-of-death.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Upper bound on a tenant-name length in [`Request::Hello`] /
/// [`Request::Invalidate`] frames. Longer names are semantically invalid
/// ([`ErrorCode::BadRequest`], connection stays open) — tenant names are
/// identifiers, not payloads.
pub const MAX_TENANT_LEN: usize = 64;

/// Decoding failure: the peer sent bytes this protocol does not speak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Payload ended before the announced structure did.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Payload had bytes left over after a complete message.
    TrailingBytes,
    /// A frame length exceeded [`MAX_FRAME_LEN`].
    Oversize(usize),
    /// A routing-mode byte named no known [`RoutingMode`].
    BadRouting(u8),
    /// An error-code byte named no known [`ErrorCode`].
    BadErrorCode(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame payload truncated"),
            ProtocolError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            ProtocolError::TrailingBytes => write!(f, "frame has trailing bytes"),
            ProtocolError::Oversize(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtocolError::BadRouting(byte) => {
                write!(f, "unknown routing mode byte {byte:#04x}")
            }
            ProtocolError::BadErrorCode(byte) => {
                write!(f, "unknown error code byte {byte:#04x}")
            }
        }
    }
}

/// Machine-readable class of a per-request failure (see the module-level
/// taxonomy). Travels in the [`Response::Fail`] frame next to an explicit
/// `retryable` flag, so clients branch on the flag and log the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Semantically invalid request (unknown opcode, malformed payload).
    BadRequest,
    /// The request waited in the batcher queue past the server's deadline.
    DeadlineExceeded,
    /// Shed after admission (e.g. dropped during shutdown-drain overflow).
    Overloaded,
    /// The cache work for this request panicked; the panic was isolated.
    Panicked,
    /// Other server-side failure.
    Internal,
    /// The server is draining connections for shutdown.
    ShuttingDown,
    /// The request needs an authenticated tenant and the connection has
    /// none: either no [`Request::Hello`] was sent on a server without a
    /// default tenant (retryable — send `Hello` and try again), or the
    /// `Hello` token was wrong (not retryable with the same credentials).
    Unauthenticated,
}

impl ErrorCode {
    /// Stable wire byte for the code.
    pub fn as_byte(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::DeadlineExceeded => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::Panicked => 4,
            ErrorCode::Internal => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Unauthenticated => 7,
        }
    }

    /// Inverse of [`ErrorCode::as_byte`].
    ///
    /// # Errors
    /// [`ProtocolError::BadErrorCode`] for unknown bytes.
    pub fn from_byte(byte: u8) -> Result<Self, ProtocolError> {
        match byte {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::DeadlineExceeded),
            3 => Ok(ErrorCode::Overloaded),
            4 => Ok(ErrorCode::Panicked),
            5 => Ok(ErrorCode::Internal),
            6 => Ok(ErrorCode::ShuttingDown),
            7 => Ok(ErrorCode::Unauthenticated),
            other => Err(ProtocolError::BadErrorCode(other)),
        }
    }

    /// Short lowercase name (metrics/log friendly).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Panicked => "panicked",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Unauthenticated => "unauthenticated",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / admission check.
    Ping,
    /// Semantic lookup.
    Lookup {
        /// The query text.
        query: String,
        /// Conversation context, most recent turn last.
        context: Vec<String>,
    },
    /// Store a (query, response) pair.
    Insert {
        /// The query text.
        query: String,
        /// The response to cache.
        response: String,
        /// Conversation context, most recent turn last.
        context: Vec<String>,
    },
    /// Fetch a stats snapshot.
    Stats,
    /// Replace the cosine threshold τ.
    SetThreshold(f32),
    /// Switch the shard-routing mode (reshards in place on the server).
    SetRouting(RoutingMode),
    /// Persist the cache to the server's configured path.
    Save,
    /// Drop all cached entries.
    Flush,
    /// Ask the server process to shut down gracefully.
    Shutdown,
    /// Fetch the plain-text metrics dump (Prometheus-style exposition).
    Metrics,
    /// Dump the flight recorder (recent + outlier request traces) as JSON.
    TraceDump,
    /// Authenticate this connection as `tenant`. The server compares
    /// `token` in constant time and answers [`Response::Welcome`] or a
    /// non-retryable `Fail{Unauthenticated}` (connection stays open — a
    /// client may retry with different credentials). Connections that never
    /// say `Hello` serve the configured default tenant, if any.
    Hello {
        /// Tenant name (≤ [`MAX_TENANT_LEN`] bytes, non-empty).
        tenant: String,
        /// Shared-secret token for the tenant.
        token: String,
    },
    /// Bump `tenant`'s invalidation epoch: entries inserted before the bump
    /// stop being served immediately and are reclaimed lazily. `epoch = 0`
    /// advances by one; a non-zero epoch sets `max(current, epoch)`
    /// (idempotent for retries). Requires authentication as the same
    /// tenant (or a default-tenant connection naming the default tenant).
    Invalidate {
        /// Tenant whose entries go stale.
        tenant: String,
        /// Requested epoch (`0` = advance by one).
        epoch: u64,
    },
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Lookup found nothing servable.
    Miss,
    /// Lookup hit.
    Hit {
        /// Public id of the serving entry.
        entry_id: u64,
        /// Cosine similarity of the match.
        score: f32,
        /// Whether the entry is a contextual (follow-up) entry.
        contextual: bool,
        /// The cached response text.
        response: String,
    },
    /// Insert succeeded with this entry id.
    Inserted(u64),
    /// Stats snapshot, JSON-encoded ([`crate::stats::ServeStatsSnapshot`]).
    Stats(String),
    /// Control command acknowledged.
    Ack,
    /// Flush completed; this many entries were dropped.
    Flushed(u64),
    /// Save completed; this many entries were persisted.
    Saved(u64),
    /// Legacy protocol-level failure (human-readable reason); the server
    /// closes the connection after sending it. Per-request failures use
    /// [`Response::Fail`] instead.
    Error(String),
    /// *This request* failed; the connection stays open. `retryable` tells
    /// the client whether backing off and retrying can succeed — see the
    /// module-level error-code taxonomy.
    Fail {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Whether a retry after backoff can succeed.
        retryable: bool,
        /// Human-readable detail.
        message: String,
    },
    /// Backpressure: the admission queue (or connection budget) is full.
    /// Back off and retry.
    Busy,
    /// Reply to [`Request::Ping`].
    Pong,
    /// Plain-text metrics dump ([`crate::stats::ServeStatsSnapshot::render_text`]).
    Metrics(String),
    /// Flight-recorder dump, JSON-encoded ([`mc_metrics::TraceDump`]).
    TraceDump(String),
    /// Reply to a successful [`Request::Hello`]: the connection now serves
    /// the named tenant.
    Welcome,
    /// Reply to [`Request::Invalidate`]: the tenant's epoch after the bump.
    Invalidated(u64),
}

// ---- frame transport -------------------------------------------------------

/// Writes one `len ∥ payload` frame.
///
/// # Errors
/// Propagates transport errors; refuses payloads above [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    append_frame_checked(w, payload)
}

/// Appends one frame to a buffered writer/byte vector (the response writer
/// coalesces several frames into one `write_all`).
fn append_frame_checked(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversize(payload.len()).into());
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload. `Ok(None)` means the peer closed the stream
/// cleanly at a frame boundary; EOF mid-frame is an error.
///
/// # Errors
/// Transport errors, EOF inside a frame, or a length prefix above
/// [`MAX_FRAME_LEN`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversize(len).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame reassembly for non-blocking sockets.
///
/// The event-driven server cannot block inside [`read_frame`] waiting for
/// the rest of a frame: a readiness loop hands it whatever bytes the kernel
/// has, possibly splitting a frame (or even its 4-byte length prefix) across
/// many reads. `FrameAssembler` buffers those fragments and yields complete
/// payloads as they materialise:
///
/// ```
/// use mc_serve::protocol::{write_frame, FrameAssembler};
///
/// let mut wire = Vec::new();
/// write_frame(&mut wire, b"hello").unwrap();
/// let mut assembler = FrameAssembler::new();
/// assembler.extend(&wire[..3]); // partial length prefix
/// assert_eq!(assembler.next_frame().unwrap(), None);
/// assembler.extend(&wire[3..]);
/// assert_eq!(assembler.next_frame().unwrap().unwrap(), b"hello");
/// ```
///
/// Hostile length prefixes are rejected as soon as the prefix is complete —
/// before any payload is buffered. Consumed bytes are compacted lazily (only
/// once the parse point passes half the buffer) so a burst of pipelined
/// frames costs one `memmove`, not one per frame.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Parse position: everything before `at` has been yielded.
    at: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame payload, or `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    /// [`ProtocolError::Oversize`] when a length prefix exceeds
    /// [`MAX_FRAME_LEN`]; the assembler is poisoned afterwards and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let pending = &self.buf[self.at..];
        if pending.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::Oversize(len));
        }
        if pending.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.at += 4 + len;
        self.compact();
        Ok(Some(payload))
    }

    fn compact(&mut self) {
        if self.at > 0 && self.at * 2 >= self.buf.len() {
            self.buf.drain(..self.at);
            self.at = 0;
        }
    }
}

// ---- payload codec ---------------------------------------------------------

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_strs(buf: &mut Vec<u8>, items: &[String]) {
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        put_str(buf, item);
    }
}

pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(n).ok_or(ProtocolError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ProtocolError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, ProtocolError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn str(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    pub(crate) fn strs(&mut self) -> Result<Vec<String>, ProtocolError> {
        let count = self.u32()? as usize;
        // Cap pre-allocation by what the remaining bytes could possibly
        // hold (each string costs ≥ 4 bytes of length prefix).
        let mut items = Vec::with_capacity(count.min(self.bytes.len() / 4 + 1));
        for _ in 0..count {
            items.push(self.str()?);
        }
        Ok(items)
    }

    pub(crate) fn finish(&self) -> Result<(), ProtocolError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

mod op {
    pub const PING: u8 = 0x01;
    pub const LOOKUP: u8 = 0x02;
    pub const INSERT: u8 = 0x03;
    pub const STATS: u8 = 0x04;
    pub const SET_THRESHOLD: u8 = 0x05;
    pub const FLUSH: u8 = 0x06;
    pub const SHUTDOWN: u8 = 0x07;
    pub const SET_ROUTING: u8 = 0x08;
    pub const SAVE: u8 = 0x09;
    pub const METRICS: u8 = 0x0a;
    pub const TRACE_DUMP: u8 = 0x0b;
    pub const HELLO: u8 = 0x0c;
    pub const INVALIDATE: u8 = 0x0d;

    pub const MISS: u8 = 0x80;
    pub const HIT: u8 = 0x81;
    pub const INSERTED: u8 = 0x82;
    pub const STATS_REPLY: u8 = 0x83;
    pub const ACK: u8 = 0x84;
    pub const FLUSHED: u8 = 0x85;
    pub const ERROR: u8 = 0x86;
    pub const BUSY: u8 = 0x87;
    pub const PONG: u8 = 0x88;
    pub const SAVED: u8 = 0x89;
    pub const METRICS_REPLY: u8 = 0x8a;
    pub const FAIL: u8 = 0x8b;
    pub const TRACE_DUMP_REPLY: u8 = 0x8c;
    pub const WELCOME: u8 = 0x8d;
    pub const INVALIDATED: u8 = 0x8e;
}

/// Wire byte for a [`RoutingMode`] (stable across releases).
fn routing_byte(mode: RoutingMode) -> u8 {
    match mode {
        RoutingMode::Hash => 0,
        RoutingMode::Centroid => 1,
        RoutingMode::ScatterGather => 2,
    }
}

/// Inverse of [`routing_byte`].
fn routing_from_byte(byte: u8) -> Result<RoutingMode, ProtocolError> {
    match byte {
        0 => Ok(RoutingMode::Hash),
        1 => Ok(RoutingMode::Centroid),
        2 => Ok(RoutingMode::ScatterGather),
        other => Err(ProtocolError::BadRouting(other)),
    }
}

/// Encodes a lookup request payload straight from borrowed parts — the
/// allocation-free path pipelining clients use to build request windows
/// (`Request::encode` would clone both strings first).
pub fn encode_lookup(buf: &mut Vec<u8>, query: &str, context: &[String]) {
    buf.push(op::LOOKUP);
    put_str(buf, query);
    put_strs(buf, context);
}

impl Request {
    /// Encodes the request payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ping => buf.push(op::PING),
            Request::Lookup { query, context } => {
                buf.push(op::LOOKUP);
                put_str(&mut buf, query);
                put_strs(&mut buf, context);
            }
            Request::Insert {
                query,
                response,
                context,
            } => {
                buf.push(op::INSERT);
                put_str(&mut buf, query);
                put_str(&mut buf, response);
                put_strs(&mut buf, context);
            }
            Request::Stats => buf.push(op::STATS),
            Request::SetThreshold(t) => {
                buf.push(op::SET_THRESHOLD);
                buf.extend_from_slice(&t.to_le_bytes());
            }
            Request::SetRouting(mode) => {
                buf.push(op::SET_ROUTING);
                buf.push(routing_byte(*mode));
            }
            Request::Save => buf.push(op::SAVE),
            Request::Flush => buf.push(op::FLUSH),
            Request::Shutdown => buf.push(op::SHUTDOWN),
            Request::Metrics => buf.push(op::METRICS),
            Request::TraceDump => buf.push(op::TRACE_DUMP),
            Request::Hello { tenant, token } => {
                buf.push(op::HELLO);
                put_str(&mut buf, tenant);
                put_str(&mut buf, token);
            }
            Request::Invalidate { tenant, epoch } => {
                buf.push(op::INVALIDATE);
                put_str(&mut buf, tenant);
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        buf
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    /// [`ProtocolError`] on malformed bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(payload);
        let request = match cursor.u8()? {
            op::PING => Request::Ping,
            op::LOOKUP => Request::Lookup {
                query: cursor.str()?,
                context: cursor.strs()?,
            },
            op::INSERT => Request::Insert {
                query: cursor.str()?,
                response: cursor.str()?,
                context: cursor.strs()?,
            },
            op::STATS => Request::Stats,
            op::SET_THRESHOLD => Request::SetThreshold(cursor.f32()?),
            op::SET_ROUTING => Request::SetRouting(routing_from_byte(cursor.u8()?)?),
            op::SAVE => Request::Save,
            op::FLUSH => Request::Flush,
            op::SHUTDOWN => Request::Shutdown,
            op::METRICS => Request::Metrics,
            op::TRACE_DUMP => Request::TraceDump,
            op::HELLO => Request::Hello {
                tenant: cursor.str()?,
                token: cursor.str()?,
            },
            op::INVALIDATE => Request::Invalidate {
                tenant: cursor.str()?,
                epoch: cursor.u64()?,
            },
            other => return Err(ProtocolError::BadOpcode(other)),
        };
        cursor.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the response payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Miss => buf.push(op::MISS),
            Response::Hit {
                entry_id,
                score,
                contextual,
                response,
            } => {
                buf.push(op::HIT);
                buf.extend_from_slice(&entry_id.to_le_bytes());
                buf.extend_from_slice(&score.to_le_bytes());
                buf.push(u8::from(*contextual));
                put_str(&mut buf, response);
            }
            Response::Inserted(id) => {
                buf.push(op::INSERTED);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Response::Stats(json) => {
                buf.push(op::STATS_REPLY);
                put_str(&mut buf, json);
            }
            Response::Ack => buf.push(op::ACK),
            Response::Flushed(n) => {
                buf.push(op::FLUSHED);
                buf.extend_from_slice(&n.to_le_bytes());
            }
            Response::Saved(n) => {
                buf.push(op::SAVED);
                buf.extend_from_slice(&n.to_le_bytes());
            }
            Response::Error(message) => {
                buf.push(op::ERROR);
                put_str(&mut buf, message);
            }
            Response::Fail {
                code,
                retryable,
                message,
            } => {
                buf.push(op::FAIL);
                buf.push(code.as_byte());
                buf.push(u8::from(*retryable));
                put_str(&mut buf, message);
            }
            Response::Busy => buf.push(op::BUSY),
            Response::Pong => buf.push(op::PONG),
            Response::Metrics(text) => {
                buf.push(op::METRICS_REPLY);
                put_str(&mut buf, text);
            }
            Response::TraceDump(json) => {
                buf.push(op::TRACE_DUMP_REPLY);
                put_str(&mut buf, json);
            }
            Response::Welcome => buf.push(op::WELCOME),
            Response::Invalidated(epoch) => {
                buf.push(op::INVALIDATED);
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        buf
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    /// [`ProtocolError`] on malformed bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(payload);
        let response = match cursor.u8()? {
            op::MISS => Response::Miss,
            op::HIT => Response::Hit {
                entry_id: cursor.u64()?,
                score: cursor.f32()?,
                contextual: cursor.u8()? != 0,
                response: cursor.str()?,
            },
            op::INSERTED => Response::Inserted(cursor.u64()?),
            op::STATS_REPLY => Response::Stats(cursor.str()?),
            op::ACK => Response::Ack,
            op::FLUSHED => Response::Flushed(cursor.u64()?),
            op::SAVED => Response::Saved(cursor.u64()?),
            op::ERROR => Response::Error(cursor.str()?),
            op::FAIL => Response::Fail {
                code: ErrorCode::from_byte(cursor.u8()?)?,
                retryable: cursor.u8()? != 0,
                message: cursor.str()?,
            },
            op::BUSY => Response::Busy,
            op::PONG => Response::Pong,
            op::METRICS_REPLY => Response::Metrics(cursor.str()?),
            op::TRACE_DUMP_REPLY => Response::TraceDump(cursor.str()?),
            op::WELCOME => Response::Welcome,
            op::INVALIDATED => Response::Invalidated(cursor.u64()?),
            other => return Err(ProtocolError::BadOpcode(other)),
        };
        cursor.finish()?;
        Ok(response)
    }

    /// The wire form of a lookup outcome.
    pub fn from_outcome(outcome: &CacheDecisionOutcome) -> Self {
        match outcome.hit() {
            Some(hit) => Response::Hit {
                entry_id: hit.entry_id,
                score: hit.score,
                contextual: hit.contextual,
                response: hit.response.clone(),
            },
            None => Response::Miss,
        }
    }

    /// Reassembles a lookup outcome from its wire form (`None` when the
    /// response is not a lookup outcome at all).
    pub fn into_outcome(self) -> Option<CacheDecisionOutcome> {
        match self {
            Response::Miss => Some(CacheDecisionOutcome::Miss),
            Response::Hit {
                entry_id,
                score,
                contextual,
                response,
            } => Some(CacheDecisionOutcome::Hit(CacheHit {
                entry_id,
                response,
                score,
                contextual,
            })),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_codec() {
        let cases = vec![
            Request::Ping,
            Request::Lookup {
                query: "how do I bake sourdough bread — überhaupt?".into(),
                context: vec!["先に".into(), String::new(), "x".repeat(10_000)],
            },
            Request::Insert {
                query: "q".into(),
                response: "r\n\0 with nulls and \u{1F980} emoji".into(),
                context: Vec::new(),
            },
            Request::Stats,
            Request::SetThreshold(0.725),
            Request::SetRouting(RoutingMode::Hash),
            Request::SetRouting(RoutingMode::Centroid),
            Request::SetRouting(RoutingMode::ScatterGather),
            Request::Save,
            Request::Flush,
            Request::Shutdown,
            Request::Metrics,
            Request::TraceDump,
            Request::Hello {
                tenant: "a".repeat(MAX_TENANT_LEN),
                token: "s3cret — ünïcode".into(),
            },
            Request::Hello {
                tenant: String::new(),
                token: String::new(),
            },
            Request::Invalidate {
                tenant: "acme".into(),
                epoch: u64::MAX,
            },
        ];
        for request in cases {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(request, decoded);
        }
    }

    #[test]
    fn responses_round_trip_through_the_codec() {
        let cases = vec![
            Response::Miss,
            Response::Hit {
                entry_id: u64::MAX - 3,
                score: 0.993,
                contextual: true,
                response: "cached — with ünïcode".into(),
            },
            Response::Inserted(42),
            Response::Stats("{\"entries\":7}".into()),
            Response::Ack,
            Response::Flushed(10_000),
            Response::Saved(12_345),
            Response::Error("no".into()),
            Response::Fail {
                code: ErrorCode::DeadlineExceeded,
                retryable: true,
                message: "queued 12ms past the 5ms deadline".into(),
            },
            Response::Fail {
                code: ErrorCode::BadRequest,
                retryable: false,
                message: String::new(),
            },
            Response::Busy,
            Response::Pong,
            Response::Metrics("serve_admitted_total 12\nserve_shed_total 0\n".into()),
            Response::TraceDump("{\"sample_every\":64,\"traces\":[]}".into()),
            Response::Welcome,
            Response::Invalidated(7),
            Response::Fail {
                code: ErrorCode::Unauthenticated,
                retryable: true,
                message: "say Hello first".into(),
            },
        ];
        for response in cases {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(response, decoded);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_not_misread() {
        assert_eq!(Request::decode(&[]), Err(ProtocolError::Truncated));
        assert_eq!(
            Request::decode(&[0x7f]),
            Err(ProtocolError::BadOpcode(0x7f))
        );
        // Truncated string length.
        assert_eq!(
            Request::decode(&[super::op::LOOKUP, 9, 0, 0, 0, b'a']),
            Err(ProtocolError::Truncated)
        );
        // Trailing garbage after a complete message.
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(ProtocolError::TrailingBytes));
        // Invalid UTF-8 in a string field.
        let mut bytes = vec![super::op::ERROR];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Response::decode(&bytes), Err(ProtocolError::BadUtf8));
        // An unknown routing byte is rejected with its own error.
        assert_eq!(
            Request::decode(&[super::op::SET_ROUTING, 9]),
            Err(ProtocolError::BadRouting(9))
        );
        // An unknown error-code byte is rejected with its own error.
        assert_eq!(
            Response::decode(&[super::op::FAIL, 99, 0, 0, 0, 0, 0]),
            Err(ProtocolError::BadErrorCode(99))
        );
        // Truncated Hello: tenant present, token length cut mid-prefix.
        let mut bytes = vec![super::op::HELLO];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b't');
        bytes.extend_from_slice(&[9, 0]);
        assert_eq!(Request::decode(&bytes), Err(ProtocolError::Truncated));
        // Truncated Invalidate: epoch cut short.
        let mut bytes = vec![super::op::INVALIDATE];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b't');
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Request::decode(&bytes), Err(ProtocolError::Truncated));
    }

    #[test]
    fn error_codes_round_trip_and_name() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Overloaded,
            ErrorCode::Panicked,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::Unauthenticated,
        ] {
            assert_eq!(ErrorCode::from_byte(code.as_byte()).unwrap(), code);
            assert!(!code.name().is_empty());
            assert_eq!(code.to_string(), code.name());
        }
        assert!(ErrorCode::from_byte(0).is_err());
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"omega").unwrap();
        let mut reader = &wire[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"omega");
        assert!(read_frame(&mut reader).unwrap().is_none());
        // EOF inside a length prefix or payload is an error.
        let mut truncated = &wire[..2];
        assert!(read_frame(&mut truncated).is_err());
        let mut cut_payload = &wire[..6];
        assert!(read_frame(&mut cut_payload).is_err());
        // A hostile length prefix is refused before allocation.
        let hostile = (u32::MAX).to_le_bytes();
        let mut reader = &hostile[..];
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn assembler_reassembles_frames_split_at_every_byte_boundary() {
        let frames: Vec<Vec<u8>> = vec![
            Request::Ping.encode(),
            Request::Lookup {
                query: "split me across reads".into(),
                context: vec!["turn one".into(), "turn two".into()],
            }
            .encode(),
            Vec::new(), // empty payload is a legal frame
            Request::Stats.encode(),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        // Feed the whole stream one byte at a time and at every split point:
        // the assembler must yield exactly the original payloads, in order,
        // regardless of fragmentation.
        for chunk in 1..=wire.len() {
            let mut assembler = FrameAssembler::new();
            let mut yielded = Vec::new();
            for piece in wire.chunks(chunk) {
                assembler.extend(piece);
                while let Some(payload) = assembler.next_frame().unwrap() {
                    yielded.push(payload);
                }
            }
            assert_eq!(yielded, frames, "chunk size {chunk}");
            assert_eq!(assembler.buf.len() - assembler.at, 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn assembler_rejects_hostile_lengths_before_buffering_a_payload() {
        let mut assembler = FrameAssembler::new();
        // Prefix arrives split in two; the oversize must be caught the
        // moment the fourth byte lands, with no payload bytes consumed.
        let hostile = u32::MAX.to_le_bytes();
        assembler.extend(&hostile[..2]);
        assert_eq!(assembler.next_frame().unwrap(), None);
        assembler.extend(&hostile[2..]);
        assert!(matches!(
            assembler.next_frame(),
            Err(ProtocolError::Oversize(_))
        ));
    }

    #[test]
    fn assembler_handles_pipelined_bursts_with_partial_tail() {
        let mut wire = Vec::new();
        for i in 0..50u32 {
            write_frame(&mut wire, format!("frame-{i}").as_bytes()).unwrap();
        }
        let mut assembler = FrameAssembler::new();
        // Everything except the last 3 bytes lands in one read.
        assembler.extend(&wire[..wire.len() - 3]);
        let mut count = 0;
        while let Some(payload) = assembler.next_frame().unwrap() {
            assert_eq!(payload, format!("frame-{count}").as_bytes());
            count += 1;
        }
        assert_eq!(count, 49);
        assert!(assembler.buf.len() - assembler.at > 0);
        assembler.extend(&wire[wire.len() - 3..]);
        assert_eq!(assembler.next_frame().unwrap().unwrap(), b"frame-49");
        assert_eq!(assembler.buf.len() - assembler.at, 0);
    }

    #[test]
    fn outcomes_survive_the_wire() {
        let hit = CacheDecisionOutcome::Hit(CacheHit {
            entry_id: 17,
            response: "resp".into(),
            score: 0.84,
            contextual: false,
        });
        let wire = Response::from_outcome(&hit);
        assert_eq!(wire.into_outcome().unwrap(), hit);
        let miss = CacheDecisionOutcome::Miss;
        assert_eq!(Response::from_outcome(&miss).into_outcome().unwrap(), miss);
        assert!(Response::Ack.into_outcome().is_none());
    }
}
