//! Readiness polling for the event-driven server: a minimal epoll shim plus
//! a cross-thread [`Waker`]. Linux-only.
//!
//! The server's event loop owns every connection on one thread and needs
//! exactly one primitive: "block until one of these file descriptors is
//! readable/writable (or a deadline passes), and tell me which". This module
//! provides it without any networking dependency — `epoll_create1`,
//! `epoll_ctl` and `epoll_wait` are declared directly (the workspace is
//! offline; std already links libc). A wakeup costs O(ready), so 10k idle
//! connections cost file descriptors, not scan time.
//!
//! Tokens are caller-chosen `u64`s carried back verbatim in [`Event`]s; the
//! poller never interprets them, and the registration state lives in the
//! kernel.
//!
//! [`Waker`] lets other threads (the batcher resolving a ticket, shutdown)
//! interrupt a blocked [`Poller::wait`]: a connected loopback UDP socket
//! pair, with an "armed" flag so arbitrarily many wakes between two drains
//! cost one datagram. A UDP pair rather than a pipe keeps this file free of
//! extra syscall declarations, and the pair is connected in both directions
//! so stray datagrams from other processes are rejected by the kernel.

use std::io;
use std::net::{Ipv4Addr, UdpSocket};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- raw syscall surface ---------------------------------------------------

const EPOLL_CLOEXEC: c_int = 0x8_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. Packed on x86-64 (the kernel ABI there has no
/// padding between `events` and `data`); aligned elsewhere. Fields are only
/// ever read *by value* — never by reference — which is the one safe way to
/// touch packed fields.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

// ---- public surface --------------------------------------------------------

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness event: the registration's token plus what fired. `hangup`
/// reports peer-closed/error conditions that are delivered even when not
/// asked for — the owner should tear the connection down.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (includes pending EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer hung up or the fd errored.
    pub hangup: bool,
}

/// An epoll readiness poller over raw file descriptors. Not `Sync` —
/// exactly one thread (the event loop) drives it; other threads interrupt
/// via [`Waker`].
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    /// Scratch buffer reused across waits.
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates an epoll poller.
    ///
    /// # Errors
    /// The underlying `epoll_create1` failure (e.g. fd exhaustion).
    pub fn new() -> io::Result<Self> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// Registers `fd` under `token`. One registration per fd; re-registering
    /// an fd without deregistering first is a caller bug (epoll reports
    /// `EEXIST`).
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        epoll_update(self.epfd, EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest (and token) of an already registered fd.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        epoll_update(self.epfd, EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the poller, before the fd is closed.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// expires (`None` = wait forever), clearing and filling `events`.
    /// `EINTR` is retried with the remaining time. Returns the number of
    /// events delivered (0 = timeout).
    ///
    /// # Errors
    /// The underlying `epoll_wait` failure.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let timeout_ms: c_int = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    // Round up so a 0 < left < 1ms residue does not spin.
                    c_int::try_from(left.as_millis().min(i32::MAX as u128)).unwrap_or(i32::MAX)
                        + if left.subsec_nanos() % 1_000_000 != 0 {
                            1
                        } else {
                            0
                        }
                }
            };
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                // Packed struct: copy fields out by value.
                let bits = ev.events;
                let token = ev.data;
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            // A spurious zero before the deadline (epoll can round down)
            // loops with the remaining time.
            if n > 0 || deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(events.len());
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

fn epoll_update(
    epfd: RawFd,
    op: c_int,
    fd: RawFd,
    token: u64,
    interest: Interest,
) -> io::Result<()> {
    let mut bits = EPOLLRDHUP;
    if interest.readable {
        bits |= EPOLLIN;
    }
    if interest.writable {
        bits |= EPOLLOUT;
    }
    let mut ev = EpollEvent {
        events: bits,
        data: token,
    };
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

// ---- waker -----------------------------------------------------------------

/// The sending half of a wake pair: any thread may call
/// [`Waker::wake`] to make the event loop's next (or current)
/// [`Poller::wait`] return. Cheap to clone (shared socket behind an `Arc`).
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UdpSocket>,
    armed: Arc<AtomicBool>,
}

impl Waker {
    /// Wakes the receiver. Coalesced: between two drains, only the first
    /// wake sends a datagram.
    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) && self.tx.send(&[1]).is_err() {
            // A dropped datagram (ENOBUFS under memory pressure) with the
            // flag left armed would suppress every future wake — a
            // permanent stall. Disarm so the next wake retries the send;
            // the loss is transient because resolutions keep coming.
            self.armed.store(false, Ordering::Release);
        }
    }
}

/// The receiving half: registered with the [`Poller`]; readable exactly when
/// a wake is pending.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UdpSocket,
    armed: Arc<AtomicBool>,
}

impl WakeReceiver {
    /// The fd to register with the poller (readable interest).
    pub fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes pending wake datagrams and re-arms the pair. The recv loop
    /// runs *before* the disarm: while the flag is still armed no sender
    /// produces a fresh datagram, so the loop can only consume stale ones.
    /// A wake racing the tail of the drain (after the disarm) sends a
    /// datagram this drain never touches — at worst a single spurious
    /// wakeup on the next poll. Disarming first would invert that: the
    /// racing wake's datagram could be consumed by this very drain, leaving
    /// the flag armed with nothing in flight, and every later wake
    /// suppressed — a lost wakeup that strands resolved work until an
    /// unrelated socket event happens by.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.rx.recv(&mut buf).is_ok() {}
        self.armed.store(false, Ordering::Release);
    }
}

/// Builds a connected loopback wake pair.
///
/// # Errors
/// Socket creation/connect failures (fd exhaustion, no loopback).
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    tx.connect(rx.local_addr()?)?;
    // Connect back so the kernel drops datagrams from any other source.
    rx.connect(tx.local_addr()?)?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    let armed = Arc::new(AtomicBool::new(false));
    Ok((
        Waker {
            tx: Arc::new(tx),
            armed: Arc::clone(&armed),
        },
        WakeReceiver { rx, armed },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readiness_follows_data_on_both_backends() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = tcp_pair();
        let fd = server.as_raw_fd();
        poller.register(fd, 7, Interest::READ).unwrap();

        // Nothing to read yet: a bounded wait times out.
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "idle socket must not wake the poller");

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "data must wake readable: {events:?}"
        );

        // Write interest on a fresh socket fires immediately.
        poller
            .modify(
                fd,
                7,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // After deregistration the fd is silent.
        poller.deregister(fd).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "deregistered fd must be silent");
        drop(client);
        drop(server);
    }

    #[test]
    fn peer_close_reports_hangup_or_readable_eof() {
        let mut poller = Poller::new().unwrap();
        let (client, mut server) = tcp_pair();
        poller
            .register(client.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        // Drain anything pending, then close the peer.
        server.flush().unwrap();
        drop(server);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 3)
            .unwrap_or_else(|| panic!("close must produce an event"));
        assert!(
            ev.hangup || ev.readable,
            "close must read as hangup/EOF: {ev:?}"
        );
        // And the EOF is real.
        let mut probe = client;
        probe.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(probe.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait_and_coalesces() {
        let mut poller = Poller::new().unwrap();
        let (waker, receiver) = wake_pair().unwrap();
        poller
            .register(receiver.raw_fd(), 99, Interest::READ)
            .unwrap();

        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
            remote.wake(); // coalesced: no second datagram
            remote.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        handle.join().unwrap();
        assert!(
            events.iter().any(|e| e.token == 99 && e.readable),
            "wake must interrupt the wait"
        );
        receiver.drain();

        // Drained and disarmed: the poller is quiet again...
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained waker must be quiet");
        // ...and the next wake works.
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        receiver.drain();
    }

    /// Regression test for a lost-wakeup race: `drain` used to disarm the
    /// coalescing flag *before* its recv loop, so a concurrent `wake`
    /// (flag swap → send) could have its fresh datagram consumed by that
    /// same drain — flag armed, socket empty, every later wake suppressed.
    /// Under the old ordering this test occasionally times out with work
    /// pending; with recv-before-disarm it never can.
    #[test]
    fn wake_drain_race_never_strands_pending_work() {
        use std::sync::atomic::AtomicU64;
        const ITEMS: u64 = 20_000;
        let mut poller = Poller::new().unwrap();
        let (waker, receiver) = wake_pair().unwrap();
        poller
            .register(receiver.raw_fd(), 7, Interest::READ)
            .unwrap();

        let pending = Arc::new(AtomicU64::new(0));
        let producer = {
            let pending = Arc::clone(&pending);
            let waker = waker.clone();
            std::thread::spawn(move || {
                for _ in 0..ITEMS {
                    pending.fetch_add(1, Ordering::Release);
                    waker.wake();
                }
            })
        };

        let mut events = Vec::new();
        let mut consumed = 0u64;
        while consumed < ITEMS {
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            receiver.drain();
            let grabbed = pending.swap(0, Ordering::AcqRel);
            consumed += grabbed;
            assert!(
                n > 0 || grabbed > 0 || consumed == ITEMS,
                "wait timed out with {} items stranded",
                ITEMS - consumed
            );
        }
        producer.join().unwrap();
    }
}
