//! Fault-injection points for crash and error-path testing.
//!
//! Production write paths (the framed WAL, `atomic_write`, the serve
//! socket pump) call [`write_hook`] before touching the real descriptor.
//! When the `failpoints` feature is off (every release build), the hook is
//! an `#[inline(always)]` no-op returning `None` — zero cost on the hot
//! path. With the feature on (or inside this crate's own unit tests), a
//! global registry lets tests inject:
//!
//! * an error on the Nth call (`FailAction::ErrorOnNth`),
//! * short writes (`FailAction::ShortWrite`),
//! * transient `EINTR` / `EAGAIN` (`FailAction::Eintr` /
//!   `FailAction::Eagain`),
//! * artificial latency (`FailAction::Delay`),
//! * a call parked until the test lets it go (`FailAction::Hold`), which
//!   forces an interleaving without a sleep.
//!
//! (`FailAction` only exists when the feature is on, so the list above
//! deliberately avoids intra-doc links.)
//!
//! Injection points are named (`"wal.append"`, `"wal.sync"`,
//! `"serve.conn.write"`) and optionally **scoped** by a tag substring —
//! the file path for disk logs, the listener address for sockets — so a
//! test can fail one specific log without perturbing every other test
//! running in the same process.
//!
//! Downstream crates activate the registry in their own test builds by
//! dev-depending on `mc-store` with `features = ["failpoints"]` (feature
//! unification turns it on for test targets only).

/// What an armed failpoint does to matching calls.
#[cfg(any(test, feature = "failpoints"))]
#[derive(Debug, Clone, Copy)]
pub enum FailAction {
    /// The `n`-th matching call (1-based) fails with an error of `kind`.
    ErrorOnNth { n: u64, kind: std::io::ErrorKind },
    /// Every call writes at most `max` bytes (forces the retry loop).
    ShortWrite { max: usize },
    /// The next `times` calls fail with `ErrorKind::Interrupted`.
    Eintr { times: u64 },
    /// The next `times` calls fail with `ErrorKind::WouldBlock`.
    Eagain { times: u64 },
    /// Every call sleeps for `micros` before proceeding normally.
    Delay { micros: u64 },
    /// Every call blocks until this arming is replaced (`set*` on the same
    /// point and tag) or cleared, then proceeds normally. Watch `hits` to
    /// learn that a caller has arrived.
    Hold,
}

#[cfg(any(test, feature = "failpoints"))]
mod active {
    use super::FailAction;
    use std::io::{Error, ErrorKind};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex};

    struct FailPoint {
        /// Identifies this arming, so a caller parked by `Hold` can tell
        /// "my arming is gone" from "the point was re-armed".
        id: u64,
        point: String,
        /// When set, only calls whose tag contains this substring match.
        tag: Option<String>,
        action: FailAction,
        calls: u64,
        eintr_left: u64,
    }

    impl FailPoint {
        fn matches(&self, point: &str, tag: &str) -> bool {
            self.point == point && self.tag.as_deref().is_none_or(|t| tag.contains(t))
        }
    }

    static REGISTRY: Mutex<Vec<FailPoint>> = Mutex::new(Vec::new());
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    /// Signalled whenever an arming leaves the registry.
    static DISARMED: Condvar = Condvar::new();

    fn registry() -> std::sync::MutexGuard<'static, Vec<FailPoint>> {
        REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arms `point` for every tag.
    pub fn set(point: &str, action: FailAction) {
        arm(point, None, action);
    }

    /// Arms `point` only for calls whose tag contains `tag`.
    pub fn set_scoped(point: &str, tag: &str, action: FailAction) {
        arm(point, Some(tag.to_string()), action);
    }

    fn arm(point: &str, tag: Option<String>, action: FailAction) {
        let transient = match action {
            FailAction::Eintr { times } | FailAction::Eagain { times } => times,
            _ => 0,
        };
        let mut reg = registry();
        reg.retain(|fp| fp.point != point || fp.tag != tag);
        reg.push(FailPoint {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            point: point.to_string(),
            tag,
            action,
            calls: 0,
            eintr_left: transient,
        });
        DISARMED.notify_all();
    }

    /// Disarms every action on `point` (all tags).
    pub fn clear(point: &str) {
        registry().retain(|fp| fp.point != point);
        DISARMED.notify_all();
    }

    /// Disarms what [`set_scoped`] armed on `point` for exactly `tag`,
    /// leaving other tests' armings of the same point alone.
    pub fn clear_scoped(point: &str, tag: &str) {
        registry().retain(|fp| fp.point != point || fp.tag.as_deref() != Some(tag));
        DISARMED.notify_all();
    }

    /// Disarms everything.
    pub fn reset_all() {
        registry().clear();
        DISARMED.notify_all();
    }

    /// How many calls tagged `tag` have matched an action armed on `point`.
    pub fn hits(point: &str, tag: &str) -> u64 {
        registry()
            .iter()
            .filter(|fp| fp.matches(point, tag))
            .map(|fp| fp.calls)
            .sum()
    }

    /// The write-path hook. Returns `None` to proceed with the real write,
    /// `Some(Ok(n))` to simulate a short write of `n` bytes, or
    /// `Some(Err(e))` to inject a failure.
    pub fn write_hook(point: &str, tag: &str, len: usize) -> Option<std::io::Result<usize>> {
        let mut delay_micros = None;
        let decision = {
            let mut reg = registry();
            let fp = reg.iter_mut().find(|fp| fp.matches(point, tag))?;
            fp.calls += 1;
            match fp.action {
                FailAction::Hold => {
                    let id = fp.id;
                    while reg.iter().any(|fp| fp.id == id) {
                        reg = DISARMED.wait(reg).unwrap_or_else(|p| p.into_inner());
                    }
                    None
                }
                FailAction::ErrorOnNth { n, kind } => {
                    if fp.calls == n {
                        Some(Err(Error::new(
                            kind,
                            format!("injected failure at {point}"),
                        )))
                    } else {
                        None
                    }
                }
                FailAction::ShortWrite { max } => {
                    if len > max {
                        Some(Ok(max))
                    } else {
                        None
                    }
                }
                FailAction::Eintr { .. } => {
                    if fp.eintr_left > 0 {
                        fp.eintr_left -= 1;
                        Some(Err(Error::new(ErrorKind::Interrupted, "injected EINTR")))
                    } else {
                        None
                    }
                }
                FailAction::Eagain { .. } => {
                    if fp.eintr_left > 0 {
                        fp.eintr_left -= 1;
                        Some(Err(Error::new(ErrorKind::WouldBlock, "injected EAGAIN")))
                    } else {
                        None
                    }
                }
                FailAction::Delay { micros } => {
                    delay_micros = Some(micros);
                    None
                }
            }
        };
        if let Some(micros) = delay_micros {
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
        decision
    }
}

#[cfg(any(test, feature = "failpoints"))]
pub use active::{clear, clear_scoped, hits, reset_all, set, set_scoped, write_hook};

/// Inert hook for builds without fault injection: always proceed.
#[cfg(not(any(test, feature = "failpoints")))]
#[inline(always)]
pub fn write_hook(_point: &str, _tag: &str, _len: usize) -> Option<std::io::Result<usize>> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn scoped_points_only_match_their_tag() {
        set_scoped(
            "test.scope",
            "/tmp/log-a",
            FailAction::ErrorOnNth {
                n: 1,
                kind: ErrorKind::Other,
            },
        );
        assert!(write_hook("test.scope", "/tmp/log-b", 10).is_none());
        assert!(matches!(
            write_hook("test.scope", "/tmp/log-a", 10),
            Some(Err(_))
        ));
        assert!(write_hook("other.point", "/tmp/log-a", 10).is_none());
        clear("test.scope");
        assert!(write_hook("test.scope", "/tmp/log-a", 10).is_none());
    }

    #[test]
    fn transient_errors_exhaust() {
        set_scoped("test.eintr", "t1", FailAction::Eintr { times: 2 });
        assert!(
            matches!(write_hook("test.eintr", "t1", 5), Some(Err(e)) if e.kind() == ErrorKind::Interrupted)
        );
        assert!(matches!(write_hook("test.eintr", "t1", 5), Some(Err(_))));
        assert!(write_hook("test.eintr", "t1", 5).is_none());
        assert_eq!(hits("test.eintr", "t1"), 3);
        clear("test.eintr");
    }

    #[test]
    fn hold_parks_the_caller_until_its_arming_is_replaced_or_cleared() {
        set_scoped("test.hold", "t3", FailAction::Hold);
        let caller = std::thread::spawn(|| write_hook("test.hold", "t3", 0).is_none());
        while hits("test.hold", "t3") == 0 {
            std::thread::yield_now();
        }
        assert!(!caller.is_finished(), "the call is parked");
        // Re-arming releases the parked call and parks the next one.
        set_scoped("test.hold", "t3", FailAction::Hold);
        assert!(caller.join().unwrap());
        let next = std::thread::spawn(|| write_hook("test.hold", "t3", 0).is_none());
        while hits("test.hold", "t3") == 0 {
            std::thread::yield_now();
        }
        assert!(!next.is_finished());
        // A neighbour's scoped clear leaves this arming alone; ours frees it.
        clear_scoped("test.hold", "someone else");
        assert!(!next.is_finished());
        clear_scoped("test.hold", "t3");
        assert!(next.join().unwrap());
    }

    #[test]
    fn short_writes_cap_the_length() {
        set_scoped("test.short", "t2", FailAction::ShortWrite { max: 4 });
        assert!(matches!(write_hook("test.short", "t2", 10), Some(Ok(4))));
        assert!(write_hook("test.short", "t2", 3).is_none());
        clear("test.short");
    }
}
