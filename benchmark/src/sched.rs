//! The open-loop arrival schedule: request `i` is due at `start + i · gap`,
//! whatever happened to the requests before it.
//!
//! The sender never spins and never sends early: it sleeps until the next due
//! time and sends as soon as it wakes. Latency is measured from the *due*
//! time, so a stall in the server (or a late sender) is charged to every
//! request it delays instead of silently thinning the load; how late the
//! sender itself ran is reported separately.

use std::time::{Duration, Instant};

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    gap_ns: u64,
}

/// What the sender should do now about the next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Not due yet: sleep this long, then ask again.
    Sleep(Duration),
    /// Due: send now; the request leaves this much after its due time.
    Send { late_ns: u64 },
}

impl Schedule {
    pub fn per_second(rate: u64) -> Self {
        Self {
            gap_ns: 1_000_000_000 / rate,
        }
    }

    /// Due time of request `i`, in nanoseconds after the schedule's start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.gap_ns
    }

    /// Decides between sleeping and sending request `i` at `now_ns` after the
    /// start.
    pub fn pace(&self, i: u64, now_ns: u64) -> Pace {
        let due = self.due_ns(i);
        if now_ns < due {
            Pace::Sleep(Duration::from_nanos(due - now_ns))
        } else {
            Pace::Send {
                late_ns: now_ns - due,
            }
        }
    }

    /// Runs the sender side for requests `0..count`: sleeps to each due time,
    /// calls `send(i)`, and returns every request's lateness in microseconds.
    pub fn drive(&self, start: Instant, count: u64, mut send: impl FnMut(u64)) -> Vec<f64> {
        let mut late_us = Vec::with_capacity(count as usize);
        for i in 0..count {
            loop {
                match self.pace(i, start.elapsed().as_nanos() as u64) {
                    Pace::Sleep(wait) => std::thread::sleep(wait),
                    Pace::Send { late_ns } => {
                        late_us.push(late_ns as f64 / 1e3);
                        send(i);
                        break;
                    }
                }
            }
        }
        late_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_a_fixed_grid() {
        let s = Schedule::per_second(2_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 500_000);
        assert_eq!(s.due_ns(4_000), 2_000_000_000);
    }

    #[test]
    fn never_early_and_lateness_is_measured_from_the_due_time() {
        let s = Schedule::per_second(1_000);
        assert_eq!(s.pace(3, 2_999_999), Pace::Sleep(Duration::from_nanos(1)));
        assert_eq!(s.pace(3, 3_000_000), Pace::Send { late_ns: 0 });
        assert_eq!(s.pace(3, 3_250_000), Pace::Send { late_ns: 250_000 });
        // A stall does not shift later due times: after a 10 ms stall request
        // 5 is 5 ms late and request 12 is not due yet.
        assert_eq!(s.pace(5, 10_000_000), Pace::Send { late_ns: 5_000_000 });
        assert!(matches!(s.pace(12, 10_000_000), Pace::Sleep(_)));
    }

    #[test]
    fn drive_sends_every_request_in_order_at_or_after_its_due_time() {
        let s = Schedule::per_second(20_000);
        let start = Instant::now();
        let mut sent_at = Vec::new();
        let late = s.drive(start, 40, |i| {
            sent_at.push((i, start.elapsed().as_nanos() as u64))
        });
        assert_eq!(late.len(), 40);
        for (k, &(i, at)) in sent_at.iter().enumerate() {
            assert_eq!(i, k as u64);
            assert!(at >= s.due_ns(i), "request {i} left early");
        }
        assert!(late.iter().all(|&l| l >= 0.0));
    }
}
