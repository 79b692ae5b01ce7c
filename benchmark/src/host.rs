//! The benchmark's own instruments: process CPU and run-queue time from
//! `/proc`, peak resident memory, and a reference loop that tells machine
//! drift from program change.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Name prefix of the core-warmer threads; their CPU time is the
/// benchmark's, not the program's, and [`sched_totals`] leaves it out.
const WARMER_THREAD_NAME: &str = "mc-bench-warm";

/// Keeps every core out of idle while a run measures.
///
/// On this class of sandbox (a 2-vCPU microVM) a thread woken on an idle
/// vCPU waits for the host to schedule that vCPU again: a 1 ms timer sleep
/// comes back a median 150 µs and a 99th percentile of 3–60 ms late, and
/// every hop of a served request (event loop → batcher → worker → event
/// loop) pays the same toll. One thread per core spinning at `SCHED_IDLE`
/// — the kernel runs it only when nothing else is runnable and preempts it
/// the moment anything wakes — keeps the vCPUs scheduled, which brings the
/// same sleep back 77 µs / 120–350 µs late. The loop is `PAUSE`
/// instructions, so it leaves a hyper-thread sibling's execution units
/// alone. These are not load generators (those block in `read` or `sleep`,
/// and never spin); if the scheduling class cannot be set the warmers do
/// not run at all rather than spin at normal priority.
pub struct CoreWarmers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` (a
    // single `int`) through the pointer, which refers to a live, properly
    // aligned `SchedParam` for the duration of the call; pid 0 names the
    // calling thread. It has no other memory effects.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

impl CoreWarmers {
    /// Starts one warmer per available core and waits until each has either
    /// entered the idle class or given up.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let (ready, entered) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..cores)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let ready = ready.clone();
                std::thread::Builder::new()
                    .name(format!("{WARMER_THREAD_NAME}{i}"))
                    .spawn(move || {
                        let idle_class = enter_idle_class();
                        ready
                            .send(idle_class)
                            .expect("starter waits for every warmer");
                        // Relaxed: the flag publishes nothing but itself.
                        while idle_class && !stop.load(Ordering::Relaxed) {
                            for _ in 0..256 {
                                std::hint::spin_loop();
                            }
                        }
                    })
                    .expect("warmer thread spawn")
            })
            .collect();
        let spinning = entered.iter().take(threads.len()).filter(|&ok| ok).count();
        if spinning < threads.len() {
            eprintln!(
                "core warmers: SCHED_IDLE unavailable, {spinning} of {cores} cores kept warm"
            );
        }
        Self { stop, threads }
    }
}

impl Drop for CoreWarmers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A warmer cannot panic; nothing to report from `Drop` anyway.
            let _ = thread.join();
        }
    }
}

/// On-CPU and waiting-to-run time of every thread of this process, in
/// nanoseconds, summed over `/proc/self/task/*/schedstat` (core warmers
/// excluded). Threads that exited before the read are not counted; the
/// benchmark reads it while the server threads are still alive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl SchedTotals {
    /// Totals accumulated since `earlier`.
    pub fn since(self, earlier: SchedTotals) -> SchedTotals {
        SchedTotals {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    /// Share of runnable time spent waiting for a core.
    pub fn runq_wait_share(self) -> f64 {
        let total = self.run_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.wait_ns as f64 / total as f64
        }
    }
}

/// Parses one `schedstat` line: `<run ns> <wait ns> <timeslices>`.
pub fn parse_schedstat(line: &str) -> Option<SchedTotals> {
    let mut fields = line.split_whitespace();
    let run_ns = fields.next()?.parse().ok()?;
    let wait_ns = fields.next()?.parse().ok()?;
    Some(SchedTotals { run_ns, wait_ns })
}

/// Sums [`parse_schedstat`] over every live thread. Zeroes when `/proc` is
/// unreadable (the metrics then read 0, they do not fail the run).
pub fn sched_totals() -> SchedTotals {
    let mut total = SchedTotals::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if name.starts_with(WARMER_THREAD_NAME) {
            continue;
        }
        let stat = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        if let Some(t) = parse_schedstat(&stat) {
            total.run_ns += t.run_ns;
            total.wait_ns += t.wait_ns;
        }
    }
    total
}

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/self/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).unwrap_or(0) as f64 / 1024.0
}

/// Times a fixed arithmetic loop owned by the benchmark (≥ 100 ms on this
/// class of machine). It touches no repository code, so a shift in it between
/// two runs is the machine, not the program.
pub fn ref_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0u64;
    for i in 0..120_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture_parses() {
        let t = parse_schedstat("123456789 987654 42\n").unwrap();
        assert_eq!(
            t,
            SchedTotals {
                run_ns: 123_456_789,
                wait_ns: 987_654
            }
        );
        assert!(parse_schedstat("").is_none());
        assert!(parse_schedstat("12").is_none());
        assert!(parse_schedstat("a b c").is_none());
        let later = SchedTotals {
            run_ns: 123_456_789 + 300,
            wait_ns: 987_654 + 100,
        };
        let delta = later.since(t);
        assert_eq!((delta.run_ns, delta.wait_ns), (300, 100));
        assert!((delta.runq_wait_share() - 0.25).abs() < 1e-12);
        assert_eq!(SchedTotals::default().runq_wait_share(), 0.0);
    }

    #[test]
    fn vm_hwm_fixture_parses() {
        let status =
            "Name:\tmc-benchmark\nVmPeak:\t  400000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn warmers_run_under_their_own_name_and_stop() {
        let named = || {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .flatten()
                .filter(|t| {
                    std::fs::read_to_string(t.path().join("comm"))
                        .is_ok_and(|name| name.starts_with(WARMER_THREAD_NAME))
                })
                .count()
        };
        // `start` returns once every warmer has reported in, so the threads
        // (named before their closure runs) are all visible here.
        let warmers = CoreWarmers::start();
        assert!(!warmers.threads.is_empty());
        if cfg!(target_os = "linux") {
            assert_eq!(named(), warmers.threads.len());
        }
        drop(warmers);
        assert_eq!(named(), 0, "warmers are joined on drop");
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = sched_totals();
        std::hint::black_box((0..200_000u64).sum::<u64>());
        assert!(sched_totals().run_ns >= before.run_ns);
    }
}
