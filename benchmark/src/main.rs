//! The repository's benchmark: four workloads, twelve end-to-end metrics, a
//! layer ladder. See `README.md` beside this crate for the glossary and
//! `../BENCHMARK.json` for the contract.
//!
//! ```text
//! mc-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//! mc-benchmark run --aa K [--vary-seed] [--workload W] [--seed N] [--seconds S]
//! ```
//!
//! A plain run measures end to end with tracing off and prints every
//! end-to-end metric; `--trace` replays segments with spans around every call
//! into a layer, walks the ladder, and prints every per-layer metric. The last
//! line of standard output is one JSON object with the run's result. Any
//! wrong reply, unbalanced tally or (traced) failed ladder/dominance check
//! exits non-zero.

mod aa;
mod corpus;
mod gen_serve;
mod gen_user;
mod host;
mod ladder;
mod metrics;
mod plan;
mod run;
mod sched;
mod served;
mod spans;
mod stats;
mod user_local;
mod wire;

use std::sync::Arc;
use std::time::Instant;

use metrics::{result_json, unit_of, Values, END_TO_END, PER_LAYER};
use run::{timed_segments, Env, Runner, Segment};
use stats::{iqr_share, median, percentile_sorted, tail_percentile};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 2024;
/// Default `--seconds`: eight timed segments (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed segments per side (untraced, traced) of a traced run.
const TRACED_SEGMENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UserLocal,
    Served(served::Kind),
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::UserLocal,
    Workload::Served(served::Kind::Hot),
    Workload::Served(served::Kind::Cold),
    Workload::Served(served::Kind::Durable),
];

enum Plan {
    User(Arc<gen_user::UserPlan>),
    Served(Arc<served::ServedPlan>),
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::UserLocal => user_local::NAME,
            Workload::Served(kind) => kind.name(),
        }
    }

    fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    fn limit_us(self) -> f64 {
        match self {
            Workload::UserLocal => user_local::LIMIT_US,
            Workload::Served(kind) => kind.limit_us(),
        }
    }

    /// Generates the trace for `segments` segments (warm-up included). Not
    /// part of set-up time: it is the benchmark's work, not the system's.
    fn plan(self, env: &Env, seed: u64, segments: usize) -> Plan {
        match self {
            Workload::UserLocal => Plan::User(user_local::plan(env, seed, segments)),
            Workload::Served(kind) => Plan::Served(served::plan(kind, env, seed, segments)),
        }
    }

    /// Train, build, prefill (and, on `durable_fill`, save and restore).
    fn set_up(self, env: &Env, plan: &Plan, traced: bool) -> Box<dyn Runner> {
        match (self, plan) {
            (Workload::UserLocal, Plan::User(plan)) => {
                Box::new(user_local::UserLocal::set_up(env, Arc::clone(plan)))
            }
            (Workload::Served(kind), Plan::Served(plan)) => {
                Box::new(served::Served::set_up(kind, env, Arc::clone(plan), traced))
            }
            _ => unreachable!("plan made for another workload"),
        }
    }
}

/// One workload's result: what the last JSON line carries.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    fn json(&self) -> String {
        result_json(self.correct, self.attempted, self.failed, &self.values)
    }
}

fn print_values(values: &Values, order: impl Iterator<Item = &'static str>) {
    for name in order {
        println!(
            "  {name:<34} {:>16.4} {:<6} ({} is better)",
            values[name],
            unit_of(name),
            metrics::better_of(name).as_str()
        );
    }
}

fn segment_ops_per_s(segments: &[Segment]) -> Vec<f64> {
    segments
        .iter()
        .map(|s| s.tally.attempted as f64 / s.wall_s)
        .collect()
}

/// One per-op series (lookup latencies, sender lateness) pooled over
/// `segments`, ascending.
fn pooled(segments: &[Segment], series: fn(&Segment) -> &[f64]) -> Vec<f64> {
    let mut pooled: Vec<f64> = segments
        .iter()
        .flat_map(|s| series(s).iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    pooled
}

fn lookup_series(segment: &Segment) -> &[f64] {
    &segment.tally.lookup_us
}

fn lateness_series(segment: &Segment) -> &[f64] {
    &segment.late_us
}

/// Prints the problems of a warm-up or timed segment; returns whether it was
/// clean (every reply correct, tallies balanced).
fn segment_clean(label: &str, segment: &Segment) -> bool {
    let tally = &segment.tally;
    if !tally.balanced() {
        println!(
            "  {label}: UNBALANCED hits {} + misses {} + inserts {} + saves {} + failures {} != attempted {}",
            tally.hits, tally.misses, tally.inserts, tally.saves, tally.failures, tally.attempted
        );
    }
    for note in &tally.failure_notes {
        println!("  {label}: FAILED {note}");
    }
    tally.balanced() && tally.failures == 0
}

/// A full end-to-end run of one workload, tracing off.
fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> Outcome {
    let env = Env::load();
    let timed = timed_segments(seconds);
    println!(
        "== {} : end to end, seed {seed}, 1 warm-up + {timed} timed segments, {} cores",
        workload.name(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let ref_before = host::ref_loop_ms();
    let _warmers = host::CoreWarmers::start();
    let plan = workload.plan(&env, seed, timed + 1);

    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut runner: Option<Box<dyn Runner>> = None;
    for _ in 0..SETUP_REPEATS {
        drop(runner.take());
        let started = Instant::now();
        runner = Some(workload.set_up(&env, &plan, false));
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let mut runner = runner.expect("set up at least once");

    let warm_up = runner.segment(0, None);
    let mut clean = segment_clean("warm-up", &warm_up);
    let mut segments: Vec<Segment> = (1..=timed)
        .map(|index| runner.segment(index, None))
        .collect();
    for (i, segment) in segments.iter().enumerate() {
        clean &= segment_clean(&format!("segment {}", i + 1), segment);
    }
    println!(
        "  per segment: ops/s {:?}, lookup p50 us {:?}",
        segment_ops_per_s(&segments)
            .iter()
            .map(|v| v.round())
            .collect::<Vec<_>>(),
        segments
            .iter_mut()
            .map(|s| stats::p50(&mut s.tally.lookup_us).round())
            .collect::<Vec<_>>()
    );
    let finish = runner.finish();
    for note in &finish.tally.failure_notes {
        println!("  post-run: FAILED {note}");
    }
    let peak_rss_mb = host::peak_rss_mb();
    drop(runner);
    let ref_after = host::ref_loop_ms();

    let lookups = pooled(&segments, lookup_series);
    let (tail_name, tail_us) = tail_percentile(&lookups);
    let late = pooled(&segments, lateness_series);
    let cpu_us: f64 = segments.iter().map(|s| s.sched.run_ns as f64 / 1e3).sum();
    let sched_total = segments
        .iter()
        .fold(host::SchedTotals::default(), |acc, s| host::SchedTotals {
            run_ns: acc.run_ns + s.sched.run_ns,
            wait_ns: acc.wait_ns + s.sched.wait_ns,
        });
    let summary = run::summarise(median(&setup_times), &mut segments, &finish, peak_rss_mb);
    clean &= summary.balanced && summary.failed == 0;

    print_values(&summary.values, END_TO_END.iter().map(|m| m.name));
    println!(
        "  set-ups {:?} s; over segments: ops_per_s median {:.1} (IQR/median {:.4}), \
         lookup_p50_us median {:.1} ({:.4})",
        setup_times
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        summary.ops_per_s_median,
        summary.ops_per_s_spread,
        summary.lookup_p50_median,
        summary.lookup_p50_spread
    );
    println!(
        "  ops {} ({} failed), post-run probes {}; lookups {} pooled, {tail_name} {tail_us:.1} us; \
         latency limit {} us; confusion {:?}",
        summary.attempted,
        summary.failed,
        finish.tally.attempted,
        lookups.len(),
        workload.limit_us(),
        summary.confusion
    );
    println!(
        "  cpu {:.2} us/op, run-queue wait share {:.3}; ref loop {ref_before:.1} ms before, {ref_after:.1} ms after",
        cpu_us / summary.attempted as f64,
        sched_total.runq_wait_share()
    );
    if !late.is_empty() {
        println!(
            "  open loop: sender lateness p50 {:.1} us, p99 {:.1} us; achieved {:.1} of {} req/s",
            percentile_sorted(&late, 0.5),
            percentile_sorted(&late, 0.99),
            summary.values["ops_per_s"],
            served::COLD_RATE
        );
    }
    Outcome {
        correct: clean,
        attempted: summary.attempted,
        failed: summary.failed,
        values: summary.values,
    }
}

/// A traced run: untraced and traced segments alternate on two instances of
/// the workload, then the ladder is walked on a sample of the same inputs.
fn traced(workload: Workload, seed: u64) -> Outcome {
    let env = Env::load();
    println!(
        "== {} : traced, seed {seed}, 1 warm-up + {TRACED_SEGMENTS} untraced + {TRACED_SEGMENTS} traced segments",
        workload.name()
    );
    let ref_before = host::ref_loop_ms();
    let plan = workload.plan(&env, seed, TRACED_SEGMENTS + 1);
    let started = Instant::now();
    let mut plain = workload.set_up(&env, &plan, false);
    let mut instrumented = workload.set_up(&env, &plan, true);
    let setup_s = started.elapsed().as_secs_f64();

    let mut spans = spans::Spans::default();
    let mut clean = segment_clean("warm-up (untraced)", &plain.segment(0, None));
    clean &= segment_clean("warm-up (traced)", &instrumented.segment(0, None));
    let (mut untraced, mut with_spans) = (Vec::new(), Vec::new());
    for index in 1..=TRACED_SEGMENTS {
        untraced.push(plain.segment(index, None));
        with_spans.push(instrumented.segment(index, Some(&mut spans)));
    }
    for segment in untraced.iter().chain(&with_spans) {
        clean &= segment_clean("segment", segment);
    }
    drop(plain);
    let finish = instrumented.finish();
    clean &= finish.tally.failures == 0;
    for note in &finish.tally.failure_notes {
        println!("  post-run: FAILED {note}");
    }

    let mut values = Values::new();
    let plain_rate = median(&segment_ops_per_s(&untraced));
    let traced_rate = median(&segment_ops_per_s(&with_spans));
    values.insert(
        "serve.trace_overhead_share",
        (plain_rate - traced_rate) / plain_rate,
    );
    let ops: u64 = untraced.iter().map(|s| s.tally.attempted).sum();
    let run_ns: u64 = untraced.iter().map(|s| s.sched.run_ns).sum();
    let wait_ns: u64 = untraced.iter().map(|s| s.sched.wait_ns).sum();
    values.insert("host.cpu_us_per_op", run_ns as f64 / 1e3 / ops as f64);
    values.insert(
        "host.runq_wait_share",
        host::SchedTotals { run_ns, wait_ns }.runq_wait_share(),
    );
    values.insert(
        "host.lookup_p99_us",
        percentile_sorted(&pooled(&untraced, lookup_series), 0.99),
    );
    let late = pooled(&untraced, lateness_series);
    values.insert(
        "host.gen_late_p99_us",
        if late.is_empty() {
            0.0
        } else {
            percentile_sorted(&late, 0.99)
        },
    );
    values.insert(
        "host.segment_iqr_share",
        iqr_share(&segment_ops_per_s(&untraced)),
    );
    values.insert("embedder.train_s", env.last_train_s.get());

    let mix = with_spans
        .iter()
        .fold(ladder::Mix::default(), |mix, s| ladder::Mix {
            lookups: mix.lookups + s.tally.hits + s.tally.misses,
            inserts: mix.inserts + s.tally.inserts,
            saves: mix.saves + s.tally.saves,
        });
    let server_side = instrumented.server_side();
    let input = instrumented.ladder_input();
    drop(instrumented);
    let scratch = run::scratch_dir("ladder");
    let report = ladder::measure(workload.name(), input, mix, &mut spans, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    values.extend(report.values);
    // The workload's own server, when it has one, overrides the counters of
    // the ladder's window-1 server.
    if let Some(side) = server_side {
        ladder::insert_server_values(&mut values, &side.stats, side.io_events);
    }
    values.insert("host.ref_ms", host::ref_loop_ms());

    let trace_path = run::out_dir().join(format!("trace_{}.json", workload.name()));
    spans
        .write_json(workload.name(), &trace_path)
        .expect("trace file");

    print_values(&values, PER_LAYER.iter().map(|m| m.0));
    println!(
        "  {} spans -> {}; set-up of both instances {setup_s:.2} s; ref loop {ref_before:.1} ms before",
        spans.spans.len(),
        trace_path.display()
    );
    println!("  self time by span name:");
    for (name, ns) in spans.self_time_by_name() {
        println!("    {name:<26} {:>12.3} ms", ns as f64 / 1e6);
    }
    println!("  shares of the traced segments' time: {:?}", report.shares);
    for violation in &report.violations {
        println!("  CHECK FAILED {violation}");
    }
    clean &= report.violations.is_empty();
    let attempted = untraced
        .iter()
        .chain(&with_spans)
        .map(|s| s.tally.attempted)
        .sum::<u64>()
        + finish.tally.attempted;
    let failed = untraced
        .iter()
        .chain(&with_spans)
        .map(|s| s.tally.failures)
        .sum::<u64>()
        + finish.tally.failures;
    Outcome {
        correct: clean,
        attempted,
        failed,
        values,
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: Option<usize>,
    vary_seed: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mc-benchmark run [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--aa K [--vary-seed]]",
        WORKLOADS.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.next().as_deref() != Some("run") {
        usage();
    }
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: None,
        vary_seed: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                args.workload = Some(Workload::by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--seed" => args.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value("a number").parse().unwrap_or_else(|_| usage()),
            "--aa" => args.aa = Some(value("a run count").parse().unwrap_or_else(|_| usage())),
            "--vary-seed" => args.vary_seed = true,
            "--trace" => {
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            _ => {
                eprintln!("unknown argument {flag:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let chosen: Vec<Workload> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    if let Some(k) = args.aa {
        let ok = aa::run(&chosen, k, args.seed, args.seconds, args.vary_seed);
        std::process::exit(if ok { 0 } else { 1 });
    }
    let mut all_correct = true;
    for workload in chosen {
        let outcome = if args.trace {
            traced(workload, args.seed)
        } else {
            end_to_end(workload, args.seed, args.seconds)
        };
        let expected = if args.trace {
            PER_LAYER.len()
        } else {
            END_TO_END.len()
        };
        assert_eq!(
            outcome.values.len(),
            expected,
            "every registered metric is reported"
        );
        all_correct &= outcome.correct;
        println!("{}", outcome.json());
    }
    if !all_correct {
        std::process::exit(1);
    }
}
