//! A/A mode: the same code measured against itself, so the regression bounds
//! are read off measured spread instead of guessed.
//!
//! `run --aa K` makes `2K` full runs as two interleaved sets (A B A B …),
//! each run in a child process of its own (peak memory is per process), and
//! prints per metric × workload each set's median, their relative difference,
//! and the run spread `(q3 − q1) / median` over all `2K` runs. It fails if a
//! pair of set medians differs by more than the metric's bound, if a run
//! fails, or — all runs sharing one seed — if quality metrics or op counts
//! differ between runs. With `--vary-seed` run `i` uses `seed + i`, which is
//! how the acceptance driver measures spread; quality then varies with the
//! trace and only the bounds are checked.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::Workload;

/// Metrics that must repeat exactly for one seed.
const QUALITY: [&str; 4] = ["precision", "recall", "f_score", "false_hit_rate"];
/// `serve_hot`'s two connections interleave, so its counts may differ by this
/// much (absolute) between runs of one seed.
const HOT_QUALITY_TOLERANCE: f64 = 0.002;

struct RunResult {
    correct: bool,
    attempted: u64,
    values: Vec<f64>,
}

/// Extracts the number that follows `key` in `line`.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn parse_result(line: &str) -> Option<RunResult> {
    let values = END_TO_END
        .iter()
        .map(|m| number_after(line, &format!("\"{}\": {{\"value\": ", m.name)))
        .collect::<Option<Vec<f64>>>()?;
    Some(RunResult {
        correct: line.contains("\"correct\": true"),
        attempted: number_after(line, "\"attempted\": ")? as u64,
        values,
    })
}

fn run_child(workload: Workload, seed: u64, seconds: u64) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("own executable");
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().and_then(parse_result);
    if !output.status.success() || result.is_none() {
        eprintln!("{} seed {seed} failed:\n{stdout}", workload.name());
    }
    result
}

/// Runs the A/A comparison; returns whether everything held.
pub fn run(workloads: &[Workload], k: usize, seed: u64, seconds: u64, vary_seed: bool) -> bool {
    let runs = 2 * k;
    let mut ok = true;
    let mut results: Vec<Vec<RunResult>> = workloads.iter().map(|_| Vec::new()).collect();
    for run in 0..runs {
        let run_seed = if vary_seed { seed + run as u64 } else { seed };
        for (w, &workload) in workloads.iter().enumerate() {
            eprintln!(
                "aa: run {}/{runs} (set {}) {}",
                run + 1,
                ["A", "B"][run % 2],
                workload.name()
            );
            match run_child(workload, run_seed, seconds) {
                Some(result) => {
                    ok &= result.correct;
                    results[w].push(result);
                }
                None => return false,
            }
        }
    }

    let mut report = String::new();
    writeln!(
        report,
        "A/A report: {runs} runs per workload in two interleaved sets of {k}, {seconds} s each, {}\n\
         columns: median of set A, median of set B, |A-B|/A, run spread (q3-q1)/median over all runs, bound",
        if vary_seed {
            format!("seeds {seed}..{}", seed + runs as u64 - 1)
        } else {
            format!("seed {seed}")
        }
    )
    .unwrap();
    for (w, workload) in workloads.iter().enumerate() {
        writeln!(report, "\n{}", workload.name()).unwrap();
        for (m, metric) in END_TO_END.iter().enumerate() {
            let all: Vec<f64> = results[w].iter().map(|r| r.values[m]).collect();
            let set = |s: usize| -> Vec<f64> { all.iter().skip(s).step_by(2).copied().collect() };
            let (a, b) = (median(&set(0)), median(&set(1)));
            let difference = if a == b { 0.0 } else { (a - b).abs() / a.abs() };
            let spread = iqr_share(&all);
            let mut verdict = "";
            if difference > metric.bound {
                verdict = "  SET MEDIANS DIFFER BY MORE THAN THE BOUND";
                ok = false;
            }
            if !vary_seed && QUALITY.contains(&metric.name) {
                let tolerance = if workload.name() == "serve_hot" {
                    HOT_QUALITY_TOLERANCE
                } else {
                    0.0
                };
                let (low, high) = all
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
                if high - low > tolerance {
                    verdict = "  QUALITY DIFFERS BETWEEN RUNS OF ONE SEED";
                    ok = false;
                }
            }
            writeln!(
                report,
                "  {:<16} {a:>14.5} {b:>14.5} {difference:>9.5} {spread:>9.5} {:>7}{verdict}",
                metric.name, metric.bound
            )
            .unwrap();
        }
        let attempted: Vec<u64> = results[w].iter().map(|r| r.attempted).collect();
        let (low, high) = (
            attempted.iter().min().unwrap(),
            attempted.iter().max().unwrap(),
        );
        writeln!(report, "  ops attempted    {low}..{high}").unwrap();
        if !vary_seed && low != high {
            writeln!(report, "  OP COUNTS DIFFER BETWEEN RUNS OF ONE SEED").unwrap();
            ok = false;
        }
    }
    writeln!(report, "\n{}", if ok { "PASS" } else { "FAIL" }).unwrap();
    print!("{report}");
    let name = if vary_seed {
        "aa_report_seeds.txt"
    } else {
        "aa_report.txt"
    };
    std::fs::create_dir_all(crate::run::out_dir()).expect("benchmark/out is writable");
    std::fs::write(crate::run::out_dir().join(name), &report).expect("report file");
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut values = crate::metrics::Values::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.insert(m.name, 1.5 + i as f64);
        }
        let line = crate::metrics::result_json(true, 1234, 0, &values);
        let parsed = parse_result(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.attempted, 1234);
        assert_eq!(
            parsed.values,
            (0..12).map(|i| 1.5 + i as f64).collect::<Vec<_>>()
        );
        assert!(parse_result("{\"correct\": false}").is_none());
        let wrong = line.replace("\"correct\": true", "\"correct\": false");
        assert!(!parse_result(&wrong).unwrap().correct);
    }
}
