//! Regenerates the index-backend comparison table (flat vs IVF, f32 vs SQ8
//! rows).
//!
//! ```text
//! exp_index [--sizes 1000,10000,100000]
//! exp_index --crossover [--sizes 4096,8192,16384,32768] [--idle-us 0]
//! ```
//!
//! CI runs the 1k tier as a smoke test (`--sizes 1000`); the default tiers
//! reproduce the full 1k/10k/100k comparison. `--crossover` instead prints
//! sequential-vs-split flat scan timings per size (`--idle-us 500` sleeps
//! before each timed call, an open-loop server's gaps).

fn main() {
    let mut sizes: Option<Vec<usize>> = None;
    let mut crossover = false;
    let mut idle_us = 0u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                let spec = args.get(i).expect("--sizes needs a comma-separated list");
                let tiers: Vec<usize> = spec
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes entries must be integers"))
                    .collect();
                assert!(!tiers.is_empty(), "--sizes must name at least one tier");
                sizes = Some(tiers);
            }
            "--crossover" => crossover = true,
            "--idle-us" => {
                i += 1;
                let spec = args.get(i).expect("--idle-us needs a microsecond count");
                idle_us = spec.parse().expect("--idle-us must be an integer");
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: exp_index [--crossover [--idle-us N]] [--sizes N,N,...]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if crossover {
        let sizes = sizes.unwrap_or_else(|| vec![4_096, 8_192, 16_384, 32_768]);
        mc_bench::run_index_crossover(&sizes, idle_us);
    } else {
        mc_bench::run_index_backends_with(&sizes.unwrap_or_else(|| vec![1_000, 10_000, 100_000]));
    }
}
