//! Regenerates the index-backend comparison table (flat vs IVF, f32 vs SQ8
//! rows).
//!
//! ```text
//! exp_index [--sizes 1000,10000,100000]
//! ```
//!
//! CI runs the 1k tier as a smoke test (`--sizes 1000`); the default tiers
//! reproduce the full 1k/10k/100k comparison.

fn main() {
    let mut sizes: Vec<usize> = vec![1_000, 10_000, 100_000];

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                let spec = args.get(i).expect("--sizes needs a comma-separated list");
                sizes = spec
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes entries must be integers"))
                    .collect();
                assert!(!sizes.is_empty(), "--sizes must name at least one tier");
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: exp_index [--sizes 1000,10000,100000]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    mc_bench::run_index_backends_with(&sizes);
}
