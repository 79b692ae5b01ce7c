//! # mc-bench
//!
//! Experiments reproducing every table and figure of the MeanCache paper's
//! evaluation (Section IV). Each experiment is a function in
//! [`experiments`]; the `exp_*` binaries in `src/bin/` are thin wrappers so
//! individual artefacts can be regenerated with e.g.
//!
//! ```text
//! cargo run --release -p mc-bench --bin exp_table1
//! cargo run --release -p mc-bench --bin exp_all
//! ```
//!
//! Absolute numbers will differ from the paper (the substrate is a synthetic
//! workload and a from-scratch encoder, not the authors' GPU testbed); the
//! *shape* of each result — who wins, roughly by how much, where the
//! crossovers are — is what these experiments reproduce.
//!
//! [`setup`] builds the shared corpus and trains the encoder; the
//! repository's benchmark (`benchmark/`, see `BENCHMARK.json`) trains its
//! model through it too. Latency, throughput and serving measurements live
//! in that benchmark, not here; the one timing table kept is `exp_index`,
//! the only comparison of the index's f32 and SQ8 row codecs.

pub mod experiments;
pub mod setup;

pub use experiments::*;
pub use setup::*;
