#![warn(missing_docs)]

//! # axs-bench — experiment harness
//!
//! Reproduces the paper's evaluation (§7, Table 5) and the ablations listed
//! in DESIGN.md. The four *approaches* are the four rows of Table 5; the
//! three *micro benchmarks* are its columns (insert, sequential scan,
//! random reads), reported in KB/s of token data like the paper.
//!
//! Run `cargo run -p axs-bench --release --bin table5` for the table and
//! its A1/A2 sweeps; `axsbench` imports this library for its in-process
//! `core.t5.*` grid.

pub mod harness;

pub use harness::{
    bench_insert, bench_random_reads, bench_seq_scan, cleanup_temp, insert_feed, Approach,
    Measurement, Table5Config,
};
