//! Regenerates the paper's Table 5 ("Experimental results: Lazy indexing in
//! XML storage"): insert, sequential scan, and random-read throughput in
//! KB/s for the four indexing approaches.
//!
//! ```sh
//! cargo run -p axs-bench --release --bin table5
//! cargo run -p axs-bench --release --bin table5 -- --quick
//! cargo run -p axs-bench --release --bin table5 -- --sweep range-size
//! cargo run -p axs-bench --release --bin table5 -- --sweep partial-capacity
//! ```

use axs_bench::{
    bench_insert, bench_random_reads, bench_seq_scan, insert_feed, Approach, Measurement,
    Table5Config,
};
use axs_core::IndexingPolicy;
use axs_index::{PartialIndexConfig, PartialIndexStats};

fn main() {
    axs_bench::cleanup_temp();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sweep = args
        .iter()
        .position(|a| a == "--sweep")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let cfg = if quick {
        Table5Config {
            orders: 400,
            random_reads: 800,
            read_working_set: 200,
            ..Table5Config::default()
        }
    } else {
        Table5Config::default()
    };

    match sweep.as_deref() {
        None => table5(&cfg),
        Some("range-size") => sweep_range_size(&cfg),
        Some("partial-capacity") => sweep_partial_capacity(&cfg),
        Some(other) => {
            eprintln!("unknown sweep {other:?}; use range-size or partial-capacity");
            std::process::exit(2);
        }
    }
}

fn table5(cfg: &Table5Config) {
    println!("Table 5: Lazy indexing in XML storage (reproduction)");
    println!(
        "workload: {} purchase orders appended via insertIntoLast into daily batches,",
        cfg.orders
    );
    println!("          one full scan,");
    println!(
        "          {} random point reads over a working set of {} <line> nodes",
        cfg.random_reads, cfg.read_working_set
    );
    println!(
        "storage:  {} pages of {} B, {}-frame buffer pool",
        if cfg.on_disk { "file-backed" } else { "memory" },
        cfg.page_size,
        cfg.pool_frames
    );
    println!();
    println!(
        "{:<48} {:>12} {:>14} {:>16}",
        "Indexing approach", "Insert(kb/s)", "Seq.scan(kb/s)", "Rand.reads(kb/s)"
    );
    for approach in Approach::ALL {
        let (insert, mut store) = bench_insert(approach, cfg);
        let scan = bench_seq_scan(&mut store);
        let reads = bench_random_reads(&mut store, cfg);
        println!(
            "{:<48} {:>12.2} {:>14.2} {:>16.2}",
            approach.label(),
            insert.kb_per_sec(),
            scan.kb_per_sec(),
            reads.kb_per_sec()
        );
        store
            .check_invariants()
            .expect("store consistent after run");
    }
    println!();
    println!("expected shape (paper; absolute numbers are 2005 hardware):");
    println!("  - inserts:     full index slowest; granular ranges slower than coarse;");
    println!("                 coarse + partial at least as fast as coarse alone");
    println!("  - seq. scan:   identical across approaches (same data layout)");
    println!("  - rand. reads: coarse range index slowest; full index fast;");
    println!("                 coarse + partial (memory) fastest");
}

fn sweep_range_size(cfg: &Table5Config) {
    println!("Ablation A1: target range size vs insert / random-read throughput");
    println!(
        "{:>10} {:>9} {:>12} {:>13} {:>17}",
        "range(B)", "ranges", "idx entries", "Insert(kb/s)", "Rand.reads(kb/s)"
    );
    for target in [128usize, 256, 512, 1024, 2048, 4096, 8192] {
        let policy = IndexingPolicy::RangeOnly {
            target_range_bytes: target,
        };
        let run = run_insert_then_reads(policy, cfg, "sweep-range");
        println!(
            "{:>10} {:>9} {:>12} {:>13.2} {:>17.2}",
            target,
            run.ranges,
            run.index_entries,
            run.insert.kb_per_sec(),
            run.reads.kb_per_sec()
        );
    }
    println!();
    println!("shape: smaller targets create more index entries, degrading inserts");
    println!("       (the \"many, granular entries\" row of Table 5) while improving");
    println!("       point reads, whose in-range scans shrink.");
}

fn sweep_partial_capacity(cfg: &Table5Config) {
    println!("Ablation A2: partial-index capacity vs random-read throughput");
    println!(
        "{:>10} {:>17} {:>10} {:>11} {:>11}",
        "capacity", "Rand.reads(kb/s)", "hit-ratio", "evictions", "insertions"
    );
    for capacity in [0usize, 64, 256, 1024, 4096, 16 * 1024] {
        let policy = IndexingPolicy::RangePlusPartial {
            target_range_bytes: 8 * 1024,
            partial: PartialIndexConfig { capacity },
        };
        let run = run_insert_then_reads(policy, cfg, "sweep-partial");
        println!(
            "{:>10} {:>17.2} {:>10.3} {:>11} {:>11}",
            capacity,
            run.reads.kb_per_sec(),
            run.partial.hit_ratio(),
            run.partial.evictions,
            run.partial.insertions
        );
    }
    println!();
    println!("shape: throughput and hit ratio climb with capacity until the read");
    println!("       working set fits, then flatten (cache-like behaviour, §5).");
}

struct SweepRun {
    insert: Measurement,
    reads: Measurement,
    ranges: usize,
    index_entries: u64,
    partial: PartialIndexStats,
}

/// Runs the Table 5 insert feed under `policy`, then the random reads.
fn run_insert_then_reads(policy: IndexingPolicy, cfg: &Table5Config, tag: &str) -> SweepRun {
    let (insert, mut store) = insert_feed(policy, cfg, tag);
    let index_entries = store.range_index_entries().expect("entries").len() as u64;
    let ranges = store.range_count();
    store.reset_stats();
    let reads = bench_random_reads(&mut store, cfg);
    let partial = store.partial_stats();
    SweepRun {
        insert,
        reads,
        ranges,
        index_entries,
        partial,
    }
}
