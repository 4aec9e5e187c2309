//! Scenario runners shared by the `table5` binary and `axsbench`'s
//! in-process Table 5 grid.

use axs_core::{IndexingPolicy, StoreBuilder, XmlStore};
use axs_index::PartialIndexConfig;
use axs_storage::StorageConfig;
use axs_workload::docgen;
use axs_xdm::{codec, NodeId, Token, TokenKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The four indexing approaches of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Row 1: "Full Index (max. granularity)".
    FullIndex,
    /// Row 2: "Range Index (many, granular entries)".
    RangeGranular,
    /// Row 3: "Range Index (few, coarse, large entries)".
    RangeCoarse,
    /// Row 4: "Range Index (few, coarse, large entries) + Partial Index
    /// (memory)".
    RangeCoarsePartial,
}

impl Approach {
    /// All rows in table order.
    pub const ALL: [Approach; 4] = [
        Approach::FullIndex,
        Approach::RangeGranular,
        Approach::RangeCoarse,
        Approach::RangeCoarsePartial,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Approach::FullIndex => "Full Index (max. granularity)",
            Approach::RangeGranular => "Range Index (many, granular entries)",
            Approach::RangeCoarse => "Range Index (few, coarse, large entries)",
            Approach::RangeCoarsePartial => "Range Index (coarse) + Partial Index (memory)",
        }
    }

    /// Short identifier; names the store directory.
    pub fn id(self) -> &'static str {
        match self {
            Approach::FullIndex => "full",
            Approach::RangeGranular => "range-granular",
            Approach::RangeCoarse => "range-coarse",
            Approach::RangeCoarsePartial => "range-coarse+partial",
        }
    }

    /// The store policy realizing this row.
    pub fn policy(self) -> IndexingPolicy {
        match self {
            Approach::FullIndex => IndexingPolicy::FullIndex {
                // "max. granularity": every node individually indexed and
                // individually addressable.
                target_range_bytes: 64,
            },
            Approach::RangeGranular => IndexingPolicy::RangeOnly {
                // "many, granular entries": a range per handful of tokens.
                target_range_bytes: 192,
            },
            Approach::RangeCoarse => IndexingPolicy::RangeOnly {
                target_range_bytes: 8 * 1024,
            },
            Approach::RangeCoarsePartial => IndexingPolicy::RangePlusPartial {
                target_range_bytes: 8 * 1024,
                partial: PartialIndexConfig::default(),
            },
        }
    }
}

/// Experiment sizing.
#[derive(Debug, Clone)]
pub struct Table5Config {
    /// Purchase orders appended during the insert benchmark.
    pub orders: usize,
    /// Random point reads performed.
    pub random_reads: usize,
    /// Distinct nodes targeted by the random reads (reads repeat over this
    /// working set — the cache-like access pattern of §5).
    pub read_working_set: usize,
    /// Buffer-pool frames (kept small so the disk-resident structures are
    /// actually exercised).
    pub pool_frames: usize,
    /// Page size.
    pub page_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Back stores by files in a temp directory (vs memory).
    pub on_disk: bool,
}

impl Default for Table5Config {
    fn default() -> Self {
        Table5Config {
            orders: 2_000,
            random_reads: 4_000,
            read_working_set: 800,
            pool_frames: 64,
            page_size: 8 * 1024,
            seed: 2005,
            on_disk: true,
        }
    }
}

/// One measurement: work done over elapsed wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Token-data bytes processed.
    pub bytes: u64,
    /// Operations performed.
    pub ops: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl Measurement {
    /// The paper's metric: kilobytes of data per second.
    pub fn kb_per_sec(&self) -> f64 {
        (self.bytes as f64 / 1024.0) / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Parent directory for all benchmark stores; [`cleanup_temp`] removes it.
fn temp_parent() -> PathBuf {
    std::env::temp_dir().join("axs-bench")
}

/// Removes every store directory previous benchmark runs left behind.
/// Call once at harness start (the `table5` binary and `axsbench` do).
pub fn cleanup_temp() {
    let _ = std::fs::remove_dir_all(temp_parent());
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = temp_parent().join(format!(
        "{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds an empty store for a policy (file-backed when configured).
fn build_store(policy: IndexingPolicy, cfg: &Table5Config, tag: &str) -> XmlStore {
    let mut b = StoreBuilder::new().policy(policy).storage(StorageConfig {
        page_size: cfg.page_size,
        pool_frames: cfg.pool_frames,
    });
    if cfg.on_disk {
        b = b.directory(fresh_dir(tag));
    }
    b.build().expect("store builds")
}

fn encoded_size(tokens: &[Token]) -> u64 {
    tokens.iter().map(|t| codec::encoded_len(t) as u64).sum()
}

/// Orders appended under one `<day>` batch before a new day begins.
const ORDERS_PER_DAY: usize = 10;

/// Insert micro benchmark: the purchase-order feed of §4.1 — each order is
/// inserted with `insertIntoLast` into the current `<day>` batch element; a
/// fresh day is opened with `insertAfter` every `ORDERS_PER_DAY` (10) orders.
/// "A typical usage pattern will access the data based on semantic
/// constraints, such as: insert a `<purchase-order>` element as the last
/// child" — and repeating the operation on the same target is exactly what
/// the Partial Index memoizes (§5). Returns the measurement and the loaded
/// store (reused by the read benchmarks).
pub fn bench_insert(approach: Approach, cfg: &Table5Config) -> (Measurement, XmlStore) {
    insert_feed(approach.policy(), cfg, approach.id())
}

/// The [`bench_insert`] feed into a fresh store under any `policy` (the
/// `table5` sweeps vary the range size and partial-index capacity);
/// `tag` names the store directory.
pub fn insert_feed(
    policy: IndexingPolicy,
    cfg: &Table5Config,
    tag: &str,
) -> (Measurement, XmlStore) {
    let mut store = build_store(policy, cfg, tag);
    store
        .bulk_insert(vec![
            Token::begin_element("purchase-orders"),
            Token::begin_element("day"),
            Token::EndElement,
            Token::EndElement,
        ])
        .expect("seed root");
    let mut current_day = NodeId(2);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let orders: Vec<Vec<Token>> = (0..cfg.orders)
        .map(|i| docgen::purchase_order(&mut rng, i as u64 + 1))
        .collect();
    let bytes: u64 = orders.iter().map(|o| encoded_size(o)).sum();

    let started = Instant::now();
    for (i, order) in orders.into_iter().enumerate() {
        if i > 0 && i % ORDERS_PER_DAY == 0 {
            let day = store
                .insert_after(
                    current_day,
                    vec![Token::begin_element("day"), Token::EndElement],
                )
                .expect("new day");
            current_day = day.start;
        }
        store.insert_into_last(current_day, order).expect("insert");
    }
    let elapsed = started.elapsed();
    (
        Measurement {
            bytes,
            ops: cfg.orders as u64,
            elapsed,
        },
        store,
    )
}

/// Sequential-scan micro benchmark: one full `read()` pass.
pub fn bench_seq_scan(store: &mut XmlStore) -> Measurement {
    let started = Instant::now();
    let mut bytes = 0u64;
    let mut ops = 0u64;
    for item in store.read() {
        let (_, tok) = item.expect("scan");
        bytes += codec::encoded_len(&tok) as u64;
        ops += 1;
    }
    Measurement {
        bytes,
        ops,
        elapsed: started.elapsed(),
    }
}

/// Random-read micro benchmark: point `read(id)` of small subtrees over a
/// working set, repeated (the partial index is exactly a memoization of
/// this access pattern).
pub fn bench_random_reads(store: &mut XmlStore, cfg: &Table5Config) -> Measurement {
    // Collect the ids of <line> elements (small pieces of data).
    let mut line_ids: Vec<NodeId> = Vec::new();
    for item in store.read() {
        let (id, tok) = item.expect("scan");
        if tok.kind() == TokenKind::BeginElement && tok.name().is_some_and(|n| n.is_local("line")) {
            line_ids.push(id.expect("begin tokens carry ids"));
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF00D);
    line_ids.shuffle(&mut rng);
    line_ids.truncate(cfg.read_working_set.max(1));

    // Shuffled schedule with repetition over the working set.
    let mut schedule: Vec<NodeId> = Vec::with_capacity(cfg.random_reads);
    while schedule.len() < cfg.random_reads {
        let take = (cfg.random_reads - schedule.len()).min(line_ids.len());
        schedule.extend_from_slice(&line_ids[..take]);
    }
    schedule.shuffle(&mut rng);

    let started = Instant::now();
    let mut bytes = 0u64;
    for id in &schedule {
        let tokens = store.read_node(*id).expect("read_node");
        bytes += encoded_size(&tokens);
    }
    Measurement {
        bytes,
        ops: schedule.len() as u64,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Table5Config {
        Table5Config {
            orders: 60,
            random_reads: 120,
            read_working_set: 40,
            on_disk: false,
            ..Table5Config::default()
        }
    }

    #[test]
    fn all_approaches_run_the_three_benchmarks() {
        for approach in Approach::ALL {
            let cfg = tiny();
            let (insert, mut store) = bench_insert(approach, &cfg);
            assert_eq!(insert.ops, 60);
            assert!(insert.bytes > 0);
            let scan = bench_seq_scan(&mut store);
            assert!(scan.ops > 60 * 10, "scan visits all tokens");
            let reads = bench_random_reads(&mut store, &cfg);
            assert_eq!(reads.ops, 120);
            assert!(reads.kb_per_sec() > 0.0);
            store.check_invariants().unwrap();
        }
    }

    #[test]
    fn scan_bytes_equal_across_approaches() {
        // The same data is stored whatever the index — the Seq.scan column
        // of Table 5 is flat.
        let mut sizes = Vec::new();
        for approach in Approach::ALL {
            let cfg = tiny();
            let (_, mut store) = bench_insert(approach, &cfg);
            sizes.push(bench_seq_scan(&mut store).bytes);
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn range_counts_reflect_granularity() {
        let cfg = tiny();
        let (_, coarse) = bench_insert(Approach::RangeCoarse, &cfg);
        let (_, granular) = bench_insert(Approach::RangeGranular, &cfg);
        assert!(
            granular.range_count() > coarse.range_count(),
            "granular {} vs coarse {}",
            granular.range_count(),
            coarse.range_count()
        );
    }

    #[test]
    fn partial_index_serves_repeated_reads() {
        let cfg = tiny();
        let (_, mut store) = bench_insert(Approach::RangeCoarsePartial, &cfg);
        bench_random_reads(&mut store, &cfg);
        let stats = store.partial_stats();
        assert!(
            stats.hits > stats.misses,
            "working-set reads must hit the partial index: {stats:?}"
        );
    }

    #[test]
    fn sweeps_vary_range_count_and_partial_hits() {
        // The `table5` A1/A2 sweep path: feed under a policy, reset, read.
        let cfg = tiny();
        let feed = |policy| {
            let (_, mut store) = insert_feed(policy, &cfg, "test-sweep");
            store.reset_stats();
            bench_random_reads(&mut store, &cfg);
            store.check_invariants().unwrap();
            store
        };
        let ranges = |target_range_bytes| {
            feed(IndexingPolicy::RangeOnly { target_range_bytes }).range_count()
        };
        assert!(ranges(128) > ranges(8192));
        let partial = |capacity| {
            feed(IndexingPolicy::RangePlusPartial {
                target_range_bytes: 8 * 1024,
                partial: PartialIndexConfig { capacity },
            })
            .partial_stats()
        };
        assert_eq!(partial(0).hits, 0);
        let roomy = partial(1024);
        assert!(roomy.hits > 0 && roomy.evictions == 0, "{roomy:?}");
    }

    #[test]
    fn full_index_does_more_index_io_on_inserts() {
        let cfg = tiny();
        let (_, full) = bench_insert(Approach::FullIndex, &cfg);
        let (_, coarse) = bench_insert(Approach::RangeCoarse, &cfg);
        let f = full.index_pool_stats();
        let c = coarse.index_pool_stats();
        assert!(
            f.hits + f.misses > 4 * (c.hits + c.misses),
            "full-index maintenance must dominate index traffic: {} vs {}",
            f.hits + f.misses,
            c.hits + c.misses
        );
    }
}
