//! Loopback throughput for the `axsd` server: requests/sec and latency
//! percentiles at 1, 4, 16, and 64 client threads, split into read and
//! write families.
//!
//! Each client owns one subtree of the shared document and interleaves
//! point reads with range inserts in a configurable ratio (`--read-pct`,
//! default 90) — the read-mostly shape the shared read path is built for.
//! The store is durable by default (`--mem` opts out), so writes pay the
//! real group-commit price and the sweep measures what the shared read
//! path buys: with one client every commit stall serializes behind the
//! reads, while with many clients reads keep flowing through the shared
//! lock during writers' commit windows. Results print as one JSON object
//! per configuration and the whole sweep is archived to
//! `BENCH_netbench.json` (override with `--out`, schema v2: git commit,
//! run parameters, and per-run server-side histogram snapshots scraped
//! via the `Metrics` opcode), including a `read_scaling` section
//! comparing the 1-client run against the widest. `--stores N` spreads
//! clients round-robin across N named stores (separate WALs, separate
//! lock hierarchies) and adds a `store_scaling` section comparing the
//! widest multi-store run against a single-store reference at the same
//! client count. Unless `--mvcc off`, the whole sweep is repeated with
//! MVCC snapshot reads disabled and archived as a `snapshot_scaling`
//! A/B: locked reads (S-locks plus the store's reader-writer lock)
//! versus pinned-epoch snapshot reads at every client count. Every sweep
//! also runs the `writer_scaling` A/B: all-write CRUD clients on
//! disjoint subtrees versus the same clients on one hot subtree — how
//! much hot writers lose by queueing on the logical X lock across the
//! fsync wait (`--workload crud-disjoint` makes that shape the main sweep
//! too).
//!
//! ```sh
//! cargo run --release -p axs-bench --bin netbench             # full sweep
//! cargo run --release -p axs-bench --bin netbench -- --read-pct 50
//! AXS_NETBENCH_OPS=50 cargo run -p axs-bench --bin netbench   # quick pass
//! ```

use axs_client::{Client, StatEntry};
use axs_server::{Catalog, CatalogConfig, Server, ServerConfig};
use std::time::{Duration, Instant};

const CLIENT_COUNTS: &[usize] = &[1, 4, 16, 64];

/// Bumped whenever the archive layout changes so downstream tooling can
/// refuse files it does not understand. v2 added `git_commit`,
/// `parameters`, and per-run `server_metrics` histogram snapshots. v3
/// added the 64-client point, the per-run `mvcc` flag, and the
/// `snapshot_scaling` locked-vs-MVCC A/B. v4 added the top-level
/// `summary` block: one headline row (rps, read/write p50/p99) per
/// scenario × client count, including the locked baseline and the
/// single-store reference, so dashboards need not walk `runs`. v5 added
/// the `--workload` flag, the per-run `workload`/`hot_subtree` fields,
/// the `server.*` counters in `server_metrics`, and the
/// `writer_scaling` section: the crud-disjoint A/B (N writers on
/// disjoint subtrees vs. the same N hammering one hot subtree) at 4 and
/// 16 clients. v6 dropped the conflict counts from `writer_scaling`
/// and the latch counters from `server_metrics`: the mechanism they
/// counted is gone.
const SCHEMA_VERSION: u32 = 6;

/// Client counts for the `writer_scaling` disjoint-vs-hot A/B.
const WRITER_SCALING_CLIENTS: &[usize] = &[4, 16];

/// Best-effort commit hash of the tree the benchmark was built from.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[derive(Clone)]
struct Options {
    /// Percentage of operations that are reads, evenly interleaved.
    read_pct: u32,
    /// Operations per client (reads + writes together).
    ops: usize,
    /// Where the machine-readable sweep is written.
    out: String,
    /// Group-commit window for the durable store.
    commit_window: Duration,
    /// Benchmark an in-memory store instead of a durable one (no WAL, no
    /// commit stalls — measures the wire + dispatch path alone).
    mem: bool,
    /// Named stores to spread clients across (round-robin). Each store
    /// has its own WAL and lock hierarchy, so writers on different
    /// stores stop contending on one exclusive lock and one fsync queue.
    stores: usize,
    /// MVCC snapshot reads (`--mvcc on|off`). On, the default, also runs
    /// the locked-read baseline sweep for the `snapshot_scaling` A/B;
    /// off benchmarks the locked path alone.
    mvcc: bool,
    /// Operation shape (`--workload mixed|crud-disjoint`). `mixed` is the
    /// read-mostly interleave; `crud-disjoint` is all-writes CRUD (insert
    /// / replace / delete) with every client on its own subtree, so no
    /// writer waits on another's logical lock.
    workload: Workload,
    /// All clients write the *same* subtree (the hot half of the
    /// `writer_scaling` A/B). Internal — set by the A/B driver, not a
    /// command-line flag.
    hot_subtree: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Mixed,
    CrudDisjoint,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::CrudDisjoint => "crud-disjoint",
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        read_pct: 90,
        ops: std::env::var("AXS_NETBENCH_OPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(900),
        out: "BENCH_netbench.json".to_string(),
        commit_window: Duration::from_millis(1),
        mem: false,
        stores: 1,
        mvcc: true,
        workload: Workload::Mixed,
        hot_subtree: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--read-pct" => {
                let v: u32 = value_of("--read-pct")?
                    .parse()
                    .map_err(|e| format!("--read-pct: {e}"))?;
                if v > 100 {
                    return Err("--read-pct must be 0..=100".to_string());
                }
                opts.read_pct = v;
            }
            "--ops" => {
                opts.ops = value_of("--ops")?
                    .parse()
                    .map_err(|e| format!("--ops: {e}"))?;
            }
            "--out" => opts.out = value_of("--out")?,
            "--commit-window-ms" => {
                let v: u64 = value_of("--commit-window-ms")?
                    .parse()
                    .map_err(|e| format!("--commit-window-ms: {e}"))?;
                opts.commit_window = Duration::from_millis(v);
            }
            "--mem" => opts.mem = true,
            "--stores" => {
                let v: usize = value_of("--stores")?
                    .parse()
                    .map_err(|e| format!("--stores: {e}"))?;
                if v == 0 {
                    return Err("--stores must be at least 1".to_string());
                }
                opts.stores = v;
            }
            "--mvcc" => {
                opts.mvcc = match value_of("--mvcc")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--mvcc must be on|off, got {other}")),
                };
            }
            "--workload" => {
                opts.workload = match value_of("--workload")?.as_str() {
                    "mixed" => Workload::Mixed,
                    "crud-disjoint" => Workload::CrudDisjoint,
                    other => {
                        return Err(format!(
                            "--workload must be mixed|crud-disjoint, got {other}"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: netbench [--read-pct N] [--ops N] [--out PATH] \
                 [--commit-window-ms N] [--mem] [--stores N] [--mvcc on|off] \
                 [--workload mixed|crud-disjoint]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "axsd loopback throughput — {} ops/client, {}% reads, {} store(s), mvcc {}, workload {}, {}",
        opts.ops,
        opts.read_pct,
        opts.stores,
        if opts.mvcc { "on" } else { "off" },
        opts.workload.name(),
        match opts.mem {
            true => "in-memory store".to_string(),
            false => format!(
                "durable store, {} ms commit window",
                opts.commit_window.as_millis()
            ),
        }
    );
    let runs: Vec<RunResult> = CLIENT_COUNTS
        .iter()
        .map(|&clients| {
            let r = run_one(clients, &opts);
            println!("{}", r.to_json());
            r
        })
        .collect();

    // The 1-client run cannot overlap anything; it is the serialized
    // baseline the shared read path is measured against.
    let baseline = &runs[0];
    let widest = runs.last().unwrap();
    let scaling = format!(
        "{{\"baseline_clients\":{},\"baseline_read_rps\":{:.0},\
         \"widest_clients\":{},\"widest_read_rps\":{:.0},\"read_speedup\":{:.2}}}",
        baseline.clients,
        baseline.read_rps(),
        widest.clients,
        widest.read_rps(),
        widest.read_rps() / baseline.read_rps().max(1e-9),
    );
    println!("read_scaling {scaling}");

    // With several stores, re-run the widest configuration on a single
    // store: same clients, same mix, one WAL and one lock hierarchy
    // instead of N. The delta is what per-store isolation buys writers.
    let store_scaling = (opts.stores > 1).then(|| {
        let single = Options {
            stores: 1,
            ..opts.clone()
        };
        let reference = run_one(widest.clients, &single);
        println!("{}", reference.to_json());
        let section = format!(
            "{{\"clients\":{},\"stores\":{},\"multi_write_rps\":{:.0},\
             \"single_write_rps\":{:.0},\"write_speedup\":{:.2},\
             \"multi_rps\":{:.0},\"single_rps\":{:.0}}}",
            widest.clients,
            opts.stores,
            widest.write_rps(),
            reference.write_rps(),
            widest.write_rps() / reference.write_rps().max(1e-9),
            widest.total_rps(),
            reference.total_rps(),
        );
        println!("store_scaling {section}");
        (section, reference)
    });

    // Snapshot A/B: the identical sweep with MVCC off, so every read goes
    // back through the S-lock hierarchy and the store's reader-writer
    // lock. Skipped when the main sweep itself ran locked, and under the
    // all-writes crud-disjoint workload (no reads to A/B).
    let snapshot_scaling = (opts.mvcc && opts.workload == Workload::Mixed).then(|| {
        println!("-- locked-read baseline (mvcc off) --");
        let locked_opts = Options {
            mvcc: false,
            ..opts.clone()
        };
        let locked: Vec<RunResult> = CLIENT_COUNTS
            .iter()
            .map(|&clients| {
                let r = run_one(clients, &locked_opts);
                println!("{}", r.to_json());
                r
            })
            .collect();
        let points: Vec<String> = runs
            .iter()
            .zip(&locked)
            .map(|(mvcc, lock)| {
                format!(
                    "{{\"clients\":{},\"locked_read_rps\":{:.0},\"mvcc_read_rps\":{:.0},\
                     \"read_speedup\":{:.2},\"locked_read_p99_us\":{},\"mvcc_read_p99_us\":{},\
                     \"locked_write_rps\":{:.0},\"mvcc_write_rps\":{:.0}}}",
                    mvcc.clients,
                    lock.read_rps(),
                    mvcc.read_rps(),
                    mvcc.read_rps() / lock.read_rps().max(1e-9),
                    lock.read_p99_us(),
                    mvcc.read_p99_us(),
                    lock.write_rps(),
                    mvcc.write_rps(),
                )
            })
            .collect();
        let section = format!("[{}]", points.join(", "));
        println!("snapshot_scaling {section}");
        (section, locked)
    });

    // Writer-scaling A/B: N all-write CRUD clients on disjoint subtrees
    // (no writer waits on another's logical X lock) against the same N
    // hammering one hot subtree (every writer queues on one X lock, held
    // across the fsync wait). The scraped `server.writes_parallel`
    // counter shows whether the overlap the rps claims actually happened
    // inside the server.
    println!("-- writer scaling (crud-disjoint vs. one hot subtree) --");
    let metric = |r: &RunResult, name: &str| {
        r.server_metrics
            .iter()
            .find(|e| e.name == name)
            .map_or(0, |e| e.value)
    };
    let mut writer_points: Vec<String> = Vec::new();
    let mut writer_runs: Vec<RunResult> = Vec::new();
    for &wclients in WRITER_SCALING_CLIENTS {
        let disjoint = run_one(
            wclients,
            &Options {
                workload: Workload::CrudDisjoint,
                hot_subtree: false,
                ..opts.clone()
            },
        );
        println!("{}", disjoint.to_json());
        let hot = run_one(
            wclients,
            &Options {
                workload: Workload::CrudDisjoint,
                hot_subtree: true,
                ..opts.clone()
            },
        );
        println!("{}", hot.to_json());
        writer_points.push(format!(
            "{{\"clients\":{wclients},\"disjoint_write_rps\":{:.0},\"hot_write_rps\":{:.0},\
             \"disjoint_speedup\":{:.2},\
             \"disjoint_write_p50_us\":{},\"disjoint_write_p99_us\":{},\
             \"hot_write_p50_us\":{},\"hot_write_p99_us\":{},\
             \"disjoint_writes_parallel\":{},\"hot_writes_parallel\":{}}}",
            disjoint.write_rps(),
            hot.write_rps(),
            disjoint.write_rps() / hot.write_rps().max(1e-9),
            RunResult::pct(&disjoint.write_latencies_us, 0.50),
            RunResult::pct(&disjoint.write_latencies_us, 0.99),
            RunResult::pct(&hot.write_latencies_us, 0.50),
            RunResult::pct(&hot.write_latencies_us, 0.99),
            metric(&disjoint, "server.writes_parallel"),
            metric(&hot, "server.writes_parallel"),
        ));
        writer_runs.push(disjoint);
        writer_runs.push(hot);
    }
    let writer_scaling = format!("[{}]", writer_points.join(", "));
    println!("writer_scaling {writer_scaling}");

    // Headline summary: one row per scenario × client count — the main
    // sweep, the single-store reference, and the locked-read baseline —
    // so dashboards can read the whole story without walking `runs`.
    let mut summary: Vec<String> = Vec::new();
    let main_label = if opts.mvcc { "mvcc" } else { "locked" };
    for r in &runs {
        summary.push(r.summary_json(&format!("{main_label}/clients-{}", r.clients)));
    }
    if let Some((_, reference)) = &store_scaling {
        summary.push(reference.summary_json(&format!(
            "single-store-reference/clients-{}",
            reference.clients
        )));
    }
    if let Some((_, locked)) = &snapshot_scaling {
        for r in locked {
            summary.push(r.summary_json(&format!("locked-baseline/clients-{}", r.clients)));
        }
    }
    for r in &writer_runs {
        let shape = if r.hot_subtree {
            "crud-hot"
        } else {
            "crud-disjoint"
        };
        summary.push(r.summary_json(&format!("{shape}/clients-{}", r.clients)));
    }

    let mut doc = String::from("{\n");
    doc.push_str(&format!(
        "  \"bench\": \"server_loopback\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
         \"git_commit\": \"{}\",\n",
        git_commit()
    ));
    doc.push_str(&format!(
        "  \"parameters\": {{\"read_pct\": {}, \"ops_per_client\": {}, \
         \"client_counts\": [{}], \"durable\": {}, \"commit_window_ms\": {}, \
         \"stores\": {}, \"mvcc\": {}, \"workload\": \"{}\", \
         \"writer_scaling_clients\": [{}]}},\n",
        opts.read_pct,
        opts.ops,
        CLIENT_COUNTS
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        !opts.mem,
        opts.commit_window.as_millis(),
        opts.stores,
        opts.mvcc,
        opts.workload.name(),
        WRITER_SCALING_CLIENTS
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    ));
    doc.push_str("  \"summary\": [\n");
    for (i, s) in summary.iter().enumerate() {
        let sep = if i + 1 < summary.len() { "," } else { "" };
        doc.push_str(&format!("    {s}{sep}\n"));
    }
    doc.push_str("  ],\n");
    doc.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        doc.push_str(&format!("    {}{sep}\n", r.to_archive_json()));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!("  \"read_scaling\": {scaling},\n"));
    if let Some((section, reference)) = &store_scaling {
        doc.push_str(&format!("  \"store_scaling\": {section},\n"));
        doc.push_str(&format!(
            "  \"single_store_reference\": {},\n",
            reference.to_archive_json()
        ));
    }
    if let Some((section, locked)) = &snapshot_scaling {
        doc.push_str(&format!("  \"snapshot_scaling\": {section},\n"));
        doc.push_str("  \"locked_baseline_runs\": [\n");
        for (i, r) in locked.iter().enumerate() {
            let sep = if i + 1 < locked.len() { "," } else { "" };
            doc.push_str(&format!("    {}{sep}\n", r.to_archive_json()));
        }
        doc.push_str("  ],\n");
    }
    doc.push_str(&format!("  \"writer_scaling\": {writer_scaling},\n"));
    doc.push_str("  \"writer_scaling_runs\": [\n");
    for (i, r) in writer_runs.iter().enumerate() {
        let sep = if i + 1 < writer_runs.len() { "," } else { "" };
        doc.push_str(&format!("    {}{sep}\n", r.to_archive_json()));
    }
    doc.push_str("  ],\n");
    doc.push_str(
        "  \"note\": \"baseline = 1 client (every request serialized, the \
         pre-shared-read-path behavior); widest = concurrent clients on the \
         shared read path overlapping writers' group-commit windows; \
         store_scaling (when present) compares the widest run across N \
         stores against the same clients on one store — separate WALs and \
         lock hierarchies are what multi-store buys writers; \
         snapshot_scaling (when present) is the locked-vs-MVCC read A/B at \
         each client count — with MVCC on, reads pin an epoch and take zero \
         locks. Caveat: this host is a single hardware core, so client \
         threads, server workers, and the fsync thread all timeshare one \
         CPU — concurrency gains here come from overlapping *waits* (fsync \
         windows, lock queues), not parallel execution, and MVCC's benefit \
         shows mainly as readers not queueing behind writers' commit \
         windows rather than as multicore read scaling; absolute rps and \
         the 64-client points especially are scheduler-bound and should \
         not be read as multi-core throughput. writer_scaling is the \
         crud-disjoint A/B: the same all-write CRUD clients on disjoint \
         subtrees vs. one hot subtree — store mutation is always \
         serialized behind the store's write guard, so any \
         disjoint_speedup is hot writers queueing on one logical X lock \
         across the fsync wait while disjoint writers share WAL fsync \
         batches; the writes_parallel counter is the ground truth for \
         how much overlap actually occurred inside the server\"\n}\n",
    );
    if let Err(e) = std::fs::write(&opts.out, doc) {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);
}

struct RunResult {
    clients: usize,
    workers: usize,
    stores: usize,
    read_pct: u32,
    mvcc: bool,
    workload: &'static str,
    hot_subtree: bool,
    elapsed: Duration,
    read_latencies_us: Vec<u64>,
    write_latencies_us: Vec<u64>,
    /// Server-side histogram summaries (`rq.*`, `path.*`, `obs.*`, `wal.*`)
    /// scraped through the `Metrics` opcode just before shutdown, so the
    /// archive carries what the server saw, not only what clients timed.
    server_metrics: Vec<StatEntry>,
}

impl RunResult {
    fn read_rps(&self) -> f64 {
        self.read_latencies_us.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn write_rps(&self) -> f64 {
        self.write_latencies_us.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn total_rps(&self) -> f64 {
        (self.read_latencies_us.len() + self.write_latencies_us.len()) as f64
            / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn read_p99_us(&self) -> u64 {
        Self::pct(&self.read_latencies_us, 0.99)
    }

    /// Percentile over an already-sorted latency vector.
    fn pct(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    }

    /// One headline row for the archive's `summary` block.
    fn summary_json(&self, scenario: &str) -> String {
        format!(
            "{{\"scenario\":\"{scenario}\",\"clients\":{},\"stores\":{},\"mvcc\":{},\
             \"rps\":{:.0},\"read_rps\":{:.0},\"write_rps\":{:.0},\
             \"read_p50_us\":{},\"read_p99_us\":{},\"write_p50_us\":{},\"write_p99_us\":{}}}",
            self.clients,
            self.stores,
            self.mvcc,
            self.total_rps(),
            self.read_rps(),
            self.write_rps(),
            Self::pct(&self.read_latencies_us, 0.50),
            Self::pct(&self.read_latencies_us, 0.99),
            Self::pct(&self.write_latencies_us, 0.50),
            Self::pct(&self.write_latencies_us, 0.99),
        )
    }

    fn to_json(&self) -> String {
        let requests = self.read_latencies_us.len() + self.write_latencies_us.len();
        let pct = Self::pct;
        format!(
            "{{\"bench\":\"server_loopback\",\"clients\":{},\"workers\":{},\"stores\":{},\
             \"read_pct\":{},\"mvcc\":{},\"workload\":\"{}\",\"hot_subtree\":{},\
             \"requests\":{requests},\"reads\":{},\"writes\":{},\
             \"elapsed_s\":{:.3},\"rps\":{:.0},\"read_rps\":{:.0},\"write_rps\":{:.0},\
             \"read_p50_us\":{},\"read_p99_us\":{},\"write_p50_us\":{},\"write_p99_us\":{}}}",
            self.clients,
            self.workers,
            self.stores,
            self.read_pct,
            self.mvcc,
            self.workload,
            self.hot_subtree,
            self.read_latencies_us.len(),
            self.write_latencies_us.len(),
            self.elapsed.as_secs_f64(),
            requests as f64 / self.elapsed.as_secs_f64().max(1e-9),
            self.read_rps(),
            self.write_rps(),
            pct(&self.read_latencies_us, 0.50),
            pct(&self.read_latencies_us, 0.99),
            pct(&self.write_latencies_us, 0.50),
            pct(&self.write_latencies_us, 0.99),
        )
    }

    /// The console JSON plus the server's own histogram snapshot — used
    /// only for the archive file, where size does not matter.
    fn to_archive_json(&self) -> String {
        let mut json = self.to_json();
        json.pop(); // strip the closing brace, reopen the object
        json.push_str(",\"server_metrics\":{");
        for (i, e) in self.server_metrics.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!("\"{}\":{}", e.name, e.value));
        }
        json.push_str("}}");
        json
    }
}

/// The store client `t` is bound to: clients round-robin across the
/// configured store count; store 0 is the catalog's built-in `default`.
fn store_name(i: usize) -> String {
    if i == 0 {
        "default".to_string()
    } else {
        format!("s{i}")
    }
}

/// One configuration: a fresh server (durable by default, so writes pay
/// the real WAL-commit price), `clients` threads, each performing `ops`
/// operations of which `read_pct`% are point reads and the rest range
/// inserts, evenly interleaved (Bresenham-style, so the mix holds at
/// every prefix and every run is deterministic). With `--stores N`,
/// clients round-robin across N named stores, each with its own WAL and
/// lock hierarchy.
fn run_one(clients: usize, opts: &Options) -> RunResult {
    let (ops, read_pct, stores) = (opts.ops, opts.read_pct, opts.stores.max(1));
    let workers = clients.clamp(2, 16);
    let dir = std::env::temp_dir().join(format!("axs-netbench-{}-{clients}", std::process::id()));
    let catalog_config = CatalogConfig {
        // Every store stays resident for the whole run: this measures
        // per-store isolation, not eviction churn.
        max_open: stores.max(8),
        commit_window: opts.commit_window,
    };
    let catalog = match opts.mem {
        true => Catalog::in_memory(catalog_config).unwrap(),
        false => {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Catalog::open(&dir, catalog_config).unwrap()
        }
    };
    let handle = Server::start_catalog(
        catalog,
        ServerConfig {
            workers,
            queue_depth: 1024,
            max_connections: clients + 4,
            commit_window: opts.commit_window,
            max_open_stores: stores.max(8),
            mvcc: opts.mvcc,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // One subtree per client so writers contend on the hierarchy, not on
    // a single range; each store seeds subtrees only for the clients
    // bound to it.
    let mut setup = Client::connect(handle.local_addr()).unwrap();
    let mut subtree_of = vec![0u64; clients];
    for s in 0..stores {
        let name = store_name(s);
        if s > 0 {
            setup.create_store(&name).unwrap();
        }
        setup.use_store(&name).unwrap();
        let members: Vec<usize> = (0..clients).filter(|t| t % stores == s).collect();
        let seed: String = members.iter().map(|t| format!("<t{t}/>")).collect();
        let (root, _) = setup.bulk_load(&format!("<root>{seed}</root>")).unwrap();
        let kids = setup.children(root).unwrap();
        for (k, t) in members.iter().enumerate() {
            // Hot-subtree mode (the conflicting half of `writer_scaling`):
            // every client on this store hammers the first member's
            // subtree instead of its own.
            subtree_of[*t] = kids[if opts.hot_subtree { 0 } else { k }].0;
        }
    }

    let started = Instant::now();
    let workload = opts.workload;
    let lat: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let addr = handle.local_addr();
                let subtree = subtree_of[t];
                let store = store_name(t % stores);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
                    c.use_store(&store).unwrap();
                    // Every client seeds one element before the clock-free
                    // loop so reads always have a target.
                    let (mut last, _) = c.insert_last(subtree, r#"<e j="seed"/>"#).unwrap();
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    if workload == Workload::CrudDisjoint {
                        // All-writes CRUD: mostly inserts, plus a replace
                        // and a delete (followed by a reinsert so `last`
                        // stays live) every eighth op. Clients touch only
                        // nodes they created, so in disjoint mode the
                        // writers never conflict logically.
                        let insert = |c: &mut Client, frag: &str| loop {
                            match c.insert_last(subtree, frag) {
                                Ok((start, _)) => break start,
                                Err(e) if e.is_busy() => continue,
                                Err(e) => panic!("insert: {e}"),
                            }
                        };
                        for j in 0..ops {
                            let t0 = Instant::now();
                            match j % 8 {
                                6 => loop {
                                    match c.replace(last, &format!(r#"<e j="{j}r"/>"#)) {
                                        Ok((start, _)) => {
                                            last = start;
                                            break;
                                        }
                                        Err(e) if e.is_busy() => continue,
                                        Err(e) => panic!("replace: {e}"),
                                    }
                                },
                                7 => loop {
                                    match c.delete(last) {
                                        Ok(()) => {
                                            last = insert(&mut c, &format!(r#"<e j="{j}d"/>"#));
                                            break;
                                        }
                                        Err(e) if e.is_busy() => continue,
                                        Err(e) => panic!("delete: {e}"),
                                    }
                                },
                                _ => last = insert(&mut c, &format!(r#"<e j="{j}"/>"#)),
                            }
                            writes.push(t0.elapsed().as_micros() as u64);
                        }
                        return (reads, writes);
                    }
                    let write_share = 100 - read_pct as usize;
                    for j in 0..ops {
                        // Op j is a write when the Bresenham accumulator
                        // crosses an integer: exactly `write_share` writes
                        // per 100 ops, evenly spread.
                        let is_write = (j + 1) * write_share / 100 > j * write_share / 100;
                        let t0 = Instant::now();
                        if is_write {
                            let frag = format!(r#"<e j="{j}"/>"#);
                            last = loop {
                                // Busy under saturation is a retry, and the
                                // retry time is part of the observed latency.
                                match c.insert_last(subtree, &frag) {
                                    Ok((start, _)) => break start,
                                    Err(e) if e.is_busy() => continue,
                                    Err(e) => panic!("insert: {e}"),
                                }
                            };
                            writes.push(t0.elapsed().as_micros() as u64);
                        } else {
                            // Rotate across the point-read surface; all
                            // targets stay O(1)-sized as the document grows.
                            let kind = j % 3;
                            loop {
                                let r = match kind {
                                    0 => c.read_node(last).map(|_| ()),
                                    1 => c.parent(last).map(|_| ()),
                                    _ => c.string_value(last).map(|_| ()),
                                };
                                match r {
                                    Ok(()) => break,
                                    Err(e) if e.is_busy() => continue,
                                    Err(e) => panic!("read: {e}"),
                                }
                            }
                            reads.push(t0.elapsed().as_micros() as u64);
                        }
                    }
                    (reads, writes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    // Scrape the server's own view of the run (latency histograms, lookup
    // paths, group-commit shape) before it goes away.
    let (_prom, entries) = setup.metrics().unwrap();
    let server_metrics: Vec<StatEntry> = entries
        .into_iter()
        .filter(|e| {
            [
                "rq.", "path.", "obs.", "wal.", "cat.", "mvcc.", "lock.", "server.",
            ]
            .iter()
            .any(|p| e.name.starts_with(p))
        })
        .collect();

    handle.shutdown();
    handle.join().unwrap();
    if !opts.mem {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut read_latencies_us: Vec<u64> = Vec::new();
    let mut write_latencies_us: Vec<u64> = Vec::new();
    for (r, w) in lat {
        read_latencies_us.extend(r);
        write_latencies_us.extend(w);
    }
    read_latencies_us.sort_unstable();
    write_latencies_us.sort_unstable();
    RunResult {
        clients,
        workers,
        stores,
        read_pct,
        mvcc: opts.mvcc,
        workload: opts.workload.name(),
        hot_subtree: opts.hot_subtree,
        elapsed,
        read_latencies_us,
        write_latencies_us,
        server_metrics,
    }
}
