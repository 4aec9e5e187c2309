//! The metric names: what `axsbench` emits and `BENCHMARK.json` declares.
//!
//! `BENCHMARK.json` is the contract (names, units, directions, bounds);
//! this module is the emitting side of it, and a test holds the two
//! together. The names defined here are the ones every later issue quotes.

use crate::json::Json;
use axs_bench::Approach;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, client-observed, emitted by every workload with
/// `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("read_ops_s", "1/s"),
    ("read_p50_us", "us"),
    ("write_ops_s", "1/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("query_p50_us", "us"),
    ("scan_mb_s", "MB/s"),
    ("space_amp", "ratio"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with fixed names, emitted by every workload with
/// `--trace 1`: (name, unit). The Table 5 rows are added by
/// [`per_layer`].
const PER_LAYER_FIXED: [(&str, &str); 71] = [
    ("client.frame_encode_ns", "ns"),
    ("client.frame_decode_ns", "ns"),
    ("client.ping_rtt_us", "us"),
    ("client.query_p95_us", "us"),
    ("client.read_p99_us", "us"),
    ("server.rq_read_p50_us", "us"),
    ("server.rq_write_p50_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.commit_waits", "count"),
    ("server.writes_conflicted", "count"),
    ("server.read_residual_us", "us"),
    ("server.write_residual_us", "us"),
    ("lock.acquire_s_ns", "ns"),
    ("lock.acquire_x_ns", "ns"),
    ("lock.waits", "count"),
    ("lock.wait_p99_us", "us"),
    ("lock.snapshot_bypasses", "count"),
    ("core.snapshot_pin_ns", "ns"),
    ("core.snapshot_read_ns", "ns"),
    ("core.locked_read_ns", "ns"),
    ("core.insert_last_ns", "ns"),
    ("core.replace_ns", "ns"),
    ("core.delete_ns", "ns"),
    ("core.commit_ns", "ns"),
    ("core.read_all_mb_s", "MB/s"),
    ("core.publishes", "count"),
    ("core.publishes_merged", "count"),
    ("core.lazy_materialized", "count"),
    ("core.epochs_live_max", "count"),
    ("core.t5.cells_in_order", "count"),
    ("index.partial_hit_ns", "ns"),
    ("index.partial_miss_ns", "ns"),
    ("index.partial_admit_evict_ns", "ns"),
    ("index.partial_hit_ratio", "ratio"),
    ("index.partial_evictions", "count"),
    ("index.range_probe_ns", "ns"),
    ("index.btree_insert_ns", "ns"),
    ("index.btree_probe_ns", "ns"),
    ("index.btree_pages_per_probe", "count"),
    ("index.path_partial_count", "count"),
    ("index.path_full_count", "count"),
    ("index.path_scan_count", "count"),
    ("index.scan_tokens_per_lookup", "count"),
    ("storage.wal_append_ns", "ns"),
    ("storage.wal_fsync_p50_us", "us"),
    ("storage.wal_fsync_p99_us", "us"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.commits_per_fsync", "ratio"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_hit_ns", "ns"),
    ("storage.pool_miss_ns", "ns"),
    ("storage.pool_evictions", "count"),
    ("storage.block_insert_ns", "ns"),
    ("storage.block_splits", "count"),
    ("storage.pages_written", "count"),
    ("storage.recovery_batches_replayed", "count"),
    ("xdm.encode_mb_s", "MB/s"),
    ("xdm.decode_mb_s", "MB/s"),
    ("xdm.token_bytes_per_user_byte", "ratio"),
    ("xml.parse_mb_s", "MB/s"),
    ("xml.parse_fragment_ns", "ns"),
    ("xml.serialize_mb_s", "MB/s"),
    ("xpath.compile_ns", "ns"),
    ("xpath.eval_us", "us"),
    ("xpath.tokens_examined_per_match", "count"),
    ("xquery.parse_ns", "ns"),
    ("xquery.eval_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.hist_record_ns", "ns"),
    ("obs.bench_span_overhead_pct", "%"),
    ("catalog.slot_resolve_ns", "ns"),
];

/// Short names of the Table 5 rows in metric names.
pub fn approach_key(approach: Approach) -> &'static str {
    match approach {
        Approach::FullIndex => "full",
        Approach::RangeGranular => "granular",
        Approach::RangeCoarse => "coarse",
        Approach::RangeCoarsePartial => "lazy",
    }
}

/// Every per-layer metric: the fixed names, the in-process Table 5 grid `core.t5.<row>.<insert|scan|read>_kb_s`
/// and the Table 5 rows over the wire
/// `client.t5.<row>.<insert|read>_kb_s`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for approach in Approach::ALL {
        let row = approach_key(approach);
        for col in ["insert", "scan", "read"] {
            out.push((format!("core.t5.{row}.{col}_kb_s"), "KB/s"));
        }
        for col in ["insert", "read"] {
            out.push((format!("client.t5.{row}.{col}_kb_s"), "KB/s"));
        }
    }
    out
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    /// The unit.
    pub unit: String,
    /// The direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Contract {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Declared>,
    /// Per-layer metrics by name.
    pub per_layer: BTreeMap<String, Declared>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

impl Contract {
    /// Loads and validates the shape of `BENCHMARK.json` at `path`.
    pub fn load(path: &Path) -> Result<Contract, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} array"))
        };
        let metrics = |key: &str| -> Result<BTreeMap<String, Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    let better = match field("better")? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    Ok((
                        field("name")?.to_string(),
                        Declared {
                            unit: field("unit")?.to_string(),
                            better,
                            bound: m.get("bound").and_then(Json::as_f64),
                        },
                    ))
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }
}
