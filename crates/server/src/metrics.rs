//! Server-side observability: per-opcode-family latency histograms, the
//! slow-request log, the retained-trace ring, and `Metrics`-opcode
//! exposition (Prometheus text + extended self-describing entries).
//!
//! Naming conventions (also documented in DESIGN.md §5e):
//!
//! * Prometheus series carry the `axs_` prefix. Counter entries from the
//!   `Stats` opcode map dot-to-underscore (`server.requests` →
//!   `axs_server_requests`).
//! * Histograms follow the Prometheus text format: cumulative
//!   `_bucket{le="..."}` series over the power-of-two bounds (emitted up
//!   to the highest non-empty bucket, then `+Inf`), plus `_sum` and
//!   `_count`. Durations are microseconds (`_us`).
//! * Request latency is `axs_request_duration_us{family="..."}`; node
//!   lookup latency is `axs_lookup_duration_us{path="..."}` with one
//!   label value per paper lookup path (partial / full / range_scan).
//! * The extended entries mirror every `Stats` counter and add derived
//!   values: `rq.<family>.{count,p50_us,p90_us,p99_us,max_us}`,
//!   `path.<path>.*` in the same shape, `obs.<series>.*` for this
//!   server's instrumentation histograms (its [`LayerMetrics`], fed by
//!   the traces it opens), and `obs.partial_hit_ratio_pct`.

use axs_client::wire::OpCode;
use axs_obs::{FinishedTrace, Histogram, HistogramSnapshot, LayerMetrics, TraceRing};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Slow-log lines retained in process for inspection (`ServerHandle`).
const SLOW_LOG_CAP: usize = 64;

/// Opcode families for latency bucketing: few enough that every family's
/// histogram stays statistically useful, split along the axes that matter
/// (point reads vs. query evaluation vs. whole-store scans vs. writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpFamily {
    /// Single-node reads: ReadNode, Value, Children, Parent.
    PointRead,
    /// Query evaluation: Query (XPath), Flwor.
    Query,
    /// Whole-store scans and inspection: ReadAll, Stats, Report, Ranges,
    /// Verify, Metrics.
    Scan,
    /// Node mutations: inserts, Delete, Replace.
    Write,
    /// Bulk/maintenance writes: BulkLoad, Flush, Compact.
    Bulk,
    /// Everything else: Ping, Sleep, Shutdown, unknown opcodes.
    Control,
}

impl OpFamily {
    /// All families, in exposition order.
    pub(crate) const ALL: [OpFamily; 6] = [
        OpFamily::PointRead,
        OpFamily::Query,
        OpFamily::Scan,
        OpFamily::Write,
        OpFamily::Bulk,
        OpFamily::Control,
    ];

    /// Stable label (metric names, dashboards).
    pub(crate) fn name(self) -> &'static str {
        match self {
            OpFamily::PointRead => "point_read",
            OpFamily::Query => "query",
            OpFamily::Scan => "scan",
            OpFamily::Write => "write",
            OpFamily::Bulk => "bulk",
            OpFamily::Control => "control",
        }
    }

    fn index(self) -> usize {
        OpFamily::ALL.iter().position(|f| *f == self).unwrap()
    }

    /// The family an opcode byte belongs to (`Control` for unknown bytes,
    /// which only reach here as protocol errors).
    pub(crate) fn of(opcode_byte: u8) -> OpFamily {
        use OpCode::*;
        match OpCode::from_u8(opcode_byte) {
            Some(ReadNode | Value | Children | Parent) => OpFamily::PointRead,
            Some(Query | Flwor | Explain) => OpFamily::Query,
            Some(ReadAll | Stats | Report | Ranges | Verify | Metrics) => OpFamily::Scan,
            Some(InsertFirst | InsertLast | InsertBefore | InsertAfter | Delete | Replace) => {
                OpFamily::Write
            }
            Some(BulkLoad | Flush | Compact) => OpFamily::Bulk,
            Some(Ping | Sleep | Shutdown) | None => OpFamily::Control,
            Some(CreateStore | DropStore | ListStores | UseStore | DumpRecorder) => {
                OpFamily::Control
            }
        }
    }
}

/// Decoded opcode name for log lines (`op18` for unknown bytes).
pub(crate) fn opcode_name(opcode_byte: u8) -> String {
    match OpCode::from_u8(opcode_byte) {
        Some(op) => format!("{op:?}"),
        None => format!("op{opcode_byte}"),
    }
}

/// Static opcode name for the obs flight recorder, whose namer hook
/// cannot allocate (`fn(u8) -> &'static str`). Must agree with
/// [`opcode_name`] for every decodable byte.
pub(crate) fn opcode_name_static(opcode_byte: u8) -> &'static str {
    use OpCode::*;
    match OpCode::from_u8(opcode_byte) {
        Some(Ping) => "Ping",
        Some(BulkLoad) => "BulkLoad",
        Some(Query) => "Query",
        Some(Flwor) => "Flwor",
        Some(ReadNode) => "ReadNode",
        Some(Value) => "Value",
        Some(Children) => "Children",
        Some(Parent) => "Parent",
        Some(InsertFirst) => "InsertFirst",
        Some(InsertLast) => "InsertLast",
        Some(InsertBefore) => "InsertBefore",
        Some(InsertAfter) => "InsertAfter",
        Some(Delete) => "Delete",
        Some(Replace) => "Replace",
        Some(ReadAll) => "ReadAll",
        Some(Stats) => "Stats",
        Some(Report) => "Report",
        Some(Flush) => "Flush",
        Some(Verify) => "Verify",
        Some(Compact) => "Compact",
        Some(Ranges) => "Ranges",
        Some(Sleep) => "Sleep",
        Some(Shutdown) => "Shutdown",
        Some(Metrics) => "Metrics",
        Some(CreateStore) => "CreateStore",
        Some(DropStore) => "DropStore",
        Some(ListStores) => "ListStores",
        Some(UseStore) => "UseStore",
        Some(Explain) => "Explain",
        Some(DumpRecorder) => "DumpRecorder",
        None => "unknown",
    }
}

/// Per-server observability state: request-latency histograms by opcode
/// family, the layer histograms its traces feed, the retained-trace
/// ring, and the slow-request log.
pub(crate) struct EngineMetrics {
    /// Aggregate per-family latency across every store (the series the
    /// unlabeled `axs_request_duration_us{family=...}` exposition carries).
    families: [Histogram; OpFamily::ALL.len()],
    /// Per-store per-family latency, keyed by store name; backs the
    /// additional `store="..."`-labeled series and `rq.store.<name>.*`
    /// entries. BTreeMap keeps the exposition order deterministic.
    by_store: Mutex<BTreeMap<String, Arc<[Histogram; OpFamily::ALL.len()]>>>,
    /// Instrumentation histograms, handed to every trace this server opens.
    pub(crate) layers: Arc<LayerMetrics>,
    ring: TraceRing,
    slow_threshold: Option<Duration>,
    slow_log: Mutex<VecDeque<String>>,
}

impl EngineMetrics {
    pub(crate) fn new(slow_threshold: Option<Duration>) -> EngineMetrics {
        EngineMetrics {
            families: [const { Histogram::new() }; OpFamily::ALL.len()],
            by_store: Mutex::new(BTreeMap::new()),
            layers: Arc::default(),
            ring: TraceRing::default(),
            slow_threshold,
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one finished request: family latency (aggregate and under
    /// the request's store label), the flight-recorder summary, the
    /// slow-request log (when over threshold) and trace retention.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_request(
        &self,
        opcode_byte: u8,
        store: &str,
        store_id: u16,
        ok: bool,
        bytes: u64,
        total: Duration,
        trace: Option<FinishedTrace>,
    ) {
        let total_us = total.as_micros().min(u64::MAX as u128) as u64;
        let family = OpFamily::of(opcode_byte).index();
        self.families[family].record(total_us);
        let per_store = {
            let mut map = self.by_store.lock();
            map.entry(store.to_string())
                .or_insert_with(|| Arc::new([const { Histogram::new() }; OpFamily::ALL.len()]))
                .clone()
        };
        per_store[family].record(total_us);
        axs_obs::recorder().record(axs_obs::RequestSummary {
            trace_id: trace.as_ref().map_or(0, |t| t.trace_id),
            store: store_id,
            opcode: opcode_byte,
            path: trace
                .as_ref()
                .map_or(axs_obs::PATH_NONE, FinishedTrace::lookup_path_code),
            ok,
            total_us,
            bytes,
        });
        if self.slow_threshold.is_some_and(|t| total >= t) {
            let name = opcode_name(opcode_byte);
            let line = match &trace {
                Some(t) => format!("slow request ({total_us}us): {}", t.render(&name)),
                None => format!(
                    "slow request ({total_us}us): op={name} (tracing disabled, no span tree)\n"
                ),
            };
            eprint!("{line}");
            axs_obs::recorder().dump_to_stderr("slow-request", 32);
            let mut log = self.slow_log.lock();
            if log.len() >= SLOW_LOG_CAP {
                log.pop_front();
            }
            log.push_back(line);
        }
        if let Some(t) = trace {
            self.ring.push(t);
        }
    }

    /// Retained slow-log lines, oldest first.
    pub(crate) fn slow_log(&self) -> Vec<String> {
        self.slow_log.lock().iter().cloned().collect()
    }

    /// Recently finished traces, most recent first.
    pub(crate) fn recent_traces(&self) -> Vec<FinishedTrace> {
        self.ring.recent()
    }

    /// Per-family latency snapshots, in [`OpFamily::ALL`] order.
    fn family_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        OpFamily::ALL
            .iter()
            .map(|f| (f.name(), self.families[f.index()].snapshot()))
            .collect()
    }

    /// Per-store per-family latency snapshots, store names sorted.
    fn store_snapshots(&self) -> Vec<(String, Vec<(&'static str, HistogramSnapshot)>)> {
        self.by_store
            .lock()
            .iter()
            .map(|(store, hists)| {
                let families = OpFamily::ALL
                    .iter()
                    .map(|f| (f.name(), hists[f.index()].snapshot()))
                    .collect();
                (store.clone(), families)
            })
            .collect()
    }

    /// The Prometheus-style exposition text. `counters` is the full
    /// `Stats`-opcode entry list (already holding the store borrow).
    pub(crate) fn prometheus_text(&self, counters: &[(String, u64)]) -> String {
        let mut out = String::with_capacity(8192);
        for (name, value) in counters {
            let series = format!("axs_{}", name.replace('.', "_"));
            let kind = if name.contains("in_flight")
                || name.contains("active")
                || name.ends_with(".entries")
                || name.ends_with(".ranges")
            {
                "gauge"
            } else {
                "counter"
            };
            out.push_str(&format!("# TYPE {series} {kind}\n{series} {value}\n"));
        }
        // Aggregate family series first (label shape unchanged from v1),
        // then the same histogram broken down with a `store` label —
        // per-family per-store series only for families that saw traffic
        // on that store, so the exposition stays proportional to use.
        let mut request_labeled: Vec<(String, HistogramSnapshot)> = self
            .family_snapshots()
            .iter()
            .map(|(name, s)| (format!("family=\"{name}\""), *s))
            .collect();
        for (store, families) in self.store_snapshots() {
            for (family, s) in families {
                if s.count > 0 {
                    request_labeled.push((format!("family=\"{family}\",store=\"{store}\""), s));
                }
            }
        }
        emit_histogram(
            &mut out,
            "axs_request_duration_us",
            "request latency by opcode family, microseconds",
            &request_labeled,
        );
        let g = &self.layers;
        emit_histogram(
            &mut out,
            "axs_lookup_duration_us",
            "node-lookup latency by paper lookup path, microseconds",
            &[
                (
                    "path=\"partial\"".to_string(),
                    g.lookup_partial_us.snapshot(),
                ),
                ("path=\"full\"".to_string(), g.lookup_full_us.snapshot()),
                (
                    "path=\"range_scan\"".to_string(),
                    g.lookup_range_scan_us.snapshot(),
                ),
            ],
        );
        for (name, hist) in g.named() {
            if name.starts_with("lookup_") {
                continue; // exposed above, labeled by path
            }
            emit_histogram(
                &mut out,
                &format!("axs_{name}"),
                "",
                &[(String::new(), hist.snapshot())],
            );
        }
        out
    }

    /// The extended self-describing entries: every counter plus derived
    /// percentiles and ratios (single round trip for `axs top`).
    pub(crate) fn extended_entries(&self, counters: &[(String, u64)]) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = counters.to_vec();
        for (name, s) in self.family_snapshots() {
            push_summary(&mut out, &format!("rq.{name}"), &s);
        }
        // Per-store rollup: one summary per store, families merged, so
        // `axs top` can show a store breakdown in one round trip without
        // the entry list growing as stores × families.
        for (store, families) in self.store_snapshots() {
            let mut merged = HistogramSnapshot::default();
            for (_, s) in families {
                merged.merge(&s);
            }
            push_summary(&mut out, &format!("rq.store.{store}"), &merged);
        }
        let g = &self.layers;
        for (path, s) in [
            ("partial", g.lookup_partial_us.snapshot()),
            ("full", g.lookup_full_us.snapshot()),
            ("range_scan", g.lookup_range_scan_us.snapshot()),
        ] {
            push_summary(&mut out, &format!("path.{path}"), &s);
        }
        for (name, hist) in g.named() {
            if name.starts_with("lookup_") {
                continue;
            }
            push_summary(&mut out, &format!("obs.{name}"), &hist.snapshot());
        }
        let hits = lookup(counters, "partial.hits");
        let misses = lookup(counters, "partial.misses");
        let ratio = (hits * 100).checked_div(hits + misses).unwrap_or(0);
        out.push(("obs.partial_hit_ratio_pct".to_string(), ratio));
        out.push((
            "obs.traces_retained".to_string(),
            self.ring.recent().len() as u64,
        ));
        out.push(("obs.traces_dropped".to_string(), self.ring.dropped()));
        out.push((
            "obs.slow_requests".to_string(),
            self.slow_log.lock().len() as u64,
        ));
        out
    }
}

fn lookup(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn push_summary(out: &mut Vec<(String, u64)>, prefix: &str, s: &HistogramSnapshot) {
    out.push((format!("{prefix}.count"), s.count));
    out.push((format!("{prefix}.p50_us"), s.percentile(0.50)));
    out.push((format!("{prefix}.p90_us"), s.percentile(0.90)));
    out.push((format!("{prefix}.p99_us"), s.percentile(0.99)));
    out.push((format!("{prefix}.max_us"), s.max));
}

/// Emits one Prometheus histogram family: cumulative `_bucket` series up
/// to the highest non-empty bucket then `+Inf`, plus `_sum`/`_count`.
fn emit_histogram(
    out: &mut String,
    series: &str,
    help: &str,
    labeled: &[(String, HistogramSnapshot)],
) {
    use std::fmt::Write as _;
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {series} {help}");
    }
    let _ = writeln!(out, "# TYPE {series} histogram");
    for (labels, s) in labeled {
        let with = |extra: &str| -> String {
            if labels.is_empty() {
                format!("{{{extra}}}")
            } else {
                format!("{{{labels},{extra}}}")
            }
        };
        let plain = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let top = s.highest_bucket().map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for i in 0..top {
            cumulative += s.buckets[i];
            let le = axs_obs::bucket_bound(i);
            let _ = writeln!(
                out,
                "{series}_bucket{} {cumulative}",
                with(&format!("le=\"{le}\""))
            );
        }
        let _ = writeln!(out, "{series}_bucket{} {}", with("le=\"+Inf\""), s.count);
        let _ = writeln!(out, "{series}_sum{plain} {}", s.sum);
        let _ = writeln!(out, "{series}_count{plain} {}", s.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_cover_every_opcode() {
        for b in 1..=30u8 {
            assert!(OpCode::from_u8(b).is_some(), "opcode {b} exists");
            let _ = OpFamily::of(b); // must not panic
            assert_eq!(opcode_name_static(b), opcode_name(b), "opcode {b} name");
        }
        assert_eq!(OpFamily::of(25), OpFamily::Control);
        assert_eq!(OpFamily::of(28), OpFamily::Control);
        assert_eq!(OpFamily::of(29), OpFamily::Query);
        assert_eq!(OpFamily::of(30), OpFamily::Control);
        assert_eq!(OpFamily::of(5), OpFamily::PointRead);
        assert_eq!(OpFamily::of(3), OpFamily::Query);
        assert_eq!(OpFamily::of(24), OpFamily::Scan);
        assert_eq!(OpFamily::of(10), OpFamily::Write);
        assert_eq!(OpFamily::of(2), OpFamily::Bulk);
        assert_eq!(OpFamily::of(1), OpFamily::Control);
        assert_eq!(OpFamily::of(200), OpFamily::Control);
    }

    #[test]
    fn prometheus_text_shape() {
        let m = EngineMetrics::new(None);
        m.finish_request(5, "default", 0, true, 8, Duration::from_micros(100), None);
        m.finish_request(5, "aux", 1, true, 8, Duration::from_micros(3), None);
        let counters = vec![("server.requests".to_string(), 2u64)];
        let text = m.prometheus_text(&counters);
        assert!(text.contains("axs_server_requests 2"), "{text}");
        assert!(
            text.contains("axs_request_duration_us_bucket{family=\"point_read\",le=\""),
            "{text}"
        );
        assert!(
            text.contains("axs_request_duration_us_count{family=\"point_read\"} 2"),
            "{text}"
        );
        assert!(
            text.contains(
                "axs_request_duration_us_count{family=\"point_read\",store=\"default\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("axs_request_duration_us_count{family=\"point_read\",store=\"aux\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("axs_request_duration_us_bucket{family=\"point_read\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("axs_lookup_duration_us"), "{text}");
        assert!(text.contains("axs_queue_wait_us"), "{text}");
    }

    #[test]
    fn slow_log_records_over_threshold_only() {
        let m = EngineMetrics::new(Some(Duration::from_millis(10)));
        m.finish_request(1, "default", 0, true, 0, Duration::from_millis(1), None);
        assert!(m.slow_log().is_empty());
        m.finish_request(1, "default", 0, true, 0, Duration::from_millis(11), None);
        let log = m.slow_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("slow request"), "{}", log[0]);
        assert!(log[0].contains("op=Ping"), "{}", log[0]);
    }

    #[test]
    fn extended_entries_carry_percentiles() {
        let m = EngineMetrics::new(None);
        m.finish_request(5, "default", 0, true, 16, Duration::from_micros(100), None);
        let counters = vec![
            ("partial.hits".to_string(), 3u64),
            ("partial.misses".to_string(), 1u64),
        ];
        let entries = m.extended_entries(&counters);
        let get = |name: &str| {
            entries
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .1
        };
        assert_eq!(get("rq.point_read.count"), 1);
        assert!(get("rq.point_read.p99_us") >= 100);
        assert_eq!(get("obs.partial_hit_ratio_pct"), 75);
        assert!(get("rq.point_read.p50_us") <= get("rq.point_read.p99_us"));
        assert_eq!(get("rq.store.default.count"), 1);
    }
}
