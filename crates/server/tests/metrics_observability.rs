//! End-to-end observability tests: the `Metrics` opcode over a real
//! loopback connection, the partial-index hit/miss counters under a
//! cached-lookup workload, and the slow-request log's span trees.
//!
//! The instrumentation histograms (`obs.*`, `path.*`) belong to the
//! server whose traces fed them, so each test may assert exact counts on
//! its own server whatever else runs in this binary.

use axs_client::{Client, StatEntry};
use axs_core::StoreBuilder;
use axs_server::{Server, ServerConfig, ServerHandle};
use std::time::Duration;

fn start_in_memory(config: ServerConfig) -> ServerHandle {
    Server::start(StoreBuilder::new().build().unwrap(), config).unwrap()
}

fn connect(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
}

fn get(entries: &[StatEntry], name: &str) -> u64 {
    entries
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("metrics entry {name} missing"))
        .value
}

/// Every series the `Metrics` opcode documents must actually appear, for
/// every family / lookup path / instrumentation histogram, after a
/// workload that touches reads, queries, and writes.
#[test]
fn metrics_opcode_exposes_every_documented_series() {
    let handle = start_in_memory(ServerConfig::default());
    let mut c = connect(&handle);

    let (root, _) = c
        .bulk_load(r#"<orders><order id="1"><qty>5</qty></order></orders>"#)
        .unwrap();
    c.insert_last(root, r#"<order id="2"/>"#).unwrap();
    c.query("//order").unwrap();
    for _ in 0..10 {
        c.read_node(root).unwrap();
    }

    let (text, entries) = c.metrics().unwrap();

    // Prometheus text: counters mapped dot-to-underscore, histograms with
    // cumulative buckets, both labeled families.
    assert!(
        text.contains("# TYPE axs_server_requests counter"),
        "{text}"
    );
    assert!(
        text.contains("axs_request_duration_us_bucket{family=\"point_read\",le=\""),
        "{text}"
    );
    assert!(
        text.contains("axs_request_duration_us_bucket{family=\"point_read\",le=\"+Inf\"}"),
        "{text}"
    );
    assert!(
        text.contains("axs_lookup_duration_us_count{path=\"partial\"}"),
        "{text}"
    );
    assert!(text.contains("# TYPE axs_execute_us histogram"), "{text}");
    assert!(text.contains("axs_execute_us_sum"), "{text}");

    // Extended entries: the full documented surface.
    for family in ["point_read", "query", "scan", "write", "bulk", "control"] {
        for stat in ["count", "p50_us", "p90_us", "p99_us", "max_us"] {
            get(&entries, &format!("rq.{family}.{stat}"));
        }
    }
    for path in ["partial", "full", "range_scan"] {
        for stat in ["count", "p50_us", "p90_us", "p99_us", "max_us"] {
            get(&entries, &format!("path.{path}.{stat}"));
        }
    }
    for series in [
        "queue_wait_us",
        "lock_wait_us",
        "range_scan_tokens",
        "range_probe_us",
        "scan_end_us",
        "wal_append_us",
        "group_commit_wait_us",
        "execute_us",
        "commit_us",
    ] {
        for stat in ["count", "p50_us", "p90_us", "p99_us", "max_us"] {
            get(&entries, &format!("obs.{series}.{stat}"));
        }
    }
    get(&entries, "obs.partial_hit_ratio_pct");
    get(&entries, "obs.traces_retained");
    get(&entries, "obs.traces_dropped");
    get(&entries, "obs.slow_requests");
    // Every documented MVCC, writer and adaptive-decision counter must be
    // present (and therefore in the Prometheus text too — counters map
    // dot-to-underscore mechanically).
    for series in [
        "server.writes_parallel",
        "server.writes_in_flight",
        "server.writes_max_in_flight",
        "mvcc.publishes",
        "mvcc.lazy_materialized",
        "mvcc.current_epoch",
        "mvcc.epochs_live",
        "mvcc.oldest_pinned",
        "mvcc.retired_total",
        "mvcc.pins_active",
        "mvcc.pins_total",
        "mvcc.snapshot_age_us_p50",
        "mvcc.snapshot_age_us_p99",
        "mvcc.snapshot_age_us_max",
        "adapt.admits",
        "adapt.evictions",
        "adapt.skips",
        "adapt.grows",
        "adapt.shrinks",
        "adapt.holds",
        "adapt.log_seq",
    ] {
        get(&entries, series);
        assert!(
            text.contains(&format!("axs_{}", series.replace('.', "_"))),
            "{series} missing from Prometheus text"
        );
    }
    // The extended entries embed every plain Stats counter too, so one
    // round trip serves the dashboard.
    get(&entries, "server.requests");
    get(&entries, "store.inserts");

    // Sanity on the derived values for the family we exercised.
    assert!(get(&entries, "rq.point_read.count") >= 10);
    assert!(
        get(&entries, "rq.point_read.p50_us") <= get(&entries, "rq.point_read.p99_us"),
        "p50 <= p99"
    );
    assert!(
        get(&entries, "rq.point_read.p99_us") <= get(&entries, "rq.point_read.max_us"),
        "p99 <= max"
    );
    assert!(get(&entries, "obs.execute_us.count") > 0);
    assert!(get(&entries, "obs.queue_wait_us.count") > 0);

    handle.shutdown();
    handle.join().unwrap();
}

/// Prometheus exposition sanity for the request-latency histogram: for
/// every label set (both the aggregate `family="..."` series and the
/// per-store `family="...",store="..."` ones) the `le` buckets must be
/// cumulative — non-decreasing in emission order, closing with a `+Inf`
/// bucket equal to the series' `_count`.
#[test]
fn request_histogram_buckets_are_cumulative_per_store() {
    let handle = start_in_memory(ServerConfig::default());
    let mut c = connect(&handle);

    let (root, _) = c.bulk_load(r#"<doc><a/><b/></doc>"#).unwrap();
    for _ in 0..8 {
        c.read_node(root).unwrap();
    }
    c.query("//a").unwrap();

    let (text, _) = c.metrics().unwrap();

    // bucket lines per label set (minus the `le` label), in file order —
    // the emitter writes ascending bounds, so order of appearance is
    // bound order.
    let mut buckets: std::collections::BTreeMap<String, Vec<(String, u64)>> =
        std::collections::BTreeMap::new();
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("axs_request_duration_us_bucket{") {
            let (labels, value) = rest.split_once("} ").unwrap();
            let (others, le) = match labels.split_once("le=\"") {
                Some((prefix, le)) => (
                    prefix.trim_end_matches(',').to_string(),
                    le.trim_end_matches('"').to_string(),
                ),
                None => panic!("bucket line without le: {line}"),
            };
            buckets
                .entry(others)
                .or_default()
                .push((le, value.parse().unwrap()));
        } else if let Some(rest) = line.strip_prefix("axs_request_duration_us_count{") {
            let (labels, value) = rest.split_once("} ").unwrap();
            counts.insert(labels.to_string(), value.parse().unwrap());
        }
    }

    // The workload touched the default store: its labeled series exists.
    assert!(
        buckets.keys().any(|k| k.contains("store=\"default\"")),
        "per-store request histogram present: {:?}",
        buckets.keys().collect::<Vec<_>>()
    );
    for (labels, series) in &buckets {
        assert!(!series.is_empty(), "{labels}");
        let mut prev = 0u64;
        for (le, v) in series {
            assert!(
                *v >= prev,
                "bucket le=\"{le}\" not cumulative for {{{labels}}}: {v} < {prev}\n{text}"
            );
            prev = *v;
        }
        let (last_le, last_v) = series.last().unwrap();
        assert_eq!(last_le, "+Inf", "series closes with +Inf: {{{labels}}}");
        let count = counts
            .get(labels)
            .unwrap_or_else(|| panic!("no _count for {{{labels}}}"));
        assert_eq!(last_v, count, "+Inf bucket equals _count for {{{labels}}}");
    }

    handle.shutdown();
    handle.join().unwrap();
}

/// Re-reading the same nodes is the cached-lookup workload the paper's
/// partial index exists for: the hit counter (and the partial lookup-path
/// histogram) must move, and the server-computed hit ratio must follow.
#[test]
fn partial_index_counters_move_under_cached_lookups() {
    // The partial index serves the *locked* read path; MVCC snapshot
    // reads resolve ids inside the frozen snapshot instead. Turn MVCC
    // off so the cached lookups actually reach the partial index.
    let handle = start_in_memory(ServerConfig {
        mvcc: false,
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);

    let items: String = (0..32).map(|i| format!(r#"<item n="{i}"/>"#)).collect();
    let (root, _) = c.bulk_load(&format!("<doc>{items}</doc>")).unwrap();
    let kids = c.children(root).unwrap();

    let (_, before) = c.metrics().unwrap();
    let hits0 = get(&before, "partial.hits");
    let path0 = get(&before, "path.partial.count");

    // Hammer a small hot set so lookups resolve from the partial index.
    for _ in 0..20 {
        for (kid, _) in kids.iter().take(4) {
            c.read_node(*kid).unwrap();
        }
    }

    let (_, after) = c.metrics().unwrap();
    let hits1 = get(&after, "partial.hits");
    let misses1 = get(&after, "partial.misses");
    let path1 = get(&after, "path.partial.count");

    assert!(
        hits1 > hits0,
        "partial-index hits must move under cached lookups ({hits0} -> {hits1})"
    );
    assert!(
        path1 > path0,
        "partial lookup-path histogram must record the cached lookups ({path0} -> {path1})"
    );
    assert!(
        misses1 >= get(&before, "partial.misses"),
        "miss counter is monotone"
    );
    assert!(
        get(&after, "obs.partial_hit_ratio_pct") > 0,
        "hit ratio reflects the hot set"
    );

    handle.shutdown();
    handle.join().unwrap();
}

/// With the threshold at zero every request is "slow": the log must carry
/// full span trees whose events include the lock wait and the index path
/// taken — the acceptance shape for diagnosing a slow request.
#[test]
fn slow_log_emits_span_tree_with_lock_and_index_events() {
    // Lock-wait and index-path events are locked-path instrumentation;
    // snapshot reads take no locks and probe no index, so this test pins
    // the pre-MVCC read path.
    let handle = start_in_memory(ServerConfig {
        slow_request: Some(Duration::ZERO),
        mvcc: false,
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);

    let (root, _) = c.bulk_load(r#"<doc><a/><b/></doc>"#).unwrap();
    for _ in 0..5 {
        c.read_node(root).unwrap();
    }

    let log = handle.slow_log();
    assert!(!log.is_empty(), "threshold 0 makes every request slow");
    let tree = log
        .iter()
        .find(|l| l.contains("op=ReadNode"))
        .unwrap_or_else(|| panic!("no ReadNode slow entry in {log:#?}"));
    assert!(
        tree.contains("lock_wait"),
        "lock wait event present: {tree}"
    );
    assert!(tree.contains("mode="), "lock mode rendered: {tree}");
    assert!(
        tree.contains("lookup_partial")
            || tree.contains("lookup_full")
            || tree.contains("lookup_range_scan"),
        "index-path event present: {tree}"
    );
    assert!(tree.contains("execute"), "execute span present: {tree}");

    // The same traces are retained in the ring for programmatic access.
    let traces = handle.recent_traces();
    assert!(!traces.is_empty());
    assert!(
        traces.iter().any(|t| {
            t.has(axs_obs::EventKind::LockWait)
                && (t.has(axs_obs::EventKind::LookupPartial)
                    || t.has(axs_obs::EventKind::LookupFull)
                    || t.has(axs_obs::EventKind::LookupRangeScan))
        }),
        "a retained trace nests lock-wait and index-path events"
    );

    // Every slow request is also counted in the Metrics exposition.
    let (_, entries) = c.metrics().unwrap();
    assert!(get(&entries, "obs.slow_requests") > 0);

    handle.shutdown();
    handle.join().unwrap();
}

/// Instrumentation is per server: beside a traced server, a `trace: false`
/// one retains no traces and its layer histograms stay empty, while the
/// traced one's histograms count only its own requests.
#[test]
fn untraced_server_beside_a_traced_one_records_nothing() {
    let traced = start_in_memory(ServerConfig::default());
    let untraced = start_in_memory(ServerConfig {
        trace: false,
        ..ServerConfig::default()
    });
    let (mut t, mut u) = (connect(&traced), connect(&untraced));
    let (t_root, _) = t.bulk_load(r#"<doc><a/><b/></doc>"#).unwrap();
    let (u_root, _) = u.bulk_load(r#"<doc><a/><b/></doc>"#).unwrap();
    for _ in 0..20 {
        t.read_node(t_root).unwrap();
        u.read_node(u_root).unwrap();
    }

    assert!(
        untraced.recent_traces().is_empty(),
        "untraced server retains no traces"
    );
    let (_, entries) = u.metrics().unwrap();
    assert_eq!(get(&entries, "obs.queue_wait_us.count"), 0);
    assert_eq!(get(&entries, "obs.execute_us.count"), 0);
    // Load + 20 reads + this scrape, whose queue wait records on pickup.
    let (_, entries) = t.metrics().unwrap();
    assert_eq!(get(&entries, "obs.queue_wait_us.count"), 22);

    for handle in [traced, untraced] {
        handle.shutdown();
        handle.join().unwrap();
    }
}
