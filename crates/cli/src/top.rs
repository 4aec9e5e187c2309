//! The `axs top` dashboard: renders one screenful of live server health
//! from two successive `Metrics`-opcode snapshots (the delta gives rates).
//!
//! Pure rendering lives here so tests (and the CI smoke run's `--once`
//! mode) can exercise it without a terminal.

use axs_client::StatEntry;
use std::fmt::Write as _;
use std::time::Duration;

fn get(entries: &[StatEntry], name: &str) -> u64 {
    entries
        .iter()
        .find(|e| e.name == name)
        .map_or(0, |e| e.value)
}

/// Requests per second between two snapshots (0 without a predecessor).
fn rate(prev: Option<&[StatEntry]>, cur: &[StatEntry], name: &str, interval: Duration) -> f64 {
    let Some(prev) = prev else { return 0.0 };
    let secs = interval.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    get(cur, name).saturating_sub(get(prev, name)) as f64 / secs
}

/// Renders the dashboard text from the extended `Metrics` entries.
/// `prev` is the previous snapshot (for rates); `interval` the time
/// between the two.
pub fn render_dashboard(
    prev: Option<&[StatEntry]>,
    cur: &[StatEntry],
    interval: Duration,
    addr: &str,
) -> String {
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "axsd {addr} — {:.1} req/s   requests {}   reads in flight {} (max {})",
        rate(prev, cur, "server.requests", interval),
        get(cur, "server.requests"),
        get(cur, "server.reads_in_flight"),
        get(cur, "server.reads_max_in_flight"),
    );
    let _ = writeln!(
        out,
        "errors: busy {}  timeouts {}  protocol {}   slow requests {}",
        get(cur, "server.busy_rejections"),
        get(cur, "server.timeouts"),
        get(cur, "server.protocol_errors"),
        get(cur, "obs.slow_requests"),
    );
    let _ = writeln!(out, "\nlatency by opcode family (us)");
    let _ = writeln!(
        out,
        "  {:<12} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "family", "count", "p50", "p90", "p99", "max"
    );
    // The families the server reports, in its order (`rq.<family>.count`).
    let families = cur.iter().filter_map(|e| {
        let family = e.name.strip_prefix("rq.")?.strip_suffix(".count")?;
        (!family.starts_with("store.") && e.value > 0).then_some((family, e.value))
    });
    for (family, count) in families {
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>8} {:>8} {:>8} {:>10}",
            family,
            count,
            get(cur, &format!("rq.{family}.p50_us")),
            get(cur, &format!("rq.{family}.p90_us")),
            get(cur, &format!("rq.{family}.p99_us")),
            get(cur, &format!("rq.{family}.max_us")),
        );
    }
    // Per-store panel (multi-store catalogs): `rq.store.<name>.*` entries
    // carry one merged latency summary per store, `cat.*` the catalog's
    // own gauges. A single-store server shows just its `default` row.
    let stores: Vec<&str> = {
        let mut names: Vec<&str> = cur
            .iter()
            .filter_map(|e| {
                e.name
                    .strip_prefix("rq.store.")
                    .and_then(|rest| rest.strip_suffix(".count"))
            })
            .collect();
        names.sort_unstable();
        names
    };
    if !stores.is_empty() {
        let _ = writeln!(
            out,
            "\nstores: {} known, {} open   lazy opens {}  evictions {}  created {}  dropped {}",
            get(cur, "cat.stores"),
            get(cur, "cat.open_stores"),
            get(cur, "cat.lazy_opens"),
            get(cur, "cat.evictions"),
            get(cur, "cat.creates"),
            get(cur, "cat.drops"),
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>9} {:>8} {:>8} {:>8} {:>10}",
            "store", "count", "req/s", "p50", "p90", "p99", "max"
        );
        for store in stores {
            let k = |suffix: &str| format!("rq.store.{store}.{suffix}");
            let _ = writeln!(
                out,
                "  {:<16} {:>10} {:>9.1} {:>8} {:>8} {:>8} {:>10}",
                store,
                get(cur, &k("count")),
                rate(prev, cur, &k("count"), interval),
                get(cur, &k("p50_us")),
                get(cur, &k("p90_us")),
                get(cur, &k("p99_us")),
                get(cur, &k("max_us")),
            );
        }
    }
    let _ = writeln!(
        out,
        "\nlookup paths: partial hit ratio {}%   p99 partial {}us / full {}us / range_scan {}us",
        get(cur, "obs.partial_hit_ratio_pct"),
        get(cur, "path.partial.p99_us"),
        get(cur, "path.full.p99_us"),
        get(cur, "path.range_scan.p99_us"),
    );
    // MVCC panel: how old the snapshots readers run against are, and how
    // many epochs the pins keep alive.
    let _ = writeln!(
        out,
        "mvcc: epoch {} ({} live, oldest pinned {})   pins active {} (total {})   snapshot age p50 {}us / p99 {}us",
        get(cur, "mvcc.publishes"),
        get(cur, "mvcc.epochs_live"),
        get(cur, "mvcc.oldest_pinned"),
        get(cur, "mvcc.pins_active"),
        get(cur, "mvcc.pins_total"),
        get(cur, "mvcc.snapshot_age_us_p50"),
        get(cur, "mvcc.snapshot_age_us_p99"),
    );
    // Adaptive-index decision panel: the laziness at work — admissions
    // from first-touch lookups, evictions under budget pressure, window
    // verdicts from the read/write-mix controller.
    let _ = writeln!(
        out,
        "adaptive index: admits {} ({:.1}/s)   evictions {}   skips {}   windows grow/shrink/hold {}/{}/{}",
        get(cur, "adapt.admits"),
        rate(prev, cur, "adapt.admits", interval),
        get(cur, "adapt.evictions"),
        get(cur, "adapt.skips"),
        get(cur, "adapt.grows"),
        get(cur, "adapt.shrinks"),
        get(cur, "adapt.holds"),
    );
    // Writers panel: how often writes overlap (one mutating or queued on
    // the store guard while another waits on the group fsync).
    let _ = writeln!(
        out,
        "writers: parallel {}   in flight {} (max {})",
        get(cur, "server.writes_parallel"),
        get(cur, "server.writes_in_flight"),
        get(cur, "server.writes_max_in_flight"),
    );
    let _ = writeln!(
        out,
        "waits p99: queue {}us   group-commit {}us   wal append {}us",
        get(cur, "obs.queue_wait_us.p99_us"),
        get(cur, "obs.group_commit_wait_us.p99_us"),
        get(cur, "obs.wal_append_us.p99_us"),
    );
    let commits = get(cur, "wal.group_commits");
    let syncs = get(cur, "wal.group_syncs");
    let mean_batch = if syncs == 0 {
        0.0
    } else {
        commits as f64 / syncs as f64
    };
    let _ = writeln!(
        out,
        "group commit: {commits} commits / {syncs} fsyncs (mean batch {mean_batch:.1})   traces retained {}",
        get(cur, "obs.traces_retained"),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(name: &str, value: u64) -> StatEntry {
        StatEntry {
            name: name.to_string(),
            value,
        }
    }

    #[test]
    fn dashboard_renders_core_panels() {
        let cur = vec![
            e("server.requests", 300),
            e("server.reads_in_flight", 2),
            e("server.reads_max_in_flight", 5),
            e("rq.point_read.count", 100),
            e("rq.point_read.p50_us", 10),
            e("rq.point_read.p90_us", 20),
            e("rq.point_read.p99_us", 40),
            e("rq.point_read.max_us", 77),
            e("rq.control.count", 0),
            e("obs.partial_hit_ratio_pct", 93),
            e("wal.group_commits", 10),
            e("wal.group_syncs", 4),
        ];
        let prev = vec![e("server.requests", 100)];
        let text = render_dashboard(Some(&prev), &cur, Duration::from_secs(2), "1.2.3.4:9");
        assert!(text.contains("100.0 req/s"), "{text}");
        assert!(text.contains("point_read"), "{text}");
        assert!(text.contains("hit ratio 93%"), "{text}");
        assert!(text.contains("mean batch 2.5"), "{text}");
        assert!(text.contains("reads in flight 2 (max 5)"), "{text}");
        // Empty families are suppressed.
        assert!(!text.contains("control"), "{text}");
    }

    #[test]
    fn dashboard_shows_per_store_panel() {
        let cur = vec![
            e("cat.stores", 3),
            e("cat.open_stores", 2),
            e("cat.lazy_opens", 4),
            e("rq.store.default.count", 120),
            e("rq.store.default.p50_us", 8),
            e("rq.store.default.p99_us", 90),
            e("rq.store.orders.count", 40),
            e("rq.store.orders.p99_us", 55),
        ];
        let prev = vec![e("rq.store.orders.count", 20)];
        let text = render_dashboard(Some(&prev), &cur, Duration::from_secs(2), "x");
        assert!(text.contains("stores: 3 known, 2 open"), "{text}");
        assert!(text.contains("default"), "{text}");
        assert!(text.contains("orders"), "{text}");
        assert!(text.contains("10.0"), "{text}"); // orders req/s over the delta
    }

    #[test]
    fn dashboard_shows_mvcc_and_adaptive_panels() {
        let cur = vec![
            e("mvcc.publishes", 17),
            e("mvcc.epochs_live", 3),
            e("mvcc.oldest_pinned", 15),
            e("mvcc.pins_active", 2),
            e("mvcc.pins_total", 400),
            e("mvcc.snapshot_age_us_p50", 12),
            e("mvcc.snapshot_age_us_p99", 180),
            e("adapt.admits", 64),
            e("adapt.evictions", 8),
            e("adapt.skips", 1),
            e("adapt.grows", 2),
            e("adapt.shrinks", 1),
            e("adapt.holds", 9),
        ];
        let prev = vec![e("adapt.admits", 44)];
        let text = render_dashboard(Some(&prev), &cur, Duration::from_secs(2), "x");
        assert!(
            text.contains("mvcc: epoch 17 (3 live, oldest pinned 15)"),
            "{text}"
        );
        assert!(text.contains("pins active 2 (total 400)"), "{text}");
        assert!(text.contains("snapshot age p50 12us / p99 180us"), "{text}");
        assert!(text.contains("admits 64 (10.0/s)"), "{text}");
        assert!(text.contains("windows grow/shrink/hold 2/1/9"), "{text}");
    }

    #[test]
    fn dashboard_shows_writers_panel() {
        let cur = vec![
            e("server.writes_parallel", 12),
            e("server.writes_in_flight", 2),
            e("server.writes_max_in_flight", 4),
        ];
        let text = render_dashboard(None, &cur, Duration::from_secs(1), "x");
        assert!(
            text.contains("writers: parallel 12   in flight 2 (max 4)"),
            "{text}"
        );
    }

    #[test]
    fn first_snapshot_has_zero_rate() {
        let cur = vec![e("server.requests", 50)];
        let text = render_dashboard(None, &cur, Duration::from_secs(1), "x");
        assert!(text.contains("0.0 req/s"), "{text}");
    }
}
