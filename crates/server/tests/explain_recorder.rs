//! End-to-end tests for the introspection surface: the `Explain` opcode's
//! plan traces across all three paper lookup paths, the adaptive-index
//! decision log it carries, and the `DumpRecorder` opcode / slow-request
//! feed of the always-on flight recorder.
//!
//! The flight recorder is process-wide, so its assertions are presence-
//! or delta-based — never "equals zero" — to stay independent of test
//! ordering within this binary. (The `--no-trace` recorder property is
//! asserted in its own binary, `no_trace_overhead.rs`, for the same
//! reason.)

use axs_catalog::{Catalog, CatalogConfig};
use axs_client::Client;
use axs_core::{IndexingPolicy, StoreBuilder};
use axs_server::{Server, ServerConfig, ServerHandle};
use std::time::Duration;

fn connect(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
}

/// A lazy (default-policy) store must explain the paper's laziness
/// arc over the wire: the first lookup of a node is a range scan that
/// admits the node into the partial index (visible as a decision-log
/// event in the report), and the second lookup of the same node is a
/// partial-index hit.
#[test]
fn explain_reports_scan_then_partial_on_a_lazy_store() {
    let handle = Server::start(
        StoreBuilder::new().build().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut c = connect(&handle);
    let (root, _) = c.bulk_load(r#"<doc><a><x/></a><b/><c/></doc>"#).unwrap();

    let first = c.explain_node(root).unwrap();
    assert_eq!(first.path, "scan", "first lookup is lazy: {first:?}");
    assert!(
        first.events.iter().any(|e| e.label == "lookup_range_scan"),
        "scan event in stages: {first:?}"
    );
    assert!(
        !first.decisions.is_empty(),
        "the scan memoizes: at least one decision-log event: {first:?}"
    );
    assert!(
        first
            .decisions
            .iter()
            .any(|d| d.contains("admit") && d.contains("memoized-lookup")),
        "admit decision with its reason: {:?}",
        first.decisions
    );
    assert!(first.result_count >= 1, "{first:?}");
    assert!(
        first.lock_mode.is_some(),
        "locked path reports a lock mode: {first:?}"
    );
    // Default config runs MVCC, and ReadNode is a snapshot-eligible
    // opcode — the report must say a normal execution would have read a
    // frozen snapshot instead of the live path explain exercises.
    assert!(first.would_snapshot, "{first:?}");

    let second = c.explain_node(root).unwrap();
    assert_eq!(
        second.path, "partial",
        "second lookup hits the partial index: {second:?}"
    );
    assert!(
        second.events.iter().any(|e| e.label == "lookup_partial"),
        "partial event in stages: {second:?}"
    );
    assert!(
        second.decisions.is_empty(),
        "a partial hit triggers no new decisions: {second:?}"
    );

    handle.shutdown();
    handle.join().unwrap();
}

/// A `FullIndex`-policy store answers node lookups from the eager full
/// index — the third path verdict.
#[test]
fn explain_reports_full_on_an_eager_store() {
    let store = StoreBuilder::new()
        .policy(IndexingPolicy::FullIndex {
            target_range_bytes: 8192,
        })
        .build()
        .unwrap();
    let handle = Server::start(store, ServerConfig::default()).unwrap();
    let mut c = connect(&handle);
    let (root, _) = c.bulk_load(r#"<doc><a/><b/></doc>"#).unwrap();

    let report = c.explain_node(root).unwrap();
    assert_eq!(report.path, "full", "{report:?}");
    assert!(
        report.events.iter().any(|e| e.label == "lookup_full"),
        "{report:?}"
    );

    handle.shutdown();
    handle.join().unwrap();
}

/// Query explains execute the query for real and report its honest
/// verdict: XPath evaluation is a whole-store token scan that probes no
/// per-node index, so the path is `none` while the stage list still
/// carries the execute span and the result count matches the match list.
#[test]
fn explain_query_reports_result_count_and_stages() {
    let handle = Server::start(
        StoreBuilder::new().build().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut c = connect(&handle);
    c.bulk_load(r#"<doc><item n="1"/><item n="2"/><item n="3"/></doc>"#)
        .unwrap();

    let matches = c.query("//item").unwrap();
    assert_eq!(matches.len(), 3);

    let report = c.explain_query("//item").unwrap();
    assert_eq!(report.result_count, 3, "{report:?}");
    assert_eq!(
        report.path, "none",
        "query path probes no index: {report:?}"
    );
    assert!(
        report.events.iter().any(|e| e.label == "execute"),
        "{report:?}"
    );
    assert!(report.would_snapshot, "{report:?}");

    // The rendered form is what the REPL and `axs explain` print.
    let text = report.render();
    assert!(text.contains("path=none"), "{text}");
    assert!(text.contains("results=3"), "{text}");
    assert!(text.contains("stages:"), "{text}");

    // Malformed targets surface as typed server errors, not hangs.
    assert!(c.explain_query("//unclosed[").is_err());

    handle.shutdown();
    handle.join().unwrap();
}

/// `DumpRecorder` returns the flight recorder's recent-request table
/// over the wire, and the recorder keeps feeding even for requests that
/// never produced a trace.
#[test]
fn dump_recorder_round_trips_recent_requests() {
    let handle = Server::start(
        StoreBuilder::new().build().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut c = connect(&handle);
    let (root, _) = c.bulk_load(r#"<doc><a/></doc>"#).unwrap();
    for _ in 0..4 {
        c.read_node(root).unwrap();
    }

    let before = axs_obs::recorder().dump_count();
    let dump = c.dump_recorder(0).unwrap();
    assert!(dump.contains("flight recorder dump (on-demand)"), "{dump}");
    assert!(dump.contains("op=ReadNode"), "{dump}");
    assert!(dump.contains("op=BulkLoad"), "{dump}");
    assert!(dump.contains("total="), "{dump}");
    // The server renders the same dump to its stderr; the in-process
    // counter proves it happened without capturing the stream.
    assert!(axs_obs::recorder().dump_count() > before);

    // A limit trims the table.
    let limited = c.dump_recorder(1).unwrap();
    let rows = limited.lines().filter(|l| l.contains("trace=")).count();
    assert_eq!(rows, 1, "{limited}");

    handle.shutdown();
    handle.join().unwrap();
}

/// With the slow threshold at zero every request is slow, and each slow
/// request must dump the flight recorder to stderr alongside its span
/// tree — the induced-slow-request acceptance check.
#[test]
fn slow_requests_dump_the_flight_recorder() {
    // MVCC snapshot reads resolve ids inside the frozen snapshot and
    // probe no live index; pin the locked read path so the recorder
    // entries carry real lookup-path verdicts.
    let handle = Server::start(
        StoreBuilder::new().build().unwrap(),
        ServerConfig {
            slow_request: Some(Duration::ZERO),
            mvcc: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = connect(&handle);

    let dumps_before = axs_obs::recorder().dump_count();
    let recorded_before = axs_obs::recorder().recorded();
    let (root, _) = c.bulk_load(r#"<doc><a/></doc>"#).unwrap();
    c.read_node(root).unwrap();

    assert!(
        !handle.slow_log().is_empty(),
        "threshold 0: every request is slow"
    );
    assert!(
        axs_obs::recorder().dump_count() > dumps_before,
        "each slow request dumps the recorder"
    );
    assert!(
        axs_obs::recorder().recorded() > recorded_before,
        "the recorder saw the requests themselves"
    );

    // The recorder's own view of the workload is queryable after the
    // fact: recent entries carry the lookup-path verdict codes.
    let recent = axs_obs::recorder().recent(axs_obs::RECORDER_CAPACITY);
    assert!(
        recent.iter().any(|r| axs_obs::path_label(r.path) != "none"),
        "a traced read carries its path verdict"
    );

    handle.shutdown();
    handle.join().unwrap();
}

/// Explain against a store that was created through the catalog (not
/// the adopted default) still round-trips — the opcode resolves the
/// frame's store id like any data opcode.
#[test]
fn explain_follows_the_connection_store_binding() {
    let catalog = Catalog::in_memory(CatalogConfig::default()).unwrap();
    let handle = Server::start_catalog(catalog, ServerConfig::default()).unwrap();
    let mut c = connect(&handle);
    c.create_store("aux").unwrap();
    c.use_store("aux").unwrap();
    let (root, _) = c.bulk_load(r#"<aux><n/></aux>"#).unwrap();

    let report = c.explain_node(root).unwrap();
    assert_eq!(report.path, "scan", "{report:?}");

    handle.shutdown();
    handle.join().unwrap();
}
