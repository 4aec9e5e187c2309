//! The `--no-trace` contract: with tracing off, requests record no
//! trace events at all — yet the flight recorder stays on (it is built
//! to be cheap enough to feed untraced), and `Explain` still works by
//! opening a trace for just its inner execution.
//!
//! This lives in its own integration binary because the flight recorder
//! is process-wide: a sibling test's requests would interleave with the
//! untraced summaries asserted here.

use axs_client::Client;
use axs_core::StoreBuilder;
use axs_server::{Server, ServerConfig};
use std::time::Duration;

#[test]
fn no_trace_records_nothing_but_recorder_and_explain_still_work() {
    let handle = Server::start(
        StoreBuilder::new().build().unwrap(),
        ServerConfig {
            trace: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let recorded_before = axs_obs::recorder().recorded();
    let (root, _) = c.bulk_load(r#"<doc><a/><b/></doc>"#).unwrap();
    for _ in 0..5 {
        c.read_node(root).unwrap();
    }

    // Zero tracing overhead: not a single span tree was retained.
    assert!(
        handle.recent_traces().is_empty(),
        "tracing off retains no traces"
    );
    // The always-on recorder still summarized every request — with no
    // trace to derive from, entries carry trace id 0 and path `none`.
    assert!(axs_obs::recorder().recorded() >= recorded_before + 6);
    let recent = axs_obs::recorder().recent(8);
    assert!(!recent.is_empty());
    assert!(recent.iter().all(|r| r.trace_id == 0));
    assert!(recent.iter().all(|r| axs_obs::path_label(r.path) == "none"));

    // Explain traces its inner execution only: the report is fully
    // populated, and later reads are still untraced.
    let report = c.explain_node(root).unwrap();
    assert_eq!(report.path, "scan", "{report:?}");
    assert!(!report.events.is_empty(), "{report:?}");
    c.read_node(root).unwrap();
    assert!(
        handle.recent_traces().is_empty(),
        "reads after explain stay untraced"
    );
    let (_, entries) = c.metrics().unwrap();
    let waits = entries.iter().find(|e| e.name == "obs.queue_wait_us.count");
    assert_eq!(waits.map(|e| e.value), Some(0));

    // The decision log obeys the same gate: counters moved (always-on
    // atomics) but only the explain window's events entered the ring.
    let dump = c.dump_recorder(0).unwrap();
    assert!(dump.contains("op=ReadNode"), "{dump}");

    handle.shutdown();
    handle.join().unwrap();
}
