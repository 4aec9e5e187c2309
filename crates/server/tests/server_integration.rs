//! End-to-end tests: a real `axsd` listener on a loopback socket, driven
//! by real `axs-client` connections.
//!
//! The centerpiece is the mixed-workload test: 16 client threads doing
//! XPath reads and range inserts concurrently, asserted equal to a
//! single-threaded shadow store replaying the same operations.

use axs_client::{Client, ClientError};
use axs_core::{ReadView, StoreBuilder};
use axs_server::{Server, ServerConfig, ServerHandle};
use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
use std::time::Duration;

fn start_in_memory(config: ServerConfig) -> ServerHandle {
    Server::start(StoreBuilder::new().build().unwrap(), config).unwrap()
}

fn connect(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
}

/// The value of stat `name` in a `Stats` reply.
fn stat(stats: &[axs_client::StatEntry], name: &str) -> u64 {
    stats
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("stat {name} missing"))
        .value
}

#[test]
fn loopback_full_surface() {
    let handle = start_in_memory(ServerConfig::default());
    let mut c = connect(&handle);

    c.ping().unwrap();

    // Bulkload, query, insert, stats — the acceptance-criteria quartet.
    let (root, _) = c
        .bulk_load(r#"<orders><order id="1"><qty>5</qty></order></orders>"#)
        .unwrap();
    assert_eq!(root, 1);

    let matches = c.query("/orders/order").unwrap();
    assert_eq!(matches.len(), 1);
    assert!(matches[0].xml.contains(r#"<order id="1">"#));
    assert_eq!(matches[0].id, Some(2));

    let (start, end) = c
        .insert_last(root, r#"<order id="2"><qty>9</qty></order>"#)
        .unwrap();
    assert!(start <= end && start > 0);
    assert_eq!(c.query("//order").unwrap().len(), 2);
    // A path ending in an attribute step returns the attribute items.
    let ids: Vec<String> = c
        .query("/orders/order/@id")
        .unwrap()
        .into_iter()
        .map(|m| m.xml)
        .collect();
    assert_eq!(ids, [r#"id="1""#, r#"id="2""#]);

    let stats = c.stats().unwrap();
    let get = |name: &str| stat(&stats, name);
    assert!(get("store.inserts") >= 2, "bulkload + insert recorded");
    assert!(get("server.requests") >= 4);
    assert!(get("server.writes_exclusive") >= 2, "writes took the guard");

    // Navigation.
    assert_eq!(c.parent(2).unwrap(), Some(1));
    assert_eq!(c.parent(1).unwrap(), None);
    let kids = c.children(root).unwrap();
    assert_eq!(kids.len(), 2);
    assert_eq!(kids[0].1, "order");
    let qty = c.query("/orders/order/qty").unwrap()[0].id.unwrap();
    assert_eq!(c.string_value(qty).unwrap(), "5");
    assert!(c.read_node(2).unwrap().starts_with(r#"<order id="1">"#));

    // FLWOR.
    let rows = c
        .flwor(r#"for $o in /orders/order where $o/qty > 6 return <hot id="{ $o/@id }"/>"#)
        .unwrap();
    assert_eq!(rows, vec![r#"<hot id="2"/>"#.to_string()]);

    // Mutations: replace + delete round-trip through read_all.
    let (rid, _) = c.replace(2, r#"<order id="1b"/>"#).unwrap();
    c.delete(rid).unwrap();
    let all = c.read_all().unwrap();
    assert!(
        all.contains(r#"<order id="2">"#) && !all.contains("1b"),
        "{all}"
    );

    // Inspection + maintenance.
    assert!(c.report().unwrap().contains("blocks"));
    assert!(c.ranges().unwrap().contains("RangeId"));
    let (_, before, after) = c.compact(8192).unwrap();
    assert!(after <= before);
    c.flush().unwrap();
    assert!(c.verify().unwrap().starts_with("ok:"));

    // Errors surface as typed codes, and the session survives them.
    let err = c.read_node(9999).unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err}");
    let err = c.query("///").unwrap_err();
    assert!(
        matches!(&err, ClientError::Server { code, .. } if format!("{code}") == "parse"),
        "{err}"
    );
    c.ping().unwrap();

    handle.shutdown();
    handle.join().unwrap();
}

/// 16 concurrent clients: each owns one subtree and does range inserts
/// into it, interleaved with XPath reads over the shared document. The
/// final document must be byte-identical to a single-threaded shadow
/// store replaying the same operations.
#[test]
fn concurrent_mixed_workload_matches_shadow_store() {
    const THREADS: usize = 16;
    const INSERTS: usize = 8;

    let handle = start_in_memory(ServerConfig {
        workers: 8,
        queue_depth: 256,
        ..ServerConfig::default()
    });

    let seed: String = {
        let subtrees: String = (0..THREADS).map(|t| format!("<t{t}/>")).collect();
        format!("<root>{subtrees}</root>")
    };
    let mut setup = connect(&handle);
    let (root, _) = setup.bulk_load(&seed).unwrap();
    let kids = setup.children(root).unwrap();
    assert_eq!(kids.len(), THREADS);

    std::thread::scope(|scope| {
        for (t, (subtree, name)) in kids.clone().into_iter().enumerate() {
            let addr = handle.local_addr();
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                assert_eq!(name, format!("t{t}"));
                for j in 0..INSERTS {
                    // Busy is a legal answer under load; retry.
                    loop {
                        match c.insert_last(subtree, &format!(r#"<e t="{t}" j="{j}"/>"#)) {
                            Ok(_) => break,
                            Err(e) if e.is_busy() => continue,
                            Err(e) => panic!("insert failed: {e}"),
                        }
                    }
                    // Interleaved reads: every snapshot must be well-formed
                    // and this thread's subtree must show all inserts so far.
                    let xml = loop {
                        match c.read_node(subtree) {
                            Ok(xml) => break xml,
                            Err(e) if e.is_busy() => continue,
                            Err(e) => panic!("read failed: {e}"),
                        }
                    };
                    assert_eq!(xml.matches("<e ").count(), j + 1, "{xml}");
                    let matches = loop {
                        match c.query(&format!("/root/t{t}/e")) {
                            Ok(m) => break m,
                            Err(e) if e.is_busy() => continue,
                            Err(e) => panic!("query failed: {e}"),
                        }
                    };
                    assert_eq!(matches.len(), j + 1);
                }
            });
        }
    });

    // Shadow store: the same logical operations, single-threaded. Node ids
    // differ (allocation order depends on interleaving) but the document
    // must not.
    let mut shadow = StoreBuilder::new().build().unwrap();
    let opts = ParseOptions::data_centric();
    shadow
        .bulk_insert(parse_fragment(&seed, opts).unwrap())
        .unwrap();
    let shadow_kids = shadow.children_of(axs_xdm::NodeId(root)).unwrap();
    for (t, subtree) in shadow_kids.into_iter().enumerate() {
        for j in 0..INSERTS {
            shadow
                .insert_into_last(
                    subtree,
                    parse_fragment(&format!(r#"<e t="{t}" j="{j}"/>"#), opts).unwrap(),
                )
                .unwrap();
        }
    }
    let shadow_xml = serialize(&shadow.read_all().unwrap(), &SerializeOptions::default()).unwrap();

    let live_xml = setup.read_all().unwrap();
    assert_eq!(live_xml, shadow_xml);
    assert_eq!(
        setup.query("//e").unwrap().len(),
        THREADS * INSERTS,
        "every insert visible over TCP"
    );
    assert!(setup.verify().unwrap().starts_with("ok:"));

    handle.shutdown();
    handle.join().unwrap();
}

/// Holds the one worker and the one queue slot of a [`saturable`] server
/// with 600 ms sleeps from two connections, and runs `probe` on a third
/// while they hold (it starts ~300 ms in, so it has ~300 ms).
fn with_saturated_pool(handle: &ServerHandle, probe: impl FnOnce(&mut Client)) {
    std::thread::scope(|scope| {
        // Occupy the single worker, then fill the one queue slot.
        for _ in 0..2 {
            let addr = handle.local_addr();
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.sleep(600).unwrap();
            });
            std::thread::sleep(Duration::from_millis(150));
        }
        let mut c = connect(handle);
        c.set_timeout(Some(Duration::from_secs(5))).unwrap();
        probe(&mut c);
    });
}

fn saturable(mvcc: bool) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_depth: 1,
        debug_sleep: true,
        mvcc,
        ..ServerConfig::default()
    }
}

/// A full worker queue answers `Busy` instead of hanging the caller.
#[test]
fn backpressure_returns_busy_not_hang() {
    let handle = start_in_memory(saturable(true));

    // A pooled request must come back Busy, promptly.
    with_saturated_pool(&handle, |c| {
        let err = c.stats().unwrap_err();
        assert!(err.is_busy(), "expected Busy, got {err}");
    });

    // After the sleepers drain, the server serves normally again.
    let mut c = connect(&handle);
    c.stats().unwrap();
    assert!(
        handle
            .stats()
            .busy_rejections
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    handle.shutdown();
    handle.join().unwrap();
}

/// `Ping` and the snapshot point reads run on the session
/// thread, not the pool: with every worker and queue slot held, they still
/// answer correctly and promptly, while a pooled opcode gets `Busy`.
#[test]
fn saturated_pool_still_answers_snapshot_reads() {
    let handle = start_in_memory(saturable(true));
    let mut setup = connect(&handle);
    let (root, _) = setup.bulk_load("<a><b>x</b>y<c/></a>").unwrap();
    let (b, c_node) = (root + 1, root + 4);

    with_saturated_pool(&handle, |c| {
        fn prompt<T>(what: &str, call: impl FnOnce() -> T) -> T {
            let started = std::time::Instant::now();
            let out = call();
            let took = started.elapsed();
            assert!(took < Duration::from_millis(100), "{what} took {took:?}");
            out
        }
        prompt("ping", || c.ping()).unwrap();
        assert_eq!(prompt("read_node", || c.read_node(b)).unwrap(), "<b>x</b>");
        assert_eq!(
            prompt("string_value", || c.string_value(root)).unwrap(),
            "xy"
        );
        assert_eq!(
            prompt("children", || c.children(root)).unwrap(),
            [
                (b, "b".to_string()),
                (root + 3, String::new()),
                (c_node, "c".to_string())
            ]
        );
        assert_eq!(prompt("parent", || c.parent(c_node)).unwrap(), Some(root));

        let err = c.stats().unwrap_err();
        assert!(err.is_busy(), "stats is pooled: expected Busy, got {err}");
    });

    handle.shutdown();
    handle.join().unwrap();
}

/// With MVCC off the point reads borrow the live store and can wait on a
/// writer, so they stay on the pool and a saturated pool answers them
/// `Busy`.
#[test]
fn live_store_point_reads_stay_pooled() {
    let handle = start_in_memory(saturable(false));
    let mut setup = connect(&handle);
    let (root, _) = setup.bulk_load("<a><b/></a>").unwrap();

    with_saturated_pool(&handle, |c| {
        c.ping().unwrap();
        let err = c.read_node(root).unwrap_err();
        assert!(err.is_busy(), "expected Busy, got {err}");
    });

    handle.shutdown();
    handle.join().unwrap();
}

/// A request that outlives the request window gets a typed `Timeout` and
/// the server then closes the connection: the timed-out worker may still
/// be executing, so a retry must reconnect instead of racing it on the
/// same session.
#[test]
fn slow_requests_get_typed_timeout_then_disconnect() {
    let handle = start_in_memory(ServerConfig {
        workers: 1,
        request_timeout: Duration::from_millis(100),
        debug_sleep: true,
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);
    let err = c.sleep(500).unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(format!("{code}"), "timeout"),
        other => panic!("expected server timeout, got {other}"),
    }
    // The server closed the connection after answering Timeout, so the
    // next request on the same client fails at the transport...
    match c.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected closed connection after timeout, got {other:?}"),
    }
    // ...and the Io error poisons the client: further calls fail fast.
    assert!(c.is_poisoned());
    assert!(matches!(c.ping(), Err(ClientError::Poisoned)));

    // Wait out the sleeper so the worker is free; a fresh connection works.
    std::thread::sleep(Duration::from_millis(600));
    let mut fresh = connect(&handle);
    fresh.ping().unwrap();

    handle.shutdown();
    handle.join().unwrap();
}

/// A frame trickled in with a stall far longer than the server's 100 ms
/// read-poll tick must not desynchronize the session: the server's
/// resumable decoder keeps the partial frame across ticks instead of
/// reinterpreting mid-frame bytes as a fresh length prefix.
#[test]
fn mid_frame_stall_does_not_desync_session() {
    use axs_client::wire;
    use std::io::Write as _;

    let handle = start_in_memory(ServerConfig::default());
    let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    wire::write_hello(&mut sock).unwrap();
    wire::read_hello(&mut sock).unwrap();

    let mut bytes = Vec::new();
    wire::write_frame(
        &mut bytes,
        &wire::Frame::request(1, wire::OpCode::Ping, Vec::new()),
    )
    .unwrap();
    // Send the length prefix plus part of the header, stall past several
    // poll ticks, then send the rest.
    sock.write_all(&bytes[..7]).unwrap();
    sock.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    sock.write_all(&bytes[7..]).unwrap();
    sock.flush().unwrap();

    let resp = wire::read_frame(&mut sock).unwrap();
    assert_eq!(resp.req_id, 1);
    assert_eq!(wire::Status::from_u8(resp.status), Some(wire::Status::Done));

    // The session is still framed: a normally-sent request round-trips.
    wire::write_frame(
        &mut sock,
        &wire::Frame::request(2, wire::OpCode::Ping, Vec::new()),
    )
    .unwrap();
    let resp = wire::read_frame(&mut sock).unwrap();
    assert_eq!(resp.req_id, 2);

    handle.shutdown();
    handle.join().unwrap();
}

/// Connections beyond the cap receive a typed `Busy` at the handshake.
#[test]
fn connection_cap_rejects_with_busy() {
    let handle = start_in_memory(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let mut first = connect(&handle);
    first.ping().unwrap();

    let mut second = Client::connect(handle.local_addr()).unwrap();
    second.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let err = second.ping().unwrap_err();
    assert!(err.is_busy(), "expected Busy at the cap, got {err}");

    // The admitted session is unaffected, and closing it frees the slot.
    first.ping().unwrap();
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = Client::connect(handle.local_addr()).unwrap();
        retry.set_timeout(Some(Duration::from_secs(5))).unwrap();
        match retry.ping() {
            Ok(()) => break,
            Err(e) if e.is_busy() && std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }

    handle.shutdown();
    handle.join().unwrap();
}

/// The `Shutdown` opcode flushes through the WAL: a directory-backed
/// store reopens clean with every acknowledged write present.
#[test]
fn graceful_shutdown_persists_through_wal() {
    let dir = std::env::temp_dir().join(format!("axsd-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let store = StoreBuilder::new().directory(&dir).build().unwrap();
    let handle = Server::start(store, ServerConfig::default()).unwrap();
    let mut c = connect(&handle);
    let (root, _) = c.bulk_load("<ledger><seed/></ledger>").unwrap();
    for i in 0..10 {
        c.insert_last(root, &format!(r#"<entry n="{i}"/>"#))
            .unwrap();
    }
    // No explicit flush: shutdown itself must make the writes durable.
    c.shutdown_server().unwrap();
    handle.join().unwrap();

    let reopened = StoreBuilder::new().directory(&dir).open().unwrap();
    reopened.check_invariants().unwrap();
    let xml = serialize(&reopened.read_all().unwrap(), &SerializeOptions::default()).unwrap();
    for i in 0..10 {
        assert!(xml.contains(&format!(r#"<entry n="{i}"/>"#)), "{xml}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// After shutdown is requested, new connections cannot start requests.
#[test]
fn requests_after_shutdown_are_rejected() {
    let handle = start_in_memory(ServerConfig::default());
    let mut c = connect(&handle);
    c.ping().unwrap();
    handle.shutdown();
    // Either the connection is already closed (Io) or the server answers
    // with a typed ShuttingDown error; both are acceptable, hanging is not.
    match c.ping() {
        Err(ClientError::Server { code, .. }) => assert_eq!(format!("{code}"), "shutting-down"),
        Err(ClientError::Io(_)) => {}
        Ok(()) => panic!("request accepted after shutdown"),
        Err(other) => panic!("unexpected error: {other}"),
    }
    handle.join().unwrap();
}

/// Data reads take the MVCC snapshot path, counted by
/// `server.reads_snapshot`, and read-your-writes holds (an acknowledged
/// write's epoch is published before the response, so the next read pins
/// it or something newer).
#[test]
fn snapshot_reads_see_acknowledged_writes() {
    let handle = start_in_memory(ServerConfig::default());
    let mut c = connect(&handle);

    let (root, _) = c.bulk_load(r#"<doc><a>1</a></doc>"#).unwrap();

    let before = c.stats().unwrap();
    let snap0 = stat(&before, "server.reads_snapshot");

    // Read-your-writes across the snapshot path: every acknowledged
    // insert is visible to the very next read.
    for i in 0..8 {
        let (id, _) = c.insert_last(root, &format!(r#"<e n="{i}"/>"#)).unwrap();
        let xml = c.read_node(id).unwrap();
        assert!(xml.contains(&format!(r#"n="{i}""#)), "{xml}");
        assert_eq!(c.parent(id).unwrap(), Some(root));
    }
    assert_eq!(c.query("//e").unwrap().len(), 8);

    let after = c.stats().unwrap();
    let reads = 8 * 2 + 1; // read_node + parent per round, plus the query
    assert_eq!(
        stat(&after, "server.reads_snapshot") - snap0,
        reads,
        "every data read took the snapshot path"
    );
    assert!(stat(&after, "mvcc.publishes") >= 9, "one epoch per commit");
    assert_eq!(
        stat(&after, "mvcc.pins_active"),
        0,
        "pins are request-scoped"
    );

    // The live-store baseline still answers identically when MVCC is off.
    drop(c);
    handle.shutdown();
    handle.join().unwrap();
    let live = Server::start(
        StoreBuilder::new().build().unwrap(),
        ServerConfig {
            mvcc: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = connect(&live);
    let (root, _) = c.bulk_load(r#"<doc><a>1</a></doc>"#).unwrap();
    let (id, _) = c.insert_last(root, r#"<e n="0"/>"#).unwrap();
    assert!(c.read_node(id).unwrap().contains(r#"n="0""#));
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "server.reads_snapshot"), 0);
    live.shutdown();
    live.join().unwrap();
}

/// Writers on one subtree share fsync batches. The store's write guard
/// orders their mutations, and each writer waits for its group fsync only
/// after releasing the guard, so the next writer on the same node commits
/// into the open batch instead of waiting out the previous fsync. Every
/// acknowledged insert counts one `server.commit_waits`; a failed insert
/// commits nothing and counts nothing.
#[test]
fn same_subtree_writers_share_an_fsync() {
    const WRITERS: usize = 4;
    const EACH: usize = 8;
    let dir = std::env::temp_dir().join(format!("axsd-hot-subtree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreBuilder::new().directory(&dir).build().unwrap();
    // A window far longer than a mutation makes batching independent of
    // disk speed. The server applies its window to the store it adopts.
    let handle = Server::start(
        store,
        ServerConfig {
            commit_window: Duration::from_millis(20),
            slow_request: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = connect(&handle);
    let (root, _) = c.bulk_load("<root/>").unwrap();
    let counters = |c: &mut Client| {
        let stats = c.stats().unwrap();
        [
            "wal.group_commits",
            "wal.group_syncs",
            "mvcc.publishes",
            "server.commit_waits",
        ]
        .map(|n| stat(&stats, n))
    };
    let [commits0, syncs0, _, waits0] = counters(&mut c);

    // Every writer connects before any inserts, so they contend from the
    // first commit on.
    let start = std::sync::Barrier::new(WRITERS);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (handle, start) = (&handle, &start);
            scope.spawn(move || {
                let mut c = connect(handle);
                start.wait();
                for i in 0..EACH {
                    c.insert_last(root, &format!(r#"<w t="{w}" i="{i}"/>"#))
                        .unwrap();
                }
            });
        }
    });

    let [commits, syncs, _, waits] = counters(&mut c);
    let (commits, syncs) = (commits - commits0, syncs - syncs0);
    assert_eq!(commits, (WRITERS * EACH) as u64, "one commit per insert");
    assert_eq!(
        waits - waits0,
        commits,
        "one commit wait per acknowledged insert"
    );
    assert!(
        syncs < commits,
        "same-subtree writers shared no fsync: {syncs} syncs for {commits} commits"
    );
    let mut seen: Vec<String> = c
        .query("/root/w")
        .unwrap()
        .into_iter()
        .map(|m| m.xml)
        .collect();
    seen.sort();
    let mut want: Vec<String> = (0..WRITERS)
        .flat_map(|w| (0..EACH).map(move |i| format!(r#"<w t="{w}" i="{i}"/>"#)))
        .collect();
    want.sort();
    assert_eq!(seen, want, "every acknowledged insert is present");

    // A write that fails leaves no commit, no sync, no epoch and no wait.
    let before = counters(&mut c);
    let err = c.insert_last(999_999, "<w/>").unwrap_err();
    assert!(
        matches!(&err, ClientError::Server { code, .. } if format!("{code}") == "store"),
        "{err}"
    );
    assert_eq!(counters(&mut c), before, "a failed insert moved a counter");

    drop(c);
    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ReadAll` streams 64 KiB frames straight from the pinned snapshot's
/// ranges: documents one byte either side of a frame, with a multi-byte
/// character straddling the boundary, arrive byte-identical.
#[test]
fn read_all_streams_across_a_frame_boundary() {
    const CHUNK: usize = 64 * 1024;
    // A leading text run, 1 KiB `<t>` elements, a trailing text run: the
    // lead puts the boundary mid-text, where `€` is written across it.
    fn doc(len: usize) -> String {
        let mut bytes = vec![b'a'; 512];
        while bytes.len() + 1024 <= len {
            bytes.extend_from_slice(b"<t>");
            bytes.resize(bytes.len() + 1017, b'a');
            bytes.extend_from_slice(b"</t>");
        }
        bytes.resize(len, b'a');
        if len > CHUNK {
            let at = (CHUNK - 1).min(len - 3);
            bytes[at..at + 3].copy_from_slice("€".as_bytes());
        }
        String::from_utf8(bytes).unwrap()
    }
    for len in [CHUNK - 1, CHUNK + 1] {
        let handle = start_in_memory(ServerConfig::default());
        let mut c = connect(&handle);
        let xml = doc(len);
        c.bulk_load(&xml).unwrap();
        assert_eq!(c.read_all().unwrap(), xml, "{len} bytes");
        handle.shutdown();
    }
}

/// A response one frame cannot carry — `ReadNode` of a subtree that
/// serializes past `FRAME_MAX`, or a `Query` or `Flwor` row that does —
/// is answered with a typed `TooLarge` error, and the connection stays
/// open and framed.
#[test]
fn oversized_response_is_refused_and_the_connection_stays_open() {
    let handle = start_in_memory(ServerConfig::default());
    let mut c = connect(&handle);
    let (root, _) = c.bulk_load("<r/>").unwrap();
    // Two inserts of just over half a frame each, in elements small
    // enough for a block.
    let element = format!("<t>{}</t>", "x".repeat(4000));
    let half = element.repeat(axs_client::wire::FRAME_MAX / 2 / element.len() + 1);
    c.insert_last(root, &half).unwrap();
    c.insert_last(root, &half).unwrap();
    drop(half);
    let err = c.read_node(root).unwrap_err();
    assert!(
        matches!(&err, ClientError::Server { code, .. } if format!("{code}") == "too-large"),
        "{err}"
    );
    assert!(!c.is_poisoned());
    assert_eq!(c.read_node(2).unwrap(), element);
    // Rows pack several to a frame, but a row is never split: one past
    // `FRAME_MAX` is refused whole, before any frame goes out.
    let err = c.query("/r").unwrap_err();
    assert!(
        matches!(&err, ClientError::Server { code, .. } if format!("{code}") == "too-large"),
        "{err}"
    );
    let err = c.flwor("for $x in /r return <w>{ $x }</w>").unwrap_err();
    assert!(
        matches!(&err, ClientError::Server { code, .. } if format!("{code}") == "too-large"),
        "{err}"
    );
    assert!(!c.is_poisoned());
    let rows = c.query("/r/t").unwrap();
    assert!(rows.len() > 2 && rows.iter().all(|m| m.xml == element));
    handle.shutdown();
    handle.join().unwrap();
}

/// A peer speaking protocol version 2 (one `Query`/`Flwor` row per frame)
/// is refused in the hello instead of misreading packed rows: the server
/// sends its own hello and closes the connection.
#[test]
fn a_version_2_hello_is_refused() {
    use axs_client::wire;
    use std::io::{Read as _, Write as _};

    let handle = start_in_memory(ServerConfig::default());
    let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&wire::MAGIC);
    hello[4] = 2;
    sock.write_all(&hello).unwrap();
    assert!(wire::read_hello(&mut sock).is_ok(), "the server speaks v3");
    let mut ping = Vec::new();
    wire::write_frame(
        &mut ping,
        &wire::Frame::request(1, wire::OpCode::Ping, Vec::new()),
    )
    .unwrap();
    // The server may close before the ping arrives; either way no answer.
    let _ = sock.write_all(&ping);
    let mut rest = Vec::new();
    let read = sock.read_to_end(&mut rest);
    assert!(
        rest.is_empty(),
        "no frame answers a v2 peer: {read:?} {rest:?}"
    );
    // A v3 client still connects.
    connect(&handle).ping().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}
