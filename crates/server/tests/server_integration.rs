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
    let get = |name: &str| {
        stats
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("stat {name} missing"))
            .value
    };
    assert!(get("store.inserts") >= 2, "bulkload + insert recorded");
    assert!(get("server.requests") >= 4);
    assert!(get("lock.acquisitions") >= 1);

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

/// A full worker queue answers `Busy` instead of hanging the caller.
#[test]
fn backpressure_returns_busy_not_hang() {
    let handle = start_in_memory(ServerConfig {
        workers: 1,
        queue_depth: 1,
        debug_sleep: true,
        ..ServerConfig::default()
    });

    std::thread::scope(|scope| {
        // Occupy the single worker...
        let addr = handle.local_addr();
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.sleep(600).unwrap();
        });
        std::thread::sleep(Duration::from_millis(150));
        // ...fill the one queue slot...
        let addr = handle.local_addr();
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.sleep(600).unwrap();
        });
        std::thread::sleep(Duration::from_millis(150));
        // ...and the next request must come back Busy, promptly.
        let mut c = connect(&handle);
        c.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let err = c.ping().unwrap_err();
        assert!(err.is_busy(), "expected Busy, got {err}");
    });

    // After the sleepers drain, the server serves normally again.
    let mut c = connect(&handle);
    c.ping().unwrap();
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

/// Data reads take the MVCC snapshot path: zero lock-manager traffic,
/// counted by `server.reads_snapshot` / `lock.snapshot_bypasses`, and
/// read-your-writes holds (an acknowledged write's epoch is published
/// before the response, so the next read pins it or something newer).
#[test]
fn snapshot_reads_bypass_locks_and_see_acknowledged_writes() {
    let handle = start_in_memory(ServerConfig::default());
    let mut c = connect(&handle);

    let (root, _) = c.bulk_load(r#"<doc><a>1</a></doc>"#).unwrap();

    let get = |stats: &[axs_client::StatEntry], name: &str| {
        stats
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("stat {name} missing"))
            .value
    };
    let before = c.stats().unwrap();
    let locks0 = get(&before, "lock.acquisitions");
    let bypass0 = get(&before, "lock.snapshot_bypasses");
    let snap0 = get(&before, "server.reads_snapshot");

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
        get(&after, "server.reads_snapshot") - snap0,
        reads,
        "every data read took the snapshot path"
    );
    assert_eq!(
        get(&after, "lock.snapshot_bypasses") - bypass0,
        reads,
        "each snapshot read bypassed the lock hierarchy exactly once"
    );
    // Writes still lock; reads contributed zero acquisitions: exactly one
    // X-path (store IX, block IX, range X or store X) per insert.
    let lock_delta = get(&after, "lock.acquisitions") - locks0;
    assert!(
        lock_delta <= 8 * 3 + 2,
        "reads must not acquire locks (saw {lock_delta} acquisitions for 8 writes)"
    );
    assert!(
        get(&after, "mvcc.current_epoch") >= 9,
        "one epoch per commit"
    );
    assert_eq!(
        get(&after, "mvcc.pins_active"),
        0,
        "pins are request-scoped"
    );

    // The locked baseline still answers identically when MVCC is off.
    drop(c);
    handle.shutdown();
    handle.join().unwrap();
    let locked = Server::start(
        StoreBuilder::new().build().unwrap(),
        ServerConfig {
            mvcc: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = connect(&locked);
    let (root, _) = c.bulk_load(r#"<doc><a>1</a></doc>"#).unwrap();
    let (id, _) = c.insert_last(root, r#"<e n="0"/>"#).unwrap();
    assert!(c.read_node(id).unwrap().contains(r#"n="0""#));
    let stats = c.stats().unwrap();
    assert_eq!(get(&stats, "server.reads_snapshot"), 0);
    assert_eq!(get(&stats, "lock.snapshot_bypasses"), 0);
    locked.shutdown();
    locked.join().unwrap();
}
