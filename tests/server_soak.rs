//! Concurrency soak: 8 reader + 4 writer clients hammer one durable
//! `axsd` server for several seconds, then the final document is checked
//! against a single-threaded shadow store replaying the same operations.
//!
//! Beyond equivalence, the server's own counters must prove the reads
//! actually overlapped (`server.reads_max_in_flight > 1`) — otherwise the
//! "shared read path" could silently degrade back to full serialization
//! and this suite would never notice.

use axs_client::{Client, ClientError};
use axs_core::{ReadView, StoreBuilder};
use axs_server::{Server, ServerConfig};
use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const READERS: usize = 8;
const WRITERS: usize = 4;
const SOAK: Duration = Duration::from_secs(5);
const MAX_INSERTS_PER_WRITER: usize = 200;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axs-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn retry<T>(mut op: impl FnMut() -> Result<T, ClientError>) -> T {
    loop {
        match op() {
            Ok(v) => return v,
            Err(e) if e.is_busy() => continue,
            Err(e) => panic!("request failed: {e}"),
        }
    }
}

/// Disjoint-writer soak: every client is a writer pinned to its own
/// subtree, hammering the write path for the full soak window. Each writer
/// reads its insert back the moment it is acknowledged: the read pins a
/// snapshot *after* the ack, so with six writers committing concurrently
/// every acknowledged write must already be in the published epoch.
/// Beyond that and shadow-store equivalence, the counters must prove the
/// writers overlapped across the group-fsync wait and the final scan
/// materialized ranges lazily.
#[test]
fn soak_disjoint_writers_overlap_and_match_shadow() {
    const DW_WRITERS: usize = 6;
    let dir = temp_dir("soak-disjoint");
    let store = StoreBuilder::new().directory(&dir).build().unwrap();
    let handle = Server::start(
        store,
        ServerConfig {
            workers: DW_WRITERS,
            queue_depth: 256,
            max_connections: DW_WRITERS + 4,
            commit_window: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let seed: String = {
        let subtrees: String = (0..DW_WRITERS).map(|t| format!("<t{t}/>")).collect();
        format!("<root>{subtrees}</root>")
    };
    let mut setup = Client::connect(handle.local_addr()).unwrap();
    setup.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let (root, _) = setup.bulk_load(&seed).unwrap();
    let kids = setup.children(root).unwrap();
    assert_eq!(kids.len(), DW_WRITERS);

    let deadline = Instant::now() + SOAK;
    let mut insert_counts = [0usize; DW_WRITERS];
    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for (t, (subtree, _)) in kids.iter().cloned().enumerate() {
            let addr = handle.local_addr();
            writer_handles.push(scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut landed = 0usize;
                while Instant::now() < deadline && landed < MAX_INSERTS_PER_WRITER {
                    let xml = format!(r#"<d t="{t}" j="{landed}"/>"#);
                    let (id, _) = retry(|| c.insert_last(subtree, &xml));
                    assert_eq!(
                        retry(|| c.read_node(id)),
                        xml,
                        "acknowledged write missing from a snapshot pinned after its ack"
                    );
                    landed += 1;
                }
                landed
            }));
        }
        for (t, h) in writer_handles.into_iter().enumerate() {
            insert_counts[t] = h.join().unwrap();
        }
    });
    for (t, &n) in insert_counts.iter().enumerate() {
        assert!(n > 0, "writer {t} landed no inserts");
    }

    let mut shadow = StoreBuilder::new().build().unwrap();
    let opts = ParseOptions::data_centric();
    shadow
        .bulk_insert(parse_fragment(&seed, opts).unwrap())
        .unwrap();
    let shadow_kids = shadow.children_of(axs_xdm::NodeId(root)).unwrap();
    for (t, subtree) in shadow_kids.into_iter().enumerate() {
        for j in 0..insert_counts[t] {
            shadow
                .insert_into_last(
                    subtree,
                    parse_fragment(&format!(r#"<d t="{t}" j="{j}"/>"#), opts).unwrap(),
                )
                .unwrap();
        }
    }
    let shadow_xml = serialize(&shadow.read_all().unwrap(), &SerializeOptions::default()).unwrap();
    // read_all before stats: the scan drives lazy materialization, so the
    // counter below has something to show.
    let live_xml = setup.read_all().unwrap();
    assert_eq!(live_xml, shadow_xml);
    assert!(setup.verify().unwrap().starts_with("ok:"));

    let stats = setup.stats().unwrap();
    let get = |name: &str| {
        stats
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("stat {name} missing"))
            .value
    };
    let total: u64 = insert_counts.iter().map(|&n| n as u64).sum();
    assert!(get("server.writes_exclusive") >= total);
    // With this many writers racing, one must enter while another waits on
    // the group fsync — zero would mean the write path silently serialized
    // end to end, fsync wait included.
    assert!(
        get("server.writes_parallel") > 0,
        "no write ever overlapped another"
    );
    assert_eq!(get("server.writes_in_flight"), 0, "gauge must drain");
    assert!(
        get("server.reads_snapshot") >= total,
        "the read-backs must have been snapshot reads"
    );
    assert!(
        get("mvcc.publishes") >= total,
        "every commit publishes an epoch"
    );
    assert!(
        get("mvcc.lazy_materialized") > 0,
        "the final scan must have materialized ranges lazily"
    );
    assert!(
        get("wal.group_commits") >= total,
        "every insert commits through the group-commit WAL"
    );

    handle.shutdown();
    handle.join().unwrap();
    let reopened = StoreBuilder::new().directory(&dir).open().unwrap();
    let reopened_xml =
        serialize(&reopened.read_all().unwrap(), &SerializeOptions::default()).unwrap();
    assert_eq!(reopened_xml, shadow_xml);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_readers_and_writers_match_shadow_store() {
    let dir = temp_dir("soak");
    let store = StoreBuilder::new().directory(&dir).build().unwrap();
    let handle = Server::start(
        store,
        ServerConfig {
            workers: READERS + WRITERS,
            queue_depth: 256,
            max_connections: READERS + WRITERS + 4,
            commit_window: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let seed: String = {
        let subtrees: String = (0..WRITERS).map(|t| format!("<t{t}/>")).collect();
        format!("<root>{subtrees}</root>")
    };
    let mut setup = Client::connect(handle.local_addr()).unwrap();
    setup.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let (root, _) = setup.bulk_load(&seed).unwrap();
    let kids = setup.children(root).unwrap();
    assert_eq!(kids.len(), WRITERS);

    // Writers run until the soak deadline (capped so the shadow replay
    // stays cheap) and report how many inserts they actually landed; the
    // shadow store replays exactly those counts.
    let deadline = Instant::now() + SOAK;
    let done = AtomicBool::new(false);
    let mut insert_counts = [0usize; WRITERS];

    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for (t, (subtree, _)) in kids.iter().cloned().enumerate() {
            let addr = handle.local_addr();
            writer_handles.push(scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut landed = 0usize;
                while Instant::now() < deadline && landed < MAX_INSERTS_PER_WRITER {
                    retry(|| c.insert_last(subtree, &format!(r#"<e t="{t}" j="{landed}"/>"#)));
                    landed += 1;
                    // A writer that never yields can starve the readers on
                    // small machines; give the scheduler a chance.
                    if landed.is_multiple_of(16) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                landed
            }));
        }

        for r in 0..READERS {
            let addr = handle.local_addr();
            let done = &done;
            let kids = &kids;
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut iter = 0usize;
                while !done.load(Ordering::Relaxed) {
                    // Rotate across the read surface so shared access is
                    // exercised on point reads, scans, and queries alike.
                    match (iter + r) % 4 {
                        0 => {
                            let (subtree, _) = kids[iter % kids.len()];
                            let xml = retry(|| c.read_node(subtree));
                            assert!(xml.starts_with("<t"), "{xml}");
                        }
                        1 => {
                            let listed = retry(|| c.children(root));
                            assert_eq!(listed.len(), WRITERS);
                        }
                        2 => {
                            // Every snapshot must parse back; the count only
                            // grows monotonically but interleaving makes the
                            // exact value unknowable here.
                            let matches = retry(|| c.query("//e"));
                            for m in &matches {
                                assert!(m.xml.starts_with("<e "), "{}", m.xml);
                            }
                        }
                        _ => {
                            let stats = retry(|| c.stats());
                            assert!(stats.iter().any(|e| e.name == "server.reads_shared"));
                        }
                    }
                    iter += 1;
                }
            });
        }

        for (t, h) in writer_handles.into_iter().enumerate() {
            insert_counts[t] = h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    for (t, &n) in insert_counts.iter().enumerate() {
        assert!(n > 0, "writer {t} landed no inserts");
    }

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
        for j in 0..insert_counts[t] {
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
    assert!(setup.verify().unwrap().starts_with("ok:"));

    // The counters must prove genuine sharing: reads overlapped in flight,
    // write commits were batched through the group-commit window.
    let stats = setup.stats().unwrap();
    let get = |name: &str| {
        stats
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("stat {name} missing"))
            .value
    };
    assert!(
        get("server.reads_max_in_flight") > 1,
        "reads never overlapped: max in flight {}",
        get("server.reads_max_in_flight")
    );
    assert!(get("server.reads_shared") > 0);
    assert!(get("server.writes_exclusive") > 0);
    // The Stats request is itself a shared read, so a drained server
    // reports exactly one read in flight: the snapshot being taken.
    assert_eq!(get("server.reads_in_flight"), 1, "gauge must drain");
    let total: usize = insert_counts.iter().sum();
    assert!(
        get("wal.group_commits") >= total as u64,
        "every insert commits through the group-commit WAL"
    );
    assert!(
        get("wal.group_syncs") <= get("wal.group_commits"),
        "syncs can never exceed commits"
    );

    handle.shutdown();
    handle.join().unwrap();

    // The durable store reopens to the same document without any flush
    // beyond what shutdown performed.
    let reopened = StoreBuilder::new().directory(&dir).open().unwrap();
    let reopened_xml =
        serialize(&reopened.read_all().unwrap(), &SerializeOptions::default()).unwrap();
    assert_eq!(reopened_xml, shadow_xml);
    let _ = std::fs::remove_dir_all(&dir);
}
