//! The hierarchical lock manager coordinating transactions over a shared
//! store — the §9 three-layer concurrency sketch, end to end: each worker
//! runs strict-2PL transactions, locking the ranges (and, through
//! intentions, the blocks and store) its nodes live in before touching
//! them.

use adaptive_xml_storage::prelude::*;
use axs_core::ConcurrentStore;
use axs_lock::{LockManager, LockMode, Resource};
use axs_xml::ParseOptions;
use std::sync::Arc;

fn frag(xml: &str) -> Vec<Token> {
    parse_fragment(xml, ParseOptions::default()).unwrap()
}

/// The resource a node id maps to, derived from the Range Index — the
/// lockable unit of the paper's middle layer.
fn resource_of(store: &ConcurrentStore, id: NodeId) -> Resource {
    store.with_read(|s| {
        let entry = s
            .range_index_entries()
            .unwrap()
            .into_iter()
            .find(|e| e.interval.contains(id))
            .expect("node covered by a range");
        Resource::Range {
            block: entry.block.0,
            range: entry.range_id,
        }
    })
}

#[test]
fn two_phase_transactions_over_disjoint_subtrees() {
    let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
    store
        .with_write(|s| s.bulk_insert(frag("<root><left/><right/></root>")))
        .unwrap();
    let mgr = Arc::new(LockManager::new());
    let left = NodeId(2);
    let right = NodeId(3);

    std::thread::scope(|scope| {
        for (target, label) in [(left, "l"), (right, "r")] {
            let store = &store;
            let mgr = mgr.clone();
            scope.spawn(move || {
                for i in 0..30 {
                    let tx = mgr.begin();
                    let res = resource_of(store, target);
                    mgr.lock(tx, res, LockMode::X).unwrap();
                    store
                        .with_write(|s| {
                            s.insert_into_last(target, frag(&format!("<{label} i=\"{i}\"/>")))
                        })
                        .unwrap();
                    mgr.unlock_all(tx);
                }
            });
        }
        // A scanner takes S on the whole store per pass.
        let store2 = &store;
        let mgr2 = mgr.clone();
        scope.spawn(move || {
            for _ in 0..20 {
                let tx = mgr2.begin();
                mgr2.lock(tx, Resource::Store, LockMode::S).unwrap();
                let tokens = store2.with_read(|s| s.read_all()).unwrap();
                axs_xdm::fragment_well_formed(&tokens).unwrap();
                mgr2.unlock_all(tx);
            }
        });
    });

    let tokens = store.with_read(|s| s.read_all()).unwrap();
    let count = |n: &str| {
        tokens
            .iter()
            .filter(|t| t.name().is_some_and(|q| q.is_local(n)))
            .count()
    };
    assert_eq!(count("l"), 30);
    assert_eq!(count("r"), 30);
    store.with_read(|s| s.check_invariants()).unwrap();
    assert_eq!(mgr.grant_count(), 0, "strict 2PL released everything");
}

#[test]
fn deadlocked_transactions_abort_and_retry() {
    let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
    store
        .with_write(|s| s.bulk_insert(frag("<root><a/><b/></root>")))
        .unwrap();
    let mgr = Arc::new(LockManager::new());
    let a = NodeId(2);
    let b = NodeId(3);

    // Two workers lock (a then b) and (b then a) — guaranteed conflicts;
    // with deadlock detection plus retry both must finish.
    std::thread::scope(|scope| {
        for order in [[a, b], [b, a]] {
            let store = &store;
            let mgr = mgr.clone();
            scope.spawn(move || {
                let mut committed = 0;
                while committed < 10 {
                    let tx = mgr.begin();
                    let mut aborted = false;
                    for id in order {
                        let res = resource_of(store, id);
                        match mgr.lock(tx, res, LockMode::X) {
                            Ok(()) => {}
                            Err(axs_lock::LockError::Deadlock { .. }) => {
                                aborted = true;
                                break;
                            }
                        }
                    }
                    if !aborted {
                        store
                            .with_write(|s| s.insert_into_last(order[0], frag("<w/>")))
                            .unwrap();
                        committed += 1;
                    }
                    mgr.unlock_all(tx);
                }
            });
        }
    });

    let tokens = store.with_read(|s| s.read_all()).unwrap();
    let ws = tokens
        .iter()
        .filter(|t| t.name().is_some_and(|q| q.is_local("w")))
        .count();
    assert_eq!(ws, 20, "both workers committed all transactions");
    store.with_read(|s| s.check_invariants()).unwrap();
}
