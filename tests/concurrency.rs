//! Concurrency stress over the reader-writer store wrapper (§9 outlook),
//! driven with std scoped threads and channels.

use adaptive_xml_storage::prelude::*;
use axs_core::ConcurrentStore;
use axs_xml::ParseOptions;
use std::sync::mpsc;

fn frag(xml: &str) -> Vec<Token> {
    parse_fragment(xml, ParseOptions::default()).unwrap()
}

#[test]
fn producer_consumer_feed() {
    // Writers push purchase orders through a channel; a single applier
    // thread owns the store writes while readers snapshot concurrently.
    let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
    store
        .with_write(|s| s.bulk_insert(frag("<purchase-orders/>")))
        .unwrap();
    let root = NodeId(1);

    let (tx, rx) = mpsc::sync_channel::<Vec<Token>>(16);

    std::thread::scope(|scope| {
        for producer in 0..3 {
            let tx = tx.clone();
            scope.spawn(move || {
                for i in 0..40 {
                    tx.send(frag(&format!(
                        "<purchase-order p=\"{producer}\" i=\"{i}\"/>"
                    )))
                    .unwrap();
                }
            });
        }
        drop(tx);

        let applier_store = &store;
        scope.spawn(move || {
            for order in rx.iter() {
                applier_store
                    .with_write(|s| s.insert_into_last(root, order))
                    .unwrap();
            }
        });

        for _ in 0..2 {
            let reader = &store;
            scope.spawn(move || {
                for _ in 0..30 {
                    let tokens = reader.with_read(|s| s.read_all()).unwrap();
                    axs_xdm::fragment_well_formed(&tokens).unwrap();
                }
            });
        }
    });

    let tokens = store.with_read(|s| s.read_all()).unwrap();
    let orders = tokens
        .iter()
        .filter(|t| t.name().is_some_and(|n| n.is_local("purchase-order")))
        .count();
    assert_eq!(orders, 120);
    store.with_read(|s| s.check_invariants()).unwrap();
}

#[test]
fn mixed_writers_and_point_readers() {
    let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
    store
        .with_write(|s| s.bulk_insert(frag("<root><a/><b/><c/><d/></root>")))
        .unwrap();

    std::thread::scope(|scope| {
        // Two writers appending under different subtrees.
        for (t, target) in [(0u64, 2u64), (1, 3)] {
            let store = &store;
            scope.spawn(move || {
                for i in 0..30 {
                    store
                        .with_write(|s| {
                            s.insert_into_last(
                                NodeId(target),
                                frag(&format!("<x t=\"{t}\" i=\"{i}\"/>")),
                            )
                        })
                        .unwrap();
                }
            });
        }
        // Point readers over stable targets.
        for _ in 0..3 {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..60 {
                    let sub = store.with_read(|s| s.read_node(NodeId(4))).unwrap();
                    assert_eq!(sub[0].name().unwrap().local_part(), "c");
                }
            });
        }
        // A deleter on an isolated subtree.
        let deleter = &store;
        scope.spawn(move || {
            deleter.with_write(|s| s.delete_node(NodeId(5))).unwrap(); // <d/>
        });
    });

    store.with_read(|s| s.check_invariants()).unwrap();
    let tokens = store.with_read(|s| s.read_all()).unwrap();
    let xs = tokens
        .iter()
        .filter(|t| t.name().is_some_and(|n| n.is_local("x")))
        .count();
    assert_eq!(xs, 60);
}
