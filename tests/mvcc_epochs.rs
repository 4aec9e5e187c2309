//! Epoch-reclamation tests: under heavy commit churn with rotating pinned
//! readers, the registry must stay bounded (`epochs_live` never grows past
//! the reader population) while `retired_total` keeps advancing — a stall
//! in either direction is a leak. Plus a threaded soak: readers pin and
//! read concurrently with a committing writer, and none of them ever
//! blocks on the write path (there is no lock to block on).

use adaptive_xml_storage::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn fragment(text: &str) -> Vec<Token> {
    vec![
        Token::begin_element("e"),
        Token::text(text),
        Token::EndElement,
    ]
}

/// 10k commits with a window of rotating pins: live epochs stay bounded by
/// the window, retirement keeps pace with publication, and the watermark
/// only moves forward.
#[test]
fn epoch_churn_is_bounded_and_reclaimed() {
    const COMMITS: usize = 10_000;
    const PIN_WINDOW: usize = 8;

    let mut store = StoreBuilder::new().build().unwrap();
    let root = store.bulk_insert(fragment("seed")).unwrap().start;
    store.commit().unwrap();
    let registry = store.epoch_registry();

    let mut pins: VecDeque<PinnedSnapshot> = VecDeque::new();
    let mut children: VecDeque<NodeId> = VecDeque::new();
    let mut last_retired = 0u64;
    let mut last_watermark = 0u64;

    for i in 0..COMMITS {
        // Bounded document: append one element, trim once it gets long.
        let iv = store.insert_into_last(root, fragment("x")).unwrap();
        children.push_back(iv.start);
        if children.len() > 16 {
            store.delete_node(children.pop_front().unwrap()).unwrap();
        }
        store.commit().unwrap();

        // Rotate the reader population: newest pin in, oldest pin out.
        pins.push_back(registry.pin().unwrap());
        if pins.len() > PIN_WINDOW {
            drop(pins.pop_front());
        }

        if i % 1_000 == 999 {
            let stats = store.mvcc_stats();
            // Each pin holds at most one epoch alive beyond the current
            // one; a bound above the window (plus current) is a leak.
            assert!(
                stats.epochs_live <= PIN_WINDOW as u64 + 1,
                "epochs_live {} exceeds pin window at commit {}",
                stats.epochs_live,
                i
            );
            assert!(
                stats.retired_total > last_retired,
                "retirement stalled at commit {i}: {last_retired}"
            );
            last_retired = stats.retired_total;
            let watermark = registry.min_active_epoch();
            assert!(
                watermark >= last_watermark,
                "watermark moved backwards: {last_watermark} -> {watermark}"
            );
            last_watermark = watermark;
            // The oldest rotating pin trails the current epoch by at most
            // the window.
            assert!(
                stats.current_epoch - stats.oldest_pinned <= PIN_WINDOW as u64,
                "oldest pin {} lags current {} past the window",
                stats.oldest_pinned,
                stats.current_epoch
            );
        }
    }

    drop(pins);
    let stats = store.mvcc_stats();
    assert_eq!(stats.pins_active, 0);
    assert_eq!(stats.epochs_live, 1, "only the current epoch survives");
    // Every superseded epoch was eventually reclaimed: publications =
    // COMMITS + 1 (the build-time epoch), of which only the current one
    // is still alive.
    assert_eq!(
        stats.retired_total,
        stats.current_epoch - 1,
        "every superseded epoch retired exactly once"
    );
    assert!(stats.pins_total >= COMMITS as u64);
}

/// Readers pin, read, and unpin from multiple threads while the writer
/// commits continuously. Every read succeeds against a consistent frozen
/// document; when the dust settles nothing is pinned and nothing leaked.
#[test]
fn concurrent_readers_pin_across_writer_commits() {
    const WRITER_COMMITS: usize = 400;
    const READERS: usize = 4;

    let mut store = StoreBuilder::new().build().unwrap();
    let root = store.bulk_insert(fragment("seed")).unwrap().start;
    store.commit().unwrap();
    let registry = store.epoch_registry();
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let registry = registry.clone();
            let stop = stop.clone();
            let progress = progress.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let pin = registry.pin().expect("an epoch is always published");
                    // A frozen document is always well-formed: the token
                    // stream round-trips and the root resolves.
                    let tokens = pin.read_all().expect("snapshot reads cannot fail");
                    assert!(!tokens.is_empty());
                    assert!(pin.contains(root));
                    reads += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                reads
            })
        })
        .collect();

    let mut children: VecDeque<NodeId> = VecDeque::new();
    let mut seen = 0;
    for i in 0..WRITER_COMMITS {
        if i % 100 == 0 {
            // Force the overlap: some reader completes a read between every
            // 100 commits (a fast writer could otherwise finish first).
            while progress.load(Ordering::Relaxed) == seen
                && !readers.iter().any(|r| r.is_finished())
            {
                std::thread::yield_now();
            }
            seen = progress.load(Ordering::Relaxed);
        }
        let iv = store.insert_into_last(root, fragment("w")).unwrap();
        children.push_back(iv.start);
        if children.len() > 8 {
            store.delete_node(children.pop_front().unwrap()).unwrap();
        }
        store.commit().unwrap();
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_reads = 0;
    for reader in readers {
        total_reads += reader.join().unwrap();
    }
    assert!(total_reads > 0, "readers made progress under churn");

    let stats = store.mvcc_stats();
    assert_eq!(stats.pins_active, 0, "all reader pins released");
    assert_eq!(stats.epochs_live, 1, "churned epochs reclaimed");
    assert!(stats.retired_total >= WRITER_COMMITS as u64);
    // Epoch 1 is published at build, epoch 2 by the seed commit; each
    // writer commit adds one.
    assert_eq!(stats.current_epoch, WRITER_COMMITS as u64 + 2);
}

/// A snapshot builds its node table once, on the first query that pins
/// the epoch: 50 XPath/FLWOR queries on one pin raise `tables_built` by
/// exactly 1, a commit plus one query by exactly 1 more, and point reads
/// never build one.
#[test]
fn one_node_table_per_queried_epoch() {
    let mut store = StoreBuilder::new().build().unwrap();
    let root = store.bulk_insert(fragment("seed")).unwrap().start;
    store.commit().unwrap();
    let registry = store.epoch_registry();
    let built = || registry.stats().tables_built;
    let path = compile("//e").unwrap();
    let flwor = parse_flwor("for $e in //e return { $e }").unwrap();
    assert_eq!(built(), 0, "publishing builds no table");

    let pin = registry.pin().unwrap();
    assert_eq!(pin.read_node(root).unwrap(), fragment("seed"));
    assert_eq!(built(), 0, "a point read builds no table");
    for i in 0..50 {
        let hits = if i % 2 == 0 {
            axs_xpath::evaluate_store(&*pin, &path).unwrap().len()
        } else {
            evaluate_flwor(&*pin, &flwor).unwrap().len()
        };
        assert_eq!(hits, 1);
    }
    assert_eq!(built(), 1, "50 queries on one epoch build one table");
    drop(pin);

    store.insert_into_last(root, fragment("x")).unwrap();
    store.commit().unwrap();
    let pin = registry.pin().unwrap();
    assert_eq!(pin.read_node(root).unwrap().len(), 6);
    assert_eq!(built(), 1, "a point read on the new epoch builds none");
    let hits = axs_xpath::evaluate_store(&*pin, &path).unwrap();
    assert_eq!(hits.len(), 2);
    assert_eq!(built(), 2, "the new epoch's first query builds its table");
}
