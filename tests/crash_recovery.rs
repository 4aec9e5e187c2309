//! Crash matrix: a scripted update workload is run against a store whose
//! data file dies after its k-th physical write — for *every* k the
//! workload produces. After each crash the store is reopened (running WAL
//! recovery) and must land exactly on an admissible snapshot:
//!
//! - the last successfully flushed state (`durable`), or
//! - the state a crash-interrupted `flush()` was committing (`pending`) —
//!   admissible only when the crash hit during a flush, since the WAL
//!   commit record may or may not have reached disk before the data file
//!   died.
//!
//! A shadow in-memory store executes the identical script to produce the
//! expected snapshots; node-id allocation is deterministic, so equality is
//! exact token-sequence equality, not a weaker consistency check.

use adaptive_xml_storage::prelude::*;
use axs_storage::{FaultConfig, FaultHandle, FaultyPageStore, PageStore};
use axs_workload::docgen;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn storage() -> StorageConfig {
    StorageConfig {
        page_size: 1024,
        pool_frames: 8,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axs-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fragment bulky enough that most rounds dirty more than one page.
fn order_frag(i: usize) -> Vec<Token> {
    let mut xml = format!("<order id=\"crash-{i}\"><qty>{}</qty>", i * 3 + 1);
    for item in 0..6 {
        xml.push_str(&format!(
            "<item sku=\"sku-{i}-{item}\"><desc>replacement flux coupling, lot {i} unit {item}</desc></item>"
        ));
    }
    xml.push_str("</order>");
    parse_fragment(&xml, axs_xml::ParseOptions::data_centric()).unwrap()
}

#[derive(Clone, Copy)]
enum Op {
    Insert(usize),
    DeleteOldest,
    Flush,
}

/// Deterministic mixed workload: inserts every round, a delete every third
/// round, a flush every second round and one final flush.
fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    for r in 0..60 {
        ops.push(Op::Insert(r));
        if r % 3 == 2 {
            ops.push(Op::DeleteOldest);
        }
        if r % 2 == 1 {
            ops.push(Op::Flush);
        }
    }
    ops.push(Op::Flush);
    ops
}

/// Builds the phase-1 store (no faults) once; trials copy its files.
fn build_template(dir: &Path) -> Vec<Token> {
    let mut s = StoreBuilder::new()
        .directory(dir)
        .storage(storage())
        .build()
        .unwrap();
    s.bulk_insert(docgen::purchase_orders(2, 6)).unwrap();
    s.flush().unwrap();
    s.read_all().unwrap()
}

fn copy_template(tmpl: &Path, trial: &Path) {
    std::fs::create_dir_all(trial).unwrap();
    for file in ["data.pages", "index.pages", "wal.log"] {
        std::fs::copy(tmpl.join(file), trial.join(file)).unwrap();
    }
}

struct TrialResult {
    /// Physical write ops the data file saw during the scripted phase.
    writes: u64,
    /// Whether the injected crash fired.
    crashed: bool,
}

/// Replays the script against a faulty store in `trial` and a pristine
/// shadow, then reopens and checks the recovered state is admissible.
fn run_trial(tmpl: &Path, trial: &Path, crash_after: Option<u64>, torn: bool) -> TrialResult {
    copy_template(tmpl, trial);
    let handle = FaultHandle::new(FaultConfig {
        crash_after_writes: crash_after,
        torn_crash: torn,
        transient_every: None,
    });
    let h = handle.clone();
    let mut real = StoreBuilder::new()
        .directory(trial)
        .storage(storage())
        .wrap_data_store(move |inner| {
            Arc::new(FaultyPageStore::new(inner, &h)) as Arc<dyn PageStore>
        })
        .open()
        .unwrap();

    // The shadow replays the store's entire life in memory.
    let mut shadow = StoreBuilder::new().storage(storage()).build().unwrap();
    shadow.bulk_insert(docgen::purchase_orders(2, 6)).unwrap();

    let root = NodeId(1);
    let mut live = std::collections::VecDeque::new();
    let mut durable = shadow.read_all().unwrap();
    let mut pending: Option<Vec<Token>> = None;
    let mut crashed = false;

    for op in script() {
        match op {
            Op::Insert(i) => {
                let iv = shadow.insert_into_last(root, order_frag(i)).unwrap();
                live.push_back(iv.start);
                match real.insert_into_last(root, order_frag(i)) {
                    Ok(riv) => assert_eq!(riv, iv, "id allocation must be deterministic"),
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
            }
            Op::DeleteOldest => {
                let id = match live.pop_front() {
                    Some(id) => id,
                    None => continue,
                };
                shadow.delete_node(id).unwrap();
                if real.delete_node(id).is_err() {
                    crashed = true;
                    break;
                }
            }
            Op::Flush => {
                pending = Some(shadow.read_all().unwrap());
                match real.flush() {
                    Ok(()) => durable = pending.take().unwrap(),
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
            }
        }
    }
    let writes = handle.writes();
    assert_eq!(
        crashed,
        handle.crashed(),
        "only injected faults may fail ops"
    );
    drop(real);

    // Reopen without faults: recovery must land on an admissible snapshot.
    let recovered = StoreBuilder::new()
        .directory(trial)
        .storage(storage())
        .open()
        .expect("recovery must reopen the store");
    recovered.check_invariants().unwrap();
    let tokens = recovered.read_all().unwrap();
    if crashed {
        let admissible = tokens == durable || pending.as_deref() == Some(&tokens[..]);
        assert!(
            admissible,
            "crash_after={crash_after:?} torn={torn}: recovered state is neither the \
             last flushed snapshot ({} tokens) nor the in-flight one ({:?} tokens); got {}",
            durable.len(),
            pending.as_ref().map(Vec::len),
            tokens.len(),
        );
    } else {
        // No crash: the script ends with a flush, so the final state is it.
        assert_eq!(tokens, durable, "uncrashed trial must persist everything");
    }
    std::fs::remove_dir_all(trial).unwrap();
    TrialResult { writes, crashed }
}

/// Group-commit crash sweep: several `commit()`s are issued without any
/// flush (no-steal keeps the data file at the last flushed state, so the
/// WAL alone carries them), then the log is torn at every sampled byte
/// length — modeling a crash anywhere inside the batched-fsync window.
/// Recovery must land on the state after some *whole* commit group, never
/// between two mutations of one group, and sweeping the tear point across
/// the log must walk through every group state in order.
#[test]
fn group_commit_crash_is_all_or_nothing() {
    const GROUPS: usize = 5;
    let dir = temp_dir("gc-template");
    let mut store = StoreBuilder::new()
        .directory(&dir)
        .storage(storage())
        .build()
        .unwrap();
    store.bulk_insert(docgen::purchase_orders(2, 6)).unwrap();
    store.flush().unwrap();
    let baseline_wal = std::fs::metadata(dir.join("wal.log")).unwrap().len();

    let mut shadow = StoreBuilder::new().storage(storage()).build().unwrap();
    shadow.bulk_insert(docgen::purchase_orders(2, 6)).unwrap();

    // Each group is several mutations sealed by one commit(); the ticket is
    // deliberately dropped without waiting — the "crash" below may tear the
    // log before the batched fsync would have covered it.
    let root = NodeId(1);
    let mut snapshots = vec![shadow.read_all().unwrap()];
    let mut inserted: Vec<NodeId> = Vec::new();
    for g in 0..GROUPS {
        let iv = shadow.insert_into_last(root, order_frag(g)).unwrap();
        let riv = store.insert_into_last(root, order_frag(g)).unwrap();
        assert_eq!(riv, iv, "id allocation must be deterministic");
        // Odd groups also delete the previous group's insert, so every
        // group mixes operations yet every snapshot stays distinct.
        if g % 2 == 1 {
            shadow.delete_node(inserted[g - 1]).unwrap();
            store.delete_node(inserted[g - 1]).unwrap();
        }
        inserted.push(iv.start);
        let ticket = store
            .commit()
            .unwrap()
            .expect("durable stores return tickets");
        drop(ticket);
        snapshots.push(shadow.read_all().unwrap());
    }
    drop(store); // crash: no flush, the data file still holds the baseline

    let full_wal = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(full_wal > baseline_wal, "commits must have grown the log");

    // Tear the copied log at sampled lengths from "no group durable" to
    // "all groups durable". Group extents are kilobytes wide, so a step
    // this size cannot jump over a whole group.
    let step = ((full_wal - baseline_wal) / 512).max(1);
    let trial = temp_dir("gc-trial");
    let mut reached = vec![false; snapshots.len()];
    let mut last_k = 0usize;
    let mut torn_tails = 0u64;
    let mut cut = baseline_wal;
    loop {
        copy_template(&dir, &trial);
        let wal = std::fs::OpenOptions::new()
            .write(true)
            .open(trial.join("wal.log"))
            .unwrap();
        wal.set_len(cut).unwrap();
        drop(wal);

        let recovered = StoreBuilder::new()
            .directory(&trial)
            .storage(storage())
            .open()
            .expect("recovery must reopen the store");
        recovered.check_invariants().unwrap();
        torn_tails += recovered.stats().torn_tail_truncations;
        let tokens = recovered.read_all().unwrap();
        drop(recovered);
        std::fs::remove_dir_all(&trial).unwrap();

        let k = snapshots
            .iter()
            .position(|s| s == &tokens)
            .unwrap_or_else(|| {
                panic!(
                    "cut={cut}: recovered {} tokens matching no commit-group \
                     boundary — a group was replayed partially",
                    tokens.len()
                )
            });
        assert!(
            k >= last_k,
            "cut={cut}: longer log recovered an older state ({k} < {last_k})"
        );
        last_k = k;
        reached[k] = true;

        if cut == full_wal {
            break;
        }
        cut = (cut + step).min(full_wal);
    }
    for (k, hit) in reached.iter().enumerate() {
        assert!(hit, "no tear point recovered commit group {k}");
    }
    assert!(
        torn_tails > 0,
        "the sweep must have cut inside at least one record"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// In-flight snapshot readers across a crash: readers pinned at each
/// commit group keep serving their frozen epoch after the store process
/// "dies" (is dropped) mid-window — pins hold the snapshot alive
/// independently of the store — and recovery publishes exactly one fresh
/// epoch whose content is the WAL-committed prefix, never an epoch from
/// an un-fsynced write.
#[test]
fn snapshot_readers_pinned_at_crash_points_stay_frozen() {
    const GROUPS: usize = 4;
    let dir = temp_dir("mvcc-crash");
    let mut store = StoreBuilder::new()
        .directory(&dir)
        .storage(storage())
        .build()
        .unwrap();
    store.bulk_insert(docgen::purchase_orders(2, 6)).unwrap();
    store.flush().unwrap();
    let baseline_wal = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let registry = store.epoch_registry();

    // Each group: mutate, commit without waiting for the group fsync, pin
    // the epoch that commit just published. The pin's view must equal the
    // store's logical state at that instant.
    let root = NodeId(1);
    let mut pins = Vec::new();
    for g in 0..GROUPS {
        store.insert_into_last(root, order_frag(g)).unwrap();
        let ticket = store
            .commit()
            .unwrap()
            .expect("durable stores return tickets");
        drop(ticket); // crash may strike before this group's fsync
        let pin = registry.pin().unwrap();
        let expect = store.read_all().unwrap();
        assert_eq!(pin.read_all().unwrap(), expect, "pin sees commit {g}");
        pins.push((pin, expect));
    }

    // Crash: the store dies with every reader still in flight. The pinned
    // epochs survive it — they are frozen heap state, not file state.
    drop(store);
    for (g, (pin, expect)) in pins.iter().enumerate() {
        assert_eq!(
            &pin.read_all().unwrap(),
            expect,
            "pin {g} changed across the crash of its store"
        );
    }

    // Tear the log at "nothing durable", "something durable", and "all
    // durable"; recovery must republish exactly the committed prefix as
    // its single epoch 1 — uncommitted groups produce no epoch.
    let full_wal = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(full_wal > baseline_wal);
    let trial = temp_dir("mvcc-crash-trial");
    for cut in [
        baseline_wal,
        baseline_wal + (full_wal - baseline_wal) / 2,
        full_wal,
    ] {
        copy_template(&dir, &trial);
        let wal = std::fs::OpenOptions::new()
            .write(true)
            .open(trial.join("wal.log"))
            .unwrap();
        wal.set_len(cut).unwrap();
        drop(wal);

        let recovered = StoreBuilder::new()
            .directory(&trial)
            .storage(storage())
            .open()
            .expect("recovery must reopen the store");
        recovered.check_invariants().unwrap();
        let tokens = recovered.read_all().unwrap();
        let stats = recovered.mvcc_stats();
        assert_eq!(
            stats.current_epoch, 1,
            "cut={cut}: recovery publishes exactly one epoch"
        );
        assert_eq!(stats.epochs_live, 1);
        let snap = recovered
            .epoch_registry()
            .pin()
            .expect("the recovered epoch is pinnable");
        assert_eq!(
            snap.read_all().unwrap(),
            tokens,
            "cut={cut}: the recovered epoch is the WAL-committed prefix"
        );
        drop(snap);
        drop(recovered);
        std::fs::remove_dir_all(&trial).unwrap();

        // The pre-crash pins are still immutable — recovery of a copy
        // cannot reach back into them.
        for (pin, expect) in &pins {
            assert_eq!(&pin.read_all().unwrap(), expect);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Multi-writer crash matrix: several writers commit concurrently on
/// *disjoint subtrees* through the one write path
/// (`ConcurrentStore::with_write_durable`: mutate, seal and publish under
/// the store guard, group-fsync wait outside it), then the WAL is torn at
/// every sampled byte length. Each commit wraps TWO sibling elements, so
/// recovery must honor three properties at every tear point:
///
/// - **all-or-nothing per commit group**: a commit's pair is either fully
///   present or fully absent, never split;
/// - **per-writer prefix**: each writer's commits replay in their issue
///   order, so the recovered elements of one subtree form a contiguous
///   prefix of that writer's sequence (the interleaving *between* writers
///   is whatever order their WAL appends landed in);
/// - **a single recovered epoch** equal to the WAL-committed prefix.
#[test]
fn multi_writer_crash_matrix_recovers_per_writer_prefixes() {
    const WRITERS: usize = 3;
    const COMMITS: usize = 8;
    let dir = temp_dir("mw-template");
    let mut store = StoreBuilder::new()
        .directory(&dir)
        .storage(storage())
        .commit_window(std::time::Duration::from_millis(1))
        .build()
        .unwrap();
    store
        .bulk_insert(parse_fragment("<root/>", axs_xml::ParseOptions::data_centric()).unwrap())
        .unwrap();
    // One subtree per writer; the insert's interval start is its node id.
    let subtrees: Vec<NodeId> = (0..WRITERS)
        .map(|t| {
            let frag =
                parse_fragment(&format!("<t{t}/>"), axs_xml::ParseOptions::data_centric()).unwrap();
            store.insert_into_last(NodeId(1), frag).unwrap().start
        })
        .collect();
    store.flush().unwrap();
    let baseline_wal = std::fs::metadata(dir.join("wal.log")).unwrap().len();

    // Concurrent phase: every writer commits on its own subtree, racing
    // the others for the store guard and sharing the fsync batcher.
    let store = ConcurrentStore::new(store);
    let barrier = std::sync::Barrier::new(WRITERS);
    std::thread::scope(|scope| {
        for (t, &subtree) in subtrees.iter().enumerate() {
            let store = store.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for j in 0..COMMITS {
                    // Two siblings per commit: the all-or-nothing probe.
                    let frag = parse_fragment(
                        &format!("<w{t}-{j}a/><w{t}-{j}b/>"),
                        axs_xml::ParseOptions::data_centric(),
                    )
                    .unwrap();
                    store
                        .with_write_durable(|s| s.insert_into_last(subtree, frag))
                        .unwrap()
                        .unwrap();
                }
            });
        }
    });
    store.with_read(|s| s.check_invariants()).unwrap();
    drop(store); // crash: nothing flushed since the baseline

    let full_wal = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(full_wal > baseline_wal, "commits must have grown the log");

    // Count a writer's recovered commits, asserting pairs are atomic and
    // the indices form a contiguous prefix.
    let writer_prefix = |tokens: &[Token], t: usize, cut: u64| -> usize {
        let has = |name: &str| {
            tokens
                .iter()
                .any(|tok| tok.name().is_some_and(|n| n.is_local(name)))
        };
        let mut prefix = 0;
        let mut ended = false;
        for j in 0..COMMITS {
            let a = has(&format!("w{t}-{j}a"));
            let b = has(&format!("w{t}-{j}b"));
            assert_eq!(
                a, b,
                "cut={cut}: writer {t} commit {j} was replayed partially"
            );
            if a {
                assert!(
                    !ended,
                    "cut={cut}: writer {t} commit {j} present after a gap — \
                     not a prefix of its issue order"
                );
                prefix = j + 1;
            } else {
                ended = true;
            }
        }
        prefix
    };

    let step = ((full_wal - baseline_wal) / 512).max(1);
    let trial = temp_dir("mw-trial");
    let mut last_prefixes = vec![0usize; WRITERS];
    let mut saw_partial = false;
    let mut cut = baseline_wal;
    loop {
        copy_template(&dir, &trial);
        let wal = std::fs::OpenOptions::new()
            .write(true)
            .open(trial.join("wal.log"))
            .unwrap();
        wal.set_len(cut).unwrap();
        drop(wal);

        let recovered = StoreBuilder::new()
            .directory(&trial)
            .storage(storage())
            .open()
            .expect("recovery must reopen the store");
        recovered.check_invariants().unwrap();
        let stats = recovered.mvcc_stats();
        assert_eq!(
            stats.current_epoch, 1,
            "cut={cut}: recovery publishes exactly one epoch"
        );
        assert_eq!(stats.epochs_live, 1);
        let snap = recovered.epoch_registry().pin().unwrap();
        let tokens = recovered.read_all().unwrap();
        assert_eq!(
            snap.read_all().unwrap(),
            tokens,
            "cut={cut}: the recovered epoch is the WAL-committed prefix"
        );
        drop(snap);
        drop(recovered);
        std::fs::remove_dir_all(&trial).unwrap();

        let prefixes: Vec<usize> = (0..WRITERS)
            .map(|t| writer_prefix(&tokens, t, cut))
            .collect();
        for (t, (&now, &before)) in prefixes.iter().zip(&last_prefixes).enumerate() {
            assert!(
                now >= before,
                "cut={cut}: longer log recovered fewer commits for writer {t}"
            );
        }
        if prefixes.iter().any(|&p| p > 0) && prefixes.iter().any(|&p| p < COMMITS) {
            saw_partial = true;
        }
        last_prefixes = prefixes;

        if cut == full_wal {
            break;
        }
        cut = (cut + step).min(full_wal);
    }
    assert_eq!(
        last_prefixes,
        vec![COMMITS; WRITERS],
        "the full log must recover every writer's commits"
    );
    assert!(
        saw_partial,
        "the sweep never landed mid-stream — step too coarse to mean anything"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_matrix_every_write_index() {
    let tmpl = temp_dir("tmpl");
    build_template(&tmpl);
    let trial = temp_dir("trial");

    // Dry run: count the writes the script produces so the matrix covers
    // every crash point with none left over.
    let dry = run_trial(&tmpl, &trial, None, false);
    assert!(!dry.crashed);
    assert!(
        dry.writes >= 200,
        "workload too small for a meaningful matrix: {} writes",
        dry.writes
    );

    let mut crashes = 0u64;
    for k in 0..dry.writes {
        // Alternate clean and torn crashes across the matrix.
        let r = run_trial(&tmpl, &trial, Some(k), k % 2 == 0);
        assert!(r.crashed, "crash point {k} of {} never fired", dry.writes);
        crashes += 1;
    }
    assert_eq!(crashes, dry.writes);
    std::fs::remove_dir_all(&tmpl).unwrap();
}
