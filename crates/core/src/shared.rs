//! The one handle on a shared store (§9 outlook: "Another aspect to
//! explore, not addressed here, is concurrency").
//!
//! [`ConcurrentStore`] pairs the store's reader-writer lock with its MVCC
//! epoch registry. Shared reads borrow the live store, snapshot reads pin
//! through [`ConcurrentStore::epochs`] without touching the lock, and
//! [`ConcurrentStore::with_write_durable`] is the one durable-write path:
//! mutate, commit under the write guard, wait for the group fsync outside
//! it. The server's catalog slots and embedded callers both go through it.

use crate::error::StoreError;
use crate::mvcc::EpochRegistry;
use crate::store::XmlStore;
use parking_lot::RwLock;
use std::sync::Arc;

/// A thread-safe handle over an [`XmlStore`]. Share it by reference (or
/// behind an `Arc`).
pub struct ConcurrentStore {
    store: RwLock<XmlStore>,
    epochs: Arc<EpochRegistry>,
}

impl ConcurrentStore {
    /// Wraps a store for shared use.
    pub fn new(store: XmlStore) -> Self {
        ConcurrentStore {
            epochs: store.epoch_registry(),
            store: RwLock::new(store),
        }
    }

    /// The store's epoch registry: pin read snapshots here without taking
    /// the lock. Pinned snapshots stay readable even after the store itself
    /// is flushed and closed.
    pub fn epochs(&self) -> &Arc<EpochRegistry> {
        &self.epochs
    }

    /// Runs a closure with shared read access.
    ///
    /// The whole read API works through `&XmlStore` — statistics and
    /// partial-index memoization are internally synchronized — so every
    /// read-only operation belongs here, not under `with_write`.
    pub fn with_read<R>(&self, f: impl FnOnce(&XmlStore) -> R) -> R {
        f(&self.store.read())
    }

    /// Runs a closure with exclusive access and no commit (`flush`, or
    /// batching several mutations before one durable write).
    pub fn with_write<R>(&self, f: impl FnOnce(&mut XmlStore) -> R) -> R {
        f(&mut self.store.write())
    }

    /// Runs a fallible mutation with exclusive access; if it succeeds,
    /// commits and waits for durability *after* releasing the lock — the
    /// group-commit discipline: while this writer blocks on the shared
    /// fsync, the store is free for readers and the next writer, whose
    /// commit lands in the same fsync batch (see `XmlStore::commit`).
    /// A mutation that fails commits nothing. In-memory stores skip the
    /// wait.
    pub fn with_write_durable<R, E: From<StoreError>>(
        &self,
        f: impl FnOnce(&mut XmlStore) -> Result<R, E>,
    ) -> Result<R, E> {
        let (result, ticket) = {
            let mut store = self.store.write();
            let result = f(&mut store)?;
            (result, store.commit()?)
        };
        if let Some(ticket) = ticket {
            ticket.wait().map_err(StoreError::from)?;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use axs_xdm::{IdInterval, NodeId, Token};
    use axs_xml::{parse_fragment, ParseOptions};

    fn frag(xml: &str) -> Vec<Token> {
        parse_fragment(xml, ParseOptions::default()).unwrap()
    }

    /// Appends writer `t`'s `i`-th `<w/>` under the root.
    fn append_w(s: &mut XmlStore, t: usize, i: usize) -> Result<IdInterval, StoreError> {
        s.insert_into_last(NodeId(1), frag(&format!("<w t=\"{t}\" i=\"{i}\"/>")))
    }

    fn count_w(tokens: &[Token]) -> usize {
        tokens
            .iter()
            .filter(|t| t.name().is_some_and(|n| n.is_local("w")))
            .count()
    }

    #[test]
    fn concurrent_appends_are_serialized() {
        let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
        store
            .with_write(|s| s.bulk_insert(frag("<root/>")))
            .unwrap();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..25 {
                        store.with_write(|s| append_w(s, t, i)).unwrap();
                    }
                });
            }
        });

        let tokens = store.with_read(|s| s.read_all()).unwrap();
        assert_eq!(count_w(&tokens), 100);
        store.with_read(|s| s.check_invariants()).unwrap();
    }

    #[test]
    fn durable_writes_share_fsyncs() {
        let dir = std::env::temp_dir().join(format!("axs-shared-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ConcurrentStore::new(
            StoreBuilder::new()
                .directory(&dir)
                .commit_window(std::time::Duration::from_millis(1))
                .build()
                .unwrap(),
        );
        store
            .with_write_durable(|s| s.bulk_insert(frag("<root/>")))
            .unwrap();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..10 {
                        store.with_write_durable(|s| append_w(s, t, i)).unwrap();
                    }
                });
            }
        });

        let (children, rows) = store.with_read(|s| {
            s.check_invariants().unwrap();
            let mut rows = Vec::new();
            s.stat_rows(&mut rows);
            (count_w(&s.read_all().unwrap()), rows)
        });
        let sum = |prefix| -> u64 {
            let rows = rows.iter().filter(|r| r.name.starts_with(prefix));
            rows.map(|r| r.value).sum()
        };
        assert_eq!(children, 40);
        assert_eq!(sum("wal.group_commits"), 41);
        assert_eq!(sum("wal.group_batch_"), sum("wal.group_syncs"));
        drop(store);

        // Nothing was flushed: recovery alone must reproduce all 40 writes.
        let reopened = StoreBuilder::new().directory(&dir).open().unwrap();
        assert_eq!(count_w(&reopened.read_all().unwrap()), 40);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_durable_write_commits_nothing() {
        let dir = std::env::temp_dir().join(format!("axs-shared-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ConcurrentStore::new(StoreBuilder::new().directory(&dir).build().unwrap());
        store
            .with_write_durable(|s| s.bulk_insert(frag("<root/>")))
            .unwrap();
        let state = || {
            let wal = std::fs::metadata(dir.join("wal.log")).unwrap().len();
            let gc = store.with_read(|s| s.group_commit_stats().unwrap());
            (gc.commits, store.epochs().stats().current_epoch, wal)
        };
        let before = state();

        let result =
            store.with_write_durable(|s| s.insert_into_last(NodeId(999_999), frag("<w/>")));

        assert!(result.is_err(), "insert under an unknown node must fail");
        assert_eq!(state(), before, "(group commits, epoch, WAL length) moved");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_interleave_with_writers() {
        let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
        store
            .with_write(|s| s.bulk_insert(frag("<root><seed/></root>")))
            .unwrap();

        std::thread::scope(|scope| {
            let w = &store;
            scope.spawn(move || {
                for i in 0..50 {
                    w.with_write(|s| append_w(s, 0, i)).unwrap();
                }
            });
            for _ in 0..3 {
                let r = &store;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let tokens = r.with_read(|s| s.read_all()).unwrap();
                        // Every observed snapshot is a well-formed fragment.
                        axs_xdm::fragment_well_formed(&tokens).unwrap();
                    }
                });
            }
        });
        store.with_read(|s| s.check_invariants()).unwrap();
    }
}
