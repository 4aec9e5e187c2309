//! Concurrency wrapper (§9 outlook: "Another aspect to explore, not
//! addressed here, is concurrency").
//!
//! The paper defers fine-grained XML locking to future work; what this crate
//! ships is the coarse but correct building block: a reader-writer wrapper
//! that admits concurrent readers and exclusive writers over the store. The
//! three-layer model (blocks / ranges / tokens) the paper sketches for
//! finer protocols maps onto the internal structure, but per-range locks are
//! out of scope here.

use crate::error::StoreError;
use crate::store::XmlStore;
use axs_xdm::{IdInterval, NodeId, Token};
use parking_lot::RwLock;
use std::sync::Arc;

/// A thread-safe handle over an [`XmlStore`]. Cloning shares the store.
#[derive(Clone)]
pub struct ConcurrentStore {
    inner: Arc<RwLock<XmlStore>>,
}

impl ConcurrentStore {
    /// Wraps a store for shared use.
    pub fn new(store: XmlStore) -> Self {
        ConcurrentStore {
            inner: Arc::new(RwLock::new(store)),
        }
    }

    /// Runs a closure with shared read access.
    ///
    /// The whole read API works through `&XmlStore` — statistics and
    /// partial-index memoization are internally synchronized — so every
    /// read-only operation belongs here, not under `with_write`.
    pub fn with_read<R>(&self, f: impl FnOnce(&XmlStore) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs a closure with exclusive access.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut XmlStore) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Runs a closure with exclusive access, commits, and waits for
    /// durability *after* releasing the lock — the group-commit discipline:
    /// while this writer blocks on the shared fsync, the store is free for
    /// readers and the next writer, whose commit lands in the same fsync
    /// batch (see `XmlStore::commit`). In-memory stores skip the wait.
    pub fn with_write_durable<R>(
        &self,
        f: impl FnOnce(&mut XmlStore) -> R,
    ) -> Result<R, StoreError> {
        let (result, ticket) = {
            let mut store = self.inner.write();
            let result = f(&mut store);
            let ticket = store.commit()?;
            (result, ticket)
        };
        if let Some(ticket) = ticket {
            ticket.wait()?;
        }
        Ok(result)
    }

    /// `read(id)` under shared access: concurrent readers proceed in
    /// parallel, memoizing positions as they go.
    pub fn read_node(&self, id: NodeId) -> Result<Vec<Token>, StoreError> {
        self.with_read(|s| s.read_node(id))
    }

    /// Whole-store read under shared access.
    pub fn read_all(&self) -> Result<Vec<Token>, StoreError> {
        self.with_read(|s| s.read_all())
    }

    /// `insertIntoLast` under the lock.
    pub fn insert_into_last(
        &self,
        id: NodeId,
        tokens: Vec<Token>,
    ) -> Result<IdInterval, StoreError> {
        self.with_write(|s| s.insert_into_last(id, tokens))
    }

    /// Bulk append under the lock.
    pub fn bulk_insert(&self, tokens: Vec<Token>) -> Result<IdInterval, StoreError> {
        self.with_write(|s| s.bulk_insert(tokens))
    }

    /// `deleteNode` under the lock.
    pub fn delete_node(&self, id: NodeId) -> Result<(), StoreError> {
        self.with_write(|s| s.delete_node(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use axs_xml::{parse_fragment, ParseOptions};

    fn frag(xml: &str) -> Vec<Token> {
        parse_fragment(xml, ParseOptions::default()).unwrap()
    }

    #[test]
    fn concurrent_appends_are_serialized() {
        let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
        store.bulk_insert(frag("<root/>")).unwrap();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..25 {
                        store
                            .insert_into_last(NodeId(1), frag(&format!("<w t=\"{t}\" i=\"{i}\"/>")))
                            .unwrap();
                    }
                });
            }
        });

        let tokens = store.read_all().unwrap();
        let children = tokens
            .iter()
            .filter(|t| t.name().is_some_and(|n| n.is_local("w")))
            .count();
        assert_eq!(children, 100);
        store.with_read(|s| s.check_invariants()).unwrap();
    }

    #[test]
    fn durable_writes_share_fsyncs() {
        let dir = std::env::temp_dir().join(format!("axs-lock-durable-{}", std::process::id()));
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
            .unwrap()
            .unwrap();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..10 {
                        store
                            .with_write_durable(|s| {
                                s.insert_into_last(
                                    NodeId(1),
                                    frag(&format!("<w t=\"{t}\" i=\"{i}\"/>")),
                                )
                            })
                            .unwrap()
                            .unwrap();
                    }
                });
            }
        });

        let (children, gc) = store.with_read(|s| {
            s.check_invariants().unwrap();
            let tokens = s.read_all().unwrap();
            let children = tokens
                .iter()
                .filter(|t| t.name().is_some_and(|n| n.is_local("w")))
                .count();
            (children, s.group_commit_stats().unwrap())
        });
        assert_eq!(children, 40);
        assert_eq!(gc.commits, 41);
        assert_eq!(gc.batches.iter().sum::<u64>(), gc.syncs);
        drop(store);

        // Nothing was flushed: recovery alone must reproduce all 40 writes.
        let reopened = StoreBuilder::new().directory(&dir).open().unwrap();
        let tokens = reopened.read_all().unwrap();
        let children = tokens
            .iter()
            .filter(|t| t.name().is_some_and(|n| n.is_local("w")))
            .count();
        assert_eq!(children, 40);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_interleave_with_writers() {
        let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
        store.bulk_insert(frag("<root><seed/></root>")).unwrap();

        std::thread::scope(|scope| {
            let w = store.clone();
            scope.spawn(move || {
                for i in 0..50 {
                    w.insert_into_last(NodeId(1), frag(&format!("<x i=\"{i}\"/>")))
                        .unwrap();
                }
            });
            for _ in 0..3 {
                let r = store.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let tokens = r.read_all().unwrap();
                        // Every observed snapshot is a well-formed fragment.
                        axs_xdm::fragment_well_formed(&tokens).unwrap();
                    }
                });
            }
        });
        store.with_read(|s| s.check_invariants()).unwrap();
    }
}
