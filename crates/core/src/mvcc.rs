//! Epoch-based MVCC snapshots: immutable read views published at commit.
//!
//! The store's write path mutates pages in place under exclusive access;
//! the read path must never wait for it. The bridge is the **epoch**: every
//! successful commit publishes a frozen [`Snapshot`] of the range chain
//! (epoch N+1), readers [`EpochRegistry::pin`] whatever epoch is current at
//! dispatch and run entirely against that snapshot — no store lock, no
//! buffer-pool traffic — and an epoch is *retired* once it is neither
//! current nor pinned by any reader.
//!
//! Snapshots are copy-on-write at range granularity: a commit only
//! re-decodes the ranges the write batch actually touched (the store's
//! dirty-range set); every clean range is shared with the previous epoch
//! by `Arc`, so the marginal cost of an epoch is proportional to the write,
//! not to the store.
//!
//! Ordering with the group-commit WAL follows the existing
//! visibility-before-durability contract: `commit()` appends the batch to
//! the WAL, obtains its [`CommitTicket`](axs_storage::CommitTicket), then
//! publishes the snapshot — so an epoch becomes visible exactly when the
//! writer's changes become visible to live-store readers, and a crash
//! before the group fsync erases the epoch together with the batch (recovery
//! replays the committed prefix; see the crash-matrix tests).

use crate::error::StoreError;
use crate::range::{RangeData, RangeHeader};
use crate::table::NodeTable;
use crate::view::{ReadView, ViewPos};
use axs_obs::{Histogram, HistogramSnapshot};
use axs_xdm::{IdInterval, NodeId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One range frozen into a snapshot: the raw encoded payload plus its
/// eagerly decoded header (cheap — 24 fixed bytes, and enough to build the
/// snapshot's id and range indexes). The full token decode is deferred to
/// the first read that actually loads the range ([`LazyRange::data`]),
/// so publishing an epoch costs O(dirty payload bytes), not O(dirty token
/// decode) — and ranges nobody reads are never decoded at all.
pub struct LazyRange {
    header: RangeHeader,
    payload: Vec<u8>,
    decoded: OnceLock<Arc<RangeData>>,
    /// Registry-wide count of deferred decodes that actually happened
    /// (`mvcc.lazy_materialized`): proof the laziness fires.
    materialized: Arc<AtomicU64>,
}

impl LazyRange {
    /// Wraps an encoded payload, decoding only the header.
    pub fn from_payload(
        payload: Vec<u8>,
        materialized: Arc<AtomicU64>,
    ) -> Result<LazyRange, StoreError> {
        let header = RangeHeader::decode(&payload)?;
        Ok(LazyRange {
            header,
            payload,
            decoded: OnceLock::new(),
            materialized,
        })
    }

    /// Wraps already-decoded data (tests, eager callers). Does not count
    /// as a lazy materialization.
    pub fn from_decoded(data: Arc<RangeData>) -> LazyRange {
        let cell = OnceLock::new();
        let _ = cell.set(data.clone());
        LazyRange {
            header: data.header,
            payload: Vec::new(),
            decoded: cell,
            materialized: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The range header (decoded at publish time).
    pub fn header(&self) -> &RangeHeader {
        &self.header
    }

    /// The fully decoded tokens, materializing them on first call. Decodes
    /// race-free: concurrent first readers may both decode, but exactly one
    /// result wins the cell and the counter advances once.
    pub fn data(&self) -> Result<Arc<RangeData>, StoreError> {
        if let Some(d) = self.decoded.get() {
            return Ok(d.clone());
        }
        let data = Arc::new(RangeData::decode(&self.payload)?);
        match self.decoded.set(data) {
            Ok(()) => {
                self.materialized.fetch_add(1, Ordering::Relaxed);
                Ok(self.decoded.get().expect("just set").clone())
            }
            Err(_) => Ok(self.decoded.get().expect("set raced").clone()),
        }
    }

    /// Whether the full decode has happened.
    pub fn is_materialized(&self) -> bool {
        self.decoded.get().is_some()
    }
}

/// An immutable view of the store's range chain at one commit point, with
/// per-range payloads decoded lazily on first read. Implements
/// [`ReadView`], so every read algorithm (point reads, navigation,
/// cursors, XPath/XQuery) runs against it unchanged.
pub struct Snapshot {
    epoch: u64,
    lsn: u64,
    created: Instant,
    /// Ranges in document order, shared with neighbouring epochs (so a
    /// range decoded under one epoch stays decoded in every epoch that
    /// shares it).
    ranges: Vec<Arc<LazyRange>>,
    /// Id interval → document position, sorted by interval start. Intervals
    /// are disjoint (each id lives in exactly one range), so containment
    /// lookup is a binary search.
    by_id: Vec<(IdInterval, u32)>,
    /// Stable range id → document position.
    by_range: HashMap<u64, u32>,
    /// The epoch's node table, built by the first query that needs it and
    /// dropped with the epoch.
    table: OnceLock<Arc<NodeTable<'static>>>,
    /// Registry-wide count of tables built (`mvcc.tables_built`).
    tables_built: Arc<AtomicU64>,
}

impl Snapshot {
    /// Indexes `ranges` for an epoch whose number the registry assigns
    /// when it publishes the snapshot.
    fn new(lsn: u64, ranges: Vec<Arc<LazyRange>>, tables_built: Arc<AtomicU64>) -> Snapshot {
        let mut by_id: Vec<(IdInterval, u32)> = ranges
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.header.interval().map(|iv| (iv, i as u32)))
            .collect();
        by_id.sort_by_key(|(iv, _)| iv.start);
        let by_range = ranges
            .iter()
            .enumerate()
            .map(|(i, r)| (r.header.range_id, i as u32))
            .collect();
        Snapshot {
            epoch: 0,
            lsn,
            created: Instant::now(),
            ranges,
            by_id,
            by_range,
            table: OnceLock::new(),
            tables_built,
        }
    }

    /// The epoch number this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// LSN of the WAL commit record that published this epoch (0 for
    /// in-memory stores and the initial open snapshot).
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Number of ranges frozen in this snapshot.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// The shared (possibly still undecoded) range of `range_id`, if
    /// present (the publish-time copy-on-write reuse hook).
    pub(crate) fn range_arc(&self, range_id: u64) -> Option<Arc<LazyRange>> {
        self.by_range
            .get(&range_id)
            .map(|&i| self.ranges[i as usize].clone())
    }
}

impl ReadView for Snapshot {
    fn view_first_range(&self) -> Result<Option<ViewPos>, StoreError> {
        Ok(if self.ranges.is_empty() {
            None
        } else {
            Some((0, 0))
        })
    }

    fn view_next_range(&self, at: ViewPos) -> Result<Option<ViewPos>, StoreError> {
        let next = at.0 + 1;
        Ok(if (next as usize) < self.ranges.len() {
            Some((next, 0))
        } else {
            None
        })
    }

    fn view_prev_range(&self, at: ViewPos) -> Result<Option<ViewPos>, StoreError> {
        Ok(if at.0 > 0 { Some((at.0 - 1, 0)) } else { None })
    }

    fn view_load_at(&self, at: ViewPos) -> Result<Arc<RangeData>, StoreError> {
        self.ranges
            .get(at.0 as usize)
            .ok_or(StoreError::Corrupt("snapshot position out of range"))?
            .data()
    }

    fn view_locate_range(&self, range_id: u64) -> Result<ViewPos, StoreError> {
        self.by_range
            .get(&range_id)
            .map(|&i| (u64::from(i), 0))
            .ok_or(StoreError::Corrupt("range id missing from snapshot"))
    }

    fn view_find_begin(&self, id: NodeId) -> Result<(u64, u32), StoreError> {
        let i = self.by_id.partition_point(|(iv, _)| iv.start <= id);
        if i == 0 {
            return Err(StoreError::NodeNotFound(id));
        }
        let (iv, pos) = self.by_id[i - 1];
        if !iv.contains(id) {
            return Err(StoreError::NodeNotFound(id));
        }
        let data = self.ranges[pos as usize].data()?;
        let idx = data.index_of_id(id).ok_or(StoreError::Corrupt(
            "snapshot interval points at wrong range",
        ))?;
        Ok((data.header.range_id, idx as u32))
    }

    fn node_table(&self) -> Result<Arc<NodeTable<'static>>, StoreError> {
        if let Some(table) = self.table.get() {
            return Ok(table.clone());
        }
        let ranges = self
            .ranges
            .iter()
            .map(|r| r.data())
            .collect::<Result<Vec<_>, _>>()?;
        // A concurrent first query waits for this build instead of
        // repeating it, so the count is exactly one per epoch.
        let table = self.table.get_or_init(|| {
            self.tables_built.fetch_add(1, Ordering::Relaxed);
            Arc::new(NodeTable::from_ranges(ranges))
        });
        Ok(table.clone())
    }
}

/// A pin on one epoch. Derefs to the pinned [`Snapshot`]; dropping the
/// guard unpins, retiring the epoch when it was the last pin on a
/// superseded snapshot.
pub struct PinnedSnapshot {
    registry: Arc<EpochRegistry>,
    snap: Arc<Snapshot>,
}

impl std::ops::Deref for PinnedSnapshot {
    type Target = Snapshot;

    fn deref(&self) -> &Snapshot {
        &self.snap
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        self.registry.unpin(self.snap.epoch);
    }
}

/// Counters describing one store's epoch lifecycle (the `mvcc.*` entries
/// of the `Stats` opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvccStats {
    /// Epoch number of the current (latest published) snapshot.
    pub current_epoch: u64,
    /// Epochs still reachable: the current one plus superseded epochs kept
    /// alive by reader pins. Bounded by the number of concurrent readers.
    pub epochs_live: u64,
    /// The min-active-epoch watermark: the oldest epoch some reader still
    /// pins (the current epoch when nothing is pinned). Every epoch below
    /// it has been retired.
    pub oldest_pinned: u64,
    /// Superseded epochs whose last pin is gone — memory actually
    /// reclaimed. Advances under churn; a stall here is a leak.
    pub retired_total: u64,
    /// Pins currently held by in-flight readers.
    pub pins_active: u64,
    /// Pins taken over the registry's lifetime.
    pub pins_total: u64,
    /// Snapshot ranges whose deferred token decode actually ran — the
    /// lazy-materialization counter (publish defers all decoding; this
    /// advances only when a reader first loads a range).
    pub lazy_materialized: u64,
    /// Snapshot node tables built: at most one per epoch, by the first
    /// query that pins it. Point reads never build one.
    pub tables_built: u64,
}

struct RegistryInner {
    current: Option<Arc<Snapshot>>,
    /// Pin counts per epoch (each pin guard holds its own `Arc` to the
    /// snapshot, so a counted epoch is always alive).
    pinned: BTreeMap<u64, usize>,
}

/// Per-store epoch lifecycle: publish on commit, pin at read dispatch,
/// retire when unreachable. Shared (`Arc`) between the store that publishes
/// and the server sessions that pin, so snapshots outlive catalog eviction
/// of the store itself.
pub struct EpochRegistry {
    inner: Mutex<RegistryInner>,
    retired_total: AtomicU64,
    pins_total: AtomicU64,
    /// Shared with every [`LazyRange`] this registry publishes: counts the
    /// deferred decodes that actually ran.
    lazy_materialized: Arc<AtomicU64>,
    /// Shared with every [`Snapshot`] this registry publishes: counts the
    /// node tables built.
    tables_built: Arc<AtomicU64>,
    /// Age of the pinned snapshot at pin time, in microseconds — how stale
    /// the data a reader observes actually is.
    age_us: Histogram,
}

impl Default for EpochRegistry {
    fn default() -> EpochRegistry {
        EpochRegistry {
            inner: Mutex::new(RegistryInner {
                current: None,
                pinned: BTreeMap::new(),
            }),
            retired_total: AtomicU64::new(0),
            pins_total: AtomicU64::new(0),
            lazy_materialized: Arc::new(AtomicU64::new(0)),
            tables_built: Arc::new(AtomicU64::new(0)),
            age_us: Histogram::new(),
        }
    }
}

impl EpochRegistry {
    /// The shared lazy-materialization counter, for building
    /// [`LazyRange`]s that report into this registry's stats.
    pub fn materialized_counter(&self) -> Arc<AtomicU64> {
        self.lazy_materialized.clone()
    }

    /// Publishes the next epoch from a document-ordered range chain,
    /// superseding (and possibly retiring) the previous current snapshot.
    /// Returns the new epoch number.
    ///
    /// Only the swap runs under the mutex every `pin`/`unpin` takes: the
    /// snapshot's indexes are built before it, and a superseded snapshot
    /// nobody pins (with its node table) is freed after it.
    pub fn publish(&self, lsn: u64, ranges: Vec<Arc<LazyRange>>) -> u64 {
        let mut snap = Snapshot::new(lsn, ranges, self.tables_built.clone());
        let mut inner = self.inner.lock();
        let epoch = inner.current.as_ref().map(|s| s.epoch + 1).unwrap_or(1);
        snap.epoch = epoch;
        let old = inner.current.replace(Arc::new(snap));
        if let Some(old) = &old {
            // The superseded epoch is retired now unless a reader pins it;
            // then the last unpin retires it.
            if !inner.pinned.contains_key(&old.epoch) {
                self.retired_total.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(inner);
        drop(old);
        epoch
    }

    /// Pins the current epoch for one reader. `None` before the first
    /// publish (the store always publishes on build/open, so this means
    /// "no store behind this registry yet").
    pub fn pin(self: &Arc<Self>) -> Option<PinnedSnapshot> {
        let mut inner = self.inner.lock();
        let snap = inner.current.clone()?;
        *inner.pinned.entry(snap.epoch).or_insert(0) += 1;
        drop(inner);
        self.pins_total.fetch_add(1, Ordering::Relaxed);
        self.age_us
            .record(snap.created.elapsed().as_micros() as u64);
        Some(PinnedSnapshot {
            registry: self.clone(),
            snap,
        })
    }

    fn unpin(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        let count = inner
            .pinned
            .get_mut(&epoch)
            .expect("unpin of an epoch that holds no pins");
        *count -= 1;
        if *count == 0 {
            inner.pinned.remove(&epoch);
            let still_current = inner.current.as_ref().is_some_and(|c| c.epoch == epoch);
            if !still_current {
                self.retired_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The current (latest published) snapshot, unpinned.
    pub fn current(&self) -> Option<Arc<Snapshot>> {
        self.inner.lock().current.clone()
    }

    /// The min-active-epoch watermark (see [`MvccStats::oldest_pinned`]).
    pub fn min_active_epoch(&self) -> u64 {
        let inner = self.inner.lock();
        let current = inner.current.as_ref().map(|s| s.epoch).unwrap_or(0);
        inner.pinned.keys().next().copied().unwrap_or(current)
    }

    /// Lifecycle counters (the `mvcc.*` stat entries).
    pub fn stats(&self) -> MvccStats {
        let inner = self.inner.lock();
        let current_epoch = inner.current.as_ref().map(|s| s.epoch).unwrap_or(0);
        let current_pinned = inner.pinned.contains_key(&current_epoch);
        let epochs_live =
            inner.pinned.len() as u64 + u64::from(inner.current.is_some() && !current_pinned);
        let oldest_pinned = inner.pinned.keys().next().copied().unwrap_or(current_epoch);
        let pins_active = inner.pinned.values().map(|&n| n as u64).sum();
        drop(inner);
        MvccStats {
            current_epoch,
            epochs_live,
            oldest_pinned,
            retired_total: self.retired_total.load(Ordering::Relaxed),
            pins_active,
            pins_total: self.pins_total.load(Ordering::Relaxed),
            lazy_materialized: self.lazy_materialized.load(Ordering::Relaxed),
            tables_built: self.tables_built.load(Ordering::Relaxed),
        }
    }

    /// Snapshot-age histogram (µs between publish and pin).
    pub fn age_snapshot(&self) -> HistogramSnapshot {
        self.age_us.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<EpochRegistry> {
        Arc::new(EpochRegistry::default())
    }

    #[test]
    fn publish_pin_unpin_accounting() {
        let reg = registry();
        assert!(reg.pin().is_none(), "nothing published yet");
        assert_eq!(reg.min_active_epoch(), 0);

        assert_eq!(reg.publish(10, Vec::new()), 1);
        let pin1 = reg.pin().unwrap();
        assert_eq!(pin1.epoch(), 1);
        assert_eq!(pin1.lsn(), 10);
        assert_eq!(reg.min_active_epoch(), 1);

        // Superseding a pinned epoch must not retire it.
        assert_eq!(reg.publish(20, Vec::new()), 2);
        let s = reg.stats();
        assert_eq!(s.current_epoch, 2);
        assert_eq!(s.epochs_live, 2, "epoch 1 pinned, epoch 2 current");
        assert_eq!(s.retired_total, 0);
        assert_eq!(s.oldest_pinned, 1, "watermark is the oldest pin");

        // Last unpin of a superseded epoch retires it.
        drop(pin1);
        let s = reg.stats();
        assert_eq!(s.epochs_live, 1);
        assert_eq!(s.retired_total, 1);
        assert_eq!(s.oldest_pinned, 2, "watermark falls back to current");
        assert_eq!(s.pins_active, 0);
        assert_eq!(s.pins_total, 1);
    }

    #[test]
    fn unpinned_supersede_retires_immediately() {
        let reg = registry();
        reg.publish(0, Vec::new());
        reg.publish(0, Vec::new());
        reg.publish(0, Vec::new());
        let s = reg.stats();
        assert_eq!(s.current_epoch, 3);
        assert_eq!(s.epochs_live, 1);
        assert_eq!(s.retired_total, 2, "both superseded epochs reclaimed");
    }

    #[test]
    fn unpinning_the_current_epoch_does_not_retire_it() {
        let reg = registry();
        reg.publish(0, Vec::new());
        let a = reg.pin().unwrap();
        let b = reg.pin().unwrap();
        assert_eq!(reg.stats().pins_active, 2);
        drop(a);
        drop(b);
        let s = reg.stats();
        assert_eq!(s.retired_total, 0, "epoch 1 is still current");
        assert_eq!(s.epochs_live, 1);
        // It can still be pinned again afterwards.
        assert_eq!(reg.pin().unwrap().epoch(), 1);
    }

    #[test]
    fn many_pins_across_many_epochs() {
        let reg = registry();
        let mut pins = Vec::new();
        for i in 0..5 {
            reg.publish(i, Vec::new());
            pins.push(reg.pin().unwrap());
        }
        let s = reg.stats();
        assert_eq!(s.current_epoch, 5);
        assert_eq!(s.epochs_live, 5);
        assert_eq!(s.oldest_pinned, 1);
        // Dropping out of order retires each superseded epoch exactly once.
        pins.swap(0, 3);
        drop(pins);
        let s = reg.stats();
        assert_eq!(s.retired_total, 4);
        assert_eq!(s.epochs_live, 1);
        assert_eq!(reg.min_active_epoch(), 5);
        assert!(reg.age_snapshot().count >= 5, "pin ages recorded");
    }

    fn lazy(reg: &EpochRegistry, range_id: u64, start: u64) -> Arc<LazyRange> {
        let data = RangeData::new(
            range_id,
            NodeId(start),
            vec![
                axs_xdm::Token::begin_element("n"),
                axs_xdm::Token::EndElement,
            ],
        );
        Arc::new(LazyRange::from_payload(data.encode(), reg.materialized_counter()).unwrap())
    }

    #[test]
    fn lazy_range_decodes_once_on_first_read() {
        let reg = registry();
        reg.publish(5, vec![lazy(&reg, 1, 1), lazy(&reg, 2, 10)]);
        let pin = reg.pin().unwrap();
        assert_eq!(reg.stats().lazy_materialized, 0, "publish decodes nothing");
        // First load materializes exactly the touched range.
        let data = pin.view_load_at((0, 0)).unwrap();
        assert_eq!(data.header.range_id, 1);
        assert_eq!(reg.stats().lazy_materialized, 1);
        // Re-reading is free; the untouched neighbour stays encoded.
        let _ = pin.view_load_at((0, 0)).unwrap();
        assert_eq!(reg.stats().lazy_materialized, 1);
        // COW across epochs shares the decoded cell.
        drop(pin);
        let carried = reg.current().unwrap().range_arc(1).unwrap();
        reg.publish(6, vec![carried, lazy(&reg, 2, 10)]);
        let pin = reg.pin().unwrap();
        let _ = pin.view_load_at((0, 0)).unwrap();
        assert_eq!(reg.stats().lazy_materialized, 1, "decode survives COW");
    }
}
