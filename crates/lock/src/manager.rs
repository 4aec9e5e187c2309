//! The lock manager: blocking acquisition, strict two-phase release, and
//! wait-for-graph deadlock detection.

use crate::modes::{compatible, LockMode, Resource};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A transaction identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// Lock acquisition failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Granting the request would close a cycle in the wait-for graph; the
    /// requester is chosen as the victim and should release its locks and
    /// retry.
    Deadlock {
        /// The transaction that must abort (always the requester here).
        victim: TxId,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Deadlock { victim } => {
                write!(f, "deadlock detected; victim {victim}")
            }
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Default)]
struct Inner {
    /// Current holders per resource.
    holders: HashMap<Resource, HashMap<TxId, LockMode>>,
    /// Resources each transaction holds (for release).
    held: HashMap<TxId, HashSet<Resource>>,
    /// Wait-for edges: waiting tx → the holders it waits on.
    waits_for: HashMap<TxId, HashSet<TxId>>,
}

impl Inner {
    /// Transactions holding `res` in a mode incompatible with `tx`
    /// acquiring `mode` (taking upgrades into account).
    fn conflicts(&self, tx: TxId, res: Resource, mode: LockMode) -> Vec<TxId> {
        let Some(holders) = self.holders.get(&res) else {
            return Vec::new();
        };
        let desired = holders.get(&tx).map_or(mode, |held| held.supremum(mode));
        holders
            .iter()
            .filter(|(other, held)| **other != tx && !compatible(**held, desired))
            .map(|(other, _)| *other)
            .collect()
    }

    /// DFS: is `target` reachable from `from` over wait-for edges?
    fn reaches(&self, from: TxId, target: TxId, seen: &mut HashSet<TxId>) -> bool {
        if from == target {
            return true;
        }
        if !seen.insert(from) {
            return false;
        }
        self.waits_for
            .get(&from)
            .is_some_and(|next| next.iter().any(|&n| self.reaches(n, target, seen)))
    }

    fn grant(&mut self, tx: TxId, res: Resource, mode: LockMode) {
        let holders = self.holders.entry(res).or_default();
        let entry = holders.entry(tx).or_insert(mode);
        *entry = entry.supremum(mode);
        self.held.entry(tx).or_default().insert(res);
    }
}

/// Cumulative lock-manager activity counters (a snapshot; the live
/// counters are atomics so sessions record concurrently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Lock requests granted (including re-entrant grants and upgrades).
    pub acquisitions: u64,
    /// Times a requester had to block waiting for a holder.
    pub waits: u64,
    /// Requests aborted because waiting would have closed a cycle.
    pub deadlocks: u64,
    /// Shared (S/IS) requests granted with their whole intention path in
    /// one step by the fast path — the common case for read traffic.
    pub fast_shared_grants: u64,
    /// Reads that skipped the lock hierarchy entirely because they ran
    /// against a pinned MVCC snapshot — they never touched the manager
    /// beyond this counter, so they can neither wait nor deadlock.
    pub snapshot_bypasses: u64,
}

/// Encodes a lock mode into an observability event's `a` field (the
/// mapping `axs_obs::EventKind::lock_mode_name` decodes).
fn obs_mode_code(mode: LockMode) -> u64 {
    match mode {
        LockMode::S => 0,
        LockMode::X => 1,
        LockMode::IS => 2,
        LockMode::IX => 3,
    }
}

/// Packs a resource into an observability event's `b` field: the whole
/// store is `u64::MAX`, otherwise `block << 24 | range` (range ids above
/// 2^24 alias, which is acceptable for a diagnostic label).
fn obs_resource_code(resource: Resource) -> u64 {
    match resource {
        Resource::Store => u64::MAX,
        Resource::Block(block) => block << 24,
        Resource::Range { block, range } => (block << 24) | (range & 0x00ff_ffff),
    }
}

/// The hierarchical lock manager. Cheap to share behind an `Arc`.
///
/// ```
/// use axs_lock::{LockManager, LockMode, Resource};
/// let mgr = LockManager::new();
/// let writer = mgr.begin();
/// mgr.lock(writer, Resource::Range { block: 1, range: 7 }, LockMode::X)?;
/// // Another fine-grained writer in a different block proceeds...
/// let other = mgr.begin();
/// assert!(mgr.try_lock(other, Resource::Range { block: 2, range: 9 }, LockMode::X));
/// // ...but a whole-store scan has to wait.
/// let scan = mgr.begin();
/// assert!(!mgr.try_lock(scan, Resource::Store, LockMode::S));
/// mgr.unlock_all(writer);
/// mgr.unlock_all(other);
/// assert!(mgr.try_lock(scan, Resource::Store, LockMode::S));
/// # Ok::<(), axs_lock::LockError>(())
/// ```
pub struct LockManager {
    inner: Mutex<Inner>,
    released: Condvar,
    next_tx: AtomicU64,
    acquisitions: AtomicU64,
    waits: AtomicU64,
    deadlocks: AtomicU64,
    fast_shared_grants: AtomicU64,
    snapshot_bypasses: AtomicU64,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Creates an empty manager.
    pub fn new() -> LockManager {
        LockManager {
            inner: Mutex::new(Inner::default()),
            released: Condvar::new(),
            next_tx: AtomicU64::new(1),
            acquisitions: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            deadlocks: AtomicU64::new(0),
            fast_shared_grants: AtomicU64::new(0),
            snapshot_bypasses: AtomicU64::new(0),
        }
    }

    /// Records a read that ran against a pinned MVCC snapshot instead of
    /// acquiring S locks (see [`LockStats::snapshot_bypasses`]).
    pub fn note_snapshot_bypass(&self) {
        self.snapshot_bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the cumulative activity counters.
    pub fn stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            fast_shared_grants: self.fast_shared_grants.load(Ordering::Relaxed),
            snapshot_bypasses: self.snapshot_bypasses.load(Ordering::Relaxed),
        }
    }

    /// Starts a transaction.
    pub fn begin(&self) -> TxId {
        TxId(self.next_tx.fetch_add(1, Ordering::Relaxed))
    }

    /// Acquires `mode` on `resource` for `tx`, taking the matching
    /// intention locks on all ancestors first. Blocks until granted;
    /// returns [`LockError::Deadlock`] when waiting would close a cycle.
    ///
    /// Shared requests (S/IS) first try a fast path granting the whole
    /// intention path under a single manager-mutex acquisition — the
    /// common case for read traffic, where nothing conflicts and the
    /// per-level lock/unlock round trips of the general path are pure
    /// overhead. Any conflict anywhere on the path falls back to the
    /// general level-by-level path with its waiting and deadlock checks.
    pub fn lock(&self, tx: TxId, resource: Resource, mode: LockMode) -> Result<(), LockError> {
        let probe = axs_obs::probe_start();
        let result = self.lock_inner(tx, resource, mode);
        axs_obs::probe(
            axs_obs::EventKind::LockWait,
            probe,
            obs_mode_code(mode),
            obs_resource_code(resource),
        );
        result
    }

    fn lock_inner(&self, tx: TxId, resource: Resource, mode: LockMode) -> Result<(), LockError> {
        if matches!(mode, LockMode::S | LockMode::IS) && self.try_fast_shared(tx, resource, mode) {
            return Ok(());
        }
        for ancestor in resource.ancestors() {
            self.lock_one(tx, ancestor, mode.intention())?;
        }
        self.lock_one(tx, resource, mode)
    }

    /// One-shot shared grant over the whole path; `false` on any conflict
    /// (no partial grants — the caller re-runs the general path).
    fn try_fast_shared(&self, tx: TxId, resource: Resource, mode: LockMode) -> bool {
        let mut inner = self.inner.lock();
        let covered = |inner: &Inner, res: Resource, m: LockMode| {
            inner
                .holders
                .get(&res)
                .and_then(|h| h.get(&tx))
                .is_some_and(|held| held.covers(m))
        };
        let mut granted = 0u64;
        for ancestor in resource.ancestors() {
            let im = mode.intention();
            if covered(&inner, ancestor, im) {
                continue;
            }
            if !inner.conflicts(tx, ancestor, im).is_empty() {
                return false;
            }
            granted += 1;
        }
        if !covered(&inner, resource, mode) {
            if !inner.conflicts(tx, resource, mode).is_empty() {
                return false;
            }
            granted += 1;
        }
        for ancestor in resource.ancestors() {
            inner.grant(tx, ancestor, mode.intention());
        }
        inner.grant(tx, resource, mode);
        drop(inner);
        self.acquisitions.fetch_add(granted, Ordering::Relaxed);
        self.fast_shared_grants.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Non-blocking variant: returns `false` instead of waiting.
    pub fn try_lock(&self, tx: TxId, resource: Resource, mode: LockMode) -> bool {
        let mut inner = self.inner.lock();
        // Check the whole path first, then grant atomically.
        for ancestor in resource.ancestors() {
            if !inner.conflicts(tx, ancestor, mode.intention()).is_empty() {
                return false;
            }
        }
        if !inner.conflicts(tx, resource, mode).is_empty() {
            return false;
        }
        for ancestor in resource.ancestors() {
            inner.grant(tx, ancestor, mode.intention());
        }
        inner.grant(tx, resource, mode);
        true
    }

    fn lock_one(&self, tx: TxId, res: Resource, mode: LockMode) -> Result<(), LockError> {
        let mut inner = self.inner.lock();
        loop {
            // Already covered?
            if inner
                .holders
                .get(&res)
                .and_then(|h| h.get(&tx))
                .is_some_and(|held| held.covers(mode))
            {
                return Ok(());
            }
            let conflicts = inner.conflicts(tx, res, mode);
            if conflicts.is_empty() {
                inner.grant(tx, res, mode);
                inner.waits_for.remove(&tx);
                self.acquisitions.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            // Would waiting close a cycle?
            for &holder in &conflicts {
                let mut seen = HashSet::new();
                if inner.reaches(holder, tx, &mut seen) {
                    inner.waits_for.remove(&tx);
                    self.deadlocks.fetch_add(1, Ordering::Relaxed);
                    return Err(LockError::Deadlock { victim: tx });
                }
            }
            self.waits.fetch_add(1, Ordering::Relaxed);
            inner
                .waits_for
                .entry(tx)
                .or_default()
                .extend(conflicts.iter().copied());
            self.released.wait(&mut inner);
            // Re-derive edges on the next iteration.
            inner.waits_for.remove(&tx);
        }
    }

    /// Releases every lock `tx` holds (strict two-phase: all at end).
    pub fn unlock_all(&self, tx: TxId) {
        let mut inner = self.inner.lock();
        if let Some(resources) = inner.held.remove(&tx) {
            for res in resources {
                if let Some(holders) = inner.holders.get_mut(&res) {
                    holders.remove(&tx);
                    if holders.is_empty() {
                        inner.holders.remove(&res);
                    }
                }
            }
        }
        inner.waits_for.remove(&tx);
        for edges in inner.waits_for.values_mut() {
            edges.remove(&tx);
        }
        drop(inner);
        self.released.notify_all();
    }

    /// The locks `tx` currently holds (for tests and introspection).
    pub fn held_by(&self, tx: TxId) -> Vec<(Resource, LockMode)> {
        let inner = self.inner.lock();
        let mut out: Vec<(Resource, LockMode)> = inner
            .held
            .get(&tx)
            .into_iter()
            .flatten()
            .filter_map(|res| {
                inner
                    .holders
                    .get(res)
                    .and_then(|h| h.get(&tx))
                    .map(|m| (*res, *m))
            })
            .collect();
        out.sort_by_key(|(r, _)| format!("{r}"));
        out
    }

    /// Total number of (resource, tx) lock grants (for tests).
    pub fn grant_count(&self) -> usize {
        let inner = self.inner.lock();
        inner.holders.values().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::LockMode::*;
    use std::sync::Arc;

    fn range(block: u64, range: u64) -> Resource {
        Resource::Range { block, range }
    }

    #[test]
    fn lock_takes_intention_path() {
        let mgr = LockManager::new();
        let tx = mgr.begin();
        mgr.lock(tx, range(1, 7), X).unwrap();
        let held = mgr.held_by(tx);
        assert!(held.contains(&(Resource::Store, IX)));
        assert!(held.contains(&(Resource::Block(1), IX)));
        assert!(held.contains(&(range(1, 7), X)));
        mgr.unlock_all(tx);
        assert_eq!(mgr.grant_count(), 0);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let mgr = LockManager::new();
        let r1 = mgr.begin();
        let r2 = mgr.begin();
        let w = mgr.begin();
        mgr.lock(r1, range(1, 7), S).unwrap();
        mgr.lock(r2, range(1, 7), S).unwrap();
        assert!(!mgr.try_lock(w, range(1, 7), X), "writer must wait");
        mgr.unlock_all(r1);
        assert!(!mgr.try_lock(w, range(1, 7), X), "one reader remains");
        mgr.unlock_all(r2);
        assert!(mgr.try_lock(w, range(1, 7), X));
    }

    #[test]
    fn writers_in_different_blocks_run_concurrently() {
        let mgr = LockManager::new();
        let w1 = mgr.begin();
        let w2 = mgr.begin();
        mgr.lock(w1, range(1, 10), X).unwrap();
        assert!(
            mgr.try_lock(w2, range(2, 20), X),
            "IX on the store is compatible with IX"
        );
        // But a whole-store reader is not.
        let scan = mgr.begin();
        assert!(!mgr.try_lock(scan, Resource::Store, S));
        mgr.unlock_all(w1);
        mgr.unlock_all(w2);
        assert!(mgr.try_lock(scan, Resource::Store, S));
    }

    #[test]
    fn store_scan_blocks_new_range_writers() {
        let mgr = LockManager::new();
        let scan = mgr.begin();
        mgr.lock(scan, Resource::Store, S).unwrap();
        let w = mgr.begin();
        assert!(!mgr.try_lock(w, range(1, 7), X));
        // Readers below the scan are fine.
        let r = mgr.begin();
        assert!(mgr.try_lock(r, range(1, 7), S));
    }

    #[test]
    fn same_tx_reentry_and_upgrade() {
        let mgr = LockManager::new();
        let tx = mgr.begin();
        mgr.lock(tx, range(1, 7), S).unwrap();
        mgr.lock(tx, range(1, 7), S).unwrap(); // re-entrant
        mgr.lock(tx, range(1, 7), X).unwrap(); // upgrade, no other holders
        let held = mgr.held_by(tx);
        assert!(held.contains(&(range(1, 7), X)));
    }

    #[test]
    fn shared_fast_path_grants_whole_path() {
        let mgr = LockManager::new();
        let r1 = mgr.begin();
        let r2 = mgr.begin();
        mgr.lock(r1, range(1, 7), S).unwrap();
        mgr.lock(r2, range(1, 7), S).unwrap();
        let stats = mgr.stats();
        assert_eq!(stats.fast_shared_grants, 2, "uncontended reads fast-path");
        assert_eq!(stats.waits, 0);
        // The grants are the same as the general path would produce.
        let held = mgr.held_by(r1);
        assert!(held.contains(&(Resource::Store, IS)));
        assert!(held.contains(&(Resource::Block(1), IS)));
        assert!(held.contains(&(range(1, 7), S)));
        mgr.unlock_all(r1);
        mgr.unlock_all(r2);
    }

    #[test]
    fn shared_fast_path_declines_under_conflict() {
        let mgr = Arc::new(LockManager::new());
        let w = mgr.begin();
        mgr.lock(w, range(1, 7), X).unwrap();
        let before = mgr.stats().fast_shared_grants;
        let r = mgr.begin();
        let mgr2 = mgr.clone();
        let t = std::thread::spawn(move || {
            mgr2.lock(r, range(1, 7), S).unwrap();
            mgr2.unlock_all(r);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        mgr.unlock_all(w);
        t.join().unwrap();
        let stats = mgr.stats();
        assert_eq!(
            stats.fast_shared_grants, before,
            "a conflicting X holder must force the general path"
        );
        assert!(stats.waits > 0, "the reader really waited");
    }

    #[test]
    fn blocking_lock_wakes_on_release() {
        let mgr = Arc::new(LockManager::new());
        let holder = mgr.begin();
        mgr.lock(holder, range(1, 7), X).unwrap();
        let waiter = mgr.begin();
        let mgr2 = mgr.clone();
        let t = std::thread::spawn(move || {
            mgr2.lock(waiter, range(1, 7), S).unwrap();
            mgr2.unlock_all(waiter);
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        mgr.unlock_all(holder);
        assert!(t.join().unwrap(), "waiter must be woken");
    }

    #[test]
    fn crossing_upgrades_deadlock_is_detected() {
        // tx1 holds S(r1), tx2 holds S(r2); each then wants X on the other's
        // resource... a plain cross: tx1 wants X(r2), tx2 wants X(r1).
        let mgr = Arc::new(LockManager::new());
        let tx1 = mgr.begin();
        let tx2 = mgr.begin();
        mgr.lock(tx1, range(1, 1), X).unwrap();
        mgr.lock(tx2, range(1, 2), X).unwrap();

        let mgr2 = mgr.clone();
        let t = std::thread::spawn(move || {
            // Blocks: tx2 wants what tx1 holds.
            let out = mgr2.lock(tx2, range(1, 1), X);
            if out.is_ok() {
                mgr2.unlock_all(tx2);
            }
            out
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        // Closing the cycle: tx1 wants what tx2 holds, while tx2 waits on
        // tx1 → one of the two must get Deadlock.
        let res1 = mgr.lock(tx1, range(1, 2), X);
        match res1 {
            Err(LockError::Deadlock { victim }) => {
                assert_eq!(victim, tx1);
                mgr.unlock_all(tx1); // victim aborts; tx2 proceeds
                assert!(t.join().unwrap().is_ok());
                mgr.unlock_all(tx2);
            }
            Ok(()) => {
                // tx2 must have been the victim instead.
                assert!(t.join().unwrap().is_err());
                mgr.unlock_all(tx1);
            }
        }
        assert_eq!(mgr.grant_count(), 0);
    }

    #[test]
    fn stress_random_lock_cycles_make_progress() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mgr = Arc::new(LockManager::new());
        let done = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let mgr = mgr.clone();
                let done = done.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    let mut completed = 0u64;
                    while completed < 150 {
                        let tx = mgr.begin();
                        let mut ok = true;
                        for _ in 0..rng.gen_range(1..4) {
                            let res = range(rng.gen_range(0..3), rng.gen_range(0..6));
                            let mode = if rng.gen_bool(0.3) { X } else { S };
                            match mgr.lock(tx, res, mode) {
                                Ok(()) => {}
                                Err(LockError::Deadlock { .. }) => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        mgr.unlock_all(tx);
                        if ok {
                            completed += 1;
                        }
                    }
                    done.fetch_add(completed, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 6 * 150);
        assert_eq!(mgr.grant_count(), 0, "strict 2PL leaves nothing behind");
    }
}
