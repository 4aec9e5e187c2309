//! Server-level activity counters, recorded concurrently by sessions.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters describing the server's own behavior (as opposed to
/// the store's), surfaced through the `stats` opcode.
///
/// The read/write families split request execution by access mode: reads
/// run under *shared* store access (many in flight at once — the in-flight
/// gauge and its high-water mark make the overlap observable), writes run
/// under exclusive access and amortize durability through the group-commit
/// WAL (whose batch histogram is reported alongside, see
/// `Engine::stat_entries`).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Connections currently open.
    pub connections_active: AtomicU64,
    /// Connections rejected at the connection cap.
    pub connections_rejected: AtomicU64,
    /// Request frames received.
    pub requests: AtomicU64,
    /// Requests rejected with `Busy` because the worker queue was full.
    pub busy_rejections: AtomicU64,
    /// Requests answered with `Timeout` after the request window lapsed.
    pub timeouts: AtomicU64,
    /// Requests aborted as deadlock victims (answered with `Lock`).
    pub deadlocks: AtomicU64,
    /// Malformed frames / payloads answered with `Protocol`.
    pub protocol_errors: AtomicU64,
    /// Read opcodes executed under shared store access.
    pub reads_shared: AtomicU64,
    /// Read opcodes served from a pinned MVCC snapshot — no store lock,
    /// no hierarchical locks; a subset of `reads_shared`.
    pub reads_snapshot: AtomicU64,
    /// Write opcodes executed under exclusive store access.
    pub writes_exclusive: AtomicU64,
    /// Writes that entered execution while at least one other write was
    /// already in flight on the same server. Mutation itself is serialized
    /// by the store's write guard, so values above 0 mean writers overlap
    /// where they can: one queues on the guard or mutates while another
    /// waits on the group fsync.
    pub writes_parallel: AtomicU64,
    /// Write opcodes currently in flight: parsed, and either queued on or
    /// holding the store's write guard, or waiting on the group fsync.
    pub writes_in_flight: AtomicU64,
    /// Most writes ever observed in flight at once — values above 1 are
    /// writers overlapping across the group-fsync wait.
    pub writes_max_in_flight: AtomicU64,
    /// Read opcodes currently holding shared access.
    pub reads_in_flight: AtomicU64,
    /// Most read opcodes ever observed holding shared access at once —
    /// values above 1 prove readers genuinely overlap.
    pub reads_max_in_flight: AtomicU64,
    /// Write commits that waited on the shared group-commit fsync.
    pub commit_waits: AtomicU64,
    /// Stores created via the `CreateStore` opcode.
    pub stores_created: AtomicU64,
    /// Stores dropped via the `DropStore` opcode.
    pub stores_dropped: AtomicU64,
}

impl ServerStats {
    /// Increments a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a read entering execution under shared access, maintaining
    /// the in-flight gauge and its high-water mark. The returned guard
    /// decrements the gauge when dropped — including on unwind, so a
    /// panicking read opcode cannot leave the gauge stuck.
    #[must_use = "the guard's Drop records the read leaving execution"]
    pub fn read_enter(&self) -> ReadGuard<'_> {
        self.reads_shared.fetch_add(1, Ordering::Relaxed);
        let now = self.reads_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.reads_max_in_flight.fetch_max(now, Ordering::Relaxed);
        ReadGuard { stats: self }
    }

    /// Named snapshot of every counter, in stable order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("server.connections", read(&self.connections)),
            ("server.connections_active", read(&self.connections_active)),
            (
                "server.connections_rejected",
                read(&self.connections_rejected),
            ),
            ("server.requests", read(&self.requests)),
            ("server.busy_rejections", read(&self.busy_rejections)),
            ("server.timeouts", read(&self.timeouts)),
            ("server.deadlocks", read(&self.deadlocks)),
            ("server.protocol_errors", read(&self.protocol_errors)),
            ("server.reads_shared", read(&self.reads_shared)),
            ("server.reads_snapshot", read(&self.reads_snapshot)),
            ("server.writes_exclusive", read(&self.writes_exclusive)),
            ("server.writes_parallel", read(&self.writes_parallel)),
            ("server.writes_in_flight", read(&self.writes_in_flight)),
            (
                "server.writes_max_in_flight",
                read(&self.writes_max_in_flight),
            ),
            ("server.reads_in_flight", read(&self.reads_in_flight)),
            (
                "server.reads_max_in_flight",
                read(&self.reads_max_in_flight),
            ),
            ("server.commit_waits", read(&self.commit_waits)),
            ("server.stores_created", read(&self.stores_created)),
            ("server.stores_dropped", read(&self.stores_dropped)),
        ]
    }
}

/// Holds the `reads_in_flight` gauge up for one executing read (see
/// [`ServerStats::read_enter`]); decrements on drop, panic included.
#[derive(Debug)]
pub struct ReadGuard<'a> {
    stats: &'a ServerStats,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.stats.reads_in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ServerStats {
    /// Records a write entering execution (payload parsed, about to take
    /// the store's write guard), maintaining the in-flight gauge, its
    /// high-water mark, and `writes_parallel` (bumped when another write
    /// was already in flight). The guard decrements the gauge on drop,
    /// panic included.
    #[must_use = "the guard's Drop records the write leaving execution"]
    pub fn write_enter(&self) -> WriteGuard<'_> {
        self.writes_exclusive.fetch_add(1, Ordering::Relaxed);
        let prior = self.writes_in_flight.fetch_add(1, Ordering::Relaxed);
        if prior >= 1 {
            self.writes_parallel.fetch_add(1, Ordering::Relaxed);
        }
        self.writes_max_in_flight
            .fetch_max(prior + 1, Ordering::Relaxed);
        WriteGuard { stats: self }
    }
}

/// Holds the `writes_in_flight` gauge up for one executing write (see
/// [`ServerStats::write_enter`]); decrements on drop, panic included.
#[derive(Debug)]
pub struct WriteGuard<'a> {
    stats: &'a ServerStats,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.stats.writes_in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_enter_tracks_overlap() {
        let stats = ServerStats::default();
        let g1 = stats.write_enter();
        assert_eq!(stats.writes_parallel.load(Ordering::Relaxed), 0);
        let g2 = stats.write_enter();
        assert_eq!(stats.writes_parallel.load(Ordering::Relaxed), 1);
        assert_eq!(stats.writes_max_in_flight.load(Ordering::Relaxed), 2);
        drop(g2);
        drop(g1);
        assert_eq!(stats.writes_in_flight.load(Ordering::Relaxed), 0);
        let named = stats.snapshot();
        assert!(named
            .iter()
            .any(|(n, v)| *n == "server.writes_parallel" && *v == 1));
        assert!(named
            .iter()
            .any(|(n, v)| *n == "server.writes_exclusive" && *v == 2));
    }
}
