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
    /// Malformed frames / payloads answered with `Protocol`.
    pub protocol_errors: AtomicU64,
    /// Read opcodes executed under shared store access.
    pub reads_shared: AtomicU64,
    /// Read opcodes served from a pinned MVCC snapshot, without the
    /// store's reader-writer lock; a subset of `reads_shared`.
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

    /// Every counter and gauge as a named [`Stat`] row, in stable order.
    pub(crate) fn snapshot(&self) -> Vec<Stat> {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            Stat::counter("server.connections", read(&self.connections)),
            Stat::gauge("server.connections_active", read(&self.connections_active)),
            Stat::counter(
                "server.connections_rejected",
                read(&self.connections_rejected),
            ),
            Stat::counter("server.requests", read(&self.requests)),
            Stat::counter("server.busy_rejections", read(&self.busy_rejections)),
            Stat::counter("server.timeouts", read(&self.timeouts)),
            Stat::counter("server.protocol_errors", read(&self.protocol_errors)),
            Stat::counter("server.reads_shared", read(&self.reads_shared)),
            Stat::counter("server.reads_snapshot", read(&self.reads_snapshot)),
            Stat::counter("server.writes_exclusive", read(&self.writes_exclusive)),
            Stat::counter("server.writes_parallel", read(&self.writes_parallel)),
            Stat::gauge("server.writes_in_flight", read(&self.writes_in_flight)),
            Stat::gauge(
                "server.writes_max_in_flight",
                read(&self.writes_max_in_flight),
            ),
            Stat::gauge("server.reads_in_flight", read(&self.reads_in_flight)),
            Stat::gauge(
                "server.reads_max_in_flight",
                read(&self.reads_max_in_flight),
            ),
            Stat::counter("server.commit_waits", read(&self.commit_waits)),
            Stat::counter("server.stores_created", read(&self.stores_created)),
            Stat::counter("server.stores_dropped", read(&self.stores_dropped)),
        ]
    }
}

/// One row of the `Stats` opcode. Its Prometheus kind is decided where the
/// row is produced: a `gauge` is a level that can fall or a high-water
/// mark, a `counter` only ever grows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stat {
    pub(crate) name: String,
    pub(crate) value: u64,
    pub(crate) gauge: bool,
}

impl Stat {
    pub(crate) fn counter(name: impl Into<String>, value: u64) -> Stat {
        Stat {
            name: name.into(),
            value,
            gauge: false,
        }
    }

    pub(crate) fn gauge(name: impl Into<String>, value: u64) -> Stat {
        Stat {
            name: name.into(),
            value,
            gauge: true,
        }
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
        assert!(named.contains(&Stat::counter("server.writes_parallel", 1)));
        assert!(named.contains(&Stat::counter("server.writes_exclusive", 2)));
    }
}
