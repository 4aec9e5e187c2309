//! Server-level activity counters, recorded concurrently by sessions.

use std::sync::atomic::{AtomicU64, Ordering};

axs_obs::series! {
    /// The server's own counters and gauges (as opposed to the store's),
    /// recorded concurrently by sessions. Reads run under shared store
    /// access, writes under its write guard and then the group fsync.
    #[derive(Debug, Default)]
    pub struct ServerStats {
        /// Connections accepted over the server's lifetime.
        connections: Counter "server.connections",
        /// Connections currently open.
        connections_active: Gauge "server.connections_active",
        /// Connections rejected at the connection cap.
        connections_rejected: Counter "server.connections_rejected",
        /// Request frames received.
        requests: Counter "server.requests",
        /// Requests rejected with Busy because the worker queue was full.
        busy_rejections: Counter "server.busy_rejections",
        /// Requests answered with Timeout after the request window lapsed.
        timeouts: Counter "server.timeouts",
        /// Malformed frames / payloads answered with Protocol.
        protocol_errors: Counter "server.protocol_errors",
        /// Read opcodes executed under shared store access.
        reads_shared: Counter "server.reads_shared",
        /// Read opcodes served from a pinned MVCC snapshot (a subset of reads_shared).
        reads_snapshot: Counter "server.reads_snapshot",
        /// Write opcodes executed under exclusive store access.
        writes_exclusive: Counter "server.writes_exclusive",
        /// Writes that entered execution while another was in flight: one
        /// queued on the write guard or mutating while another awaits fsync.
        writes_parallel: Counter "server.writes_parallel",
        /// Write opcodes in flight: on or queued for the write guard, or fsyncing.
        writes_in_flight: Gauge "server.writes_in_flight",
        /// Most writes ever in flight at once (above 1: writers overlapped).
        writes_max_in_flight: Gauge "server.writes_max_in_flight",
        /// Read opcodes currently holding shared access.
        reads_in_flight: Gauge "server.reads_in_flight",
        /// Most reads ever holding shared access at once (above 1: overlap).
        reads_max_in_flight: Gauge "server.reads_max_in_flight",
        /// Write commits that waited on the shared group-commit fsync.
        commit_waits: Counter "server.commit_waits",
        /// Stores created via the CreateStore opcode.
        stores_created: Counter "server.stores_created",
        /// Stores dropped via the DropStore opcode.
        stores_dropped: Counter "server.stores_dropped",
    }
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
        let mut rows = Vec::new();
        stats.rows(&mut rows);
        let get = |name| rows.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(get("server.writes_parallel"), 1);
        assert_eq!(get("server.writes_exclusive"), 2);
    }
}
