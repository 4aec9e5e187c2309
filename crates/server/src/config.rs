//! Server tuning knobs.

use std::time::Duration;

/// Configuration for one [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (the bound address
    /// is reported by [`crate::ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads executing requests against the store.
    pub workers: usize,
    /// Requests that may wait for a worker before new ones are rejected
    /// with a typed `Busy` error instead of queueing unboundedly.
    pub queue_depth: usize,
    /// Concurrent connections admitted; excess connections receive a
    /// `Busy` error at the handshake and are closed.
    pub max_connections: usize,
    /// A connection with no complete frame for this long is closed. Also
    /// bounds how long a mid-frame stall may hold a session thread.
    pub idle_timeout: Duration,
    /// A request whose worker has not answered within this window gets a
    /// typed `Timeout` error and the connection is then closed: the worker
    /// is still executing (its result is discarded) and may yet commit,
    /// so a retry must reconnect rather than race it on the same session.
    /// For mutating opcodes a timeout therefore means *ambiguous outcome*
    /// (at-least-once), exactly as with a dropped connection.
    pub request_timeout: Duration,
    /// Honor the `Sleep` opcode (holds a worker; integration tests use it
    /// to fill the queue deterministically). Off in production.
    pub debug_sleep: bool,
    /// Group-commit window for durable stores: how long a commit-fsync
    /// leader waits for more writers' commits to queue behind it before
    /// issuing one shared fsync. Zero syncs each commit immediately; the
    /// useful range is 0–2 ms. Ignored by in-memory stores.
    pub commit_window: Duration,
    /// Requests slower than this are dumped — full span tree — to the
    /// slow-request log (stderr plus the in-process buffer exposed by
    /// [`crate::ServerHandle::slow_log`]). `None` disables the log.
    pub slow_request: Option<Duration>,
    /// Per-request tracing: a trace around each request feeds this
    /// server's layer histograms (`obs.*`, `path.*`) and trace ring. On by
    /// default: cheap enough to leave on in production. Off, no trace is
    /// opened and each instrumentation point costs one thread-local read.
    pub trace: bool,
    /// Catalog stores held open (resident) at once; the least-recently-
    /// used idle store is flushed and closed when one more must open.
    /// Stores with requests in flight are never evicted.
    pub max_open_stores: usize,
    /// MVCC snapshot reads. On (the default), data-read opcodes pin the
    /// store's current epoch at dispatch and run lock-free against that
    /// frozen snapshot — readers never wait for writers or each other.
    /// Off forces every read through the hierarchical lock manager and the
    /// store's reader-writer lock (the pre-MVCC behavior; `axsbench`'s
    /// `table5-wire` runs this way). Admin reads (`Stats`, `Report`, `Verify`, …) always take
    /// the locked path: they inspect live store internals, not a snapshot.
    pub mvcc: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_connections: 64,
            idle_timeout: Duration::from_secs(300),
            request_timeout: Duration::from_secs(30),
            debug_sleep: false,
            commit_window: Duration::ZERO,
            slow_request: Some(Duration::from_millis(50)),
            trace: true,
            max_open_stores: 8,
            mvcc: true,
        }
    }
}

impl ServerConfig {
    /// Validates the knobs, normalizing zeroes to minimal sane values.
    pub fn normalized(mut self) -> ServerConfig {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self.max_connections = self.max_connections.max(1);
        self.max_open_stores = self.max_open_stores.max(1);
        self
    }
}
