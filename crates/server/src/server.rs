//! The `axsd` server proper: listener, per-connection sessions, worker
//! dispatch, timeouts, and graceful shutdown.
//!
//! Threading model:
//!
//! - one accept thread owns the listener and spawns a session thread per
//!   admitted connection (a connection cap rejects the excess with `Busy`);
//! - each session thread reads frames (via a resumable decoder, so a read
//!   timeout mid-frame never desynchronizes the stream), answers protocol
//!   errors itself, and hands well-formed requests to the bounded worker
//!   pool with a response channel — a full queue answers `Busy`, a lapsed
//!   request window answers `Timeout` and then closes the connection (the
//!   worker may still be running; a retry must not race it);
//! - shutdown (handle, `Shutdown` opcode, or signal via the CLI) flips one
//!   flag; sessions and the accept loop notice within their poll tick,
//!   drain, and the store is flushed through the WAL last, once no worker
//!   can touch it.

use crate::config::ServerConfig;
use crate::exec::Engine;
use crate::metrics::EngineMetrics;
use crate::pool::{SubmitError, WorkerPool};
use crate::stats::ServerStats;
use axs_catalog::{Catalog, CatalogConfig};
use axs_client::wire::{self, ErrorCode, Frame, OpCode, Status};
use axs_core::XmlStore;
use parking_lot::Mutex;
use std::fmt;
use std::io::{BufReader, BufWriter, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check the shutdown flag and the
/// idle deadline. Bounds shutdown latency, not throughput.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Concurrent courtesy-reject threads (see [`reject_connection`]). Beyond
/// this, over-cap connections are dropped outright so a connection flood
/// cannot grow threads without bound.
const MAX_REJECT_THREADS: usize = 32;

/// Failures starting or finishing the server.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The final catalog-wide WAL flush during shutdown failed.
    Flush(axs_catalog::CatalogError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server io: {e}"),
            ServerError::Flush(e) => write!(f, "shutdown flush: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

struct Shared {
    engine: Engine,
    pool: WorkerPool,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    active_sessions: AtomicUsize,
    reject_threads: AtomicUsize,
    sessions: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the accept loop: it blocks in accept(), so poke it with
            // a throwaway connection that it will see after the flag.
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        }
    }
}

/// The `axsd` server. [`Server::start`] runs it on background threads and
/// returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `config.addr`, takes ownership of `store`, and starts
    /// serving. The store becomes the catalog's permanent `default`;
    /// catalog create/drop report `Unsupported` on this path — use
    /// [`Server::start_catalog`] for multi-store serving. Returns once
    /// the listener is live.
    pub fn start(store: XmlStore, config: ServerConfig) -> Result<ServerHandle, ServerError> {
        let catalog_config = CatalogConfig {
            max_open: config.max_open_stores,
            commit_window: config.commit_window,
        };
        Server::start_catalog(Catalog::adopt(store, catalog_config), config)
    }

    /// Binds `config.addr` and serves every store in `catalog`, routing
    /// each request by the store id in its frame header. Returns once the
    /// listener is live.
    pub fn start_catalog(
        catalog: Catalog,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServerError> {
        let config = config.normalized();
        let listener = TcpListener::bind(&*config.addr)?;
        let local_addr = listener.local_addr()?;
        // Flight-recorder wiring is process-wide and idempotent: opcode
        // names for dump lines, and a panic hook that dumps the recorder
        // before the default hook prints the backtrace.
        axs_obs::set_opcode_namer(crate::metrics::opcode_name_static);
        axs_obs::install_panic_hook();
        let stats = Arc::new(ServerStats::default());
        let metrics = Arc::new(EngineMetrics::new(config.slow_request));
        let shared = Arc::new(Shared {
            engine: Engine::new(
                Arc::new(catalog),
                stats.clone(),
                metrics,
                config.debug_sleep,
                config.mvcc,
            ),
            pool: WorkerPool::new(config.workers, config.queue_depth),
            stats,
            config,
            local_addr,
            shutdown: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            reject_threads: AtomicUsize::new(0),
            sessions: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("axsd-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
        })
    }
}

/// Control handle for a running server: its address, shutdown, and the
/// final join that drains sessions and flushes the store.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The server's own activity counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Retained slow-request log lines (each a rendered span tree),
    /// oldest first. Lines also go to stderr as they happen; this buffer
    /// lets tests and embedders inspect them without capturing stderr.
    pub fn slow_log(&self) -> Vec<String> {
        self.shared.engine.metrics().slow_log()
    }

    /// Recently finished request traces, most recent first.
    pub fn recent_traces(&self) -> Vec<axs_obs::FinishedTrace> {
        self.shared.engine.metrics().recent_traces()
    }

    /// True once shutdown has been requested (handle, opcode, or signal).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown without waiting for it to finish.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits for shutdown to be requested, then drains sessions and
    /// workers and flushes the store through the WAL. Returns the flush
    /// verdict — after `Ok(())` the store directory reopens clean.
    pub fn join(mut self) -> Result<(), ServerError> {
        self.drain()
    }

    fn drain(&mut self) -> Result<(), ServerError> {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let sessions = std::mem::take(&mut *self.shared.sessions.lock());
        for s in sessions {
            let _ = s.join();
        }
        self.shared.pool.shutdown();
        self.shared
            .engine
            .flush_stores()
            .map_err(ServerError::Flush)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.request_shutdown();
            let _ = self.drain();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // includes the self-connection that woke us
        }
        ServerStats::bump(&shared.stats.connections);
        let active = shared.active_sessions.fetch_add(1, Ordering::SeqCst) + 1;
        if active > shared.config.max_connections {
            shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
            ServerStats::bump(&shared.stats.connections_rejected);
            reject_connection(stream, &shared);
            continue;
        }
        ServerStats::bump(&shared.stats.connections_active);
        let session_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("axsd-session".to_string())
            .spawn(move || {
                run_session(stream, &session_shared);
                session_shared
                    .active_sessions
                    .fetch_sub(1, Ordering::SeqCst);
                session_shared
                    .stats
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => {
                let mut sessions = shared.sessions.lock();
                // Opportunistically reap finished sessions so a long-lived
                // server does not accumulate dead JoinHandles.
                sessions.retain(|s| !s.is_finished());
                sessions.push(handle);
            }
            Err(_) => {
                shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
                shared
                    .stats
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Over the connection cap: complete the handshake so the client can read
/// a well-formed `Busy` error, then linger until the peer closes.
/// Runs on its own short-lived thread — closing immediately would race
/// the peer's first request write and turn the queued `Busy` frame into a
/// connection reset. At most [`MAX_REJECT_THREADS`] run at once; beyond
/// that the stream is simply dropped (the peer sees a reset), so a
/// connection flood cannot recreate the unbounded-thread problem
/// `max_connections` exists to prevent.
fn reject_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if shared.reject_threads.fetch_add(1, Ordering::SeqCst) >= MAX_REJECT_THREADS {
        shared.reject_threads.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let thread_shared = shared.clone();
    let spawned = std::thread::Builder::new()
        .name("axsd-reject".to_string())
        .spawn(move || {
            send_busy_and_drain(stream);
            thread_shared.reject_threads.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        shared.reject_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

fn send_busy_and_drain(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let read_half = stream.try_clone();
    let mut writer = BufWriter::new(stream);
    if wire::write_hello(&mut writer).is_err() {
        return;
    }
    let _ = wire::write_frame(
        &mut writer,
        &Frame::error(
            0,
            OpCode::Ping as u8,
            ErrorCode::Busy,
            "connection limit reached",
        ),
    );
    // Drain until the peer hangs up (or 2 s) so the error frame is
    // not discarded by an early RST.
    if let Ok(mut read_half) = read_half {
        use std::io::Read as _;
        let mut sink = [0u8; 512];
        while matches!(read_half.read(&mut sink), Ok(n) if n > 0) {}
    }
}

fn run_session(stream: TcpStream, shared: &Arc<Shared>) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    if wire::write_hello(&mut writer).is_err() || read_hello_polled(&mut reader, shared).is_err() {
        return;
    }

    // Frames are read through a resumable decoder: the 100 ms poll tick
    // can fire mid-frame (inevitable for large frames over a slow link),
    // and the partially-read bytes must survive the tick instead of being
    // discarded — read_exact-based framing would reinterpret mid-frame
    // bytes as a fresh length prefix and desynchronize the stream. The
    // idle timeout still bounds how long a stalled mid-frame transfer can
    // hold the session thread.
    let mut decoder = wire::FrameDecoder::new();
    let mut idle_since = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if idle_since.elapsed() > shared.config.idle_timeout {
            return;
        }
        let req = match decoder.poll(&mut reader) {
            Ok(frame) => frame,
            Err(e) if would_block(&e) => continue,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Unframeable bytes: answer once, then drop the connection
                // (resynchronizing an unframed stream is not possible).
                ServerStats::bump(&shared.stats.protocol_errors);
                let _ = wire::write_frame(
                    &mut writer,
                    &Frame::error(0, 0, ErrorCode::Protocol, &e.to_string()),
                );
                return;
            }
            Err(_) => return, // disconnect
        };
        idle_since = Instant::now();
        ServerStats::bump(&shared.stats.requests);
        if Status::from_u8(req.status) != Some(Status::Done) {
            ServerStats::bump(&shared.stats.protocol_errors);
            let _ = wire::write_frame(
                &mut writer,
                &error_frame(
                    &req,
                    ErrorCode::Protocol,
                    "request frames must carry status 0",
                ),
            );
            continue;
        }
        if !answer(&req, shared, &mut writer) {
            return;
        }
    }
}

/// The hello is read under the same poll tick as frames so a client that
/// connects and never speaks cannot pin the session thread past the idle
/// timeout. Accumulates the 8 bytes across ticks — a tick that fires
/// after part of the hello arrived must not discard it.
fn read_hello_polled(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
) -> Result<(), std::io::Error> {
    use std::io::Read as _;
    let deadline = Instant::now() + shared.config.idle_timeout;
    let mut hello = [0u8; 8];
    let mut got = 0;
    while got < hello.len() {
        match reader.read(&mut hello[got..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if would_block(&e) => {
                if shared.shutdown.load(Ordering::SeqCst) || Instant::now() > deadline {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    wire::read_hello(&mut &hello[..])
}

/// Dispatches one request through the pool and writes the response.
/// Returns `false` when the connection should close.
fn answer(req: &Frame, shared: &Arc<Shared>, writer: &mut BufWriter<TcpStream>) -> bool {
    // Shutdown runs inline: it must not be dropped by a full queue, and
    // its only work is flipping the flag.
    if OpCode::from_u8(req.opcode) == Some(OpCode::Shutdown) {
        let outcome = shared.engine.dispatch(req);
        let ok = write_all_frames(writer, &outcome.frames);
        shared.request_shutdown();
        return ok;
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = wire::write_frame(
            writer,
            &error_frame(req, ErrorCode::ShuttingDown, "server is shutting down"),
        );
        return false;
    }

    let (tx, rx) = mpsc::channel();
    let job_req = req.clone();
    let job_shared = shared.clone();
    // Trace identity is fixed at frame decode time; the worker thread owns
    // the trace itself (begin → instrumented dispatch → finish), since the
    // whole request executes on it. Instrumentation records only while
    // that trace is open, so an untraced server's requests record nothing.
    let trace_id = axs_obs::next_trace_id();
    let enqueued = Instant::now();
    let submitted = shared.pool.try_submit(Box::new(move || {
        if job_shared.config.trace {
            let layers = job_shared.engine.metrics().layers.clone();
            axs_obs::trace_begin(trace_id, job_req.opcode, layers);
            axs_obs::probe(axs_obs::EventKind::QueueWait, Some(enqueued), 0, 0);
        }
        let outcome = job_shared.engine.dispatch(&job_req);
        let trace = axs_obs::trace_finish();
        let store_label = job_shared.engine.store_label(job_req.store);
        let ok = outcome
            .frames
            .iter()
            .all(|f| Status::from_u8(f.status) != Some(Status::Err));
        let bytes: u64 = outcome.frames.iter().map(|f| f.payload.len() as u64).sum();
        job_shared.engine.metrics().finish_request(
            job_req.opcode,
            &store_label,
            job_req.store,
            ok,
            bytes,
            enqueued.elapsed(),
            trace,
        );
        // The session may have timed out and moved on; a dead channel
        // just discards the result.
        let _ = tx.send(outcome);
    }));
    match submitted {
        Ok(()) => {}
        Err(SubmitError::Full) => {
            ServerStats::bump(&shared.stats.busy_rejections);
            return wire::write_frame(
                writer,
                &error_frame(req, ErrorCode::Busy, "worker queue full; retry"),
            )
            .is_ok();
        }
        Err(SubmitError::Closed) => {
            let _ = wire::write_frame(
                writer,
                &error_frame(req, ErrorCode::ShuttingDown, "server is shutting down"),
            );
            return false;
        }
    }

    match rx.recv_timeout(shared.config.request_timeout) {
        Ok(outcome) => {
            let ok = write_all_frames(writer, &outcome.frames);
            if outcome.shutdown {
                shared.request_shutdown();
            }
            ok
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            ServerStats::bump(&shared.stats.timeouts);
            // The worker is still executing and may yet commit its effects
            // (its result lands in the dropped channel). Keeping the
            // connection open would let the client's next request — e.g. a
            // retry of this one — run concurrently with it, breaking the
            // one-request-per-connection invariant server-side and
            // risking duplicate writes. Answer Timeout, then close: a
            // retry must reconnect, and for mutating opcodes the
            // timed-out request's outcome is ambiguous (at-least-once).
            let _ = wire::write_frame(
                writer,
                &error_frame(
                    req,
                    ErrorCode::Timeout,
                    "request exceeded the server's request timeout; connection closing",
                ),
            );
            false
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // Worker pool shut down mid-request.
            let _ = wire::write_frame(
                writer,
                &error_frame(req, ErrorCode::ShuttingDown, "server is shutting down"),
            );
            false
        }
    }
}

/// A session-level error frame (busy, timeout, shutdown…) echoing the
/// request's store id, like every engine-built response does.
fn error_frame(req: &Frame, code: ErrorCode, msg: &str) -> Frame {
    let mut f = Frame::error(req.req_id, req.opcode, code, msg);
    f.store = req.store;
    f
}

fn write_all_frames(writer: &mut BufWriter<TcpStream>, frames: &[Frame]) -> bool {
    frames.iter().all(|f| wire::write_frame(writer, f).is_ok())
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}
