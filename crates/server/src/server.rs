//! The `axsd` server proper: listener, per-connection sessions, worker
//! dispatch, timeouts, and graceful shutdown.
//!
//! Threading model:
//!
//! - one accept thread owns the listener and spawns a session thread per
//!   admitted connection (a connection cap rejects the excess with `Busy`);
//! - each session thread reads frames (via a resumable decoder, so a read
//!   timeout mid-frame never desynchronizes the stream) and answers
//!   protocol errors itself;
//! - requests that can never wait and do O(node) work — `Ping`, and with
//!   MVCC on the snapshot point reads `ReadNode`, `Value`, `Children`,
//!   `Parent` — execute right there on the session thread: no queue, no
//!   thread hand-off, and so never `Busy` or `Timeout`;
//! - every other well-formed request goes to the bounded worker pool with
//!   a response channel — a full queue answers `Busy`, a lapsed request
//!   window answers `Timeout` and then closes the connection (the worker
//!   may still be running; a retry must not race it);
//! - both paths run the same [`execute`], so a request is traced and
//!   counted identically wherever it ran (an inline one records a ~0 µs
//!   queue wait);
//! - shutdown (handle, `Shutdown` opcode, or signal via the CLI) flips one
//!   flag; sessions and the accept loop notice within their poll tick,
//!   drain, and the store is flushed through the WAL last, once no worker
//!   or session can touch it.

use crate::config::ServerConfig;
use crate::exec::{DispatchOutcome, Engine, STREAM_CHUNK};
use crate::metrics::EngineMetrics;
use crate::pool::{SubmitError, WorkerPool};
use crate::stats::ServerStats;
use axs_catalog::{Catalog, CatalogConfig};
use axs_client::wire::{self, ErrorCode, Frame, OpCode, Status};
use axs_core::XmlStore;
use parking_lot::Mutex;
use std::fmt;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check the shutdown flag and the
/// idle deadline. Bounds shutdown latency, not throughput.
const POLL_TICK: Duration = Duration::from_millis(100);

/// The session writer's buffer: one full `ReadAll` frame. A
/// response's frames are encoded into it back to back and reach the socket
/// in writes of up to this size, with one flush at the response's end.
const SESSION_WRITE_BUF: usize = 4 + wire::FRAME_HEADER + STREAM_CHUNK;

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
        axs_obs::set_opcode_namer(|b| OpCode::from_u8(b).map_or("unknown", OpCode::name));
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
    let mut writer = session_writer(write_half);
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

/// Runs one request and writes the response: inline on this session
/// thread when the engine says the opcode [runs inline](Engine::runs_inline),
/// through the worker pool otherwise. Returns `false` when the connection
/// should close.
fn answer(req: &Frame, shared: &Arc<Shared>, writer: &mut BufWriter<TcpStream>) -> bool {
    let opcode = OpCode::from_u8(req.opcode);
    // Shutdown runs inline: it must not be dropped by a full queue, and
    // its only work is flipping the flag.
    if opcode == Some(OpCode::Shutdown) {
        let outcome = shared.engine.dispatch(req);
        let ok = write_response(writer, req, &outcome.frames);
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

    let enqueued = Instant::now();
    let outcome = if opcode.is_some_and(|op| shared.engine.runs_inline(op)) {
        execute(shared, req, enqueued)
    } else {
        match run_pooled(req, shared, enqueued) {
            Ok(outcome) => outcome,
            Err((code, message, keep_open)) => {
                let sent = wire::write_frame(writer, &error_frame(req, code, message)).is_ok();
                return sent && keep_open;
            }
        }
    };
    let ok = write_response(writer, req, &outcome.frames);
    if outcome.shutdown {
        shared.request_shutdown();
    }
    ok
}

/// Executes one request on the calling thread — a pool worker, or the
/// session thread for inline opcodes — inside its trace (begin → queue
/// wait since `enqueued` → instrumented dispatch → finish), then records
/// it in the request metrics. Instrumentation records only while that
/// trace is open, so an untraced server's requests record nothing.
fn execute(shared: &Shared, req: &Frame, enqueued: Instant) -> DispatchOutcome {
    if shared.config.trace {
        let layers = shared.engine.metrics().layers.clone();
        axs_obs::trace_begin(axs_obs::next_trace_id(), req.opcode, layers);
        axs_obs::probe(axs_obs::EventKind::QueueWait, Some(enqueued), 0, 0);
    }
    let outcome = shared.engine.dispatch(req);
    let trace = axs_obs::trace_finish();
    let ok = outcome
        .frames
        .iter()
        .all(|f| Status::from_u8(f.status) != Some(Status::Err));
    let bytes: u64 = outcome.frames.iter().map(|f| f.payload.len() as u64).sum();
    shared.engine.metrics().finish_request(
        req.opcode,
        &shared.engine.store_label(req.store),
        req.store,
        ok,
        bytes,
        enqueued.elapsed(),
        trace,
    );
    outcome
}

/// Hands `req` to the worker pool and waits up to `request_timeout` for
/// its outcome. `Err` is the session's own answer instead — error code,
/// message, and whether the connection stays open after it.
fn run_pooled(
    req: &Frame,
    shared: &Arc<Shared>,
    enqueued: Instant,
) -> Result<DispatchOutcome, (ErrorCode, &'static str, bool)> {
    const SHUTTING_DOWN: (ErrorCode, &str, bool) =
        (ErrorCode::ShuttingDown, "server is shutting down", false);
    let (tx, rx) = mpsc::channel();
    let job_req = req.clone();
    let job_shared = shared.clone();
    let submitted = shared.pool.try_submit(Box::new(move || {
        // The session may have timed out and moved on; a dead channel
        // just discards the result.
        let _ = tx.send(execute(&job_shared, &job_req, enqueued));
    }));
    match submitted {
        Ok(()) => {}
        Err(SubmitError::Full) => {
            ServerStats::bump(&shared.stats.busy_rejections);
            return Err((ErrorCode::Busy, "worker queue full; retry", true));
        }
        Err(SubmitError::Closed) => return Err(SHUTTING_DOWN),
    }
    rx.recv_timeout(shared.config.request_timeout)
        .map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => {
                ServerStats::bump(&shared.stats.timeouts);
                // The worker is still executing and may yet commit its
                // effects (its result lands in the dropped channel).
                // Keeping the connection open would let the client's next
                // request — e.g. a retry of this one — run concurrently
                // with it, breaking the one-request-per-connection
                // invariant server-side and risking duplicate writes.
                // Answer Timeout, then close: a retry must reconnect, and
                // for mutating opcodes the timed-out request's outcome is
                // ambiguous (at-least-once).
                (
                    ErrorCode::Timeout,
                    "request exceeded the server's request timeout; connection closing",
                    false,
                )
            }
            // Worker pool shut down mid-request.
            mpsc::RecvTimeoutError::Disconnected => SHUTTING_DOWN,
        })
}

/// A session-level error frame (busy, timeout, shutdown…) echoing the
/// request's store id, like every engine-built response does.
fn error_frame(req: &Frame, code: ErrorCode, msg: &str) -> Frame {
    let mut f = Frame::error(req.req_id, req.opcode, code, msg);
    f.store = req.store;
    f
}

/// The buffered writer a session answers through (see [`SESSION_WRITE_BUF`]).
fn session_writer<W: Write>(inner: W) -> BufWriter<W> {
    BufWriter::with_capacity(SESSION_WRITE_BUF, inner)
}

/// Writes `req`'s response: every frame encoded back to back, then one
/// flush, so a streamed answer costs a write per buffer of frames instead
/// of one per row, and wakes the client once. A frame that would exceed
/// [`wire::FRAME_MAX`] (say, `ReadNode` of a subtree that serializes past
/// it) is answered with `TooLarge` instead, before any frame goes out, so
/// the connection stays framed and open.
fn write_response(writer: &mut impl Write, req: &Frame, frames: &[Frame]) -> bool {
    let oversized = frames
        .iter()
        .map(|f| wire::FRAME_HEADER + f.payload.len())
        .find(|&bytes| bytes > wire::FRAME_MAX);
    if let Some(bytes) = oversized {
        let message = format!(
            "response frame of {bytes} B exceeds the {} B frame limit",
            wire::FRAME_MAX
        );
        return wire::write_frame(writer, &error_frame(req, ErrorCode::TooLarge, &message)).is_ok();
    }
    frames
        .iter()
        .try_for_each(|f| wire::encode_frame(writer, f))
        .and_then(|()| writer.flush())
        .is_ok()
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axs_client::wire::{put_str, put_u64, FRAME_HEADER};

    /// A socket stand-in that records what reaches it and counts the
    /// `write` and `flush` calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    fn decode_all(mut bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            frames.push(wire::read_frame(&mut bytes).unwrap());
        }
        frames
    }

    /// Writes `frames` as `req`'s response through a session writer and
    /// returns the sink, checking that nothing stayed buffered.
    fn respond(req: &Frame, frames: &[Frame]) -> CountingSink {
        let mut writer = session_writer(CountingSink::default());
        assert!(write_response(&mut writer, req, frames));
        assert!(
            writer.buffer().is_empty(),
            "a response leaves nothing buffered"
        );
        writer.into_inner().ok().unwrap()
    }

    #[test]
    fn a_streamed_response_is_few_writes_and_one_flush() {
        let req = Frame::request_on(7, OpCode::Query, 3, Vec::new());
        let mut frames: Vec<Frame> = (0..5_000u64)
            .map(|i| {
                let mut p = vec![1];
                put_u64(&mut p, i);
                put_str(
                    &mut p,
                    &format!("<item id=\"item{i}\"><name>row {i}</name></item>"),
                );
                Frame::more(7, req.opcode, p)
            })
            .collect();
        frames.push(Frame::done(7, req.opcode, 5_000u64.to_le_bytes().to_vec()));
        let sink = respond(&req, &frames);
        let bytes: usize = frames
            .iter()
            .map(|f| 4 + FRAME_HEADER + f.payload.len())
            .sum();
        assert_eq!(sink.bytes.len(), bytes);
        let bound = bytes.div_ceil(64 * 1024) + 1;
        assert!(
            sink.writes <= bound,
            "{} writes for {bytes} B (bound {bound})",
            sink.writes
        );
        assert_eq!(sink.flushes, 1);
        assert_eq!(decode_all(&sink.bytes), frames);
    }

    #[test]
    fn full_read_all_chunks_go_out_one_write_each() {
        let req = Frame::request(2, OpCode::ReadAll, Vec::new());
        let mut frames: Vec<Frame> = (0..4u8)
            .map(|i| Frame::more(2, req.opcode, vec![i; STREAM_CHUNK]))
            .collect();
        frames.push(Frame::done(2, req.opcode, 9u64.to_le_bytes().to_vec()));
        let sink = respond(&req, &frames);
        assert_eq!(sink.writes, frames.len());
        assert_eq!(sink.flushes, 1);
        assert_eq!(decode_all(&sink.bytes), frames);
    }

    #[test]
    fn one_frame_and_error_answers_are_flushed() {
        let req = Frame::request(1, OpCode::ReadNode, Vec::new());
        let answer = Frame::done(1, req.opcode, b"\x03\0\0\0<a/>".to_vec());
        let sink = respond(&req, std::slice::from_ref(&answer));
        assert_eq!((sink.writes, sink.flushes), (1, 1));
        assert_eq!(decode_all(&sink.bytes), vec![answer]);

        let error = error_frame(&req, ErrorCode::Store, "no such node");
        let sink = respond(&req, std::slice::from_ref(&error));
        assert_eq!((sink.writes, sink.flushes), (1, 1));
        assert_eq!(decode_all(&sink.bytes), vec![error.clone()]);

        // The session's own one-frame answers (busy, timeout, protocol)
        // go through `write_frame`, which flushes too.
        let mut writer = session_writer(CountingSink::default());
        wire::write_frame(&mut writer, &error).unwrap();
        assert!(writer.buffer().is_empty());
        assert_eq!(writer.get_ref().flushes, 1);
    }

    #[test]
    fn too_large_refusal_goes_out_before_any_frame() {
        let req = Frame::request_on(5, OpCode::Query, 2, Vec::new());
        let frames = vec![
            Frame::more(5, req.opcode, b"small".to_vec()),
            Frame::more(5, req.opcode, vec![0; wire::FRAME_MAX]),
            Frame::done(5, req.opcode, 2u64.to_le_bytes().to_vec()),
        ];
        let sink = respond(&req, &frames);
        assert_eq!(sink.flushes, 1);
        let sent = decode_all(&sink.bytes);
        assert_eq!(sent.len(), 1, "only the refusal goes out");
        assert_eq!(Status::from_u8(sent[0].status), Some(Status::Err));
        assert_eq!(sent[0].store, 2);
        assert_eq!(sent[0].decode_error().unwrap().0, ErrorCode::TooLarge);
    }
}
