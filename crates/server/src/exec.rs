//! Request execution: opcode dispatch against the store catalog.
//!
//! Every request frame names a store (the `u16` id in the frame header, 0
//! = default); dispatch resolves it through the [`Catalog`] — opening the
//! store lazily on first access — and runs it through that slot's
//! [`ConcurrentStore`](axs_core::ConcurrentStore) handle in one of three
//! ways, none of which takes a logical lock:
//!
//! * **Data reads pin a snapshot.** With MVCC on (the default), every
//!   document-content read — point reads, navigation, XPath, FLWOR, full
//!   scans — pins the epoch current at dispatch (`epochs()`) and runs
//!   against that frozen [`Snapshot`](axs_core::Snapshot): readers never
//!   wait for writers, writers never wait for readers, and a long scan
//!   observes one consistent commit point no matter how many commits land
//!   meanwhile.
//! * **Admin reads and `mvcc: false` reads borrow the live store**
//!   (`with_read`, the shared side of the reader-writer lock). The store's
//!   whole read API works through `&self` (partial-index memoization and
//!   statistics are internally synchronized), so these reads overlap.
//! * **Writes go through `with_write_durable`**, the durable-write path
//!   the crash and concurrency batteries drive. Its write guard is the one
//!   arbiter of a write: mutate, seal the WAL batch and publish the next
//!   epoch under it (nothing, if the mutation failed), then release it
//!   *before* waiting on the group-commit fsync, so the next writer — on
//!   any subtree — mutates while this one's durability is batched with its
//!   neighbours'. WAL order is mutation order, and an ack waits for an
//!   fsync that covers its LSN and so every earlier one: an acknowledged
//!   write never survives a crash without its predecessors.
//!
//! Readers of either kind see a published commit before its fsync (the
//! visibility-before-durability contract, DESIGN.md §5g). Each catalog
//! slot holds its own handle, so sessions on different stores share
//! nothing and never contend.

use crate::metrics::EngineMetrics;
use crate::stats::ServerStats;
use axs_catalog::{Catalog, CatalogError, StoreSlot};
use axs_client::wire::{
    put_str, put_u16, put_u32, put_u64, ErrorCode, Frame, OpCode, Reader, WireError,
};
use axs_core::{ReadView, StatRow, StoreError, XmlStore};
use axs_xdm::{NodeId, Token};
use axs_xml::serializer::SerializeError;
use axs_xml::{parse_document, parse_fragment, ParseOptions, SerializeOptions, StreamSerializer};
use std::sync::Arc;

/// Streamed `ReadAll` chunk size: big enough to amortize framing, small
/// enough that slow clients see steady progress.
pub(crate) const READ_ALL_CHUNK: usize = 64 * 1024;

/// The `ReadAll` body: the view serialized straight into `READ_ALL_CHUNK`
/// payloads — every one full but the last, split on byte boundaries (the
/// client re-validates UTF-8 over the whole accumulation) — plus the token
/// count. Tokens are borrowed from the view's decoded ranges, never cloned,
/// each token's text is written once, into the open chunk, and no
/// whole-document string is built.
fn read_all_chunks<V: ReadView>(view: &V) -> Result<(Vec<Vec<u8>>, u64), ExecError> {
    let mut ser = StreamSerializer::new(SerializeOptions::default());
    let mut chunks = Vec::new();
    let mut chunk = Vec::with_capacity(READ_ALL_CHUNK);
    let mut tokens = 0u64;
    view.scan_ranges(|data| {
        for tok in &data.tokens {
            ser.write_token_into(tok, &mut chunk)?;
            if chunk.len() >= READ_ALL_CHUNK {
                cut_full_chunks(&mut chunk, &mut chunks);
            }
        }
        tokens += data.tokens.len() as u64;
        Ok::<_, ExecError>(())
    })?;
    ser.finish()?;
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    Ok((chunks, tokens))
}

/// Moves every full `READ_ALL_CHUNK` at the front of `chunk` to `chunks`
/// and leaves the remainder, shorter than a chunk, open in `chunk`. Only
/// the bytes past the first chunk are copied, and a chunk that a long
/// token grew is shrunk back before it is kept.
fn cut_full_chunks(chunk: &mut Vec<u8>, chunks: &mut Vec<Vec<u8>>) {
    let full_end = chunk.len() - chunk.len() % READ_ALL_CHUNK;
    let mut rest = Vec::with_capacity(READ_ALL_CHUNK);
    rest.extend_from_slice(&chunk[full_end..]);
    let more: Vec<Vec<u8>> = chunk[READ_ALL_CHUNK..full_end]
        .chunks_exact(READ_ALL_CHUNK)
        .map(<[u8]>::to_vec)
        .collect();
    chunk.truncate(READ_ALL_CHUNK);
    chunk.shrink_to(READ_ALL_CHUNK);
    chunks.push(std::mem::replace(chunk, rest));
    chunks.extend(more);
}

/// Appends `tokens` to `payload` as a wire string (`u32` length + UTF-8),
/// serialized in place by `ser`, which is then ready for the next item.
fn put_rendered<'a>(
    payload: &mut Vec<u8>,
    ser: &mut StreamSerializer,
    tokens: impl IntoIterator<Item = &'a Token>,
) -> Result<(), ExecError> {
    let at = payload.len();
    put_u32(payload, 0);
    for tok in tokens {
        ser.write_token_into(tok, payload)?;
    }
    ser.finish_item()?;
    let len = (payload.len() - at - 4) as u32;
    payload[at..at + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// A FLWOR answer written as it is evaluated: each row is serialized
/// straight into its own `More` frame's payload as a wire string, the way
/// `put_rendered` writes a query match.
struct RowFrames {
    id: u64,
    op: u8,
    ser: StreamSerializer,
    /// The open row's payload: its length prefix, then its text so far.
    payload: Vec<u8>,
    frames: Vec<Frame>,
}

impl axs_xquery::RowSink for RowFrames {
    type Error = ExecError;

    fn token(&mut self, token: &Token) -> Result<(), ExecError> {
        if self.payload.is_empty() {
            put_u32(&mut self.payload, 0);
        }
        self.ser.write_token_into(token, &mut self.payload)?;
        Ok(())
    }

    fn end_row(&mut self) -> Result<(), ExecError> {
        if self.payload.is_empty() {
            put_u32(&mut self.payload, 0);
        }
        self.ser.finish_item()?;
        let len = (self.payload.len() - 4) as u32;
        self.payload[..4].copy_from_slice(&len.to_le_bytes());
        let p = std::mem::take(&mut self.payload);
        self.frames.push(Frame::more(self.id, self.op, p));
        Ok(())
    }
}

/// What one dispatched request produced.
pub(crate) struct DispatchOutcome {
    /// Response frames, in write order (zero or more `More`, one final).
    pub frames: Vec<Frame>,
    /// The request asked the server to shut down.
    pub shutdown: bool,
}

impl DispatchOutcome {
    fn done(frames: Vec<Frame>) -> DispatchOutcome {
        DispatchOutcome {
            frames,
            shutdown: false,
        }
    }
}

/// A write opcode's request, decoded and XML-parsed *before* the
/// exclusive store section so the CPU-heavy part of a write runs outside
/// every latch (see `Engine::run`'s write arm).
enum WritePayload {
    /// `BulkLoad`: the parsed document.
    Load(Vec<Token>),
    /// Node-scoped inserts and `Replace`: target node + parsed fragment.
    Node(NodeId, Vec<Token>),
    /// `Delete`: target node.
    Target(NodeId),
    /// `Flush`: no payload.
    Empty,
    /// `Compact`: target range-size budget.
    Budget(u64),
}

/// A request-level failure, mapped onto a typed wire error.
#[derive(Debug)]
struct ExecError {
    code: ErrorCode,
    message: String,
}

impl ExecError {
    fn new(code: ErrorCode, message: impl Into<String>) -> ExecError {
        ExecError {
            code,
            message: message.into(),
        }
    }
}

impl From<WireError> for ExecError {
    fn from(e: WireError) -> Self {
        ExecError::new(ErrorCode::Protocol, e.message)
    }
}

impl From<StoreError> for ExecError {
    fn from(e: StoreError) -> Self {
        ExecError::new(ErrorCode::Store, e.to_string())
    }
}

impl From<SerializeError> for ExecError {
    fn from(e: SerializeError) -> Self {
        ExecError::new(ErrorCode::Store, e.to_string())
    }
}

impl From<CatalogError> for ExecError {
    fn from(e: CatalogError) -> Self {
        let code = match &e {
            CatalogError::UnknownStore(_) => ErrorCode::UnknownStore,
            CatalogError::StoreExists(_) => ErrorCode::StoreExists,
            CatalogError::InvalidName(_) => ErrorCode::Protocol,
            CatalogError::NoRoot | CatalogError::CannotDropDefault => ErrorCode::Unsupported,
            CatalogError::Store(_) | CatalogError::Io(_) => ErrorCode::Store,
        };
        ExecError::new(code, e.to_string())
    }
}

/// The shared execution engine: the store catalog plus the server's own
/// counters. Shared by every session and worker; per-store state (the
/// store handle) lives on each catalog slot.
pub(crate) struct Engine {
    catalog: Arc<Catalog>,
    stats: Arc<ServerStats>,
    metrics: Arc<EngineMetrics>,
    debug_sleep: bool,
    mvcc: bool,
}

impl Engine {
    pub(crate) fn new(
        catalog: Arc<Catalog>,
        stats: Arc<ServerStats>,
        metrics: Arc<EngineMetrics>,
        debug_sleep: bool,
        mvcc: bool,
    ) -> Engine {
        Engine {
            catalog,
            stats,
            metrics,
            debug_sleep,
            mvcc,
        }
    }

    /// The server's observability state (latency histograms, slow log,
    /// trace ring).
    pub(crate) fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The metric label for a frame's store id: the live store name, or
    /// `"?"` for ids the catalog no longer (or never) knew.
    pub(crate) fn store_label(&self, store_id: u16) -> String {
        self.catalog
            .name_of(store_id)
            .unwrap_or_else(|| "?".to_string())
    }

    /// Flushes every open store through its WAL (graceful-shutdown path;
    /// callers must ensure no workers are still executing).
    pub(crate) fn flush_stores(&self) -> Result<(), CatalogError> {
        self.catalog.flush_all()
    }

    /// Executes one request frame, producing the full ordered response.
    /// Never panics outward; failures become typed error frames. Every
    /// response frame echoes the request's store id.
    pub(crate) fn dispatch(&self, req: &Frame) -> DispatchOutcome {
        let mut outcome = self.dispatch_unstamped(req);
        for frame in &mut outcome.frames {
            frame.store = req.store;
        }
        outcome
    }

    fn dispatch_unstamped(&self, req: &Frame) -> DispatchOutcome {
        let Some(opcode) = OpCode::from_u8(req.opcode) else {
            ServerStats::bump(&self.stats.protocol_errors);
            return DispatchOutcome::done(vec![Frame::error(
                req.req_id,
                req.opcode,
                ErrorCode::Unsupported,
                &format!("unknown opcode {}", req.opcode),
            )]);
        };
        if opcode == OpCode::Shutdown {
            return DispatchOutcome {
                frames: vec![Frame::done(req.req_id, req.opcode, Vec::new())],
                shutdown: true,
            };
        }
        match self.dispatch_inner(req, opcode) {
            Ok(frames) => DispatchOutcome::done(frames),
            Err(e) => {
                if matches!(e.code, ErrorCode::Protocol | ErrorCode::Parse) {
                    ServerStats::bump(&self.stats.protocol_errors);
                }
                DispatchOutcome::done(vec![Frame::error(
                    req.req_id, req.opcode, e.code, &e.message,
                )])
            }
        }
    }

    fn dispatch_inner(&self, req: &Frame, opcode: OpCode) -> Result<Vec<Frame>, ExecError> {
        let _span = axs_obs::span_enter(axs_obs::EventKind::Execute, opcode as u64, 0);
        use OpCode::*;
        if matches!(opcode, CreateStore | DropStore | ListStores | UseStore) {
            // Catalog opcodes address the catalog itself, not a store; the
            // frame's store id is deliberately ignored and the catalog's
            // own mutex is the only synchronization they need.
            return self.run_catalog(req, opcode);
        }
        if opcode == DumpRecorder {
            // The flight recorder is process-wide; no store needed.
            return self.run_dump_recorder(req);
        }
        // Everything else addresses the store in the frame header: resolve
        // it (lazy-opening it on first access), then run against it.
        let slot = self.catalog.slot_by_id(req.store)?;
        if opcode == Explain {
            return self.run_explain(req, &slot);
        }
        if self.mvcc && Self::snapshot_read(opcode) {
            // MVCC fast path: pin the epoch current at dispatch and run
            // against that frozen snapshot without the store's
            // reader-writer lock — this read cannot wait on any writer,
            // and no writer waits on it. The in-flight gauge still counts
            // it so overlap stays observable.
            if let Some(snap) = slot.store.epochs().pin() {
                ServerStats::bump(&self.stats.reads_snapshot);
                let _in_flight = self.stats.read_enter();
                return self.run_read_data(req, opcode, &*snap);
            }
            // No published epoch (never happens for a built/opened store;
            // defensive): fall through to the live store.
        }
        self.run(req, opcode, &slot)
    }

    /// Data-read opcodes eligible for the snapshot path: they read document
    /// content only. Admin reads (`Stats`, `Metrics`, `Report`, `Ranges`,
    /// `Verify`) inspect live store internals — pools, indexes, on-disk
    /// layout — so they borrow the live store.
    fn snapshot_read(opcode: OpCode) -> bool {
        use OpCode::*;
        matches!(
            opcode,
            ReadNode | Value | Children | Parent | Query | Flwor | ReadAll
        )
    }

    /// Opcodes the server runs on the session thread that decoded them
    /// instead of handing them to the worker pool: `Ping`, and — with MVCC
    /// on — the four point reads. Those pin the current epoch (see
    /// [`Self::snapshot_read`]) instead of borrowing the store, so they can
    /// never wait on a writer, and their work is O(node). Everything else
    /// may block or run long and stays on the pool, under `workers`, `queue_depth` and
    /// `request_timeout`; queries and scans are snapshot reads too, but
    /// they are O(document).
    pub(crate) fn runs_inline(&self, opcode: OpCode) -> bool {
        use OpCode::*;
        match opcode {
            Ping => true,
            ReadNode | Value | Children | Parent => self.mvcc,
            _ => false,
        }
    }

    /// Default entry count for an on-demand flight-recorder dump.
    const DUMP_DEFAULT_LIMIT: usize = 64;

    /// `DumpRecorder`: renders the flight recorder's recent entries, writes
    /// the dump to the server's stderr (the post-mortem channel), and
    /// returns the same text to the client.
    fn run_dump_recorder(&self, req: &Frame) -> Result<Vec<Frame>, ExecError> {
        let mut r = Reader::new(&req.payload);
        let limit = r.u64()?;
        r.finish()?;
        let limit = if limit == 0 {
            Self::DUMP_DEFAULT_LIMIT
        } else {
            limit as usize
        };
        let text = axs_obs::recorder().render("on-demand", limit);
        let mut p = Vec::new();
        put_str(&mut p, &text);
        Ok(vec![Frame::done(req.req_id, req.opcode, p)])
    }

    /// `Explain`: executes the embedded request against the live store
    /// under a dedicated trace and answers with the plan trace instead of
    /// the result.
    ///
    /// The live store is deliberate: only it exercises the paper's three
    /// lookup paths (an MVCC snapshot has its own frozen id index and
    /// touches neither the partial index nor the adaptive controller), so
    /// explaining *is* a statement about what a live-store execution would
    /// do — the response carries a `would_snapshot` flag telling the caller
    /// when a normal execution would have read a snapshot instead.
    ///
    /// The inner execution runs under a trace of its own, fed into this
    /// server's layer histograms, so `Explain` works the same on a
    /// `--no-trace` server.
    fn run_explain(&self, req: &Frame, slot: &StoreSlot) -> Result<Vec<Frame>, ExecError> {
        let mut r = Reader::new(&req.payload);
        let kind = r.u8()?;
        let (inner_op, inner_payload) = match kind {
            0 => {
                let node = r.u64()?;
                r.finish()?;
                let mut p = Vec::new();
                put_u64(&mut p, node);
                (OpCode::ReadNode, p)
            }
            1 => {
                let path = r.str()?;
                r.finish()?;
                let mut p = Vec::new();
                put_str(&mut p, &path);
                (OpCode::Query, p)
            }
            2 => {
                let query = r.str()?;
                r.finish()?;
                let mut p = Vec::new();
                put_str(&mut p, &query);
                (OpCode::Flwor, p)
            }
            other => {
                return Err(ExecError::new(
                    ErrorCode::Protocol,
                    format!("unknown explain kind {other}"),
                ))
            }
        };
        let inner = Frame::request_on(req.req_id, inner_op, req.store, inner_payload);
        let would_snapshot = self.mvcc && Self::snapshot_read(inner_op);
        let epoch = slot.store.epochs().stats().current_epoch;
        let log_seq = slot.store.with_read(|s| s.decision_log().last_seq());

        // A dedicated trace for the inner execution. `trace_begin`
        // discards the worker's trace of the Explain request itself, if
        // any; the worker's `trace_finish` then returns `None`, which the
        // metrics layer already treats as an untraced request.
        let layers = self.metrics.layers.clone();
        axs_obs::trace_begin(axs_obs::next_trace_id(), inner_op as u8, layers);
        let result = {
            // The inner execution skips `dispatch_inner`, so give its
            // trace the same top-level execute span every request gets.
            let _span = axs_obs::span_enter(axs_obs::EventKind::Execute, inner_op as u64, 0);
            self.run(&inner, inner_op, slot)
        };
        let trace = axs_obs::trace_finish().expect("explain opened this trace");
        let frames = result?;

        let result_count = match inner_op {
            OpCode::ReadNode => 1,
            // Streamed responses: one `More` frame per row.
            _ => frames.len().saturating_sub(1) as u64,
        };
        let decisions: Vec<String> = slot.store.with_read(|s| {
            s.decision_log()
                .since(log_seq)
                .iter()
                .map(axs_core::AdaptEvent::render)
                .collect()
        });

        let mut p = Vec::new();
        p.push(trace.lookup_path_code());
        p.push(u8::from(would_snapshot));
        put_u64(&mut p, epoch);
        put_u64(&mut p, trace.total_us);
        put_u64(&mut p, result_count);
        let mut events: Vec<&axs_obs::Event> = trace.events.iter().collect();
        events.sort_by_key(|e| e.at_us);
        put_u32(&mut p, events.len() as u32);
        for e in events {
            put_str(&mut p, e.kind.label());
            p.push(e.depth);
            put_u64(&mut p, e.at_us);
            put_u64(&mut p, e.dur_us);
            put_u64(&mut p, e.a);
            put_u64(&mut p, e.b);
        }
        put_u32(&mut p, decisions.len() as u32);
        for d in &decisions {
            put_str(&mut p, d);
        }
        Ok(vec![Frame::done(req.req_id, req.opcode, p)])
    }

    /// Catalog management opcodes: create / drop / list / resolve.
    fn run_catalog(&self, req: &Frame, opcode: OpCode) -> Result<Vec<Frame>, ExecError> {
        let id = req.req_id;
        let op = req.opcode;
        let mut r = Reader::new(&req.payload);
        let frames = match opcode {
            OpCode::CreateStore => {
                let name = r.str()?;
                r.finish()?;
                let store_id = self.catalog.create(&name)?;
                ServerStats::bump(&self.stats.stores_created);
                let mut p = Vec::new();
                put_u16(&mut p, store_id);
                vec![Frame::done(id, op, p)]
            }
            OpCode::DropStore => {
                let name = r.str()?;
                r.finish()?;
                self.catalog.drop_store(&name)?;
                ServerStats::bump(&self.stats.stores_dropped);
                vec![Frame::done(id, op, Vec::new())]
            }
            OpCode::ListStores => {
                r.finish()?;
                let stores = self.catalog.list();
                let mut p = Vec::new();
                put_u32(&mut p, stores.len() as u32);
                for s in stores {
                    put_str(&mut p, &s.name);
                    put_u16(&mut p, s.id);
                    p.push(u8::from(s.open));
                }
                vec![Frame::done(id, op, p)]
            }
            OpCode::UseStore => {
                let name = r.str()?;
                r.finish()?;
                let store_id = self.catalog.resolve(&name)?;
                let mut p = Vec::new();
                put_u16(&mut p, store_id);
                vec![Frame::done(id, op, p)]
            }
            _ => unreachable!("not a catalog opcode"),
        };
        Ok(frames)
    }

    /// Executes the opcode body against the live store. Read opcodes run
    /// under `with_read`. Write opcodes parse before taking any guard, then
    /// run under `with_write_durable` — `with_write` for `Flush`, which is
    /// its own durability point.
    fn run(&self, req: &Frame, opcode: OpCode, slot: &StoreSlot) -> Result<Vec<Frame>, ExecError> {
        use OpCode::*;
        match opcode {
            Ping | Sleep => self.run_control(req, opcode),
            ReadNode | Value | Children | Parent | Query | Flwor | ReadAll | Stats | Metrics
            | Report | Ranges | Verify => slot.store.with_read(|store| {
                // The guard keeps `reads_in_flight` honest even if the
                // opcode body panics.
                let _in_flight = self.stats.read_enter();
                self.run_read(req, opcode, store)
            }),
            BulkLoad | InsertFirst | InsertLast | InsertBefore | InsertAfter | Delete | Replace
            | Flush | Compact => {
                // Decode and parse the payload before taking the store
                // guard: XML parsing is the CPU-heavy part of small writes
                // and needs no physical access at all.
                let payload = Self::parse_write_payload(req, opcode)?;
                let _in_flight = self.stats.write_enter();
                let store = &slot.store;
                if opcode == Flush {
                    return store.with_write(|s| self.run_write(req, opcode, payload, s));
                }
                // `server.commit_waits` counts writes that wait on a group
                // fsync; only a WAL-backed store's commit has one.
                let mut waits = false;
                let frames = store.with_write_durable(|s| {
                    waits = s.group_commit_stats().is_some();
                    self.run_write(req, opcode, payload, s)
                })?;
                if waits {
                    ServerStats::bump(&self.stats.commit_waits);
                }
                Ok(frames)
            }
            Shutdown | CreateStore | DropStore | ListStores | UseStore | Explain | DumpRecorder => {
                unreachable!("handled by dispatch")
            }
        }
    }

    fn run_control(&self, req: &Frame, opcode: OpCode) -> Result<Vec<Frame>, ExecError> {
        let id = req.req_id;
        let op = req.opcode;
        let mut r = Reader::new(&req.payload);
        let frames = match opcode {
            OpCode::Ping => {
                r.finish()?;
                vec![Frame::done(id, op, Vec::new())]
            }
            OpCode::Sleep => {
                let ms = r.u32()?;
                r.finish()?;
                if !self.debug_sleep {
                    return Err(ExecError::new(
                        ErrorCode::Unsupported,
                        "sleep requires a server configured with debug_sleep",
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(u64::from(ms)));
                vec![Frame::done(id, op, Vec::new())]
            }
            _ => unreachable!("not a control opcode"),
        };
        Ok(frames)
    }

    /// Document-content reads, generic over the [`ReadView`] they run
    /// against: the live [`XmlStore`] under its shared guard (MVCC off, or
    /// a store with no published epoch) or a pinned MVCC [`Snapshot`]. One
    /// body, two access modes — the concurrency battery's engine-agreement
    /// tests lean on this sharing.
    ///
    /// [`Snapshot`]: axs_core::Snapshot
    fn run_read_data<V: ReadView>(
        &self,
        req: &Frame,
        opcode: OpCode,
        view: &V,
    ) -> Result<Vec<Frame>, ExecError> {
        use OpCode::*;
        let id = req.req_id;
        let op = req.opcode;
        let mut r = Reader::new(&req.payload);
        let frames = match opcode {
            Query => {
                let path = r.str()?;
                r.finish()?;
                let compiled = axs_xpath::compile(&path)
                    .map_err(|e| ExecError::new(ErrorCode::Parse, e.to_string()))?;
                let table = view.node_table()?;
                let matches = axs_xpath::evaluate_table(&table, &compiled);
                let mut frames = Vec::with_capacity(matches.len() + 1);
                let mut ser = StreamSerializer::new(SerializeOptions::default());
                for &n in &matches {
                    let node = table.node_id(n);
                    let mut p = Vec::new();
                    p.push(u8::from(node.is_some()));
                    put_u64(&mut p, node.map_or(0, NodeId::get));
                    put_rendered(&mut p, &mut ser, table.tokens(n))?;
                    frames.push(Frame::more(id, op, p));
                }
                let mut fin = Vec::new();
                put_u64(&mut fin, matches.len() as u64);
                frames.push(Frame::done(id, op, fin));
                frames
            }
            Flwor => {
                let text = r.str()?;
                r.finish()?;
                let q = axs_xquery::parse_flwor(&text)
                    .map_err(|e| ExecError::new(ErrorCode::Parse, e.to_string()))?;
                let mut rows = RowFrames {
                    id,
                    op,
                    ser: StreamSerializer::new(SerializeOptions::default()),
                    payload: Vec::new(),
                    frames: Vec::new(),
                };
                let count = axs_xquery::evaluate_flwor_into(view, &q, &mut rows)?;
                let mut fin = Vec::new();
                put_u64(&mut fin, count as u64);
                rows.frames.push(Frame::done(id, op, fin));
                rows.frames
            }
            ReadNode => {
                let node = NodeId(r.u64()?);
                r.finish()?;
                let tokens = view.read_node(node)?;
                let mut p = Vec::new();
                let mut ser = StreamSerializer::new(SerializeOptions::default());
                put_rendered(&mut p, &mut ser, &tokens)?;
                vec![Frame::done(id, op, p)]
            }
            Value => {
                let node = NodeId(r.u64()?);
                r.finish()?;
                let value = view.string_value(node)?;
                let mut p = Vec::new();
                put_str(&mut p, &value);
                vec![Frame::done(id, op, p)]
            }
            Children => {
                let node = NodeId(r.u64()?);
                r.finish()?;
                let kids = view.children_named(node)?;
                let mut p = Vec::new();
                put_u32(&mut p, kids.len() as u32);
                for (kid, name) in kids {
                    put_u64(&mut p, kid.get());
                    put_str(&mut p, &name.map(|q| q.to_lexical()).unwrap_or_default());
                }
                vec![Frame::done(id, op, p)]
            }
            Parent => {
                let node = NodeId(r.u64()?);
                r.finish()?;
                let parent = view.parent_of(node)?;
                let mut p = Vec::new();
                p.push(u8::from(parent.is_some()));
                put_u64(&mut p, parent.map_or(0, NodeId::get));
                vec![Frame::done(id, op, p)]
            }
            ReadAll => {
                r.finish()?;
                let (chunks, tokens) = read_all_chunks(view)?;
                let mut frames: Vec<Frame> = chunks
                    .into_iter()
                    .map(|chunk| Frame::more(id, op, chunk))
                    .collect();
                let mut fin = Vec::new();
                put_u64(&mut fin, tokens);
                frames.push(Frame::done(id, op, fin));
                frames
            }
            _ => unreachable!("not a data-read opcode"),
        };
        Ok(frames)
    }

    /// Read-only opcodes on the live store: `store` is a shared borrow —
    /// any number of these run concurrently. Data reads delegate to the
    /// generic body; admin reads inspect the live store.
    fn run_read(
        &self,
        req: &Frame,
        opcode: OpCode,
        store: &XmlStore,
    ) -> Result<Vec<Frame>, ExecError> {
        use OpCode::*;
        if Self::snapshot_read(opcode) {
            return self.run_read_data(req, opcode, store);
        }
        let id = req.req_id;
        let op = req.opcode;
        let r = Reader::new(&req.payload);
        let frames = match opcode {
            Stats => {
                r.finish()?;
                let rows = self.stat_rows(store);
                let mut p = Vec::new();
                put_u32(&mut p, rows.len() as u32);
                for row in rows {
                    put_str(&mut p, row.name);
                    put_u64(&mut p, row.value);
                }
                vec![Frame::done(id, op, p)]
            }
            Metrics => {
                r.finish()?;
                let rows = self.stat_rows(store);
                let text = self.metrics.prometheus_text(&rows);
                let entries = self.metrics.extended_entries(&rows);
                let mut p = Vec::new();
                put_str(&mut p, &text);
                put_u32(&mut p, entries.len() as u32);
                for (name, value) in entries {
                    put_str(&mut p, &name);
                    put_u64(&mut p, value);
                }
                vec![Frame::done(id, op, p)]
            }
            Report => {
                r.finish()?;
                let rep = store.storage_report()?;
                let text = format!(
                    "blocks {}  ranges {}  index entries {}  free pages {}\n\
                     nodes {}  tokens {}  token bytes {}  payload bytes {}\n\
                     fill {:.1}%  index pages {}",
                    rep.blocks,
                    rep.ranges,
                    rep.range_index_entries,
                    rep.free_pages,
                    rep.live_nodes,
                    rep.tokens,
                    rep.token_bytes,
                    rep.payload_bytes,
                    rep.fill_factor() * 100.0,
                    rep.index_pages,
                );
                let mut p = Vec::new();
                put_str(&mut p, &text);
                vec![Frame::done(id, op, p)]
            }
            Verify => {
                r.finish()?;
                store.check_invariants()?;
                // Walking every token forces every data page through the
                // pool, so checksum verification covers the whole file.
                let tokens = store.read_all()?;
                let summary = format!(
                    "ok: invariants hold, {} tokens readable, {} range(s)",
                    tokens.len(),
                    store.range_count(),
                );
                let mut p = Vec::new();
                put_str(&mut p, &summary);
                vec![Frame::done(id, op, p)]
            }
            Ranges => {
                r.finish()?;
                let entries = store.range_index_entries()?;
                let mut text = String::from("RangeId  BlockId  StartId  EndId\n");
                for e in entries {
                    use std::fmt::Write as _;
                    let _ = writeln!(
                        text,
                        "{:<8} {:<8} {:<8} {}",
                        e.range_id,
                        e.block.0,
                        e.interval.start.get(),
                        e.interval.end.get()
                    );
                }
                let mut p = Vec::new();
                put_str(&mut p, &text);
                vec![Frame::done(id, op, p)]
            }
            _ => unreachable!("not a read opcode"),
        };
        Ok(frames)
    }

    /// Decodes and parses a write opcode's payload — everything that can
    /// happen before (and therefore outside) the exclusive store section.
    fn parse_write_payload(req: &Frame, opcode: OpCode) -> Result<WritePayload, ExecError> {
        use OpCode::*;
        let mut r = Reader::new(&req.payload);
        let payload = match opcode {
            BulkLoad => {
                let xml = r.str()?;
                r.finish()?;
                WritePayload::Load(Self::parse_xml(&xml)?)
            }
            InsertFirst | InsertLast | InsertBefore | InsertAfter | Replace => {
                let node = NodeId(r.u64()?);
                let xml = r.str()?;
                r.finish()?;
                WritePayload::Node(node, Self::parse_xml(&xml)?)
            }
            Delete => {
                let node = NodeId(r.u64()?);
                r.finish()?;
                WritePayload::Target(node)
            }
            Flush => {
                r.finish()?;
                WritePayload::Empty
            }
            Compact => {
                let target = r.u64()?;
                r.finish()?;
                WritePayload::Budget(target)
            }
            _ => unreachable!("not a write opcode"),
        };
        Ok(payload)
    }

    /// Mutating opcodes: `store` is the exclusive borrow, `payload` the
    /// pre-parsed request. The caller commits and waits for durability
    /// after this returns.
    fn run_write(
        &self,
        req: &Frame,
        opcode: OpCode,
        payload: WritePayload,
        store: &mut XmlStore,
    ) -> Result<Vec<Frame>, ExecError> {
        use OpCode::*;
        let id = req.req_id;
        let op = req.opcode;
        let frames = match (opcode, payload) {
            (BulkLoad, WritePayload::Load(tokens)) => {
                let iv = store.bulk_insert(tokens)?;
                vec![Frame::done(id, op, Self::interval_payload(iv))]
            }
            (
                InsertFirst | InsertLast | InsertBefore | InsertAfter | Replace,
                WritePayload::Node(node, tokens),
            ) => {
                let iv = match opcode {
                    InsertFirst => store.insert_into_first(node, tokens)?,
                    InsertLast => store.insert_into_last(node, tokens)?,
                    InsertBefore => store.insert_before(node, tokens)?,
                    InsertAfter => store.insert_after(node, tokens)?,
                    Replace => store.replace_node(node, tokens)?,
                    _ => unreachable!(),
                };
                vec![Frame::done(id, op, Self::interval_payload(iv))]
            }
            (Delete, WritePayload::Target(node)) => {
                store.delete_node(node)?;
                vec![Frame::done(id, op, Vec::new())]
            }
            (Flush, WritePayload::Empty) => {
                store.flush()?;
                vec![Frame::done(id, op, Vec::new())]
            }
            (Compact, WritePayload::Budget(target)) => {
                let rep = store.compact(target as usize)?;
                let mut p = Vec::new();
                put_u64(&mut p, rep.merges);
                put_u64(&mut p, rep.ranges_before);
                put_u64(&mut p, rep.ranges_after);
                vec![Frame::done(id, op, p)]
            }
            _ => unreachable!("payload shape matches opcode by construction"),
        };
        Ok(frames)
    }

    /// Every `Stats` row: the addressed store's `store.*`, `pool.*`,
    /// `partial.*`, `wal.*`, `adapt.*` and `mvcc.*` rows, then the
    /// process-wide `cat.*` and `server.*` ones. `store` is the shared
    /// borrow the opcode already holds.
    fn stat_rows(&self, store: &XmlStore) -> Vec<StatRow> {
        let mut out = Vec::with_capacity(96);
        store.stat_rows(&mut out);
        self.catalog.stat_rows(&mut out);
        self.stats.rows(&mut out);
        out
    }

    fn parse_xml(xml: &str) -> Result<Vec<Token>, ExecError> {
        // Accept full documents (with prolog) or bare fragments.
        let trimmed = xml.trim_start();
        if trimmed.starts_with("<?xml") || trimmed.starts_with("<!DOCTYPE") {
            let doc = parse_document(xml, ParseOptions::data_centric())
                .map_err(|e| ExecError::new(ErrorCode::Parse, e.to_string()))?;
            Ok(doc[1..doc.len() - 1].to_vec())
        } else {
            parse_fragment(xml, ParseOptions::data_centric())
                .map_err(|e| ExecError::new(ErrorCode::Parse, e.to_string()))
        }
    }

    fn interval_payload(iv: axs_xdm::IdInterval) -> Vec<u8> {
        let mut p = Vec::with_capacity(16);
        put_u64(&mut p, iv.start.get());
        put_u64(&mut p, iv.end.get());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axs_core::{ConcurrentStore, StoreBuilder};
    use axs_storage::StorageConfig;
    use axs_xml::serialize;

    /// A document that serializes to exactly `len` bytes with `ch` (a 2-,
    /// 3- or 4-byte character) straddling every `READ_ALL_CHUNK` boundary:
    /// a leading text run, 1 KiB `<t>` elements, a trailing text run. The
    /// lead puts every boundary mid-text.
    fn doc(len: usize, ch: char) -> String {
        const SEG: usize = 1024;
        let mut bytes = vec![b'a'; len.min(SEG / 2)];
        while bytes.len() + SEG <= len {
            bytes.extend_from_slice(b"<t>");
            bytes.resize(bytes.len() + SEG - 7, b'a');
            bytes.extend_from_slice(b"</t>");
        }
        bytes.resize(len, b'a');
        let mut buf = [0u8; 4];
        let ch = ch.encode_utf8(&mut buf).as_bytes();
        for boundary in (READ_ALL_CHUNK..len).step_by(READ_ALL_CHUNK) {
            let at = (boundary - 1).min(len - ch.len());
            bytes[at..at + ch.len()].copy_from_slice(ch);
        }
        String::from_utf8(bytes).unwrap()
    }

    fn check<V: ReadView>(view: &V, xml: &str) {
        let tokens = view.read_all().unwrap();
        let (chunks, count) = read_all_chunks(view).unwrap();
        assert_eq!(count, tokens.len() as u64, "Done carries the token count");
        assert_eq!(
            chunks.concat(),
            serialize(&tokens, &SerializeOptions::default())
                .unwrap()
                .as_bytes()
        );
        assert_eq!(chunks.concat(), xml.as_bytes());
        if let Some((last, full)) = chunks.split_last() {
            assert!(full.iter().all(|c| c.len() == READ_ALL_CHUNK));
            assert!(!last.is_empty() && last.len() <= READ_ALL_CHUNK);
        }
        assert!(chunks.iter().all(|c| c.capacity() <= READ_ALL_CHUNK));
        assert_eq!(chunks.len(), xml.len().div_ceil(READ_ALL_CHUNK));
    }

    #[test]
    fn read_all_chunks_hold_every_boundary() {
        const C: usize = READ_ALL_CHUNK;
        for len in [0, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1] {
            for ch in ['é', '€', '😀'] {
                let xml = doc(len, ch);
                assert_eq!(xml.len(), len);
                if len > C {
                    assert!(!xml.is_char_boundary(C), "{len}: {ch} straddles {C}");
                }
                let store = ConcurrentStore::new(StoreBuilder::new().build().unwrap());
                if len > 0 {
                    let tokens = parse_fragment(&xml, ParseOptions::data_centric()).unwrap();
                    store.with_write_durable(|s| s.bulk_insert(tokens)).unwrap();
                }
                store.with_read(|s| check(s, &xml));
                check(&*store.epochs().pin().unwrap(), &xml);
            }
        }
    }

    /// One text token that serializes to more than two chunks: `&`s that
    /// each escape to five bytes, with `ch` straddling every boundary. It
    /// is cut into full chunks, and none is kept oversized. A 32 KiB page
    /// (the largest a block supports) holds the token.
    #[test]
    fn read_all_chunks_cut_a_token_longer_than_two_chunks() {
        const C: usize = READ_ALL_CHUNK;
        for ch in ['é', '€', '😀'] {
            let mut buf = [0u8; 4];
            let ch = ch.encode_utf8(&mut buf);
            let mut xml = String::from("<t>");
            let mut boundary = C;
            while xml.len() < 2 * C + 1000 {
                if xml.len() + 5 < boundary - 1 {
                    xml.push_str("&amp;");
                } else {
                    while xml.len() < boundary - 1 {
                        xml.push('a');
                    }
                    xml.push_str(ch);
                    boundary += C;
                }
            }
            xml.push_str("</t>");
            let tokens = parse_fragment(&xml, ParseOptions::data_centric()).unwrap();
            assert_eq!(tokens.len(), 3, "one element holding one text token");
            let storage = StorageConfig {
                page_size: 32 * 1024,
                ..StorageConfig::default()
            };
            let store = ConcurrentStore::new(StoreBuilder::new().storage(storage).build().unwrap());
            store.with_write_durable(|s| s.bulk_insert(tokens)).unwrap();
            store.with_read(|s| check(s, &xml));
        }
    }
}
