//! Request execution: opcode dispatch against the store catalog, isolated
//! per store by that store's hierarchical lock manager.
//!
//! Every request frame names a store (the `u16` id in the frame header, 0
//! = default); dispatch resolves it through the [`Catalog`] — opening the
//! store lazily on first access — and runs as one short transaction:
//! acquire the locks its opcode needs (shared for reads, exclusive for
//! writes, scoped to the range subtree the target node lives in where one
//! can be located), execute against that store, release everything
//! (strict two-phase — all locks at the end). A request picked as a
//! deadlock victim is answered with a typed `Lock` error and can simply
//! be retried by the client.
//!
//! **Data reads take none of those locks.** With MVCC on (the default),
//! every document-content read — point reads, navigation, XPath, FLWOR,
//! full scans — pins the epoch current at dispatch and runs against that
//! frozen [`Snapshot`](axs_core::Snapshot): readers never wait for
//! writers, writers never wait for readers, and a long scan observes one
//! consistent commit point no matter how many commits land meanwhile.
//! The locked path below remains for writes, for admin reads, and as the
//! `mvcc: false` baseline.
//!
//! Physical access to each [`XmlStore`] is a reader-writer lock mirroring
//! the logical modes: the store's entire read API works through `&self`
//! (partial-index memoization and statistics are internally synchronized),
//! so every read-only opcode executes under *shared* access and genuinely
//! overlaps with other readers. Mutating opcodes take the writer side,
//! commit, publish the next MVCC epoch, then release it *before* waiting
//! on the group-commit fsync — so the store is already serving the next
//! request while this writer's durability is batched with its neighbors'.
//! The lock manager layers the *logical* concurrency control of the
//! paper's three-layer hierarchy (store / block / range) on top:
//! admission, isolation, and deadlock detection for many sessions. Both
//! the reader-writer lock and the lock manager live on the store's
//! catalog slot, so sessions on different stores share nothing and never
//! contend.

use crate::metrics::EngineMetrics;
use crate::stats::ServerStats;
use axs_catalog::{Catalog, CatalogError, StoreSlot};
use axs_client::wire::{
    put_str, put_u16, put_u32, put_u64, ErrorCode, Frame, OpCode, Reader, WireError,
};
use axs_core::{ReadView, StoreError, XmlStore, GC_HISTOGRAM_BOUNDS, GC_HISTOGRAM_BUCKETS};
use axs_lock::{LockError, LockMode, Resource};
use axs_xdm::{NodeId, Token};
use axs_xml::{parse_document, parse_fragment, serialize, ParseOptions, SerializeOptions};
use std::sync::Arc;

/// Streamed `ReadAll` chunk size: big enough to amortize framing, small
/// enough that slow clients see steady progress.
const READ_ALL_CHUNK: usize = 64 * 1024;

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

/// The locks an opcode needs before touching the store.
enum Intent {
    /// No store access (ping, sleep).
    None,
    /// Shared read scoped to the range subtree holding this node.
    ReadNode(NodeId),
    /// Exclusive write scoped to the range subtree holding this node.
    WriteNode(NodeId),
    /// Shared read over the whole store (queries, scans, inspection).
    ReadStore,
    /// Exclusive write over the whole store (bulk load, flush, compact).
    WriteStore,
}

/// A request-level failure, mapped onto a typed wire error.
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

impl From<LockError> for ExecError {
    fn from(e: LockError) -> Self {
        ExecError::new(ErrorCode::Lock, e.to_string())
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
/// reader-writer lock, the lock manager) lives on each catalog slot.
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
                match e.code {
                    ErrorCode::Protocol | ErrorCode::Parse => {
                        ServerStats::bump(&self.stats.protocol_errors)
                    }
                    ErrorCode::Lock => ServerStats::bump(&self.stats.deadlocks),
                    _ => {}
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
        // it (lazy-opening it on first access), then run under its locks.
        let slot = self.catalog.slot_by_id(req.store)?;
        if opcode == Explain {
            return self.run_explain(req, &slot);
        }
        if self.mvcc && Self::snapshot_read(opcode) {
            // MVCC fast path: pin the epoch current at dispatch and run
            // against that frozen snapshot. No hierarchical locks, no
            // store reader-writer lock — this read cannot wait on any
            // writer, and no writer waits on it. The in-flight gauge
            // still counts it so overlap stays observable.
            if let Some(snap) = slot.epochs.pin() {
                slot.locks.note_snapshot_bypass();
                ServerStats::bump(&self.stats.reads_snapshot);
                let _in_flight = self.stats.read_enter();
                return self.run_read_data(req, opcode, &*snap);
            }
            // No published epoch (never happens for a built/opened store;
            // defensive): fall through to the locked path.
        }
        match self.intent_of(req, opcode)? {
            Intent::None => self.run(req, opcode, &slot),
            intent => self.run_locked(req, opcode, intent, &slot),
        }
    }

    /// Data-read opcodes eligible for the lock-free snapshot path: they
    /// read document content only. Admin reads (`Stats`, `Metrics`,
    /// `Report`, `Ranges`, `Verify`) inspect live store internals — pools,
    /// indexes, on-disk layout — so they keep the locked path.
    fn snapshot_read(opcode: OpCode) -> bool {
        use OpCode::*;
        matches!(
            opcode,
            ReadNode | Value | Children | Parent | Query | Flwor | ReadAll
        )
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
        eprint!("{text}");
        let mut p = Vec::new();
        put_str(&mut p, &text);
        Ok(vec![Frame::done(req.req_id, req.opcode, p)])
    }

    /// `Explain`: executes the embedded request on the locked/live path
    /// under a dedicated trace and answers with the plan trace instead of
    /// the result.
    ///
    /// The live path is deliberate: only the live store exercises the
    /// paper's three lookup paths (an MVCC snapshot has its own frozen id
    /// index and touches neither the partial index nor the adaptive
    /// controller), so explaining *is* a statement about what the locked
    /// execution would do — the response carries a `would_snapshot` flag
    /// telling the caller when a normal execution would have read a
    /// snapshot instead.
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
        let epoch = slot.epochs.stats().current_epoch;
        let log_seq = slot.store.read().decision_log().last_seq();

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
            self.intent_of(&inner, inner_op)
                .and_then(|intent| self.run_locked(&inner, inner_op, intent, slot))
        };
        let trace = axs_obs::trace_finish().expect("explain opened this trace");
        let frames = result?;

        let result_count = match inner_op {
            OpCode::ReadNode => 1,
            // Streamed responses: one `More` frame per row.
            _ => frames.len().saturating_sub(1) as u64,
        };
        let decisions: Vec<String> = slot
            .store
            .read()
            .decision_log()
            .since(log_seq)
            .iter()
            .map(axs_core::AdaptEvent::render)
            .collect();

        let mut p = Vec::new();
        p.push(trace.lookup_path_code());
        p.push(u8::from(would_snapshot));
        put_u64(&mut p, epoch);
        p.push(Self::strongest_lock_mode(&trace));
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

    /// The strongest lock mode among the trace's `LockWait` events
    /// (X > IX > S > IS), as the wire's mode byte; 255 when none.
    fn strongest_lock_mode(trace: &axs_obs::FinishedTrace) -> u8 {
        let rank = |mode: u64| match mode {
            1 => 4u8, // X
            3 => 3,   // IX
            0 => 2,   // S
            2 => 1,   // IS
            _ => 0,
        };
        trace
            .events
            .iter()
            .filter(|e| e.kind == axs_obs::EventKind::LockWait)
            .max_by_key(|e| rank(e.a))
            .map_or(255, |e| e.a as u8)
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

    /// Decodes enough of the payload to know what the opcode will lock.
    fn intent_of(&self, req: &Frame, opcode: OpCode) -> Result<Intent, ExecError> {
        use OpCode::*;
        Ok(match opcode {
            Ping | Sleep | Shutdown => Intent::None,
            ReadNode | Value | Children | Parent => Intent::ReadNode(Self::peek_id(req)?),
            InsertFirst | InsertLast | InsertBefore | InsertAfter | Delete | Replace => {
                Intent::WriteNode(Self::peek_id(req)?)
            }
            Query | Flwor | ReadAll | Stats | Metrics | Report | Ranges | Verify => {
                Intent::ReadStore
            }
            BulkLoad | Flush | Compact => Intent::WriteStore,
            CreateStore | DropStore | ListStores | UseStore | Explain | DumpRecorder => {
                unreachable!("handled before intent")
            }
        })
    }

    fn peek_id(req: &Frame) -> Result<NodeId, ExecError> {
        let mut r = Reader::new(&req.payload);
        Ok(NodeId(r.u64()?))
    }

    /// Acquires the intent's locks, runs the opcode, releases everything.
    ///
    /// Node-scoped intents map the node id onto its range resource via the
    /// Range Index *before* locking, so the mapping can be stale by the
    /// time the lock is granted (a concurrent writer may have split or
    /// moved the range). After acquiring, the mapping is re-checked and
    /// the locks re-taken until it is stable — the classic lock-then-
    /// validate loop.
    fn run_locked(
        &self,
        req: &Frame,
        opcode: OpCode,
        intent: Intent,
        slot: &StoreSlot,
    ) -> Result<Vec<Frame>, ExecError> {
        let tx = slot.locks.begin();
        let result = (|| {
            match intent {
                Intent::ReadStore => slot.locks.lock(tx, Resource::Store, LockMode::S)?,
                Intent::WriteStore => slot.locks.lock(tx, Resource::Store, LockMode::X)?,
                Intent::ReadNode(id) => self.lock_node(slot, tx, id, LockMode::S)?,
                Intent::WriteNode(id) => self.lock_node(slot, tx, id, LockMode::X)?,
                Intent::None => {}
            }
            self.run(req, opcode, slot)
        })();
        slot.locks.unlock_all(tx);
        result
    }

    /// Locks the range subtree holding `id` in `mode` (plus intention
    /// modes up the hierarchy), validating the id→range mapping after the
    /// grant. Nodes the Range Index does not cover (not yet inserted, or
    /// deleted) fall back to a whole-store lock so the store itself can
    /// produce the precise `NodeNotFound` error under protection.
    fn lock_node(
        &self,
        slot: &StoreSlot,
        tx: axs_lock::TxId,
        id: NodeId,
        mode: LockMode,
    ) -> Result<(), ExecError> {
        // Without a range to lock, the whole store is locked in the same
        // access class the caller asked for.
        let store_mode = if mode == LockMode::S {
            LockMode::S
        } else {
            LockMode::X
        };
        // Bounded retries: under heavy splitting the mapping may keep
        // moving; degrade to a whole-store lock rather than live-lock.
        for _ in 0..4 {
            let located = slot.store.read().locate_range(id)?;
            let Some((block, range)) = located else {
                break;
            };
            slot.locks
                .lock(tx, Resource::Range { block, range }, mode)?;
            if slot.store.read().locate_range(id)? == Some((block, range)) {
                return Ok(());
            }
            // Mapping moved while we waited; drop and retry from scratch.
            slot.locks.unlock_all(tx);
        }
        slot.locks.lock(tx, Resource::Store, store_mode)?;
        Ok(())
    }

    /// Executes the opcode body. Lock acquisition already happened (or was
    /// deliberately skipped for lock-free opcodes). Read opcodes run under
    /// shared physical access. Write opcodes parse before any physical
    /// access, then mutate, seal the WAL batch and publish the epoch under
    /// the store's write guard — the only physical arbiter — and wait on
    /// the shared group fsync after dropping it, so the next writer mutates
    /// while this one waits.
    fn run(&self, req: &Frame, opcode: OpCode, slot: &StoreSlot) -> Result<Vec<Frame>, ExecError> {
        use OpCode::*;
        match opcode {
            Ping | Sleep => self.run_control(req, opcode),
            ReadNode | Value | Children | Parent | Query | Flwor | ReadAll | Stats | Metrics
            | Report | Ranges | Verify => {
                let store = slot.store.read();
                // The guard keeps `reads_in_flight` honest even if the
                // opcode body panics (satellite fix: previously a bare
                // decrement that a panic would skip).
                let _in_flight = self.stats.read_enter();
                self.run_read(req, opcode, &store, slot)
            }
            BulkLoad | InsertFirst | InsertLast | InsertBefore | InsertAfter | Delete | Replace
            | Flush | Compact => {
                // Decode and parse the payload before taking the store
                // guard: XML parsing is the CPU-heavy part of small writes
                // and needs no physical access at all.
                let payload = Self::parse_write_payload(req, opcode)?;
                let _in_flight = self.stats.write_enter();
                let (frames, ticket) = {
                    let mut store = slot.store.write();
                    let frames = self.run_write(req, opcode, payload, &mut store)?;
                    // Flush is its own durability point; everything else
                    // commits here and waits below, outside the guard.
                    let ticket = if opcode == Flush {
                        None
                    } else {
                        store.commit()?
                    };
                    (frames, ticket)
                };
                if let Some(ticket) = ticket {
                    ServerStats::bump(&self.stats.commit_waits);
                    ticket.wait().map_err(StoreError::from)?;
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
    /// against: the live [`XmlStore`] (locked path, MVCC off or a store
    /// with no published epoch) or a pinned MVCC [`Snapshot`]
    /// (lock-free path). One body, two access modes — the concurrency
    /// battery's engine-agreement tests lean on this sharing.
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
                let matches = axs_xpath::evaluate_store(view, &compiled)?;
                let mut frames = Vec::with_capacity(matches.len() + 1);
                for (node, tokens) in &matches {
                    let mut p = Vec::new();
                    p.push(u8::from(node.is_some()));
                    put_u64(&mut p, node.map_or(0, NodeId::get));
                    put_str(&mut p, &Self::render(tokens)?);
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
                let rows = axs_xquery::evaluate_flwor(view, &q)?;
                let mut frames = Vec::with_capacity(rows.len() + 1);
                for row in &rows {
                    let mut p = Vec::new();
                    put_str(&mut p, &Self::render(row)?);
                    frames.push(Frame::more(id, op, p));
                }
                let mut fin = Vec::new();
                put_u64(&mut fin, rows.len() as u64);
                frames.push(Frame::done(id, op, fin));
                frames
            }
            ReadNode => {
                let node = NodeId(r.u64()?);
                r.finish()?;
                let tokens = view.read_node(node)?;
                let mut p = Vec::new();
                put_str(&mut p, &Self::render(&tokens)?);
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
                let kids = view.children_of(node)?;
                let mut p = Vec::new();
                put_u32(&mut p, kids.len() as u32);
                for kid in kids {
                    put_u64(&mut p, kid.get());
                    let name = view
                        .name_of(kid)?
                        .map(|q| q.to_lexical())
                        .unwrap_or_default();
                    put_str(&mut p, &name);
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
                let tokens = view.read_all()?;
                let text = Self::render(&tokens)?;
                let mut frames = Vec::with_capacity(text.len() / READ_ALL_CHUNK + 2);
                // Chunks split on byte boundaries; the client re-validates
                // UTF-8 over the whole accumulation.
                for chunk in text.as_bytes().chunks(READ_ALL_CHUNK) {
                    frames.push(Frame::more(id, op, chunk.to_vec()));
                }
                let mut fin = Vec::new();
                put_u64(&mut fin, tokens.len() as u64);
                frames.push(Frame::done(id, op, fin));
                frames
            }
            _ => unreachable!("not a data-read opcode"),
        };
        Ok(frames)
    }

    /// Read-only opcodes on the locked path: `store` is a shared borrow —
    /// any number of these run concurrently. Data reads delegate to the
    /// generic body; admin reads inspect the live store and the slot.
    fn run_read(
        &self,
        req: &Frame,
        opcode: OpCode,
        store: &XmlStore,
        slot: &StoreSlot,
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
                let entries = self.stat_entries(store, slot);
                let mut p = Vec::new();
                put_u32(&mut p, entries.len() as u32);
                for (name, value) in entries {
                    put_str(&mut p, &name);
                    put_u64(&mut p, value);
                }
                vec![Frame::done(id, op, p)]
            }
            Metrics => {
                r.finish()?;
                let counters = self.stat_entries(store, slot);
                let text = self.metrics.prometheus_text(&counters);
                let entries = self.metrics.extended_entries(&counters);
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

    /// Every counter the server can name: store ops, buffer pools, partial
    /// index, lock manager, group commit, catalog activity, and the
    /// server's own session counters. `store` is the shared borrow the
    /// Stats opcode already holds; the `store.*`/`pool.*`/`partial.*`/
    /// `wal.*`/`lock.*` groups describe the store the request addressed,
    /// while `cat.*` and `server.*` are process-wide.
    fn stat_entries(&self, store: &XmlStore, slot: &StoreSlot) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(60);
        {
            let s = store.stats();
            for (name, value) in [
                ("store.inserts", s.inserts),
                ("store.deletes", s.deletes),
                ("store.replaces", s.replaces),
                ("store.node_reads", s.node_reads),
                ("store.full_scans", s.full_scans),
                ("store.tokens_inserted", s.tokens_inserted),
                ("store.lookups_partial", s.lookups_partial),
                ("store.lookups_full", s.lookups_full),
                ("store.lookups_range_scan", s.lookups_range_scan),
                ("store.tokens_scanned", s.tokens_scanned),
                ("store.range_splits", s.range_splits),
                ("store.range_moves", s.range_moves),
                ("store.full_index_rewrites", s.full_index_rewrites),
                ("store.wal_records", s.wal_records),
                ("store.recoveries", s.recoveries),
                ("store.torn_tail_truncations", s.torn_tail_truncations),
                ("store.io_retries", s.io_retries),
                ("store.ranges", store.range_count() as u64),
            ] {
                out.push((name.to_string(), value));
            }
            let data = store.data_pool_stats();
            let index = store.index_pool_stats();
            out.push(("pool.data.hits".to_string(), data.hits));
            out.push(("pool.data.misses".to_string(), data.misses));
            out.push(("pool.data.evictions".to_string(), data.evictions));
            out.push(("pool.index.hits".to_string(), index.hits));
            out.push(("pool.index.misses".to_string(), index.misses));
            out.push(("pool.index.evictions".to_string(), index.evictions));
            let partial = store.partial_stats();
            out.push(("partial.hits".to_string(), partial.hits));
            out.push(("partial.misses".to_string(), partial.misses));
            out.push((
                "partial.entries".to_string(),
                store.partial_index().map_or(0, |p| p.len() as u64),
            ));
            if let Some(gc) = store.group_commit_stats() {
                out.push(("wal.group_commits".to_string(), gc.commits));
                out.push(("wal.group_syncs".to_string(), gc.syncs));
                // One histogram entry per batch-size bucket, labeled by its
                // upper bound ("le" as in less-or-equal; the last is open).
                debug_assert_eq!(gc.batches.len(), GC_HISTOGRAM_BUCKETS);
                for (i, &count) in gc.batches.iter().enumerate() {
                    let label = match GC_HISTOGRAM_BOUNDS.get(i) {
                        Some(bound) => format!("wal.group_batch_le_{bound}"),
                        None => "wal.group_batch_gt_16".to_string(),
                    };
                    out.push((label, count));
                }
            }
        }
        {
            // Adaptive-index decisions of this store: what the admission /
            // eviction / retuning machinery did (the always-on counters of
            // the decision log; the event ring itself is trace-gated).
            let c = store.decision_log().counts();
            out.push(("adapt.admits".to_string(), c.admits));
            out.push(("adapt.evictions".to_string(), c.evictions));
            out.push(("adapt.skips".to_string(), c.skips));
            out.push(("adapt.grows".to_string(), c.grows));
            out.push(("adapt.shrinks".to_string(), c.shrinks));
            out.push(("adapt.holds".to_string(), c.holds));
            out.push(("adapt.log_seq".to_string(), store.decision_log().last_seq()));
        }
        {
            // Epoch lifecycle of this store: how many snapshots are alive,
            // where the min-active-epoch watermark sits, and how much has
            // been reclaimed. `mvcc.snapshot_age_*` is the pin-time age of
            // the snapshot readers actually observed, in microseconds.
            let m = slot.epochs.stats();
            out.push(("mvcc.current_epoch".to_string(), m.current_epoch));
            out.push(("mvcc.epochs_live".to_string(), m.epochs_live));
            out.push(("mvcc.oldest_pinned".to_string(), m.oldest_pinned));
            out.push(("mvcc.retired_total".to_string(), m.retired_total));
            out.push(("mvcc.pins_active".to_string(), m.pins_active));
            out.push(("mvcc.pins_total".to_string(), m.pins_total));
            let age = slot.epochs.age_snapshot();
            out.push(("mvcc.snapshot_age_us_p50".to_string(), age.percentile(0.50)));
            out.push(("mvcc.snapshot_age_us_p99".to_string(), age.percentile(0.99)));
            out.push(("mvcc.snapshot_age_us_max".to_string(), age.max));
            // Lazy materialization: ranges decoded on first snapshot read
            // instead of eagerly at publish. Staying well below the range
            // count proves publishes don't decode what nobody reads.
            out.push(("mvcc.lazy_materialized".to_string(), m.lazy_materialized));
            // Every publish is one epoch, so the count is the epoch number.
            out.push(("mvcc.publishes".to_string(), m.current_epoch));
        }
        let locks = slot.locks.stats();
        out.push(("lock.acquisitions".to_string(), locks.acquisitions));
        out.push((
            "lock.fast_shared_grants".to_string(),
            locks.fast_shared_grants,
        ));
        out.push(("lock.waits".to_string(), locks.waits));
        out.push(("lock.deadlocks".to_string(), locks.deadlocks));
        out.push((
            "lock.snapshot_bypasses".to_string(),
            locks.snapshot_bypasses,
        ));
        let (cat, live, open) = self.catalog.stats();
        out.push(("cat.stores".to_string(), live as u64));
        out.push(("cat.open_stores".to_string(), open as u64));
        out.push(("cat.lazy_opens".to_string(), cat.lazy_opens));
        out.push(("cat.evictions".to_string(), cat.evictions));
        out.push(("cat.creates".to_string(), cat.creates));
        out.push(("cat.drops".to_string(), cat.drops));
        out.push(("cat.orphans_swept".to_string(), cat.orphans_swept));
        for (name, value) in self.stats.snapshot() {
            out.push((name.to_string(), value));
        }
        out
    }

    fn parse_xml(xml: &str) -> Result<Vec<Token>, ExecError> {
        // Accept full documents (with prolog) or bare fragments, exactly
        // like the CLI's load commands.
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

    fn render(tokens: &[Token]) -> Result<String, ExecError> {
        serialize(tokens, &SerializeOptions::default())
            .map_err(|e| ExecError::new(ErrorCode::Store, e.to_string()))
    }

    fn interval_payload(iv: axs_xdm::IdInterval) -> Vec<u8> {
        let mut p = Vec::with_capacity(16);
        put_u64(&mut p, iv.start.get());
        put_u64(&mut p, iv.end.get());
        p
    }
}
