//! Per-request tracing: a thread-local open trace collects typed span
//! events while a request executes, then folds into a [`FinishedTrace`]
//! that the server feeds to the slow-request log and the trace ring.
//!
//! The recording side is deliberately boring: one thread-local borrow,
//! one `Vec` push, one histogram bump. Instrumented code in the store
//! and WAL never sees a context type — it calls the free
//! functions here, which no-op (a single thread-local read) when no trace
//! is open on this thread. There is no process-wide switch: a server
//! records by opening a trace around each request, and the trace carries
//! that server's [`LayerMetrics`].
//!
//! A request's events form a tree: [`span_enter`] returns a guard that
//! deepens every event recorded until it drops, so the rendered trace
//! shows e.g. a WAL append nested under the execute span that caused it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on events per trace; a pathological request (e.g. a query
/// probing thousands of nodes) truncates instead of growing unboundedly.
pub const TRACE_EVENT_CAP: usize = 512;

/// What a span event describes. Each kind documents its `a`/`b` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Time between enqueue and a worker picking the request up.
    QueueWait,
    /// Node lookup served by the partial index: `a` = node id.
    LookupPartial,
    /// Partial-index miss on the lookup fast path: `a` = node id.
    PartialMiss,
    /// Node lookup served by the full index: `a` = node id.
    LookupFull,
    /// Node lookup via range index + in-range scan: `a` = tokens scanned,
    /// `b` = node id.
    LookupRangeScan,
    /// Range-index probe mapping an id to its range: `a` = node id.
    RangeProbe,
    /// Forward scan to a node's end token: `a` = tokens scanned.
    ScanEnd,
    /// One WAL record appended: `a` = payload bytes.
    WalAppend,
    /// Waiting for the group-commit leader's shared fsync.
    GroupCommitWait,
    /// The opcode body executing against the store.
    Execute,
    /// Building and logging the commit under the exclusive store lock.
    Commit,
}

impl EventKind {
    /// Stable lowercase label (metric names, slow-log lines).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::QueueWait => "queue_wait",
            EventKind::LookupPartial => "lookup_partial",
            EventKind::PartialMiss => "partial_miss",
            EventKind::LookupFull => "lookup_full",
            EventKind::LookupRangeScan => "lookup_range_scan",
            EventKind::RangeProbe => "range_probe",
            EventKind::ScanEnd => "scan_end",
            EventKind::WalAppend => "wal_append",
            EventKind::GroupCommitWait => "group_commit_wait",
            EventKind::Execute => "execute",
            EventKind::Commit => "commit",
        }
    }
}

/// One recorded span event, offsets relative to the request start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Nesting depth under the request root (0 = direct child).
    pub depth: u8,
    /// Start offset from the trace beginning, microseconds.
    pub at_us: u64,
    /// Duration, microseconds (0 for point events).
    pub dur_us: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

/// A completed request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// Trace id allocated at frame decode.
    pub trace_id: u64,
    /// Raw opcode byte of the request.
    pub opcode: u8,
    /// Wall time from [`trace_begin`] to [`trace_finish`], microseconds.
    pub total_us: u64,
    /// Events in recording order (leaf spans record at completion, so
    /// sort by `at_us` for chronological rendering).
    pub events: Vec<Event>,
    /// True when more than [`TRACE_EVENT_CAP`] events were dropped.
    pub truncated: bool,
}

impl FinishedTrace {
    /// Renders the span tree as indented text — the slow-log format.
    /// `op_name` is the decoded opcode name (obs does not know the wire
    /// protocol's opcode table).
    pub fn render(&self, op_name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "trace {} op={} total={}us events={}{}\n",
            self.trace_id,
            op_name,
            self.total_us,
            self.events.len(),
            if self.truncated { " (truncated)" } else { "" },
        );
        let mut events: Vec<&Event> = self.events.iter().collect();
        events.sort_by_key(|e| e.at_us);
        for e in events {
            let indent = "  ".repeat(e.depth as usize + 1);
            let _ = write!(
                out,
                "{indent}+{:<8} {:<18}",
                format!("{}us", e.at_us),
                e.kind.label()
            );
            if e.dur_us > 0 {
                let _ = write!(out, " dur={}us", e.dur_us);
            }
            match e.kind {
                EventKind::LookupPartial | EventKind::PartialMiss | EventKind::LookupFull => {
                    let _ = write!(out, " node={}", e.a);
                }
                EventKind::LookupRangeScan => {
                    let _ = write!(out, " tokens={} node={}", e.a, e.b);
                }
                EventKind::RangeProbe => {
                    let _ = write!(out, " node={}", e.a);
                }
                EventKind::ScanEnd => {
                    let _ = write!(out, " tokens={}", e.a);
                }
                EventKind::WalAppend => {
                    let _ = write!(out, " bytes={}", e.a);
                }
                _ => {}
            }
            out.push('\n');
        }
        out
    }

    /// True when any event of `kind` was recorded.
    pub fn has(&self, kind: EventKind) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }

    /// The lookup-path verdict for this request, as a flight-recorder
    /// path code (see `crate::recorder::path_label`): which of the three
    /// paper lookup paths served it — partial index, full index, or
    /// range-index scan — `PATH_MIXED` when more than one fired (e.g. a
    /// query touching many nodes), `PATH_NONE` when none did.
    pub fn lookup_path_code(&self) -> u8 {
        let mut partial = false;
        let mut full = false;
        let mut scan = false;
        for e in &self.events {
            match e.kind {
                EventKind::LookupPartial => partial = true,
                EventKind::LookupFull => full = true,
                EventKind::LookupRangeScan => scan = true,
                _ => {}
            }
        }
        match (partial, full, scan) {
            (false, false, false) => crate::recorder::PATH_NONE,
            (true, false, false) => crate::recorder::PATH_PARTIAL,
            (false, true, false) => crate::recorder::PATH_FULL,
            (false, false, true) => crate::recorder::PATH_SCAN,
            _ => crate::recorder::PATH_MIXED,
        }
    }
}

struct ActiveTrace {
    trace_id: u64,
    opcode: u8,
    started: Instant,
    depth: u8,
    truncated: bool,
    events: Vec<Event>,
    /// The opening server's histograms, fed by every timed event.
    layers: Arc<LayerMetrics>,
}

impl ActiveTrace {
    /// Appends one event at the current depth, `at` offset from the
    /// trace start (saturating: a queue wait begins before the trace).
    fn push(&mut self, kind: EventKind, at: Instant, dur_us: u64, a: u64, b: u64) {
        if self.events.len() >= TRACE_EVENT_CAP {
            self.truncated = true;
            return;
        }
        self.events.push(Event {
            kind,
            depth: self.depth,
            at_us: at.saturating_duration_since(self.started).as_micros() as u64,
            dur_us,
            a,
            b,
        });
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Trace-id allocator, shared by every server in the process so ids in
/// interleaved logs stay unique.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// True when instrumentation points should record: a trace is open on
/// this thread. A store embedded as a library records nothing.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.try_with(|a| a.borrow().is_some()).unwrap_or(false)
}

/// Allocates a fresh trace id (called at frame decode).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Starts a trace on this thread whose timed events feed `layers`. Any
/// trace already active is discarded (a worker thread runs one request
/// at a time).
pub fn trace_begin(trace_id: u64, opcode: u8, layers: Arc<LayerMetrics>) {
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(ActiveTrace {
            trace_id,
            opcode,
            started: Instant::now(),
            depth: 0,
            truncated: false,
            events: Vec::with_capacity(16),
            layers,
        });
    });
}

/// Ends the active trace, returning it for histogram recording, the slow
/// log and the ring. `None` when none was begun.
pub fn trace_finish() -> Option<FinishedTrace> {
    ACTIVE
        .with(|a| a.borrow_mut().take())
        .map(|t| FinishedTrace {
            trace_id: t.trace_id,
            opcode: t.opcode,
            total_us: t.started.elapsed().as_micros() as u64,
            events: t.events,
            truncated: t.truncated,
        })
}

/// The instant instrumented code should capture before timed work —
/// `None` (skip the clock read entirely) when recording is off.
#[inline]
pub fn probe_start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records a timed leaf span begun at `start` (from [`probe_start`]) and
/// feeds the kind's histogram in the open trace's [`LayerMetrics`].
/// No-op when `start` is `None` or no trace is open.
pub fn probe(kind: EventKind, start: Option<Instant>, a: u64, b: u64) {
    let Some(started) = start else {
        return;
    };
    let dur_us = started.elapsed().as_micros() as u64;
    ACTIVE.with(|cell| {
        if let Some(t) = cell.borrow_mut().as_mut() {
            t.layers.observe(kind, dur_us);
            if kind == EventKind::LookupRangeScan {
                t.layers.range_scan_tokens.record(a);
            }
            t.push(kind, started, dur_us, a, b);
        }
    });
}

/// Records an instantaneous event (no duration, no histogram).
pub fn point(kind: EventKind, a: u64, b: u64) {
    ACTIVE.with(|cell| {
        if let Some(t) = cell.borrow_mut().as_mut() {
            t.push(kind, Instant::now(), 0, a, b);
        }
    });
}

/// Opens a nested span: events recorded until the guard drops sit one
/// level deeper, and the span itself is recorded (with its duration and
/// histogram) when the guard drops.
pub fn span_enter(kind: EventKind, a: u64, b: u64) -> SpanGuard {
    let active = ACTIVE.with(|cell| {
        if let Some(t) = cell.borrow_mut().as_mut() {
            t.depth = t.depth.saturating_add(1);
            true
        } else {
            false
        }
    });
    SpanGuard {
        kind,
        a,
        b,
        started: active.then(Instant::now),
    }
}

/// Guard returned by [`span_enter`]; records the span on drop.
pub struct SpanGuard {
    kind: EventKind,
    a: u64,
    b: u64,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        ACTIVE.with(|cell| {
            if let Some(t) = cell.borrow_mut().as_mut() {
                t.depth = t.depth.saturating_sub(1);
            }
        });
        probe(self.kind, Some(started), self.a, self.b);
    }
}

crate::series! {
    /// Histograms fed by the instrumentation points — one per timed event
    /// kind, plus the range-scan token-count distribution. Each server owns
    /// one set and hands it to every trace it opens, so the embedded
    /// instrumentation in `core` and `storage` (which has no server
    /// to hang per-instance state on) records into the right server's set.
    #[derive(Debug, Default)]
    pub struct LayerMetrics by EventKind {
        /// Node-lookup latency by paper lookup path (partial, full,
        /// range_scan), µs. This member is the partial-index path.
        lookup_partial_us: Histogram "lookup_duration_us" [path = "partial"]
            for EventKind::LookupPartial,
        /// Node-lookup latency of full-index probes, µs.
        lookup_full_us: Histogram "lookup_duration_us" [path = "full"] for EventKind::LookupFull,
        /// Node-lookup latency of range-index probe plus in-range scan, µs.
        lookup_range_scan_us: Histogram "lookup_duration_us" [path = "range_scan"]
            for EventKind::LookupRangeScan,
        /// Request time spent queued before a worker picked it up, µs.
        queue_wait_us: Histogram "queue_wait_us" for EventKind::QueueWait,
        /// Tokens visited per range-scan lookup.
        range_scan_tokens: Histogram "range_scan_tokens",
        /// Range-index probe time, µs.
        range_probe_us: Histogram "range_probe_us" for EventKind::RangeProbe,
        /// End-token scan time, µs.
        scan_end_us: Histogram "scan_end_us" for EventKind::ScanEnd,
        /// WAL record append time, µs.
        wal_append_us: Histogram "wal_append_us" for EventKind::WalAppend,
        /// Group-commit fsync wait time, µs.
        group_commit_wait_us: Histogram "group_commit_wait_us" for EventKind::GroupCommitWait,
        /// Execute-span time (opcode body against the store), µs.
        execute_us: Histogram "execute_us" for EventKind::Execute,
        /// Commit-build time under the exclusive store lock, µs.
        commit_us: Histogram "commit_us" for EventKind::Commit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_open_trace_records_nothing() {
        assert!(!enabled());
        point(EventKind::PartialMiss, 7, 0);
        probe(EventKind::WalAppend, probe_start(), 0, 0);
        assert!(trace_finish().is_none());
    }

    #[test]
    fn span_tree_nests_and_renders() {
        let layers = Arc::new(LayerMetrics::default());
        trace_begin(42, 9, layers.clone());
        probe(EventKind::QueueWait, probe_start(), 0, 0);
        {
            let _exec = span_enter(EventKind::Execute, 0, 0);
            point(EventKind::PartialMiss, 5, 0);
            probe(EventKind::LookupRangeScan, probe_start(), 17, 5);
        }
        let t = trace_finish().expect("trace active");
        assert!(!enabled());
        assert_eq!(layers.execute_us.snapshot().count, 1);
        assert_eq!(layers.range_scan_tokens.snapshot().sum, 17);
        assert_eq!(t.trace_id, 42);
        assert_eq!(t.opcode, 9);
        assert!(t.has(EventKind::Execute));
        assert!(t.has(EventKind::PartialMiss));
        let nested = t
            .events
            .iter()
            .find(|e| e.kind == EventKind::PartialMiss)
            .unwrap();
        assert_eq!(nested.depth, 1, "events inside the span are deeper");
        let exec = t
            .events
            .iter()
            .find(|e| e.kind == EventKind::Execute)
            .unwrap();
        assert_eq!(exec.depth, 0);
        let text = t.render("InsertLast");
        assert!(text.contains("op=InsertLast"), "{text}");
        assert!(text.contains("partial_miss"), "{text}");
        assert!(text.contains("tokens=17"), "{text}");
    }

    #[test]
    fn event_cap_truncates() {
        trace_begin(1, 0, Arc::default());
        for i in 0..(TRACE_EVENT_CAP + 10) {
            point(EventKind::PartialMiss, i as u64, 0);
        }
        let t = trace_finish().unwrap();
        assert_eq!(t.events.len(), TRACE_EVENT_CAP);
        assert!(t.truncated);
    }
}
