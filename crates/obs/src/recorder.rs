//! The always-on flight recorder: a non-blocking ring of recent request
//! summaries, cheap enough to feed on every request even with tracing
//! disabled, dumped to stderr on panic, on slow requests, and on demand
//! (the `DumpRecorder` opcode).
//!
//! The ring reuses the trace-ring discipline: writers claim a slot with
//! one relaxed atomic increment and `try_lock` it — contention drops the
//! entry and bumps a counter instead of blocking the request path. One
//! [`RequestSummary`] is a handful of plain words (no allocation), so
//! recording costs an atomic increment, a `try_lock`, and a copy.
//!
//! The recorder is process-global (unlike the per-server
//! [`crate::trace::LayerMetrics`]): a panic hook has no server instance
//! to ask, so post-mortem state must be reachable from a free function.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};

/// Number of request summaries the global recorder retains.
pub const RECORDER_CAPACITY: usize = 512;

/// Lookup-path verdict codes, carried in [`RequestSummary::path`] and in
/// `Explain` responses. Derived from trace events when tracing is on;
/// [`PATH_NONE`] when it is off or the request touched no lookup.
pub const PATH_NONE: u8 = 0;
/// Served by the partial (lazy) index.
pub const PATH_PARTIAL: u8 = 1;
/// Served by the full index.
pub const PATH_FULL: u8 = 2;
/// Range-index probe + in-range token scan.
pub const PATH_SCAN: u8 = 3;
/// More than one lookup path fired (e.g. a query touching many nodes).
pub const PATH_MIXED: u8 = 4;

/// Stable label for a lookup-path code.
pub fn path_label(code: u8) -> &'static str {
    match code {
        PATH_PARTIAL => "partial",
        PATH_FULL => "full",
        PATH_SCAN => "scan",
        PATH_MIXED => "mixed",
        _ => "none",
    }
}

/// One completed request, compressed to the words a post-mortem needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSummary {
    /// Trace id allocated at frame decode (correlates with slow-log and
    /// trace-ring entries when tracing is on).
    pub trace_id: u64,
    /// Store id the frame addressed.
    pub store: u16,
    /// Raw opcode byte.
    pub opcode: u8,
    /// Lookup-path verdict code (see [`path_label`]).
    pub path: u8,
    /// False when the response was a typed error frame.
    pub ok: bool,
    /// Wall time from enqueue to response, microseconds.
    pub total_us: u64,
    /// Response payload bytes across all frames.
    pub bytes: u64,
}

/// Concurrent most-recent-N store for [`RequestSummary`]s.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(u64, RequestSummary)>>>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` summaries (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
        }
    }

    /// Records one request, overwriting the oldest entry. Never blocks:
    /// a contended slot drops the entry (see [`Self::dropped`]).
    pub fn record(&self, summary: RequestSummary) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed) as u64;
        let idx = (seq as usize) % self.slots.len();
        match self.slots[idx].try_lock() {
            Some(mut slot) => *slot = Some((seq, summary)),
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Up to `limit` retained summaries, most recent first.
    pub fn recent(&self, limit: usize) -> Vec<RequestSummary> {
        let mut entries: Vec<(u64, RequestSummary)> =
            self.slots.iter().filter_map(|s| *s.lock()).collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.0));
        entries.truncate(limit);
        entries.into_iter().map(|(_, s)| s).collect()
    }

    /// Requests recorded since process start (claims, including dropped).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed) as u64
    }

    /// Entries lost to slot contention at record time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Dumps rendered so far (panic, slow-request, or on demand) — lets
    /// tests assert a dump happened without capturing stderr.
    pub fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Renders up to `limit` recent entries as the dump format: a header
    /// naming `reason`, then one line per request, most recent first.
    pub fn render(&self, reason: &str, limit: usize) -> String {
        use std::fmt::Write as _;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        let entries = self.recent(limit);
        let mut out = format!(
            "==== flight recorder dump ({reason}): {} of {} recorded, {} dropped ====\n",
            entries.len(),
            self.recorded(),
            self.dropped(),
        );
        for e in &entries {
            let _ = writeln!(
                out,
                "  trace={:<8} store={:<3} op={:<12} path={:<7} {} total={}us bytes={}",
                e.trace_id,
                e.store,
                op_name(e.opcode),
                path_label(e.path),
                if e.ok { "ok " } else { "ERR" },
                e.total_us,
                e.bytes,
            );
        }
        out.push_str("==== end flight recorder dump ====\n");
        out
    }

    /// Renders and writes a dump to stderr (panic hook, slow-request log,
    /// `DumpRecorder`).
    pub fn dump_to_stderr(&self, reason: &str, limit: usize) {
        eprint!("{}", self.render(reason, limit));
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(RECORDER_CAPACITY)
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(FlightRecorder::default)
}

/// Maps an opcode byte to its wire name. Obs does not know the wire
/// protocol's opcode table, so the server registers its decoder here;
/// until then dumps fall back to `op<N>`.
static OPCODE_NAMER: OnceLock<fn(u8) -> &'static str> = OnceLock::new();

/// Registers the opcode-name decoder used by dump rendering. First
/// registration wins; later calls are no-ops.
pub fn set_opcode_namer(f: fn(u8) -> &'static str) {
    let _ = OPCODE_NAMER.set(f);
}

fn op_name(opcode: u8) -> String {
    match OPCODE_NAMER.get() {
        Some(f) => f(opcode).to_string(),
        None => format!("op{opcode}"),
    }
}

static PANIC_HOOK: Once = Once::new();

/// Installs a panic hook (once per process) that dumps the recorder to
/// stderr before the previous hook runs, so a crashing server leaves its
/// last requests in the log without any repro.
pub fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            recorder().dump_to_stderr("panic", 64);
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64) -> RequestSummary {
        RequestSummary {
            trace_id: id,
            store: 0,
            opcode: 1,
            path: PATH_PARTIAL,
            ok: true,
            total_us: id,
            bytes: 10 * id,
        }
    }

    #[test]
    fn keeps_most_recent() {
        let rec = FlightRecorder::new(4);
        for id in 0..10 {
            rec.record(s(id));
        }
        let recent = rec.recent(16);
        assert_eq!(recent.len(), 4);
        let ids: Vec<u64> = recent.iter().map(|x| x.trace_id).collect();
        assert_eq!(ids, vec![9, 8, 7, 6], "most recent first");
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn render_counts_dumps_and_names_paths() {
        let rec = FlightRecorder::new(8);
        rec.record(s(5));
        let text = rec.render("test", 8);
        assert_eq!(rec.dump_count(), 1);
        assert!(text.contains("flight recorder dump (test)"), "{text}");
        assert!(text.contains("trace=5"), "{text}");
        assert!(text.contains("path=partial"), "{text}");
        assert!(text.contains("bytes=50"), "{text}");
    }

    #[test]
    fn limit_truncates_output() {
        let rec = FlightRecorder::new(64);
        for id in 0..50 {
            rec.record(s(id));
        }
        assert_eq!(rec.recent(5).len(), 5);
    }

    #[test]
    fn path_labels_are_stable() {
        assert_eq!(path_label(PATH_NONE), "none");
        assert_eq!(path_label(PATH_PARTIAL), "partial");
        assert_eq!(path_label(PATH_FULL), "full");
        assert_eq!(path_label(PATH_SCAN), "scan");
        assert_eq!(path_label(PATH_MIXED), "mixed");
        assert_eq!(path_label(200), "none");
    }

    #[test]
    fn concurrent_records_account_for_a_sweep() {
        let rec = std::sync::Arc::new(FlightRecorder::new(32));
        std::thread::scope(|sc| {
            for base in 0..4u64 {
                let rec = rec.clone();
                sc.spawn(move || {
                    for i in 0..100 {
                        rec.record(s(base * 1000 + i));
                    }
                });
            }
        });
        let retained = rec.recent(64).len() as u64;
        assert!(retained <= 32);
        assert!(retained + rec.dropped() >= 32);
    }
}
