//! `axs-obs`: structured observability for the adaptive store.
//!
//! The pieces below cost one thread-local read per instrumentation point
//! when no trace is open on the calling thread:
//!
//! * [`hist`] — log-bucketed (power-of-two) atomic latency histograms
//!   with mergeable snapshots and clamped percentile math.
//! * [`trace`] — per-request span traces: a thread-local context begun by
//!   the server worker, fed by instrumentation points in the store and
//!   WAL, rendered as a span tree for the slow log.
//!   The open trace carries its server's [`trace::LayerMetrics`]
//!   histograms, which every instrumentation point feeds.
//! * [`series`] — the series registry: [`series!`] declares each counter,
//!   gauge and histogram once, and its rows feed every exposition.
//! * [`ring`] — a non-blocking most-recent-N buffer of finished traces.
//! * [`recorder`] — the always-on flight recorder: a non-blocking ring of
//!   compact request summaries fed on *every* request (tracing on or
//!   off), dumped to stderr on panic, slow requests, or on demand.
//!
//! The `core` and `storage` crates depend only on this crate (no
//! server types); the server owns trace lifecycle (id allocation at frame
//! decode, begin/finish around dispatch) and exposition (the `Metrics`
//! opcode, slow-request log and `axs top`).

pub mod hist;
pub mod recorder;
pub mod ring;
pub mod series;
pub mod trace;

pub use hist::{bucket_bound, bucket_index, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use recorder::{
    install_panic_hook, path_label, recorder, set_opcode_namer, FlightRecorder, RequestSummary,
    PATH_FULL, PATH_MIXED, PATH_NONE, PATH_PARTIAL, PATH_SCAN, RECORDER_CAPACITY,
};
pub use ring::{TraceRing, TRACE_RING_CAPACITY};
pub use series::{HistRow, SeriesKind, StatRow};
pub use trace::{
    enabled, next_trace_id, point, probe, probe_start, span_enter, trace_begin, trace_finish,
    Event, EventKind, FinishedTrace, LayerMetrics, SpanGuard, TRACE_EVENT_CAP,
};
