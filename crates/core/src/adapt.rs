//! The adaptive-index decision log: a bounded ring of admit / evict /
//! skip / retune events with *reasons*, so "why didn't my query hit the
//! index?" has an answer that names the decision, not just the outcome.
//!
//! PR 4's observability measures outcomes (hit ratios, per-path latency
//! histograms); this log records the decisions that produced them — every
//! partial-index admission, every LRU eviction it forced, every window
//! boundary where the adaptive controller grew, shrank or held the
//! capacity, each tagged with its evidence (entry pressure, read/update
//! mix of the closed window).
//!
//! Cost discipline matches the tracing crate: the per-kind counters are
//! relaxed atomics and always bump (they feed the `adapt.*` stats), but
//! the ring push — a mutex'd `VecDeque` write — happens only while a
//! trace is open on the deciding thread, so a server run with
//! `--no-trace` pays one thread-local read + one relaxed increment per
//! decision and never touches the ring (`Explain` opens its own trace).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Retained decision events per store.
pub const ADAPT_LOG_CAPACITY: usize = 256;

/// What the adaptive machinery decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptEventKind {
    /// A node position was admitted into the partial index
    /// (`node` = admitted id, `a` = live entries after, `b` = capacity).
    Admit,
    /// An admission (or a capacity shrink) pushed an LRU victim out
    /// (`node` = victim id, `a` = live entries after, `b` = capacity;
    /// for shrink-driven evictions `node` = 0 and `a` = victims).
    Evict,
    /// A position was *not* memoized (`b` = capacity, zero when the
    /// partial index is disabled).
    Skip,
    /// Window boundary: read-heavy, partial capacity doubled
    /// (`a` = new capacity, `b` = window read percentage).
    GrowPartial,
    /// Window boundary: update-heavy, partial capacity halved
    /// (`a` = new capacity, `b` = window read percentage).
    ShrinkPartial,
    /// Window boundary: mixed workload, tuning left alone
    /// (`a` = capacity, `b` = window read percentage).
    Hold,
}

impl AdaptEventKind {
    /// Stable lowercase label (stat names, log lines).
    pub fn label(self) -> &'static str {
        match self {
            AdaptEventKind::Admit => "admit",
            AdaptEventKind::Evict => "evict",
            AdaptEventKind::Skip => "skip",
            AdaptEventKind::GrowPartial => "grow_partial",
            AdaptEventKind::ShrinkPartial => "shrink_partial",
            AdaptEventKind::Hold => "hold",
        }
    }
}

/// One logged decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptEvent {
    /// Monotone per-store sequence number (lets `Explain` diff the log
    /// around one request).
    pub seq: u64,
    /// Microseconds since the store (log) was created.
    pub at_us: u64,
    /// What was decided.
    pub kind: AdaptEventKind,
    /// Node id the decision concerns (0 when not about one node).
    pub node: u64,
    /// Kind-specific payload (see [`AdaptEventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`AdaptEventKind`]).
    pub b: u64,
    /// Why: the evidence behind the decision, as a static tag.
    pub reason: &'static str,
}

impl AdaptEvent {
    /// One-line rendering, e.g.
    /// `#12 +3456us admit node=60 entries=9 cap=4096 reason=memoized-lookup`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("#{} +{}us {}", self.seq, self.at_us, self.kind.label());
        match self.kind {
            AdaptEventKind::Admit | AdaptEventKind::Evict | AdaptEventKind::Skip => {
                let _ = write!(out, " node={} entries={} cap={}", self.node, self.a, self.b);
            }
            AdaptEventKind::GrowPartial | AdaptEventKind::ShrinkPartial | AdaptEventKind::Hold => {
                let _ = write!(out, " cap={} read_pct={}", self.a, self.b);
            }
        }
        let _ = write!(out, " reason={}", self.reason);
        out
    }
}

/// Counter snapshot — the `adapt.*` stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptCounts {
    /// Partial-index admissions.
    pub admits: u64,
    /// LRU victims (admission pressure + capacity shrinks).
    pub evictions: u64,
    /// Positions not memoized (index disabled).
    pub skips: u64,
    /// Window decisions that grew the partial capacity.
    pub grows: u64,
    /// Window decisions that shrank the partial capacity.
    pub shrinks: u64,
    /// Window decisions that held the tuning.
    pub holds: u64,
}

/// The per-store decision log: always-on counters plus a bounded,
/// trace-gated ring of recent [`AdaptEvent`]s.
pub struct AdaptLog {
    ring: Mutex<VecDeque<AdaptEvent>>,
    seq: AtomicU64,
    admits: AtomicU64,
    evictions: AtomicU64,
    skips: AtomicU64,
    grows: AtomicU64,
    shrinks: AtomicU64,
    holds: AtomicU64,
    started: Instant,
}

impl AdaptLog {
    /// An empty log.
    pub fn new() -> AdaptLog {
        AdaptLog {
            ring: Mutex::new(VecDeque::with_capacity(ADAPT_LOG_CAPACITY)),
            seq: AtomicU64::new(0),
            admits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            skips: AtomicU64::new(0),
            grows: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn counter(&self, kind: AdaptEventKind) -> &AtomicU64 {
        match kind {
            AdaptEventKind::Admit => &self.admits,
            AdaptEventKind::Evict => &self.evictions,
            AdaptEventKind::Skip => &self.skips,
            AdaptEventKind::GrowPartial => &self.grows,
            AdaptEventKind::ShrinkPartial => &self.shrinks,
            AdaptEventKind::Hold => &self.holds,
        }
    }

    /// Records one decision. The counter always bumps; the ring entry is
    /// only written while a trace is open (see the module docs).
    pub fn record(&self, kind: AdaptEventKind, node: u64, a: u64, b: u64, reason: &'static str) {
        self.counter(kind).fetch_add(1, Ordering::Relaxed);
        if !axs_obs::enabled() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = AdaptEvent {
            seq,
            at_us: self.started.elapsed().as_micros() as u64,
            kind,
            node,
            a,
            b,
            reason,
        };
        let mut ring = self.ring.lock();
        if ring.len() >= ADAPT_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The newest `limit` events, most recent first.
    pub fn recent(&self, limit: usize) -> Vec<AdaptEvent> {
        let ring = self.ring.lock();
        ring.iter().rev().take(limit).copied().collect()
    }

    /// Events logged after sequence `seq`, oldest first — how `Explain`
    /// attributes decisions to one request (diff `last_seq` around it).
    pub fn since(&self, seq: u64) -> Vec<AdaptEvent> {
        let ring = self.ring.lock();
        ring.iter().filter(|e| e.seq > seq).copied().collect()
    }

    /// Sequence number of the newest event (0 before any).
    pub fn last_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Snapshot of the always-on counters.
    pub fn counts(&self) -> AdaptCounts {
        AdaptCounts {
            admits: self.admits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            skips: self.skips.load(Ordering::Relaxed),
            grows: self.grows.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            holds: self.holds.load(Ordering::Relaxed),
        }
    }
}

impl Default for AdaptLog {
    fn default() -> Self {
        AdaptLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_bump_even_with_tracing_off() {
        let log = AdaptLog::new();
        log.record(AdaptEventKind::Admit, 1, 1, 8, "memoized-lookup");
        log.record(AdaptEventKind::Skip, 2, 0, 0, "index-disabled");
        let c = log.counts();
        assert_eq!(c.admits, 1);
        assert_eq!(c.skips, 1);
        assert!(log.recent(16).is_empty(), "ring stays empty when gated off");
        assert_eq!(log.last_seq(), 0);
    }

    #[test]
    fn ring_retains_and_orders_events() {
        axs_obs::trace_begin(1, 0, Arc::default());
        let log = AdaptLog::new();
        log.record(AdaptEventKind::Admit, 60, 1, 8, "memoized-lookup");
        log.record(AdaptEventKind::Evict, 7, 8, 8, "lru-pressure");
        log.record(AdaptEventKind::GrowPartial, 0, 16, 80, "read-heavy-window");
        axs_obs::trace_finish();
        let recent = log.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].kind, AdaptEventKind::GrowPartial);
        assert_eq!(recent[1].kind, AdaptEventKind::Evict);
        let since = log.since(1);
        assert_eq!(since.len(), 2);
        assert_eq!(since[0].kind, AdaptEventKind::Evict);
        assert_eq!(log.last_seq(), 3);
        let line = recent[1].render();
        assert!(line.contains("evict node=7"), "{line}");
        assert!(line.contains("reason=lru-pressure"), "{line}");
        let line = recent[0].render();
        assert!(line.contains("cap=16 read_pct=80"), "{line}");
    }

    #[test]
    fn ring_is_bounded() {
        axs_obs::trace_begin(1, 0, Arc::default());
        let log = AdaptLog::new();
        for i in 0..(ADAPT_LOG_CAPACITY as u64 + 50) {
            log.record(AdaptEventKind::Admit, i, i, 100, "memoized-lookup");
        }
        axs_obs::trace_finish();
        let recent = log.recent(usize::MAX);
        assert_eq!(recent.len(), ADAPT_LOG_CAPACITY);
        assert_eq!(recent[0].seq, ADAPT_LOG_CAPACITY as u64 + 50, "newest kept");
    }
}
