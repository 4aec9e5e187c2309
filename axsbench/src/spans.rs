//! The benchmark's own spans: recorded around calls into each layer from
//! the benchmark's side of the API, kept in memory, written out at exit.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. A layer's cost is the median *self time*
//! of its spans: the span's duration minus what its direct children cover.
//! Spans inside the server are a later change; these wrap public calls.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" marker.
const ROOT: u32 = u32::MAX;

/// One finished (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the causing span, [`u32::MAX`] for a root.
    pub parent: u32,
    /// Request the span belongs to (shared by a root and its descendants).
    pub req: u64,
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// A span recorder, or nothing at all: the untraced run passes
/// [`Tracer::off`] through the same code paths, where `enter`/`exit`
/// reduce to a branch on `None`. One tracer per thread — no locks.
#[derive(Debug)]
pub struct Tracer(Option<Recorder>);

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer; span times count from `epoch`, which all
    /// tracers of one run share so merged spans line up.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer(Some(Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    /// A tracer of the same kind (and epoch) for another thread.
    pub fn fork(&self) -> Tracer {
        match &self.0 {
            Some(r) => Tracer::on(r.epoch),
            None => Tracer::off(),
        }
    }

    /// Opens a span under the innermost open span of this tracer.
    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        let Some(r) = &mut self.0 else {
            return SpanId(ROOT);
        };
        let id = r.spans.len() as u32;
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: r.open.last().copied().unwrap_or(ROOT),
            req,
        });
        r.open.push(id);
        SpanId(id)
    }

    /// Closes `span` (and any span opened inside it that is still open).
    #[inline]
    pub fn exit(&mut self, span: SpanId) {
        let Some(r) = &mut self.0 else {
            return;
        };
        let now = r.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = r.open.pop() {
            r.spans[top as usize].end_ns = now;
            if top == span.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name, req);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Moves `other`'s spans into this tracer, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let (Some(r), Some(o)) = (&mut self.0, other.0) else {
            return;
        };
        let base = r.spans.len() as u32;
        r.spans.extend(o.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Recorded spans (empty when off).
    pub fn spans(&self) -> &[Span] {
        self.0.as_ref().map_or(&[], |r| &r.spans)
    }

    /// Self time of every span, grouped by span name: duration minus the
    /// durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(child_ns) {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(kids));
        }
        out
    }

    /// The spans as JSON, compactly: `names` is the table of span names
    /// and each element of `spans` is `[name, start_ns, end_ns, parent,
    /// req]` — `name` an index into `names`, `parent` an index into `spans`
    /// or -1 for a root. At most `cap` root spans of each name are written,
    /// each with all its descendants (a run records a root span for every
    /// one of several hundred thousand requests; the metrics use them all,
    /// the dump keeps a readable sample); `dropped` counts the rest.
    pub fn to_json(&self, cap: usize) -> Json {
        let spans = self.spans();
        let mut names: Vec<&'static str> = Vec::new();
        let mut roots_kept: BTreeMap<&'static str, usize> = BTreeMap::new();
        // Old index -> new index for the spans that are written.
        let mut kept: Vec<Option<usize>> = Vec::with_capacity(spans.len());
        let mut rows = Vec::new();
        for s in spans {
            let parent = match s.parent {
                ROOT => {
                    let n = roots_kept.entry(s.name).or_default();
                    *n += 1;
                    (*n <= cap).then_some(-1.0)
                }
                // Spans are recorded parent first, so the parent's fate is
                // already known.
                p => kept[p as usize].map(|new| new as f64),
            };
            let Some(parent) = parent else {
                kept.push(None);
                continue;
            };
            let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            kept.push(Some(rows.len()));
            rows.push(Json::Arr(vec![
                Json::Num(name as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(parent),
                Json::Num(s.req as f64),
            ]));
        }
        Json::obj([
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect()),
            ),
            ("dropped", Json::Num((spans.len() - rows.len()) as f64)),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Median of the self times recorded under `name`, in nanoseconds; NaN
/// when there are none.
pub fn median_self_ns(self_times: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    let Some(times) = self_times.get(name).filter(|t| !t.is_empty()) else {
        return f64::NAN;
    };
    let mut v = times.clone();
    v.sort_unstable();
    v[(v.len() - 1) / 2] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::on(Instant::now());
        let root = t.enter("client.op", 7);
        t.span("core.op", 7, |t| {
            t.span("storage.fsync_wait", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.req == 7));
        let selfs = t.self_times();
        let fsync = selfs["storage.fsync_wait"][0];
        assert!(fsync >= 2_000_000);
        // The sleeping grandchild is charged to its own span only.
        assert!(selfs["core.op"][0] < fsync);
        assert!(selfs["client.op"][0] < fsync);
    }

    #[test]
    fn off_records_nothing_and_absorb_keeps_links() {
        let mut off = Tracer::off();
        let id = off.enter("x.y", 1);
        off.exit(id);
        assert!(off.spans().is_empty());

        let mut a = Tracer::on(Instant::now());
        a.span("a.root", 1, |_| ());
        let mut b = a.fork();
        b.span("b.root", 2, |t| t.span("b.child", 2, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, u32::MAX);
    }
}
