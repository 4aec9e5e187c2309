//! The series registry: [`series!`](crate::series) declares each counter,
//! gauge and histogram once — kind, exposition name, and a doc comment that
//! is also its help text — and that one declaration is the struct the hot
//! path records into, its snapshot, and the rows every reader iterates:
//! the `Stats` opcode, the Prometheus text, the extended entries and
//! `axs top`. Recording stays a relaxed atomic on a struct field, reached
//! by field access or a generated `match`, never by name.

use crate::hist::Histogram;

/// What a scalar series is to a scraper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// A total that only grows.
    Counter,
    /// A level that can fall, or a high-water mark.
    Gauge,
}

impl SeriesKind {
    /// The Prometheus `# TYPE` word.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One scalar series' current value: a row of the `Stats` opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatRow {
    /// Dotted name, e.g. `store.inserts`.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// One-line description (the declaration's doc comment).
    pub help: &'static str,
    /// Current value.
    pub value: u64,
}

/// One histogram series. Rows sharing a `name` form one labelled family,
/// declared next to each other; the family's help is its first row's.
#[derive(Debug, Clone, Copy)]
pub struct HistRow<'a> {
    /// Series name without the `axs_` prefix, e.g. `queue_wait_us`.
    pub name: &'static str,
    /// `(key, value)` of a family member, `None` for a lone series.
    pub label: Option<(&'static str, &'static str)>,
    /// One-line description (the declaration's doc comment).
    pub help: &'static str,
    /// The live histogram.
    pub hist: &'a Histogram,
}

/// Declares a struct of series, one field each: `pub struct Name [=>
/// Snapshot] [by Key] { /// help\n field: Kind "name" [[k = "v"]] [for
/// pattern], … }` (see `ServerStats` or `LayerMetrics`). Fields are `pub`
/// atomics (`Counter`, `Gauge`) or [`Histogram`]s with their doc comments.
/// Generated beside the struct:
///
/// * `rows(&mut Vec<StatRow>)` for counters and gauges, or `histograms()`,
///   the [`HistRow`] table, for histograms; `[k = "v"]` makes a field a
///   member of a labelled family;
/// * with `=> Snapshot`: a plain-`u64` `Snapshot`, `snapshot()`, `reset()`;
/// * with `by Key`: `observe(key, v)`, a `match` from each `for` pattern to
///   its field that adds `v` to a counter or records it in a histogram.
#[macro_export]
macro_rules! series {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(=> $snap:ident)? $(by $key:ident)? { $($fields:tt)* }
    ) => {
        $crate::series!(@struct [$(#[$meta])*] $vis $name { $($fields)* });
        $crate::series!(@rows $name { $($fields)* });
        $crate::series!(@snapshot $vis $name [$($snap)?] { $($fields)* });
        $crate::series!(@key $name [$($key)?] { $($fields)* });
    };
    (@struct [$($meta:tt)*] $vis:vis $name:ident {$(
        $(#[doc = $help:literal])*
        $field:ident: $kind:ident $series:literal $([$lk:ident = $lv:literal])? $(for $k:pat)?
    ),* $(,)?}) => {
        $($meta)*
        $vis struct $name {
            $($(#[doc = $help])* pub $field: $crate::series!(@type $kind),)*
        }
    };
    (@rows $name:ident {$(
        $(#[doc = $help:literal])*
        $field:ident: Histogram $series:literal $([$lk:ident = $lv:literal])? $(for $k:pat)?
    ),* $(,)?}) => {
        impl $name {
            /// Every histogram with its series name and label.
            pub fn histograms(&self) -> impl Iterator<Item = $crate::HistRow<'_>> {
                [$($crate::HistRow {
                    name: $series,
                    label: $crate::series!(@label $($lk $lv)?),
                    help: concat!($($help),*).trim_ascii_start(),
                    hist: &self.$field,
                }),*]
                .into_iter()
            }
        }
    };
    (@rows $name:ident {$(
        $(#[doc = $help:literal])*
        $field:ident: $kind:ident $series:literal $(for $k:pat)?
    ),* $(,)?}) => {
        impl $name {
            /// Every series as a `Stats` row, in declaration order.
            pub fn rows(&self, out: &mut Vec<$crate::StatRow>) {
                out.extend($crate::stat_rows![$(
                    $(#[doc = $help])*
                    $kind $series = self.$field.load(::std::sync::atomic::Ordering::Relaxed)
                ),*]);
            }
        }
    };
    (@type Histogram) => { $crate::Histogram };
    (@type $kind:ident) => { ::std::sync::atomic::AtomicU64 };
    (@label) => { None };
    (@label $lk:ident $lv:literal) => { Some((stringify!($lk), $lv)) };
    (@snapshot $vis:vis $name:ident [] $fields:tt) => {};
    (@snapshot $vis:vis $name:ident [$snap:ident] {$(
        $(#[doc = $help:literal])*
        $field:ident: $kind:ident $series:literal $(for $k:pat)?
    ),* $(,)?}) => {
        #[doc = concat!("A point-in-time copy of every [`", stringify!($name), "`] series.")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $($(#[doc = $help])* pub $field: u64,)*
        }

        impl $name {
            /// A point-in-time copy of every series.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }

            /// Zeroes every series.
            pub fn reset(&self) {
                $(self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed);)*
            }
        }
    };
    (@key $name:ident [] $fields:tt) => {};
    (@key $name:ident [$key:ident] {$(
        $(#[doc = $help:literal])*
        $field:ident: $kind:ident $series:literal $([$lk:ident = $lv:literal])? $(for $k:pat)?
    ),* $(,)?}) => {
        impl $name {
            /// Adds `v` to (or records it in) the series `key` feeds, if any.
            #[inline]
            pub fn observe(&self, key: $key, v: u64) {
                #[allow(unreachable_patterns)]
                match key {
                    $($($k => $crate::series!(@observe $kind self.$field, v),)?)*
                    _ => {}
                }
            }
        }
    };
    (@observe Histogram $field:expr, $v:ident) => { $field.record($v) };
    (@observe $kind:ident $field:expr, $v:ident) => {{
        $field.fetch_add($v, ::std::sync::atomic::Ordering::Relaxed);
    }};
}

/// [`StatRow`]s of values at hand — snapshot structs of crates outside the
/// registry — written like [`series!`] fields: the doc comment is the help.
///
/// ```ignore
/// out.extend(axs_obs::stat_rows![
///     /// Live partial-index entries.
///     Gauge "partial.entries" = entries,
/// ]);
/// ```
#[macro_export]
macro_rules! stat_rows {
    ($($(#[doc = $help:literal])* $kind:ident $name:literal = $value:expr),* $(,)?) => {
        [$($crate::StatRow {
            name: $name,
            kind: $crate::SeriesKind::$kind,
            help: concat!($($help),*).trim_ascii_start(),
            value: $value,
        }),*]
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        A,
        Other,
    }

    series! {
        /// Test counters.
        #[derive(Debug, Default)]
        struct Counts => CountsSnap by Ev {
            /// Times A
            /// happened.
            a: Counter "t.a" for Ev::A,
            /// Level of B.
            b: Gauge "t.b",
        }
    }

    #[test]
    fn one_declaration_gives_struct_snapshot_rows_and_observe() {
        let c = Counts::default();
        c.observe(Ev::A, 2);
        c.observe(Ev::Other, 5); // no series: records nothing
        c.b.store(7, Ordering::Relaxed);
        assert_eq!(c.snapshot(), CountsSnap { a: 2, b: 7 });
        let mut rows = Vec::new();
        c.rows(&mut rows);
        let want = stat_rows![
            /// Times A happened.
            Counter "t.a" = 2,
            /// Level of B.
            Gauge "t.b" = 7,
        ];
        assert_eq!(rows, want);
        c.reset();
        assert_eq!(c.snapshot(), CountsSnap::default());
    }
}
