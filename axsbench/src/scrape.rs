//! The server's own counters, read from outside through the `Metrics`
//! opcode: counter entries plus the Prometheus histogram buckets, taken
//! before and after a phase so the difference belongs to that phase alone
//! (the `obs.*` histograms are process-wide and accumulate across the
//! servers one benchmark process starts).

use axs_client::{Client, ClientError};
use std::collections::BTreeMap;

/// One scrape of the `Metrics` opcode.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Counter and gauge entries (`store.*`, `pool.*`, `lock.*`, ...).
    pub entries: BTreeMap<String, u64>,
    /// Cumulative histogram buckets by series-with-labels (the part
    /// before `,le=` / `{le=`), each a list of `(upper bound, count)`
    /// ascending, `+Inf` last.
    pub buckets: BTreeMap<String, Vec<(f64, u64)>>,
}

impl Scrape {
    /// Scrapes `client`'s current store.
    pub fn take(client: &mut Client) -> Result<Scrape, ClientError> {
        let (text, entries) = client.metrics()?;
        let mut out = Scrape {
            entries: entries.into_iter().map(|e| (e.name, e.value)).collect(),
            buckets: BTreeMap::new(),
        };
        for line in text.lines() {
            out.bucket_line(line);
        }
        Ok(out)
    }

    /// Parses one `<series>_bucket{[labels,]le="<bound>"} <count>` line;
    /// anything else is ignored.
    fn bucket_line(&mut self, line: &str) {
        let Some((series, count)) = line.rsplit_once(' ') else {
            return;
        };
        let Some((head, le)) = series.rsplit_once("le=\"") else {
            return;
        };
        let (Some(le), Ok(count)) = (le.strip_suffix("\"}"), count.parse::<u64>()) else {
            return;
        };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            match le.parse::<f64>() {
                Ok(b) => b,
                Err(_) => return,
            }
        };
        let key = head.trim_end_matches([',', '{']).to_string();
        self.buckets.entry(key).or_default().push((bound, count));
    }

    /// Counter `name`, 0 when the server did not report it.
    pub fn counter(&self, name: &str) -> u64 {
        self.entries.get(name).copied().unwrap_or(0)
    }

    /// `self - before` for counter `name`.
    pub fn delta(&self, before: &Scrape, name: &str) -> u64 {
        self.counter(name).saturating_sub(before.counter(name))
    }

    /// The histogram `key` (e.g. `axs_queue_wait_us_bucket` or
    /// `axs_request_duration_us_bucket{family="write"`) accumulated since
    /// `before`.
    pub fn hist_delta(&self, before: &Scrape, key: &str) -> HistDelta {
        let now = self.buckets.get(key).map_or(&[][..], Vec::as_slice);
        let then = before.buckets.get(key).map_or(&[][..], Vec::as_slice);
        // The exposition stops at the highest non-empty bucket, so an
        // earlier scrape may lack bounds a later one has; its cumulative
        // count there is that of its last bound below, which is its total.
        let then_at = |bound: f64| {
            then.iter()
                .take_while(|(b, _)| *b <= bound)
                .last()
                .map_or(0, |(_, c)| *c)
        };
        HistDelta {
            cumulative: now
                .iter()
                .map(|&(bound, count)| (bound, count.saturating_sub(then_at(bound))))
                .collect(),
        }
    }
}

/// A histogram restricted to one phase.
#[derive(Debug, Clone, Default)]
pub struct HistDelta {
    cumulative: Vec<(f64, u64)>,
}

impl HistDelta {
    /// Observations in the phase.
    pub fn count(&self) -> u64 {
        self.cumulative.last().map_or(0, |(_, c)| *c)
    }

    /// Quantile `q`, interpolated linearly inside its power-of-two bucket
    /// (the server's buckets are `[2^i, 2^(i+1))`, so the raw bucket bound
    /// would move in factors of two). NaN when the phase saw nothing.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let rank = (q * total as f64).max(1.0);
        let mut below = 0u64;
        let mut lower = 0.0;
        for &(bound, cum) in &self.cumulative {
            if cum as f64 >= rank {
                if bound.is_infinite() {
                    return lower;
                }
                let inside = (cum - below) as f64;
                let share = if inside > 0.0 {
                    (rank - below as f64) / inside
                } else {
                    1.0
                };
                return lower + (bound + 1.0 - lower) * share;
            }
            below = cum;
            lower = bound + 1.0;
        }
        lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(lines: &[&str]) -> Scrape {
        let mut s = Scrape::default();
        for l in lines {
            s.bucket_line(l);
        }
        s
    }

    #[test]
    fn parses_labeled_and_bare_buckets() {
        let s = scrape(&[
            "# TYPE axs_queue_wait_us histogram",
            "axs_queue_wait_us_bucket{le=\"1\"} 4",
            "axs_queue_wait_us_bucket{le=\"+Inf\"} 9",
            "axs_request_duration_us_bucket{family=\"write\",le=\"3\"} 2",
            "axs_queue_wait_us_count 9",
        ]);
        assert_eq!(
            s.buckets["axs_queue_wait_us_bucket"],
            vec![(1.0, 4), (f64::INFINITY, 9)]
        );
        assert_eq!(
            s.buckets["axs_request_duration_us_bucket{family=\"write\""],
            vec![(3.0, 2)]
        );
    }

    #[test]
    fn delta_handles_buckets_missing_from_the_earlier_scrape() {
        let before = scrape(&["h_bucket{le=\"1\"} 5", "h_bucket{le=\"+Inf\"} 5"]);
        let after = scrape(&[
            "h_bucket{le=\"1\"} 5",
            "h_bucket{le=\"3\"} 5",
            "h_bucket{le=\"7\"} 15",
            "h_bucket{le=\"+Inf\"} 15",
        ]);
        let d = after.hist_delta(&before, "h_bucket");
        assert_eq!(d.count(), 10);
        // All ten new observations fell in [4, 8).
        let p50 = d.quantile(0.5);
        assert!((4.0..8.0).contains(&p50), "{p50}");
        assert!(after.hist_delta(&after, "h_bucket").quantile(0.5).is_nan());
    }
}
