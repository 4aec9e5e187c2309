//! Order statistics: medians, the tail percentile a sample can support,
//! and the quartile spread the acceptance check uses.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Median of `values` (mean of the middle two for an even count); NaN when
/// empty, so a missing measurement cannot pass for a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method) —
/// the acceptance check is defined in those terms. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// every end-to-end metric's bound is held against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A latency sample set reduced to its median and its supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub n: usize,
    /// The median sample.
    pub p50: f64,
    /// The tail sample: the 99th percentile when at least
    /// [`TAIL_SUPPORT`] samples lie beyond it, otherwise the highest
    /// percentile that has that many beyond it, never below the median.
    pub tail: f64,
    /// The quantile `tail` was actually read at (0.99 when supported).
    pub tail_q: f64,
}

/// Reduces `samples` (any order; sorted in place) to [`Percentiles`].
/// `None` for an empty set.
pub fn percentiles(samples: &mut [u64]) -> Option<Percentiles> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    samples.sort_unstable();
    let mid = (n - 1) / 2;
    let want = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    // Index n-1-TAIL_SUPPORT is the last one with TAIL_SUPPORT samples
    // strictly beyond it.
    let supported = n.saturating_sub(TAIL_SUPPORT + 1);
    let idx = want.min(supported).max(mid);
    Some(Percentiles {
        n,
        p50: samples[mid] as f64,
        tail: samples[idx] as f64,
        tail_q: (idx + 1) as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
