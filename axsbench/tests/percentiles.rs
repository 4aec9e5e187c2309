//! The tail-percentile rule: report the highest percentile that still has
//! ten samples beyond it, never below the median.

use axsbench::stat::{percentiles, TAIL_SUPPORT};

fn ramp(n: u64) -> Vec<u64> {
    (1..=n).collect()
}

#[test]
fn p99_when_the_sample_supports_it() {
    // 2000 samples: p99 is sample 1980, with 20 beyond it.
    let p = percentiles(&mut ramp(2000)).unwrap();
    assert_eq!(p.n, 2000);
    assert_eq!(p.p50, 1000.0);
    assert_eq!(p.tail, 1980.0);
    assert!((p.tail_q - 0.99).abs() < 1e-9);
}

#[test]
fn lower_percentile_for_smaller_samples() {
    // 100 samples: p99 would leave one sample beyond; the tail backs off
    // to the 90th, which leaves ten.
    let p = percentiles(&mut ramp(100)).unwrap();
    assert_eq!(p.tail, 90.0);
    assert_eq!(100 - p.tail as usize, TAIL_SUPPORT);
    assert!(p.tail_q < 0.99);
    // At exactly the boundary the 99th percentile is allowed.
    let p = percentiles(&mut ramp(1100)).unwrap();
    assert_eq!(p.tail, 1089.0);
    assert!((p.tail_q - 0.99).abs() < 1e-9);
}

#[test]
fn tail_never_drops_below_the_median() {
    for n in 1..=40 {
        let p = percentiles(&mut ramp(n)).unwrap();
        assert!(p.p50 <= p.tail, "n = {n}: p50 {} > tail {}", p.p50, p.tail);
    }
    assert!(percentiles(&mut []).is_none());
    // Order of arrival does not matter.
    let mut shuffled: Vec<u64> = ramp(500).into_iter().rev().collect();
    assert_eq!(percentiles(&mut shuffled), percentiles(&mut ramp(500)));
}
