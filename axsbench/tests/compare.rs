//! `bench_compare`'s verdicts and exit code, on hand-made archives.

use std::path::{Path, PathBuf};
use std::process::Command;

/// An archive with one workload and two end-to-end metrics.
fn archive(dir: &Path, name: &str, read_p50_us: f64, read_ops_s: f64, failed: u64) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    let text = format!(
        r#"{{"bench": "axsbench", "workloads": {{"read-hot": {{"end_to_end": {{
            "correct": {}, "attempted": 1000, "failed": {failed},
            "metrics": {{"read_p50_us": {{"value": {read_p50_us}, "unit": "us"}},
                         "read_ops_s": {{"value": {read_ops_s}, "unit": "1/s"}}}}}}}}}}}}"#,
        failed == 0
    );
    std::fs::write(&path, text).unwrap();
    path
}

fn compare(a: &Path, b: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args([a, b])
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn verdict_of<'a>(report: &'a str, metric: &str) -> &'a str {
    let line = report
        .lines()
        .find(|l| l.split_whitespace().nth(1) == Some(metric))
        .unwrap_or_else(|| panic!("no row for {metric} in\n{report}"));
    ["regressed", "improved", "unchanged", "unresolved"]
        .into_iter()
        .find(|v| line.contains(v))
        .unwrap_or_else(|| panic!("no verdict in {line}"))
}

#[test]
fn verdicts_follow_the_bounds() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    let _ = std::fs::remove_dir_all(&root);
    let base = archive(&root, "base.json", 100.0, 20_000.0, 0);

    // Same numbers: unchanged, exit 0.
    let (ok, report) = compare(&base, &base);
    assert!(ok, "{report}");
    assert_eq!(verdict_of(&report, "read_p50_us"), "unchanged");

    // Latency up 50 % is a regression (lower is better); throughput up
    // 50 % is an improvement (higher is better). Any regression fails.
    let slower = archive(&root, "slower.json", 150.0, 30_000.0, 0);
    let (ok, report) = compare(&base, &slower);
    assert!(!ok);
    assert_eq!(verdict_of(&report, "read_p50_us"), "regressed");
    assert_eq!(verdict_of(&report, "read_ops_s"), "improved");

    // A rise in failed operations fails the comparison by itself.
    let failing = archive(&root, "failing.json", 100.0, 20_000.0, 3);
    let (ok, report) = compare(&base, &failing);
    assert!(!ok, "{report}");
    assert_eq!(verdict_of(&report, "read_p50_us"), "unchanged");

    // Directories of runs: a side whose runs disagree by more than the
    // bound cannot resolve a difference.
    let steady = root.join("steady");
    let noisy = root.join("noisy");
    for (i, v) in [100.0, 101.0, 99.0, 100.5, 99.5].iter().enumerate() {
        archive(&steady, &format!("r{i}.json"), *v, 20_000.0, 0);
    }
    for (i, v) in [60.0, 140.0, 100.0, 75.0, 130.0].iter().enumerate() {
        archive(&noisy, &format!("r{i}.json"), *v, 20_000.0, 0);
    }
    let (ok, report) = compare(&steady, &noisy);
    assert!(ok, "{report}");
    assert_eq!(verdict_of(&report, "read_p50_us"), "unresolved");
    assert_eq!(verdict_of(&report, "read_ops_s"), "unchanged");
    let _ = std::fs::remove_dir_all(&root);
}
