//! Compares two sets of `axsbench --all --out` archives.
//!
//! ```sh
//! bench_compare parent.json change.json          # one run a side
//! bench_compare runs/parent/ runs/change/        # N runs a side
//! ```
//!
//! For every (workload, end-to-end metric) it prints both medians, both
//! quartile pairs and a verdict against the metric's bound in
//! `BENCHMARK.json`:
//!
//! - `regressed` — side B's median is worse than side A's by more than the
//!   bound;
//! - `improved` — better by more than the bound;
//! - `unchanged` — within the bound either way;
//! - `unresolved` — the run-to-run spread of either side (inter-quartile
//!   distance over median) is wider than the bound, so the runs cannot
//!   tell. One run a side has no spread and is never unresolved.
//!
//! Per-layer metrics are listed with both medians and no verdict (they
//! have no bounds). The exit code is non-zero when any metric regressed or
//! side B failed a larger share of its operations than side A.

use axsbench::json::Json;
use axsbench::spec::{Better, Contract};
use axsbench::stat;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// (workload, pass, metric) → one value per archive.
type Samples = BTreeMap<(String, String, String), Vec<f64>>;

struct Side {
    samples: Samples,
    attempted: f64,
    failed: f64,
    files: usize,
}

fn archives(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .json archives in {}", path.display()));
    }
    Ok(files)
}

fn load(path: &Path) -> Result<Side, String> {
    let mut side = Side {
        samples: Samples::new(),
        attempted: 0.0,
        failed: 0.0,
        files: 0,
    };
    for file in archives(path)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: not an axsbench archive", file.display()))?;
        for (workload, passes) in workloads {
            for pass in ["end_to_end", "per_layer"] {
                let Some(result) = passes.get(pass) else {
                    continue;
                };
                let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                side.attempted += count("attempted");
                side.failed += count("failed");
                let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
                    continue;
                };
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        side.samples
                            .entry((workload.clone(), pass.to_string(), name.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
        side.files += 1;
    }
    Ok(side)
}

fn quartile_text(values: &[f64]) -> String {
    match stat::quartiles(values) {
        Some([q1, _, q3]) => format!("[{q1:.4} .. {q3:.4}]"),
        None => "[one run]".to_string(),
    }
}

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut contract_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmark" => match args.next() {
                Some(p) => contract_path = PathBuf::from(p),
                None => {
                    eprintln!("bench_compare: --benchmark needs a path");
                    return ExitCode::from(2);
                }
            },
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_compare <A.json|A-dir> <B.json|B-dir> [--benchmark BENCHMARK.json]"
        );
        return ExitCode::from(2);
    }
    let loaded =
        Contract::load(&contract_path).and_then(|c| Ok((c, load(&paths[0])?, load(&paths[1])?)));
    let (contract, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "A = {} ({} run(s))   B = {} ({} run(s))",
        paths[0].display(),
        a.files,
        paths[1].display(),
        b.files
    );
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>6}  {:<10} quartiles A / B",
        "workload", "metric", "median A", "median B", "B worse", "bound", "verdict"
    );
    let mut regressed = 0usize;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for ((workload, pass, name), va) in &a.samples {
        let Some(vb) = b
            .samples
            .get(&(workload.clone(), pass.clone(), name.clone()))
        else {
            continue;
        };
        let (ma, mb) = (stat::median(va), stat::median(vb));
        let declared = match pass.as_str() {
            "end_to_end" => contract.end_to_end.get(name),
            _ => contract.per_layer.get(name),
        };
        // Positive = B is worse, as a share of A's median.
        let worse = declared.map_or(f64::NAN, |d| match d.better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        });
        let bound = declared.and_then(|d| d.bound);
        let verdict = match bound {
            None => "-",
            Some(bound) => {
                let spread = [va, vb]
                    .iter()
                    .filter_map(|v| stat::spread(v))
                    .fold(0.0, f64::max);
                if spread > bound {
                    "unresolved"
                } else if worse > bound {
                    regressed += 1;
                    "regressed"
                } else if worse < -bound {
                    "improved"
                } else {
                    "unchanged"
                }
            }
        };
        *counts.entry(verdict).or_default() += 1;
        println!(
            "{workload:<12} {name:<22} {ma:>14.4} {mb:>14.4} {:>8.1}% {:>6}  {verdict:<10} {} / {}",
            worse * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            quartile_text(va),
            quartile_text(vb),
        );
    }
    let pct = |s: &Side| s.failed * 100.0 / s.attempted.max(1.0);
    println!(
        "failed_ops_pct: A {:.4} % ({} of {})   B {:.4} % ({} of {})",
        pct(&a),
        a.failed,
        a.attempted,
        pct(&b),
        b.failed,
        b.attempted
    );
    println!(
        "verdicts: {}",
        counts
            .iter()
            .filter(|(v, _)| **v != "-")
            .map(|(v, n)| format!("{n} {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if regressed > 0 || pct(&b) > pct(&a) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
