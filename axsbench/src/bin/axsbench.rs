//! The benchmark's command line.
//!
//! ```sh
//! # one workload, one pass (what the benchmark driver runs):
//! axsbench --workload read-hot --seed 2005 --seconds 30 --trace 0
//! # every workload, end-to-end pass then per-layer pass, archived:
//! axsbench --all --seed 2005 --out result.json
//! # the same at 1/20 of the op counts, a few seconds in all:
//! axsbench --all --smoke
//! ```
//!
//! A single-workload run prints `workload metric value unit` lines and, as
//! its last line, the JSON object the driver reads. `--all` re-executes
//! this binary once per workload and pass (a fresh process each, so
//! `peak_rss_mb` belongs to one workload), echoes their lines, writes the
//! archive `bench_compare` reads, and exits non-zero if any check failed.

use axsbench::json::Json;
use axsbench::run::{self, RunConfig};
use axsbench::wire::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`, the default for `--seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

/// Op-count divisor and run length of `--smoke`.
const SMOKE_SHRINK: usize = 20;
const SMOKE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage:
  axsbench --workload <read-hot|ingest|mixed-hot|query-scan|table5-wire>
           [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--dir DIR] [--trace-out FILE]
  axsbench --all [--seed N] [--seconds S] [--smoke] [--dir DIR] [--out FILE]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 2005,
        seconds: None,
        trace: false,
        smoke: false,
        dir: None,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(match self.smoke {
            true => SMOKE_SECONDS,
            false => DEFAULT_SECONDS,
        })
    }

    /// Scratch space of this process: below `--dir` when given, otherwise
    /// beside the executable (inside the build directory, so inside the
    /// checkout and inside what `.gitignore` names).
    fn scratch(&self) -> Result<PathBuf, String> {
        let base = match &self.dir {
            Some(d) => d.clone(),
            None => std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|p| p.join("axsbench-data")))
                .ok_or("cannot locate the executable's directory; pass --dir")?,
        };
        Ok(base.join(format!("p{}", std::process::id())))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("axsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(workload) => one(&args, workload),
        None => all(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("axsbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload, one pass, in this process.
fn one(args: &Args, workload: Workload) -> Result<ExitCode, String> {
    let dir = args.scratch()?;
    // The in-process Table 5 harness keeps its stores under the system
    // temp directory; point that into the scratch space as well. Set
    // before any other thread exists.
    std::env::set_var("TMPDIR", &dir);
    let result = run::run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        shrink: if args.smoke { SMOKE_SHRINK } else { 1 },
        dir,
        trace_out: args.trace_out.clone(),
    })?;
    for line in &result.info {
        println!("{line}");
    }
    for line in result.human_lines(workload.name()) {
        println!("{line}");
    }
    for note in &result.tally.notes {
        println!("# FAILED: {note}");
    }
    println!(
        "{} failed_ops_pct {} % ({} of {} attempted)",
        workload.name(),
        result.tally.failed as f64 * 100.0 / result.tally.attempted.max(1) as f64,
        result.tally.failed,
        result.tally.attempted
    );
    println!("{}", result.driver_line());
    // A run that measured wrong answers still ran: the verdict travels in
    // the result line (`correct`), the exit code says the benchmark worked.
    Ok(ExitCode::SUCCESS)
}

/// Every workload, both passes, each in a fresh process of this binary.
fn all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let mut passes = Vec::new();
        for (pass, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(dir) = &args.dir {
                cmd.arg("--dir").arg(dir);
            }
            let part = args.out.as_ref().filter(|_| trace == "1").map(|out| {
                let mut p = out.clone().into_os_string();
                p.push(format!(".trace.{}.part", workload.name()));
                PathBuf::from(p)
            });
            if let Some(part) = &part {
                cmd.arg("--trace-out").arg(part);
            }
            let output = cmd
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{report}");
            let parsed = Json::parse(last);
            let correct = parsed
                .as_ref()
                .ok()
                .and_then(|j| j.get("correct"))
                .and_then(Json::as_bool);
            if !output.status.success() || correct != Some(true) {
                ok = false;
                println!(
                    "# {} {pass}: FAILED ({}, correct = {correct:?})",
                    workload.name(),
                    output.status
                );
            }
            passes.push((pass, parsed.unwrap_or(Json::Null)));
            if let Some(part) = part {
                if let Ok(text) = std::fs::read_to_string(&part) {
                    traces.push(format!("\"{}\": {text}", workload.name()));
                }
                let _ = std::fs::remove_file(&part);
            }
        }
        workloads.push((workload.name(), Json::obj(passes)));
    }
    if let Some(out) = &args.out {
        let doc = Json::obj([
            ("bench", Json::Str("axsbench".to_string())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds())),
            ("smoke", Json::Bool(args.smoke)),
            ("workloads", Json::obj(workloads)),
        ]);
        std::fs::write(out, doc.render() + "\n")
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        let mut trace_path = out.clone().into_os_string();
        trace_path.push(".trace.json");
        std::fs::write(&trace_path, format!("{{{}}}\n", traces.join(",\n")))
            .map_err(|e| format!("write trace: {e}"))?;
        println!(
            "# wrote {} and {}",
            out.display(),
            PathBuf::from(trace_path).display()
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
