//! One benchmark run: rounds until the time is up, then the metrics.
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's spans
//! off. `--trace 1` is a separate run that produces the per-layer numbers:
//! wire rounds with a root span per request and the server's counters
//! scraped around them, the embedded replay, the standalone probes and the
//! Table 5 rows — plus the cost of watching, as the difference between
//! traced and untraced rounds of the same fixed work.

use crate::json::Json;
use crate::layers::{self, Values};
use crate::scrape::Scrape;
use crate::spans::Tracer;
use crate::spec;
use crate::stat;
use crate::wire::{self, Inputs, RoundOpts, RoundOut, Tally, Workload};
use axs_bench::Approach;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Time to measure for, seconds.
    pub seconds: f64,
    /// Per-layer run (spans on) instead of the end-to-end run.
    pub trace: bool,
    /// Divisor applied to every op count (1 = the calibrated counts).
    pub shrink: usize,
    /// Scratch directory; everything the run writes lives below it.
    pub dir: PathBuf,
    /// Where the traced run dumps its spans, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<usize>,
    /// A remark for the human-readable line (the quantile a tail
    /// percentile was actually read at).
    pub remark: Option<String>,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Requests and checks attempted / failed, with the first failures.
    pub tally: Tally,
    /// Free-form lines for the human-readable report (conditions, budget
    /// rows).
    pub info: Vec<String>,
}

impl RunResult {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The one-line JSON object the driver reads.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// `workload metric value unit [n=samples] [remark]` lines.
    pub fn human_lines(&self, workload: &str) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let mut line = format!("{workload} {} {} {}", m.name, m.value, m.unit);
                if let Some(n) = m.samples {
                    line.push_str(&format!(" n={n}"));
                }
                if let Some(r) = &m.remark {
                    line.push_str(&format!(" ({r})"));
                }
                line
            })
            .collect()
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
        remark: None,
    }
}

/// Filesystem type under `path` (the latencies are this filesystem's on
/// this sandbox, not a device's).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Runs rounds back to back while another one still fits into `seconds`
/// (always at least one).
fn rounds_for(
    seconds: f64,
    mut one: impl FnMut() -> Result<RoundOut, String>,
) -> Result<Vec<RoundOut>, String> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(one()?);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds.len() as f64 > seconds {
            return Ok(rounds);
        }
    }
}

/// Requests of one class over all rounds.
fn samples(rounds: &[RoundOut], class: impl Fn(&RoundOut) -> &wire::Class) -> usize {
    rounds.iter().map(|r| class(r).lat_ns.len()).sum()
}

fn median_of(rounds: &[RoundOut], f: impl Fn(&RoundOut) -> f64) -> f64 {
    stat::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Closed-loop throughput of one class in one round, stall-robust: the
/// phase is cut into chunks of consecutive requests and each chunk rated
/// at connections ÷ mean latency. A run reports the median chunk, so the
/// few chunks a host hiccup lands in do not move the figure the way they
/// move a plain ops ÷ wall time.
fn chunk_rates(class: &wire::Class) -> Vec<f64> {
    let n = class.lat_ns.len();
    let size = (n / 16).clamp(16, 1000).min(n.max(1));
    class
        .lat_ns
        .chunks(size)
        .filter(|c| c.len() == size)
        .map(|c| class.conns as f64 * 1e9 * c.len() as f64 / c.iter().sum::<u64>() as f64)
        .collect()
}

/// The end-to-end metrics of a non-empty set of rounds. Every round is the
/// same fixed work, so each metric is a median over rounds: of the round's
/// set-up time, of its latency percentiles per request class, of its
/// space and recovery time — and, for throughput and scans, over the
/// chunks and the solo scans of all rounds (see [`chunk_rates`]). The one
/// exception is `peak_rss_mb`, the first round's.
fn end_to_end(rounds: &[RoundOut]) -> Vec<Metric> {
    let mut out = Vec::new();
    let n = rounds.len();
    let with_n = |mut m: Metric, samples: usize| {
        m.samples = Some(samples);
        m
    };
    out.push(with_n(
        metric("setup_s", median_of(rounds, |r| r.setup_s), "s"),
        n,
    ));
    let per_round = |class: fn(&RoundOut) -> &wire::Class| -> Vec<stat::Percentiles> {
        rounds
            .iter()
            .filter_map(|r| stat::percentiles(&mut class(r).lat_ns.clone()))
            .collect()
    };
    let med = |ps: &[stat::Percentiles], f: fn(&stat::Percentiles) -> f64| {
        stat::median(&ps.iter().map(f).collect::<Vec<_>>()) / 1e3
    };
    for (prefix, class) in [
        ("read", (|r| &r.reads) as fn(&RoundOut) -> &wire::Class),
        ("write", |r| &r.writes),
    ] {
        let ps = per_round(class);
        let samples = samples(rounds, class);
        let rates: Vec<f64> = rounds.iter().flat_map(|r| chunk_rates(class(r))).collect();
        out.push(with_n(
            metric(&format!("{prefix}_ops_s"), stat::median(&rates), "1/s"),
            rates.len(),
        ));
        out.push(with_n(
            metric(&format!("{prefix}_p50_us"), med(&ps, |p| p.p50), "us"),
            samples,
        ));
        // The read tail is a per-layer metric (`client.read_p99_us`): it
        // sits where the few reads that collide with a commit or a timer
        // tick begin, and flips between the two populations run to run.
        if prefix == "write" {
            out.push(tail_metric(&ps, "write_p99_us", samples, n));
        }
    }
    // The rotation mixes cheap and dear queries, so an order statistic
    // of single requests jumps between them; the mean over a round's
    // rotation(s) is the steady figure, and the run reports its median.
    let mean_us = |r: &RoundOut| {
        r.queries.lat_ns.iter().sum::<u64>() as f64 / r.queries.lat_ns.len() as f64 / 1e3
    };
    out.push(with_n(
        metric("query_p50_us", median_of(rounds, mean_us), "us"),
        samples(rounds, |r| &r.queries),
    ));
    // Scans that shared the server with another connection's queries
    // (query-scan's main phase) time the interleaving; the figure is the
    // median of the scans that ran alone.
    let scans: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.solo_scan_mb_s.iter().copied())
        .collect();
    out.push(with_n(
        metric("scan_mb_s", stat::median(&scans), "MB/s"),
        scans.len(),
    ));
    out.push(with_n(
        metric("space_amp", median_of(rounds, |r| r.space_amp), "ratio"),
        n,
    ));
    let recoveries: Vec<f64> = rounds.iter().flat_map(|r| r.recover_s.clone()).collect();
    out.push(with_n(
        metric("recover_s", stat::median(&recoveries), "s"),
        recoveries.len(),
    ));
    // The first round's: later rounds start on the heap earlier ones left
    // behind, and their high-water marks wander by a quarter with it.
    out.push(with_n(
        metric("peak_rss_mb", rounds[0].peak_rss_mb, "MB"),
        1,
    ));
    out
}

/// What each round measured, one value per round: a run the host disturbed
/// shows here which of its rounds it lost.
fn per_round_line(rounds: &[RoundOut]) -> String {
    let each = |f: &dyn Fn(&RoundOut) -> String| rounds.iter().map(f).collect::<Vec<_>>().join(" ");
    let p50 = |class: &wire::Class| {
        stat::percentiles(&mut class.lat_ns.clone()).map_or(f64::NAN, |p| p.p50 / 1e3)
    };
    format!(
        "# per round: read p50 us [{}] write p50 us [{}] solo scans MB/s [{}] queries ms [{}] \
         peak rss MB [{}]",
        each(&|r| format!("{:.1}", p50(&r.reads))),
        each(&|r| format!("{:.0}", p50(&r.writes))),
        each(&|r| {
            let rates: Vec<String> = r.solo_scan_mb_s.iter().map(|x| format!("{x:.0}")).collect();
            rates.join("/")
        }),
        each(&|r| format!("{:.0}", r.queries.lat_ns.iter().sum::<u64>() as f64 / 1e6)),
        each(&|r| format!("{:.0}", r.peak_rss_mb)),
    )
}

/// The tail percentile of a request class: the median over rounds of each
/// round's p99 — or, where a round has fewer than 10 requests beyond its
/// p99, of the highest percentile that has, which the remark then names.
fn tail_metric(ps: &[stat::Percentiles], name: &str, samples: usize, rounds: usize) -> Metric {
    let tails: Vec<f64> = ps.iter().map(|p| p.tail).collect();
    let mut tail = metric(name, stat::median(&tails) / 1e3, "us");
    tail.samples = Some(samples);
    tail.remark = ps
        .iter()
        .map(|p| p.tail_q)
        .min_by(f64::total_cmp)
        .filter(|q| *q < 0.99)
        .map(|q| {
            format!(
                "read at p{:.1}: a round has {} samples",
                q * 100.0,
                samples / rounds.max(1)
            )
        });
    tail
}

fn merge_tallies(rounds: &[RoundOut], into: &mut Tally) {
    for r in rounds {
        into.merge(r.tally.clone());
    }
}

fn conditions(
    cfg: &RunConfig,
    inputs: &Inputs,
    rounds: usize,
    (cpus, core): (usize, Option<usize>),
) -> Vec<String> {
    let s = inputs.sizes;
    vec![
        format!(
            "# {}: seed {} seconds {} trace {} rounds {} shrink {} op-stream {:016x}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            rounds,
            cfg.shrink,
            inputs.op_stream_hash()
        ),
        format!(
            "# per round: base {} ({} B of XML), main {} reads + {} writes per connection + {} \
             query rotation(s), panel {} writes / {} reads / {} rotation(s) / {} scans; \
             warm-up 10 %",
            s.base,
            inputs.base_xml.len(),
            s.main_reads,
            s.main_writes,
            s.main_rotations,
            s.panel_writes,
            s.panel_reads,
            s.panel_rotations,
            s.panel_scans
        ),
        format!(
            "# host: {cpus} cpus, every thread {}, store on {} under {}",
            match core {
                Some(core) => format!("pinned to core {core}"),
                None => "unpinned (the kernel refused)".to_string(),
            },
            fs_type(&cfg.dir),
            cfg.dir.display()
        ),
        format!(
            "# server: ServerConfig::default() with slow_request off, mvcc {}; default \
             StorageConfig (8 KiB pages, 64 frames) and lazy policy; closed loop, {} connections",
            cfg.workload.mvcc(),
            cfg.workload.connections()
        ),
    ]
}

/// Runs `cfg` and returns its metrics. `Err` means the benchmark itself
/// could not run (no server, no scratch space); failed or wrong requests
/// are counted in the result instead.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    let inputs = Inputs::generate(cfg.workload, cfg.seed, cfg.shrink);
    let result = match cfg.trace {
        false => run_end_to_end(cfg, &inputs),
        true => run_per_layer(cfg, &inputs),
    };
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let mut result = result?;
    // A figure that could not be computed is a failed check, not a hole
    // in the report.
    for m in &result.metrics {
        let name = &m.name;
        result.tally.check(m.value.is_finite(), || {
            format!("{name} could not be computed")
        });
    }
    Ok(result)
}

fn opts(dir: &Path) -> RoundOpts<'_> {
    RoundOpts {
        dir,
        server_trace: true,
        scrape: false,
        approach: Approach::RangeCoarsePartial,
        main_only: false,
    }
}

/// Counts the cores this process may use, then pins it to one (see
/// [`crate::cpu`]); every thread started from here on inherits that.
fn place() -> (usize, Option<usize>) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cpus, crate::cpu::pin())
}

fn run_end_to_end(cfg: &RunConfig, inputs: &Inputs) -> Result<RunResult, String> {
    let placement = place();
    let dir = cfg.dir.join("round");
    let rounds = rounds_for(cfg.seconds, || {
        wire::round(inputs, &opts(&dir), &mut Tracer::off())
    })?;
    let mut result = RunResult {
        metrics: end_to_end(&rounds),
        info: conditions(cfg, inputs, rounds.len(), placement),
        ..RunResult::default()
    };
    result.info.push(per_round_line(&rounds));
    merge_tallies(&rounds, &mut result.tally);
    Ok(result)
}

/// Root spans of one name the trace dump keeps (see [`Tracer::to_json`]).
const TRACE_DUMP_CAP: usize = 2000;

/// Share of the traced run's time given to the traced wire rounds.
const TRACED_ROUNDS_SHARE: f64 = 0.3;

/// Each standalone probe's share of the run's time.
const PROBE_SHARE: f64 = 1.0 / 250.0;

fn run_per_layer(cfg: &RunConfig, inputs: &Inputs) -> Result<RunResult, String> {
    let placement = place();
    let dir = cfg.dir.join("round");
    let mut tracer = Tracer::on(Instant::now());
    let mut tally = Tally::default();

    // Rounds with ServerConfig.trace off come first: the instrumentation
    // flag the server sets is process-wide and stays on once set.
    let untraced_server: Vec<RoundOut> = (0..2)
        .map(|_| {
            let o = RoundOpts {
                server_trace: false,
                main_only: true,
                ..opts(&dir)
            };
            wire::round(inputs, &o, &mut Tracer::off())
        })
        .collect::<Result<_, _>>()?;
    // The same rounds the end-to-end run makes: spans off.
    let plain = wire::round(inputs, &opts(&dir), &mut Tracer::off())?;
    // Spans on, counters scraped.
    let traced = rounds_for(cfg.seconds * TRACED_ROUNDS_SHARE, || {
        let o = RoundOpts {
            scrape: true,
            ..opts(&dir)
        };
        wire::round(inputs, &o, &mut tracer)
    })?;
    merge_tallies(&untraced_server, &mut tally);
    merge_tallies(std::slice::from_ref(&plain), &mut tally);
    merge_tallies(&traced, &mut tally);

    let mut v = Values::new();
    let pct = |with: f64, without: f64| (with - without) / without * 100.0;
    v.insert(
        "obs.trace_overhead_pct".to_string(),
        pct(plain.main_s, median_of(&untraced_server, |r| r.main_s)),
    );
    v.insert(
        "obs.bench_span_overhead_pct".to_string(),
        pct(median_of(&traced, |r| r.main_s), plain.main_s),
    );
    stats_deltas(&traced, &mut v);

    // Table 5 over the wire, one row per indexing policy.
    let t5 = Inputs::generate(Workload::Table5Wire, cfg.seed, cfg.shrink * 3);
    for approach in Approach::ALL {
        let o = RoundOpts {
            approach,
            main_only: true,
            ..opts(&dir)
        };
        let row = wire::round(&t5, &o, &mut tracer)?;
        let key = spec::approach_key(approach);
        let kb_s = |bytes: u64, secs: f64| bytes as f64 / 1024.0 / secs;
        v.insert(
            format!("client.t5.{key}.insert_kb_s"),
            kb_s(row.fed_token_bytes, row.writes.wall_s),
        );
        v.insert(
            format!("client.t5.{key}.read_kb_s"),
            kb_s(row.read_token_bytes, row.reads.wall_s),
        );
        tally.merge(row.tally);
    }

    let budget = Duration::from_secs_f64(cfg.seconds * PROBE_SHARE);
    v.extend(layers::replay(
        inputs,
        &cfg.dir.join("replay"),
        budget,
        &mut tracer,
    )?);
    v.extend(layers::standalone(
        inputs,
        &cfg.dir.join("probes"),
        budget,
        &mut tracer,
    )?);
    v.extend(layers::table5_grid(cfg.seed, cfg.shrink, &mut tracer));

    // ---- the budget rows: floor + engine + residual = client p50 ----------
    let wire_metrics = end_to_end(&traced);
    let client = |name: &str| {
        wire_metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut pings: Vec<u64> = traced.iter().flat_map(|r| r.ping_ns.clone()).collect();
    let ping_us = stat::percentiles(&mut pings).map_or(f64::NAN, |p| p.p50 / 1e3);
    v.insert("client.ping_rtt_us".to_string(), ping_us);
    let mut queries: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.queries.lat_ns.iter().copied())
        .collect();
    queries.sort_unstable();
    v.insert(
        "client.query_p95_us".to_string(),
        queries
            .get((queries.len() * 95).div_ceil(100).saturating_sub(1))
            .map_or(f64::NAN, |ns| *ns as f64 / 1e3),
    );
    let read_tails: Vec<f64> = traced
        .iter()
        .filter_map(|r| stat::percentiles(&mut r.reads.lat_ns.clone()))
        .map(|p| p.tail / 1e3)
        .collect();
    v.insert("client.read_p99_us".to_string(), stat::median(&read_tails));
    let read_engine_us = match cfg.workload.mvcc() {
        true => v["core.snapshot_read_ns"],
        false => v["core.locked_read_ns"],
    } / 1e3;
    let write_engine_us =
        (v["core.insert_last_ns"] + v["core.commit_ns"]) / 1e3 + v["storage.wal_fsync_p50_us"];
    let read_residual = client("read_p50_us") - ping_us - read_engine_us;
    let write_residual = client("write_p50_us") - ping_us - write_engine_us;
    v.insert("server.read_residual_us".to_string(), read_residual);
    v.insert("server.write_residual_us".to_string(), write_residual);
    let mut info = conditions(cfg, inputs, traced.len(), placement);
    info.push(format!(
        "# budget.read  floor (ping) {ping_us:.1} us + engine ({}) {read_engine_us:.1} us + \
         residual {read_residual:.1} us = client read p50 {:.1} us",
        if cfg.workload.mvcc() {
            "core.snapshot_read"
        } else {
            "core.locked_read"
        },
        client("read_p50_us")
    ));
    info.push(format!(
        "# budget.write floor (ping) {ping_us:.1} us + engine (core.insert_last {:.1} + \
         core.commit {:.1} + storage.wal_fsync {:.1}) {write_engine_us:.1} us + residual \
         {write_residual:.1} us = client write p50 {:.1} us  [replay saw parse+lock {:.1} us, \
         fsync wait {:.1} us]",
        v["core.insert_last_ns"] / 1e3,
        v["core.commit_ns"] / 1e3,
        v["storage.wal_fsync_p50_us"],
        client("write_p50_us"),
        v["replay.parse_lock_us"],
        v["replay.fsync_wait_us"],
    ));
    info.push(format!(
        "# spans recorded: {} (wire requests, replay steps, probe batches)",
        tracer.spans().len()
    ));

    if let Some(path) = &cfg.trace_out {
        let doc = Json::obj([
            ("workload", Json::Str(cfg.workload.name().to_string())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("trace", tracer.to_json(TRACE_DUMP_CAP)),
        ]);
        std::fs::write(path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let metrics = spec::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied().unwrap_or(f64::NAN);
            metric(&name, value, unit)
        })
        .collect();
    Ok(RunResult {
        metrics,
        tally,
        info,
    })
}

/// The per-layer metrics that are differences of the server's own
/// counters across main + panel of a traced round: the median over the
/// traced rounds of each round's difference, so a count that repeats
/// exactly reads the same however many rounds fit.
fn stats_deltas(traced: &[RoundOut], v: &mut Values) {
    let per_round = |f: &dyn Fn(&Scrape, &Scrape) -> f64| {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.scrapes.as_ref())
            .map(|(before, after)| f(before, after))
            .filter(|x| x.is_finite())
            .collect();
        // A histogram that saw nothing (no lock ever waited) reports 0.
        if values.is_empty() {
            0.0
        } else {
            stat::median(&values)
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let counters: [(&str, &[&str]); 13] = [
        ("server.commit_waits", &["server.commit_waits"]),
        ("server.writes_conflicted", &["server.writes_conflicted"]),
        ("lock.waits", &["lock.waits"]),
        ("lock.snapshot_bypasses", &["lock.snapshot_bypasses"]),
        ("core.publishes", &["mvcc.publishes"]),
        ("core.publishes_merged", &["mvcc.publishes_merged"]),
        ("core.lazy_materialized", &["mvcc.lazy_materialized"]),
        ("index.partial_evictions", &["adapt.evictions"]),
        ("index.path_partial_count", &["store.lookups_partial"]),
        ("index.path_full_count", &["store.lookups_full"]),
        ("index.path_scan_count", &["store.lookups_range_scan"]),
        ("storage.block_splits", &["store.range_splits"]),
        (
            "storage.pool_evictions",
            &["pool.data.evictions", "pool.index.evictions"],
        ),
    ];
    for (metric, sources) in counters {
        v.insert(
            metric.to_string(),
            per_round(&|b, a| sources.iter().map(|s| a.delta(b, s) as f64).sum()),
        );
    }
    // WAL records are page images plus one commit record per batch.
    v.insert(
        "storage.pages_written".to_string(),
        per_round(&|b, a| {
            a.delta(b, "store.wal_records")
                .saturating_sub(a.delta(b, "wal.group_commits")) as f64
        }),
    );
    v.insert(
        "core.epochs_live_max".to_string(),
        per_round(&|b, a| {
            a.counter("mvcc.epochs_live")
                .max(b.counter("mvcc.epochs_live")) as f64
        }),
    );
    v.insert(
        "index.partial_hit_ratio".to_string(),
        per_round(&|b, a| {
            let hits = a.delta(b, "partial.hits") as f64;
            ratio(hits, hits + a.delta(b, "partial.misses") as f64)
        }),
    );
    v.insert(
        "index.scan_tokens_per_lookup".to_string(),
        per_round(&|b, a| {
            ratio(
                a.delta(b, "store.tokens_scanned") as f64,
                a.delta(b, "store.lookups_range_scan") as f64,
            )
        }),
    );
    v.insert(
        "storage.commits_per_fsync".to_string(),
        per_round(&|b, a| {
            ratio(
                a.delta(b, "wal.group_commits") as f64,
                a.delta(b, "wal.group_syncs") as f64,
            )
        }),
    );
    v.insert(
        "storage.pool_hit_ratio".to_string(),
        per_round(&|b, a| {
            let hits = a.delta(b, "pool.data.hits") as f64;
            ratio(hits, hits + a.delta(b, "pool.data.misses") as f64)
        }),
    );
    for (metric, series, q) in [
        (
            "server.rq_read_p50_us",
            "axs_request_duration_us_bucket{family=\"point_read\"",
            0.5,
        ),
        (
            "server.rq_write_p50_us",
            "axs_request_duration_us_bucket{family=\"write\"",
            0.5,
        ),
        ("server.queue_wait_p99_us", "axs_queue_wait_us_bucket", 0.99),
        ("lock.wait_p99_us", "axs_lock_wait_us_bucket", 0.99),
    ] {
        v.insert(
            metric.to_string(),
            per_round(&|b, a| a.hist_delta(b, series).quantile(q)),
        );
    }
    v.insert(
        "storage.wal_bytes_per_user_byte".to_string(),
        median_of(traced, |r| r.wal_bytes_per_user_byte),
    );
    v.insert(
        "storage.recovery_batches_replayed".to_string(),
        median_of(traced, |r| r.recovery_batches as f64),
    );
}
