//! The five workloads, driven over the wire against an in-process server.
//!
//! A run is a sequence of identical **rounds**. One round sets a fresh
//! server and store up (timed: `setup_s`), runs the workload's own traffic
//! (the *main* phase: fixed op counts on 2 closed-loop connections), then a
//! short *panel* that exercises whichever request classes the main phase
//! did not (so every end-to-end metric exists on every workload, measured
//! against the store in the state the workload left it), then checks the
//! result: the `verify` opcode, a `read_all` compared with the shadow, a
//! crash copy of the store directory reopened and compared token for token
//! (`recover_s`), and a flush for `space_amp`. Rounds repeat until the
//! run's time is up; every round does identical work on identical state,
//! so medians over rounds compare like with like on both sides of a later
//! change however fast either side runs.

use crate::gen::{
    self, Day, Fnv, Frag, Order, QueryKind, QuerySpec, ReadKind, ReadOp, Shadow, Target, Zipf,
    ORDERS_PER_DAY,
};
use crate::scrape::Scrape;
use crate::spans::Tracer;
use axs_bench::Approach;
use axs_client::{Client, ClientError};
use axs_core::{StoreBuilder, XmlStore};
use axs_server::{Catalog, CatalogConfig, Server, ServerConfig, ServerHandle};
use rand::seq::SliceRandom;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Skewed point reads over a hot set; nothing writes.
    ReadHot,
    /// Two disjoint purchase-order feeds; nothing reads.
    Ingest,
    /// One writer and one reader on the same subtree.
    MixedHot,
    /// XPath, FLWOR and full scans over an auction-site document.
    QueryScan,
    /// The paper's Table 5 sequence with locked reads.
    Table5Wire,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::ReadHot,
        Workload::Ingest,
        Workload::MixedHot,
        Workload::QueryScan,
        Workload::Table5Wire,
    ];

    /// The workloads `BENCHMARK.json` lists, which the benchmark driver
    /// holds to the bounds. `table5-wire` is not among them: its inserts
    /// are ~0.5 ms on an empty-to-small document, four fifths of it spent
    /// waiting for the WAL's write and fsync, so its write figures follow
    /// the host's disk (per-round medians wander 490-680 us within a
    /// minute) and cannot hold a 25 % bound. It still runs with `--workload table5-wire` and `--all`, and
    /// every traced run reports its rows as `client.t5.*`.
    pub const DRIVER: [Workload; 4] = [
        Workload::ReadHot,
        Workload::Ingest,
        Workload::MixedHot,
        Workload::QueryScan,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::Ingest => "ingest",
            Workload::MixedHot => "mixed-hot",
            Workload::QueryScan => "query-scan",
            Workload::Table5Wire => "table5-wire",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// MVCC snapshot reads (the server default) or locked reads, where
    /// the paper's three lookup paths serve.
    pub fn mvcc(self) -> bool {
        self != Workload::Table5Wire
    }

    /// Client connections: [`CONNECTIONS`], except that Table 5 is one
    /// client's sequence.
    pub fn connections(self) -> usize {
        match self {
            Workload::Table5Wire => 1,
            _ => CONNECTIONS,
        }
    }
}

/// Op counts of one round. Counts, not durations: both sides of a later
/// comparison do identical work per round.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Base-document size: `<day>`s of ten purchase orders, or items per
    /// region for the auction site.
    pub base: usize,
    /// Distinct nodes the main phase reads.
    pub hot_set: usize,
    /// Timed point reads per reading connection in the main phase.
    pub main_reads: usize,
    /// Timed order inserts (or writer ops) per writing connection.
    pub main_writes: usize,
    /// Query rotations per connection in the main phase.
    pub main_rotations: usize,
    /// Panel: order inserts, when the main phase writes nothing.
    pub panel_writes: usize,
    /// Panel: point reads, when the main phase reads nothing.
    pub panel_reads: usize,
    /// Panel: query rotations, when the main phase queries nothing.
    pub panel_rotations: usize,
    /// Panel: `read_all`s with nothing else in flight (`scan_mb_s`).
    pub panel_scans: usize,
}

impl Sizes {
    /// The calibrated counts for `workload`, divided by `shrink` (1 for a
    /// real run; the smoke pass and the tests use more).
    pub fn of(workload: Workload, shrink: usize) -> Sizes {
        let full = match workload {
            // 6 000 orders serialize to ~1.9 MB, 3.7x the 512 KiB pool.
            Workload::ReadHot => Sizes {
                base: 600,
                hot_set: 2000,
                main_reads: 40_000,
                main_writes: 0,
                main_rotations: 0,
                panel_writes: 80,
                panel_reads: 0,
                panel_rotations: 2,
                panel_scans: 6,
            },
            Workload::Ingest => Sizes {
                base: 200,
                hot_set: 0,
                main_reads: 0,
                main_writes: 304,
                main_rotations: 0,
                panel_writes: 0,
                panel_reads: 4000,
                panel_rotations: 3,
                panel_scans: 6,
            },
            Workload::MixedHot => Sizes {
                base: 200,
                hot_set: 0,
                main_reads: 0,
                main_writes: 448,
                main_rotations: 0,
                panel_writes: 0,
                panel_reads: 0,
                panel_rotations: 3,
                panel_scans: 6,
            },
            // 2 500 items per region serialize to ~2 MB.
            Workload::QueryScan => Sizes {
                base: 2500,
                hot_set: 0,
                main_reads: 0,
                main_writes: 0,
                main_rotations: 1,
                panel_writes: 80,
                panel_reads: 4000,
                panel_rotations: 0,
                panel_scans: 6,
            },
            Workload::Table5Wire => Sizes {
                base: 1,
                hot_set: 800,
                main_reads: 4000,
                main_writes: 1000,
                main_rotations: 0,
                panel_writes: 0,
                panel_reads: 0,
                panel_rotations: 1,
                panel_scans: 1,
            },
        };
        let cut = |n: usize| if n == 0 { 0 } else { (n / shrink).max(1) };
        Sizes {
            // Query predicates name the 17th item and the 10th person.
            base: match workload {
                Workload::QueryScan => cut(full.base).max(20),
                Workload::Table5Wire => 1,
                _ => cut(full.base).max(4),
            },
            hot_set: cut(full.hot_set),
            main_reads: cut(full.main_reads),
            // The mixed-hot writer works in cycles of eight.
            main_writes: cut(full.main_writes).next_multiple_of(8),
            main_rotations: full.main_rotations,
            panel_writes: cut(full.panel_writes),
            panel_reads: cut(full.panel_reads),
            panel_rotations: full.panel_rotations,
            panel_scans: full.panel_scans,
        }
    }

    /// Untimed warm-up ops ahead of `timed` timed ones: 10 %.
    pub fn warm(timed: usize) -> usize {
        timed.div_ceil(10)
    }
}

/// Everything one workload sends, generated once per run from the seed and
/// replayed identically in every round.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its op counts.
    pub sizes: Sizes,
    /// The bulk-load payload.
    pub base_xml: String,
    /// The shadow of the freshly loaded document.
    pub base: Shadow,
    /// Read targets that exist from the start (read-hot's hot set,
    /// mixed-hot's hot-day nodes).
    pub targets: Vec<Target>,
    /// Point-read schedule per reading connection, warm-up prefix
    /// included. Targets index `targets`, or — where the nodes are written
    /// by the round itself — the nodes of the written orders in feed order.
    pub read_plans: Vec<Vec<ReadOp>>,
    /// Orders per writing connection, warm-up prefix included.
    pub feeds: Vec<Vec<Arc<Frag>>>,
    /// Orders the panel inserts.
    pub panel_feed: Vec<Arc<Frag>>,
    /// The query rotation.
    pub queries: Vec<QuerySpec>,
}

/// Salts for [`gen::rng_for`], one per independent input.
mod salt {
    pub const BASE: u64 = 1;
    pub const TARGETS: u64 = 2;
    pub const PLAN: u64 = 3;
    pub const FEED: u64 = 4;
    pub const PANEL: u64 = 5;
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64, shrink: usize) -> Inputs {
        let sizes = Sizes::of(workload, shrink);
        let (base_tokens, base, queries) = match workload {
            Workload::QueryScan => {
                let (tokens, shadow, bidders, bid_auctions) = gen::auction_base(seed, sizes.base);
                let q = gen::auction_queries(sizes.base, bidders, bid_auctions);
                (tokens, shadow, q)
            }
            Workload::Table5Wire => {
                let (tokens, shadow) = gen::po_empty();
                (tokens, shadow, Vec::new())
            }
            _ => {
                let (tokens, shadow) =
                    gen::po_base(&mut gen::rng_for(seed, salt::BASE), sizes.base);
                (tokens, shadow, Vec::new())
            }
        };
        let mut inputs = Inputs {
            workload,
            sizes,
            base_xml: gen::xml_of(&base_tokens),
            base,
            targets: Vec::new(),
            read_plans: Vec::new(),
            feeds: Vec::new(),
            panel_feed: Vec::new(),
            queries,
        };
        let mut plan_rng = gen::rng_for(seed, salt::PLAN);
        let mut feed_rng = gen::rng_for(seed, salt::FEED);
        // Generated orders are numbered past the base document's.
        let mut next_no = 1_000_000u64;
        let mut feed = |n: usize| {
            let f = gen::orders(&mut feed_rng, next_no, n);
            next_no += n as u64;
            f
        };
        let with_warm = |n: usize| n + Sizes::warm(n);
        match workload {
            Workload::ReadHot => {
                inputs.targets = gen::targets(
                    &mut gen::rng_for(seed, salt::TARGETS),
                    &inputs.base,
                    0..sizes.base,
                    sizes.hot_set,
                );
                let zipf = Zipf::new(inputs.targets.len(), gen::ZIPF_S);
                for _ in 0..CONNECTIONS {
                    inputs.read_plans.push(gen::read_plan(
                        &mut plan_rng,
                        &zipf,
                        with_warm(sizes.main_reads),
                    ));
                }
            }
            Workload::Ingest => {
                for _ in 0..CONNECTIONS {
                    inputs.feeds.push(feed(with_warm(sizes.main_writes)));
                }
            }
            Workload::MixedHot => {
                // The hot subtree is the last base day; its original
                // orders are the reader's static targets.
                inputs.targets = gen::targets(
                    &mut gen::rng_for(seed, salt::TARGETS),
                    &inputs.base,
                    sizes.base - 1..sizes.base,
                    usize::MAX,
                );
                // One extra order seeds the writer's replace/delete victim.
                inputs.feeds.push(feed(with_warm(sizes.main_writes) + 1));
            }
            Workload::QueryScan => {}
            Workload::Table5Wire => {
                let orders = feed(with_warm(sizes.main_writes));
                // Working set: `<line>` elements of the fed orders, as in
                // the in-process random-read benchmark; targets index the
                // fed orders' nodes flattened in feed order.
                let mut lines: Vec<u32> = Vec::new();
                let mut flat = 0u32;
                for order in &orders {
                    let nodes = order.nodes.len() as u32;
                    lines.extend((1..nodes).map(|node| flat + node));
                    flat += nodes;
                }
                lines.shuffle(&mut plan_rng);
                lines.truncate(sizes.hot_set.max(1));
                let plan = (0..with_warm(sizes.main_reads))
                    .map(|_| ReadOp {
                        target: lines[plan_rng.gen_range(0..lines.len())],
                        kind: ReadKind::Node,
                    })
                    .collect();
                inputs.read_plans.push(plan);
                inputs.feeds.push(orders);
            }
        }
        if inputs.queries.is_empty() {
            // A base day and a base order no write ever touches. Table 5
            // starts empty, so its rotation names the first fed order.
            let (day, order_no) = match workload {
                Workload::Table5Wire => (0, inputs.feeds[0][0].order_no().to_string()),
                _ => (1, "7".to_string()),
            };
            inputs.queries = gen::po_queries(day, &order_no);
        }
        inputs.panel_feed = gen::orders(
            &mut gen::rng_for(seed, salt::PANEL),
            2_000_000,
            sizes.panel_writes,
        );
        inputs
    }

    /// Fingerprint of the whole op stream: same seed, same hash.
    pub fn op_stream_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.write(self.workload.name().as_bytes());
        h.write(self.base_xml.as_bytes());
        for t in &self.targets {
            h.write_u64(t.id());
        }
        for plan in &self.read_plans {
            h.write_u64(plan.len() as u64);
            for op in plan {
                h.write_u64(u64::from(op.target));
                h.write(op.kind.name().as_bytes());
            }
        }
        for feed in self.feeds.iter().chain(std::iter::once(&self.panel_feed)) {
            h.write_u64(feed.len() as u64);
            for frag in feed {
                h.write(frag.xml.as_bytes());
            }
        }
        for q in &self.queries {
            h.write(q.text.as_bytes());
        }
        h.0
    }
}

/// Client connections in every timed phase: as many as the reference host
/// has cores, each a closed loop (the blocking client waits for its reply
/// before it sends again) on a thread of its own.
pub const CONNECTIONS: usize = 2;

/// Attempts, failures and the first few failure descriptions.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Descriptions of the first failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Counts one check, failing it when `ok` is false.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Latency samples of one request class in one round, with the wall time
/// of the phase that produced them.
#[derive(Debug, Default, Clone)]
pub struct Class {
    /// Per-request latencies, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Connections that issued the class concurrently.
    pub conns: usize,
}

impl Class {
    fn close(&mut self, wall_s: f64, conns: usize) {
        self.wall_s = wall_s;
        self.conns = conns;
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Server start + bulk load + warm-up + checkpoint, seconds.
    pub setup_s: f64,
    /// Wall time of the main phase (fixed work), seconds.
    pub main_s: f64,
    /// Point reads.
    pub reads: Class,
    /// Acknowledged durable writes.
    pub writes: Class,
    /// XPath and FLWOR requests, to the last result frame.
    pub queries: Class,
    /// MB/s of each `read_all` that ran with no other request in flight.
    pub solo_scan_mb_s: Vec<f64>,
    /// Seconds to reopen each crash copy.
    pub recover_s: Vec<f64>,
    /// Committed WAL batches the crash copy replayed.
    pub recovery_batches: u64,
    /// Bytes on disk after the final flush / bytes of user XML.
    pub space_amp: f64,
    /// WAL bytes at the crash copy (everything since the checkpoint that
    /// ended set-up) per byte of XML the round's writes carried.
    pub wal_bytes_per_user_byte: f64,
    /// Tokens inserted by the timed feed (Table 5 reports token KB/s).
    pub fed_token_bytes: u64,
    /// Token bytes the timed point reads returned.
    pub read_token_bytes: u64,
    /// Peak resident set of the process (server, clients and shadow) from
    /// the round's start to the end of its panel, MB.
    pub peak_rss_mb: f64,
    /// Attempts and failures.
    pub tally: Tally,
    /// Server counters before the main phase and after the panel.
    pub scrapes: Option<(Scrape, Scrape)>,
    /// Empty-request round trips taken after the panel, nanoseconds.
    pub ping_ns: Vec<u64>,
}

/// One client connection with its tracer and tally.
struct Conn {
    client: Client,
    tracer: Tracer,
    tally: Tally,
    /// Connection index in the top 16 bits, request sequence below.
    next_req: u64,
}

impl Conn {
    fn open(addr: std::net::SocketAddr, index: u64, tracer: Tracer) -> Result<Conn, ClientError> {
        let mut client = Client::connect(addr)?;
        client.set_timeout(Some(std::time::Duration::from_secs(60)))?;
        Ok(Conn {
            client,
            tracer,
            tally: Tally::default(),
            next_req: index << 48,
        })
    }

    /// Sends one request inside a root span and returns its answer with
    /// the client-observed latency. Errors — `Busy` included: a refused
    /// request misses any latency limit — count as failures.
    fn call<T>(
        &mut self,
        span: &'static str,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> (Option<T>, u64) {
        self.next_req += 1;
        let id = self.tracer.enter(span, self.next_req);
        let started = Instant::now();
        let result = f(&mut self.client);
        let ns = started.elapsed().as_nanos() as u64;
        self.tracer.exit(id);
        self.tally.attempted += 1;
        match result {
            Ok(v) => (Some(v), ns),
            Err(e) => {
                self.tally.fail(|| format!("{span}: {e}"));
                (None, ns)
            }
        }
    }

    /// One point read of `t`, checked against the shadow. Returns the
    /// token bytes a `read_node` delivered.
    fn read(&mut self, kind: ReadKind, t: &Target, lat: &mut Vec<u64>) -> u64 {
        let (id, tpl) = (t.id(), t.tpl());
        let (ok, ns) = match kind {
            ReadKind::Node => {
                let (r, ns) = self.call("client.read_node", |c| c.read_node(id));
                (r.map(|xml| xml == tpl.xml), ns)
            }
            ReadKind::Value => {
                let (r, ns) = self.call("client.string_value", |c| c.string_value(id));
                (r.map(|v| v == tpl.value), ns)
            }
            ReadKind::Children => {
                let (r, ns) = self.call("client.children", |c| c.children(id));
                let same = |kids: Vec<(u64, String)>| {
                    kids.len() == tpl.kids.len()
                        && kids
                            .iter()
                            .zip(&tpl.kids)
                            .all(|(got, want)| got.0 == t.start + want.0 && got.1 == want.1)
                };
                (r.map(same), ns)
            }
            ReadKind::Parent => {
                let (r, ns) = self.call("client.parent", |c| c.parent(id));
                (r.map(|p| p == Some(t.parent())), ns)
            }
        };
        lat.push(ns);
        if ok == Some(false) {
            self.tally
                .fail(|| format!("{} of node {id}: wrong answer", kind.name()));
        }
        match kind {
            ReadKind::Node => tpl.token_bytes,
            _ => 0,
        }
    }

    /// Runs `plan` over `targets`; returns the token bytes read.
    fn read_plan(&mut self, plan: &[ReadOp], targets: &[Target], lat: &mut Vec<u64>) -> u64 {
        plan.iter()
            .map(|op| self.read(op.kind, &targets[op.target as usize], lat))
            .sum()
    }

    /// One durable insert of `frag`; returns the id of the inserted order.
    fn insert(
        &mut self,
        span: &'static str,
        frag: &Frag,
        lat: &mut Vec<u64>,
        f: impl FnOnce(&mut Client, &str) -> Result<(u64, u64), ClientError>,
    ) -> Option<u64> {
        let (r, ns) = self.call(span, |c| f(c, &frag.xml));
        lat.push(ns);
        let (start, end) = r?;
        if end + 1 - start != frag.ids {
            self.tally
                .fail(|| format!("{span}: interval {start}..{end} for {} ids", frag.ids));
        }
        Some(start)
    }

    /// The §4.1 feed: each order goes in with `insert_last` under the
    /// chain's current `<day>`; a new day opens with `insert_after` every
    /// [`ORDERS_PER_DAY`] orders. Stops at the first request that fails.
    fn feed(&mut self, chain: &mut Chain, orders: &[Arc<Frag>], lat: &mut Vec<u64>) {
        for frag in orders {
            let full = chain
                .days
                .last()
                .is_none_or(|d| d.orders.len() >= ORDERS_PER_DAY);
            if full {
                let (r, ns) = match chain.days.last().map(|d| d.id).or(chain.after) {
                    Some(day) => {
                        self.call("client.insert_after", |c| c.insert_after(day, "<day/>"))
                    }
                    // A document without days gets its first one as the
                    // root's last child.
                    None => {
                        let root = chain.root;
                        self.call("client.insert_last", |c| c.insert_last(root, "<day/>"))
                    }
                };
                lat.push(ns);
                let Some((id, _)) = r else { return };
                chain.days.push(Day {
                    id,
                    orders: Vec::new(),
                });
            }
            let day = chain.days.last_mut().expect("a day is open");
            let day_id = day.id;
            let Some(id) = self.insert("client.insert_last", frag, lat, |c, xml| {
                c.insert_last(day_id, xml)
            }) else {
                return;
            };
            day.orders.push(Order {
                id,
                frag: frag.clone(),
            });
        }
    }

    /// Runs the query rotation once, checking every result count.
    fn rotation(&mut self, queries: &[QuerySpec], expected: &[usize], lat: &mut Vec<u64>) {
        for (q, &want) in queries.iter().zip(expected) {
            let (got, ns) = match q.kind {
                QueryKind::XPath => {
                    let (r, ns) = self.call("client.query", |c| c.query(&q.text));
                    (r.map(|m| m.len()), ns)
                }
                QueryKind::Flwor => {
                    let (r, ns) = self.call("client.flwor", |c| c.flwor(&q.text));
                    (r.map(|rows| rows.len()), ns)
                }
            };
            lat.push(ns);
            if got.is_some_and(|n| n != want) {
                self.tally
                    .fail(|| format!("{}: {got:?} results, shadow says {want}", q.text));
            }
        }
    }

    /// One `read_all`, compared with the shadow's serialization by length
    /// and hash. Returns (bytes, seconds).
    fn scan(&mut self, want: &Body) -> (u64, f64) {
        let (r, ns) = self.call("client.read_all", |c| c.read_all());
        let Some(xml) = r else {
            return (0, ns as f64 / 1e9);
        };
        if xml.len() as u64 != want.len || Fnv::of(xml.as_bytes()) != want.hash {
            self.tally.fail(|| {
                format!(
                    "read_all: {} bytes against the shadow's {} (or equal length, different hash)",
                    xml.len(),
                    want.len
                )
            });
        }
        (xml.len() as u64, ns as f64 / 1e9)
    }
}

/// Length and hash of the document's expected serialization.
struct Body {
    len: u64,
    hash: u64,
}

impl Body {
    fn of(shadow: &Shadow) -> Body {
        let xml = gen::xml_of(&shadow.tokens());
        Body {
            len: xml.len() as u64,
            hash: Fnv::of(xml.as_bytes()),
        }
    }
}

fn expectations(queries: &[QuerySpec], shadow: &Shadow) -> Vec<usize> {
    queries.iter().map(|q| shadow.expected(&q.expect)).collect()
}

/// A run of consecutive `<day>`s one connection appends to.
struct Chain {
    /// The day the chain's first day follows; `None` when the chain's
    /// first day becomes the last child of `root`.
    after: Option<u64>,
    root: u64,
    days: Vec<Day>,
}

impl Chain {
    /// Splices the chain's days into `shadow`, behind the day it started
    /// after (or at the end).
    fn merge_into(self, shadow: &mut Shadow) {
        let at = match self.after.and_then(|id| shadow.day_index(id)) {
            Some(i) => i + 1,
            None => shadow.days.len(),
        };
        shadow.days.splice(at..at, self.days);
    }

    /// The chain's orders as read targets, flattened in feed order.
    fn targets(&self) -> Vec<Target> {
        self.days.iter().flat_map(Day::targets).collect()
    }
}

/// An order the mixed-hot reader may read: acknowledged, never replaced,
/// never deleted.
type Keeper = (u64, Arc<Frag>);

/// The mixed-hot writer: six `insert_last`, one `replace`, one
/// `delete` + `insert_last` per cycle of eight orders, all on one `<day>`.
/// Replace and delete only ever hit the *victim* — an order the reader is
/// never told about — so no read can race a removal.
struct Mixed {
    hot_day: u64,
    /// The hot day's orders in document order.
    orders: Vec<Order>,
    /// Position of the victim in `orders`.
    victim: usize,
    /// Orders fed so far (the cycle position carries over from warm-up).
    step: usize,
    keepers: Arc<Mutex<Vec<Keeper>>>,
}

impl Mixed {
    /// Takes the last day as the hot subtree and inserts the first victim.
    fn seed(conn: &mut Conn, shadow: &Shadow, victim: &Arc<Frag>) -> Result<Mixed, String> {
        let day = shadow.days.last().expect("base has days");
        let mut orders = day.orders.clone();
        let hot_day = day.id;
        let id = conn
            .insert("client.insert_last", victim, &mut Vec::new(), |c, xml| {
                c.insert_last(hot_day, xml)
            })
            .ok_or("mixed-hot: could not insert the first victim order")?;
        orders.push(Order {
            id,
            frag: victim.clone(),
        });
        Ok(Mixed {
            hot_day,
            victim: orders.len() - 1,
            orders,
            step: 0,
            keepers: Arc::default(),
        })
    }

    /// Feeds `frags`, one writer op each. Stops at the first failure.
    fn write(&mut self, conn: &mut Conn, frags: &[Arc<Frag>], lat: &mut Vec<u64>) {
        let hot_day = self.hot_day;
        for frag in frags {
            let slot = self.step % 8;
            self.step += 1;
            let victim_id = self.orders[self.victim].id;
            if slot == 6 {
                let Some(id) = conn.insert("client.replace", frag, lat, |c, xml| {
                    c.replace(victim_id, xml)
                }) else {
                    return;
                };
                self.orders[self.victim] = Order {
                    id,
                    frag: frag.clone(),
                };
                continue;
            }
            if slot == 7 {
                let (r, ns) = conn.call("client.delete", |c| c.delete(victim_id));
                lat.push(ns);
                if r.is_none() {
                    return;
                }
                self.orders.remove(self.victim);
            }
            let Some(id) = conn.insert("client.insert_last", frag, lat, |c, xml| {
                c.insert_last(hot_day, xml)
            }) else {
                return;
            };
            self.orders.push(Order {
                id,
                frag: frag.clone(),
            });
            if slot == 7 {
                self.victim = self.orders.len() - 1;
            } else {
                self.keepers
                    .lock()
                    .expect("keepers lock")
                    .push((id, frag.clone()));
            }
        }
    }
}

/// The mixed-hot reader: alternates between the freshest acknowledged
/// order and the hot day's original nodes until the writer is done.
fn read_beside_writer(
    conn: &mut Conn,
    done: &AtomicBool,
    keepers: &Mutex<Vec<Keeper>>,
    hot_day: u64,
    originals: &[Target],
    reads: &mut Class,
) {
    let started = Instant::now();
    let mut i = 0usize;
    while !done.load(Ordering::Acquire) {
        let kind = ReadKind::ALL[(i / 2) % ReadKind::ALL.len()];
        let fresh = match i % 2 {
            0 => keepers.lock().expect("keepers lock").last().cloned(),
            _ => None,
        };
        match fresh {
            Some((start, frag)) => {
                let target = Target {
                    node: (i / 2) % frag.nodes.len(),
                    frag,
                    start,
                    day: hot_day,
                };
                conn.read(kind, &target, &mut reads.lat_ns);
            }
            None => {
                let target = &originals[(i / 2) % originals.len()];
                conn.read(kind, target, &mut reads.lat_ns);
            }
        }
        i += 1;
    }
    reads.close(started.elapsed().as_secs_f64(), 1);
}

/// A server with its store on disk and the round's connections.
struct Live {
    handle: ServerHandle,
    /// Directory holding `data.pages`, `index.pages` and `wal.log`.
    store_dir: PathBuf,
    conns: Vec<Conn>,
}

/// The server configuration every workload runs under: the defaults
/// `axs serve` gives with no flags, except that slow-request dumps to
/// stderr are off (they would be timed) and MVCC follows the workload.
pub fn server_config(mvcc: bool, trace: bool) -> ServerConfig {
    ServerConfig {
        slow_request: None,
        mvcc,
        trace,
        ..ServerConfig::default()
    }
}

/// How a round's store is built and reopened: the catalog's defaults
/// (lazy policy, 8 KiB pages, 64-frame pool), except that a Table 5 round
/// picks the indexing policy of its row.
fn store_builder(workload: Workload, approach: Approach, dir: &Path) -> StoreBuilder {
    let builder = StoreBuilder::new().directory(dir.to_path_buf());
    match workload {
        Workload::Table5Wire => builder.policy(approach.policy()),
        _ => builder,
    }
}

fn start(workload: Workload, opts: &RoundOpts, tracer: &Tracer) -> Result<Live, String> {
    let root = opts.dir.join("live");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let config = server_config(workload.mvcc(), opts.server_trace);
    let (handle, store_dir) = if workload == Workload::Table5Wire {
        let store_dir = root.join("store");
        let store = store_builder(workload, opts.approach, &store_dir)
            .build()
            .map_err(|e| format!("build store: {e}"))?;
        (Server::start(store, config), store_dir)
    } else {
        let catalog = Catalog::open(&root, CatalogConfig::default())
            .map_err(|e| format!("open catalog: {e}"))?;
        (
            Server::start_catalog(catalog, config),
            root.join("stores").join("default"),
        )
    };
    let handle = handle.map_err(|e| format!("start server: {e}"))?;
    let conns = (0..workload.connections())
        .map(|i| Conn::open(handle.local_addr(), i as u64, tracer.fork()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Live {
        handle,
        store_dir,
        conns,
    })
}

/// Runs `f` once per connection, each on its own thread, and returns the
/// phase's wall time in seconds.
fn on_each<S: Send>(
    conns: &mut [Conn],
    state: &mut [S],
    f: impl Fn(usize, &mut Conn, &mut S) + Sync,
) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (i, (conn, st)) in conns.iter_mut().zip(state.iter_mut()).enumerate() {
            let f = &f;
            scope.spawn(move || f(i, conn, st));
        }
    });
    started.elapsed().as_secs_f64()
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Copies the store files as they are on disk right now, reopens the copy
/// through crash recovery and returns how long the reopen took. With
/// `inspect`, also returns the reopened store and how many committed WAL
/// batches there were to replay.
fn crash_copy(
    live_dir: &Path,
    copy: &Path,
    builder: StoreBuilder,
    inspect: bool,
) -> Result<(f64, Option<(XmlStore, u64)>), String> {
    std::fs::create_dir_all(copy).map_err(|e| format!("create {}: {e}", copy.display()))?;
    for file in STORE_FILES {
        std::fs::copy(live_dir.join(file), copy.join(file))
            .map_err(|e| format!("copy {file}: {e}"))?;
    }
    let batches = match inspect {
        true => {
            // Scanned on a second copy of the log: recovery owns the first.
            let log = copy.join("wal.scan");
            std::fs::copy(live_dir.join("wal.log"), &log).map_err(|e| format!("copy wal: {e}"))?;
            let (_, scan) =
                axs_storage::Wal::recover(&log, axs_storage::StorageConfig::default().page_size)
                    .map_err(|e| format!("scan wal: {e}"))?;
            scan.batches.len() as u64
        }
        false => 0,
    };
    let started = Instant::now();
    let store = builder.open().map_err(|e| format!("reopen: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    Ok((secs, inspect.then_some((store, batches))))
}

const STORE_FILES: [&str; 3] = ["data.pages", "index.pages", "wal.log"];

/// Crash copies reopened per round (`recover_s` samples).
const CRASH_COPIES: usize = 3;

/// Empty requests timed per scraping round (`client.ping_rtt_us`).
const PING_SAMPLES: usize = 500;

/// Per-round switches.
pub struct RoundOpts<'a> {
    /// Scratch directory for this round's store (removed afterwards).
    pub dir: &'a Path,
    /// `ServerConfig::trace`.
    pub server_trace: bool,
    /// Scrape the server's counters around main + panel and take the
    /// ping floor (the traced run's Stats deltas).
    pub scrape: bool,
    /// The indexing policy of a Table 5 round (the lazy row feeds the
    /// end-to-end metrics; the other three are comparison rows).
    pub approach: Approach,
    /// Stop after the main phase: all the comparison rows need.
    pub main_only: bool,
}

/// Runs one round of `inputs.workload` and tears everything down again.
/// `Err` means the round could not run at all (no server, no connection);
/// wrong answers and failed requests are counted in the tally instead.
/// Spans of the round's connections end up in `tracer`.
pub fn round(inputs: &Inputs, opts: &RoundOpts, tracer: &mut Tracer) -> Result<RoundOut, String> {
    let _ = std::fs::remove_dir_all(opts.dir);
    let mut out = RoundOut::default();
    // Writing 5 to clear_refs resets the peak-RSS high-water mark, so the
    // figure belongs to this round however many came before it.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let started = Instant::now();
    let result = start(inputs.workload, opts, tracer).and_then(|mut live| {
        out.setup_s = started.elapsed().as_secs_f64();
        let result = drive(inputs, opts, &mut live, &mut out);
        for conn in live.conns {
            out.tally.merge(conn.tally);
            tracer.absorb(conn.tracer);
        }
        live.handle.shutdown();
        let joined = live.handle.join().map_err(|e| format!("shutdown: {e}"));
        result.and(joined)
    });
    let _ = std::fs::remove_dir_all(opts.dir);
    result.map(|()| out)
}

fn drive(
    inputs: &Inputs,
    opts: &RoundOpts,
    live: &mut Live,
    out: &mut RoundOut,
) -> Result<(), String> {
    let workload = inputs.workload;
    let sizes = inputs.sizes;
    let mut shadow = inputs.base.clone();
    let root = shadow.root_id;
    let warm_reads = Sizes::warm(sizes.main_reads);
    let warm_writes = Sizes::warm(sizes.main_writes);
    let timed_xml = |frags: &[Arc<Frag>]| frags.iter().map(|f| f.xml.len() as u64).sum::<u64>();

    // ---- set-up: bulk load, warm-up, checkpoint (the server start is
    // already on the clock: `out.setup_s` holds it) -------------------------
    let setup_started = Instant::now();
    let (loaded, _) = live.conns[0].call("client.bulk_load", |c| c.bulk_load(&inputs.base_xml));
    let want_end = axs_xdm::count_ids(&shadow.tokens());
    if loaded.is_some_and(|iv| iv != (root, want_end)) {
        live.conns[0]
            .tally
            .fail(|| format!("bulk_load: ids {loaded:?}, shadow says ({root}, {want_end})"));
    }
    // Write chains, one per writing connection; warm-up is the untimed
    // head of each connection's op stream.
    let mut chains: Vec<Chain> = match workload {
        // Connection 0 appends at the end of the document, connection 1
        // in its middle: far enough apart that the feeds share no Range.
        Workload::Ingest => [sizes.base - 1, sizes.base / 2 - 1]
            .into_iter()
            .map(|day| Chain {
                after: Some(shadow.days[day].id),
                root,
                days: Vec::new(),
            })
            .collect(),
        // The feed continues the base document's one empty day.
        Workload::Table5Wire => vec![Chain {
            after: None,
            root,
            days: std::mem::take(&mut shadow.days),
        }],
        _ => Vec::new(),
    };
    let mut mixed = match workload {
        Workload::MixedHot => Some(Mixed::seed(
            &mut live.conns[0],
            &shadow,
            &inputs.feeds[0][0],
        )?),
        _ => None,
    };
    match workload {
        Workload::ReadHot => {
            on_each(&mut live.conns, &mut [(); CONNECTIONS], |i, conn, ()| {
                let plan = &inputs.read_plans[i][..warm_reads];
                conn.read_plan(plan, &inputs.targets, &mut Vec::new());
            });
        }
        Workload::Ingest | Workload::Table5Wire => {
            on_each(&mut live.conns, &mut chains, |i, conn, chain| {
                conn.feed(chain, &inputs.feeds[i][..warm_writes], &mut Vec::new());
            });
        }
        Workload::MixedHot => {
            let m = mixed.as_mut().expect("mixed-hot state");
            let warm = &inputs.feeds[0][1..=warm_writes];
            m.write(&mut live.conns[0], warm, &mut Vec::new());
        }
        Workload::QueryScan => {
            let expected = expectations(&inputs.queries[..1], &shadow);
            live.conns[0].rotation(&inputs.queries[..1], &expected, &mut Vec::new());
        }
    }
    // Checkpoint: from here on the WAL holds exactly what the timed phases
    // write, so every crash copy recovers the same amount of work.
    live.conns[0].call("client.flush", |c| c.flush());
    out.setup_s += setup_started.elapsed().as_secs_f64();

    let before = match opts.scrape {
        true => Scrape::take(&mut live.conns[0].client).ok(),
        false => None,
    };

    // ---- main phase ---------------------------------------------------------
    let main_started = Instant::now();
    let mut written_xml = 0u64;
    match workload {
        Workload::ReadHot => {
            let mut lats = vec![Vec::new(); CONNECTIONS];
            let wall = on_each(&mut live.conns, &mut lats, |i, conn, lat| {
                let plan = &inputs.read_plans[i][warm_reads..];
                conn.read_plan(plan, &inputs.targets, lat);
            });
            out.reads.close(wall, CONNECTIONS);
            out.reads.lat_ns = lats.concat();
        }
        Workload::Ingest => {
            let mut state: Vec<(&mut Chain, Vec<u64>)> =
                chains.iter_mut().map(|c| (c, Vec::new())).collect();
            let wall = on_each(&mut live.conns, &mut state, |i, conn, (chain, lat)| {
                conn.feed(chain, &inputs.feeds[i][warm_writes..], lat);
            });
            out.writes.close(wall, CONNECTIONS);
            for (i, (_, lat)) in state.into_iter().enumerate() {
                out.writes.lat_ns.extend(lat);
                written_xml += timed_xml(&inputs.feeds[i][warm_writes..]);
            }
        }
        Workload::MixedHot => {
            let m = mixed.as_mut().expect("mixed-hot state");
            let timed = &inputs.feeds[0][warm_writes + 1..];
            let done = AtomicBool::new(false);
            let keepers = m.keepers.clone();
            let hot_day = m.hot_day;
            let (writer, reader) = live.conns.split_at_mut(1);
            let (reads, writes) = (&mut out.reads, &mut out.writes);
            let started = Instant::now();
            std::thread::scope(|scope| {
                let done = &done;
                let reader = &mut reader[0];
                scope.spawn(move || {
                    read_beside_writer(reader, done, &keepers, hot_day, &inputs.targets, reads)
                });
                m.write(&mut writer[0], timed, &mut writes.lat_ns);
                done.store(true, Ordering::Release);
            });
            out.writes.close(started.elapsed().as_secs_f64(), 1);
            written_xml += timed_xml(timed);
        }
        Workload::QueryScan => {
            let expected = expectations(&inputs.queries, &shadow);
            let body = Body::of(&shadow);
            let mut lats = vec![Vec::new(); CONNECTIONS];
            let wall = on_each(&mut live.conns, &mut lats, |_, conn, lat| {
                for _ in 0..sizes.main_rotations {
                    // Nine queries, then a full scan as the tenth op. It
                    // is checked but not rated: it shares the server with
                    // the other connection's queries (see the panel).
                    conn.rotation(&inputs.queries, &expected, lat);
                    conn.scan(&body);
                }
            });
            out.queries.close(wall, CONNECTIONS);
            out.queries.lat_ns = lats.concat();
        }
        Workload::Table5Wire => {
            // The paper's sequence: insert feed, one sequential scan,
            // random reads over a working set.
            let conn = &mut live.conns[0];
            let timed = &inputs.feeds[0][warm_writes..];
            let started = Instant::now();
            conn.feed(&mut chains[0], timed, &mut out.writes.lat_ns);
            out.writes.close(started.elapsed().as_secs_f64(), 1);
            written_xml += timed_xml(timed);
            out.fed_token_bytes = timed.iter().map(|f| f.nodes[0].token_bytes).sum();

            let mut fed = shadow.clone();
            fed.days.extend(chains[0].days.iter().cloned());
            let (bytes, secs) = conn.scan(&Body::of(&fed));
            out.solo_scan_mb_s.push(bytes as f64 / 1e6 / secs);

            let targets = chains[0].targets();
            let plan = &inputs.read_plans[0];
            conn.read_plan(&plan[..warm_reads], &targets, &mut Vec::new());
            let started = Instant::now();
            out.read_token_bytes =
                conn.read_plan(&plan[warm_reads..], &targets, &mut out.reads.lat_ns);
            out.reads.close(started.elapsed().as_secs_f64(), 1);
        }
    }
    out.main_s = main_started.elapsed().as_secs_f64();
    // Fold the main phase's writes into the shadow.
    let acknowledged: Vec<Target> = chains
        .iter()
        .flat_map(Chain::targets)
        .filter(|t| t.node == 0)
        .collect();
    for chain in chains {
        chain.merge_into(&mut shadow);
    }
    if let Some(m) = mixed {
        shadow.days.last_mut().expect("hot day").orders = m.orders;
    }
    if opts.main_only {
        return Ok(());
    }

    // ---- panel: the request classes the main phase left out -----------------
    let conn = &mut live.conns[0];
    let mut panel_chain = Chain {
        after: shadow.days.last().map(|d| d.id),
        root,
        days: Vec::new(),
    };
    if sizes.panel_writes > 0 {
        let started = Instant::now();
        conn.feed(&mut panel_chain, &inputs.panel_feed, &mut out.writes.lat_ns);
        out.writes.close(started.elapsed().as_secs_f64(), 1);
        written_xml += timed_xml(&inputs.panel_feed);
    }
    // Ingest reads back every order it was acknowledged (the id lookup of
    // the durability check, over the wire); query-scan reads the orders
    // its own panel just wrote.
    let panel_targets = match workload {
        Workload::Ingest => acknowledged,
        _ => panel_chain.targets(),
    };
    if sizes.panel_reads > 0 && !panel_targets.is_empty() {
        let started = Instant::now();
        for i in 0..sizes.panel_reads.max(panel_targets.len()) {
            let kind = ReadKind::ALL[i % ReadKind::ALL.len()];
            let target = &panel_targets[i % panel_targets.len()];
            conn.read(kind, target, &mut out.reads.lat_ns);
        }
        out.reads.close(started.elapsed().as_secs_f64(), 1);
    }
    panel_chain.merge_into(&mut shadow);
    let body = Body::of(&shadow);
    if sizes.panel_rotations > 0 {
        let expected = expectations(&inputs.queries, &shadow);
        let started = Instant::now();
        for _ in 0..sizes.panel_rotations {
            conn.rotation(&inputs.queries, &expected, &mut out.queries.lat_ns);
        }
        out.queries.close(started.elapsed().as_secs_f64(), 1);
    }
    // Scans of the final document with nothing else in flight: every
    // workload's `scan_mb_s`, and the read_all check of everything the
    // round wrote.
    for _ in 0..sizes.panel_scans {
        let (bytes, secs) = conn.scan(&body);
        out.solo_scan_mb_s.push(bytes as f64 / 1e6 / secs);
    }

    out.peak_rss_mb = peak_rss_mb();
    if let Some(before) = before {
        for _ in 0..PING_SAMPLES {
            let (_, ns) = conn.call("client.ping", |c| c.ping());
            out.ping_ns.push(ns);
        }
        if let Ok(after) = Scrape::take(&mut conn.client) {
            out.scrapes = Some((before, after));
        }
    }

    // ---- checks ------------------------------------------------------------------
    let (verdict, _) = conn.call("client.verify", |c| c.verify());
    if verdict.is_some_and(|v| !v.starts_with("ok:")) {
        conn.tally
            .fail(|| "verify opcode did not answer ok".to_string());
    }
    // Crash copies: the store directory as it is on disk while the server
    // is still up, reopened through recovery. Every acknowledged write
    // must be in the reopened store.
    out.wal_bytes_per_user_byte =
        file_len(&live.store_dir.join("wal.log")) as f64 / written_xml.max(1) as f64;
    let want_tokens = shadow.tokens();
    for i in 0..CRASH_COPIES {
        let copy = opts.dir.join(format!("crash{i}"));
        let builder = store_builder(workload, opts.approach, &copy);
        let result =
            crash_copy(&live.store_dir, &copy, builder, i == 0).and_then(|(secs, inspected)| {
                out.recover_s.push(secs);
                let Some((store, batches)) = inspected else {
                    return Ok(());
                };
                out.recovery_batches = batches;
                store
                    .check_invariants()
                    .map_err(|e| format!("invariants after recovery: {e}"))?;
                let got = store.read_all().map_err(|e| format!("read_all: {e}"))?;
                match got == want_tokens {
                    true => Ok(()),
                    false => Err(format!(
                        "recovered {} tokens, the acknowledged writes make {}",
                        got.len(),
                        want_tokens.len()
                    )),
                }
            });
        conn.tally.check(result.is_ok(), || {
            format!("crash copy: {}", result.unwrap_err())
        });
        let _ = std::fs::remove_dir_all(&copy);
    }
    conn.call("client.flush", |c| c.flush());
    let on_disk: u64 = STORE_FILES
        .iter()
        .map(|f| file_len(&live.store_dir.join(f)))
        .sum();
    out.space_amp = on_disk as f64 / body.len as f64;
    Ok(())
}
