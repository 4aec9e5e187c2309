//! Per-layer measurements taken from outside: the benchmark's own spans
//! around calls into each crate's public functions.
//!
//! Two kinds of probe run here. The *standalone* probes drive one
//! structure of one crate in isolation (frame codec, lock manager, partial
//! index, B+-tree, range index, buffer pool, block layout, WAL, token
//! codec, XML parser and serializer, XPath, FLWOR, histogram, catalog) and
//! report ns per call. The *embedded replay* feeds the workload's own
//! generated orders to an embedded store along the path the server takes
//! for a write — parse, lock, mutate, commit, wait for the fsync — with a
//! span around each step, so a write's client-observed latency can be
//! split into a floor, an engine share and a residual.
//!
//! ns-scale calls are timed in batches: one span covers a batch of calls
//! and the figure is the median over batches of (self time / batch size) —
//! a span per 30 ns call would measure the clock, not the call.

use crate::gen::{self, Frag};
use crate::spans::{median_self_ns, Tracer};
use crate::spec::approach_key;
use crate::stat;
use crate::wire::Inputs;
use axs_bench::{Approach, Table5Config};
use axs_client::wire::{self as frame, Frame, FrameDecoder, OpCode};
use axs_core::{ReadView, StoreBuilder, XmlStore};
use axs_index::{BTree, NodePosition, PartialIndex, PartialIndexConfig, RangeEntry, RangeIndex};
use axs_lock::{LockManager, LockMode, Resource};
use axs_storage::{block, BufferPool, FilePageStore, MemPageStore, PageId, PageStore, Wal};
use axs_xdm::{IdInterval, NodeId, Token};
use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Metric name → value, as the probes fill it in.
pub type Values = BTreeMap<String, f64>;

/// The page size every probe uses: the store default.
const PAGE: usize = 8192;

/// Times batches of calls under one span name and reduces them to ns/op.
struct Bench<'a> {
    tracer: &'a mut Tracer,
    /// Time spent on each probe.
    budget: Duration,
}

impl Bench<'_> {
    /// Runs `f` in batches of `batch` calls until the probe's budget is
    /// spent (at least three batches) and returns the median ns per call.
    fn ns(&mut self, span: &'static str, batch: usize, mut f: impl FnMut()) -> f64 {
        self.ns_with(span, batch, || (), |()| f())
    }

    /// As [`Bench::ns`], with an untimed `prepare` before every batch
    /// whose result each call of the batch receives.
    fn ns_with<S>(
        &mut self,
        span: &'static str,
        batch: usize,
        mut prepare: impl FnMut() -> S,
        mut f: impl FnMut(&mut S),
    ) -> f64 {
        let started = Instant::now();
        let mut per_op = Vec::new();
        while per_op.len() < 3 || started.elapsed() < self.budget {
            let mut state = prepare();
            let t0 = Instant::now();
            let id = self.tracer.enter(span, 0);
            for _ in 0..batch {
                f(&mut state);
            }
            self.tracer.exit(id);
            per_op.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        stat::median(&per_op)
    }

    /// Megabytes per second of a call that processes `bytes` bytes.
    fn mb_s(&mut self, span: &'static str, bytes: usize, f: impl FnMut()) -> f64 {
        bytes as f64 * 1e3 / self.ns(span, 1, f)
    }
}

fn mem_pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Arc::new(MemPageStore::new(PAGE)), frames))
}

fn position(i: u64) -> NodePosition {
    NodePosition {
        begin_range: i / 64,
        begin_index: (i % 64) as u32,
        begin_byte: 0,
        end_range: i / 64,
        end_index: (i % 64) as u32 + 1,
        end_byte: 0,
    }
}

/// The standalone probes. `dir` is scratch space for the file-backed ones.
pub fn standalone(
    inputs: &Inputs,
    dir: &Path,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let io = |e: axs_storage::StorageError| format!("probe storage: {e}");
    let mut b = Bench { tracer, budget };
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    // One generated order stands for "the workload's payload size".
    let order: Arc<Frag> = inputs
        .feeds
        .first()
        .and_then(|f| f.first())
        .or(inputs.panel_feed.first())
        .cloned()
        .unwrap_or_else(|| Frag::order(&mut gen::rng_for(0, 0), 1));

    // ---- client: frame codec at the insert payload size --------------------
    let mut payload = Vec::new();
    frame::put_u64(&mut payload, 42);
    frame::put_str(&mut payload, &order.xml);
    let request = Frame::request(7, OpCode::InsertLast, payload);
    let mut sink = Vec::with_capacity(1024);
    put(
        "client.frame_encode_ns",
        b.ns("client.frame_encode", 256, || {
            sink.clear();
            frame::write_frame(&mut sink, std::hint::black_box(&request)).expect("write to a Vec");
            std::hint::black_box(&mut sink);
        }),
    );
    let encoded = sink.clone();
    let mut decoder = FrameDecoder::new();
    put(
        "client.frame_decode_ns",
        b.ns("client.frame_decode", 256, || {
            let got = decoder.poll(&mut &encoded[..]).expect("a whole frame");
            std::hint::black_box(got);
        }),
    );

    // ---- lock: uncontended grant + release --------------------------------
    let locks = LockManager::new();
    let range = Resource::Range { block: 3, range: 9 };
    for (name, span, mode) in [
        ("lock.acquire_s_ns", "lock.acquire_s", LockMode::S),
        ("lock.acquire_x_ns", "lock.acquire_x", LockMode::X),
    ] {
        put(
            name,
            b.ns(span, 256, || {
                let tx = locks.begin();
                locks.lock(tx, range, mode).expect("uncontended");
                locks.unlock_all(tx);
            }),
        );
    }

    // ---- index: partial index at its default capacity ---------------------
    let capacity = PartialIndexConfig::default().capacity as u64;
    let partial = PartialIndex::new(PartialIndexConfig::default());
    for i in 0..capacity {
        partial.insert(NodeId(i + 1), position(i));
    }
    let mut i = 0u64;
    put(
        "index.partial_hit_ns",
        b.ns("index.partial_hit", 1024, || {
            i = (i + 7919) % capacity;
            std::hint::black_box(partial.get(NodeId(i + 1)));
        }),
    );
    put(
        "index.partial_miss_ns",
        b.ns("index.partial_miss", 1024, || {
            i += 1;
            std::hint::black_box(partial.get(NodeId((1 << 40) + i)));
        }),
    );
    let mut next = capacity;
    put(
        "index.partial_admit_evict_ns",
        b.ns("index.partial_admit_evict", 1024, || {
            next += 1;
            std::hint::black_box(partial.insert(NodeId(next), position(next)));
        }),
    );

    // ---- index: range index and B+-tree over a 64-frame pool --------------
    let mut ranges = RangeIndex::create(mem_pool(64)).map_err(io)?;
    let entries = 2000u64;
    for r in 0..entries {
        ranges
            .insert(RangeEntry {
                interval: IdInterval::new(NodeId(r * 100 + 1), NodeId(r * 100 + 100)),
                block: PageId(r / 4),
                range_id: r,
            })
            .map_err(io)?;
    }
    put(
        "index.range_probe_ns",
        b.ns("index.range_probe", 256, || {
            i = (i + 7919) % (entries * 100);
            std::hint::black_box(ranges.locate(NodeId(i + 1)).expect("probe"));
        }),
    );
    let tree_pool = mem_pool(64);
    let mut tree = BTree::create(tree_pool.clone(), 24).map_err(io)?;
    let mut key = 0u64;
    put(
        "index.btree_insert_ns",
        b.ns("index.btree_insert", 256, || {
            key += 1;
            tree.insert(key, &[7u8; 24]).expect("insert");
        }),
    );
    let keys = key;
    let before = tree_pool.stats();
    let mut probes = 0u64;
    put(
        "index.btree_probe_ns",
        b.ns("index.btree_probe", 256, || {
            i = (i + 7919) % keys;
            probes += 1;
            std::hint::black_box(tree.get(i + 1).expect("probe"));
        }),
    );
    let after = tree_pool.stats();
    put(
        "index.btree_pages_per_probe",
        ((after.hits + after.misses) - (before.hits + before.misses)) as f64 / probes as f64,
    );

    // ---- storage: buffer pool over a file, block layout, WAL --------------
    let file: Arc<dyn PageStore> =
        Arc::new(FilePageStore::open(&dir.join("probe.pages"), PAGE).map_err(io)?);
    let pool = BufferPool::new(file, 64);
    let pages: Vec<PageId> = (0..256)
        .map(|_| pool.allocate())
        .collect::<Result<_, _>>()
        .map_err(io)?;
    pool.flush_all().map_err(io)?;
    let mut p = 0usize;
    put(
        "storage.pool_hit_ns",
        b.ns("storage.pool_hit", 256, || {
            p = (p + 1) % 32;
            pool.read(pages[p], |buf| std::hint::black_box(buf[0]))
                .expect("hit");
        }),
    );
    // Cycling through four times the pool's frames defeats any
    // replacement order: every read is a miss and an eviction.
    put(
        "storage.pool_miss_ns",
        b.ns("storage.pool_miss", 256, || {
            p = (p + 1) % pages.len();
            pool.read(pages[p], |buf| std::hint::black_box(buf[0]))
                .expect("miss");
        }),
    );
    let range_payload = axs_xdm::encode_tokens(&order.tokens);
    let fit = block::max_payload(PAGE) / (range_payload.len() + 8);
    put(
        "storage.block_insert_ns",
        b.ns_with(
            "storage.block_insert",
            fit.max(1),
            || {
                let mut page = vec![0u8; PAGE];
                block::init(&mut page);
                (page, 0u16)
            },
            |(page, slot)| {
                let payload = std::hint::black_box(&range_payload);
                block::insert_range(page, PageId(1), *slot, payload).expect("fits");
                *slot += 1;
            },
        ),
    );
    let wal_path = dir.join("probe.wal");
    let wal = std::cell::RefCell::new(Wal::create(&wal_path, PAGE).map_err(io)?);
    let image = vec![0x5au8; PAGE];
    put(
        "storage.wal_append_ns",
        b.ns_with(
            "storage.wal_append",
            64,
            // Appends are sealed and the log emptied between batches so
            // the probe file stays small.
            || {
                let mut wal = wal.borrow_mut();
                wal.commit().expect("commit");
                wal.reset().expect("reset");
            },
            |()| {
                wal.borrow_mut()
                    .append_image(PageId(1), &image)
                    .expect("append");
            },
        ),
    );
    // One page image per commit, as a small insert produces.
    let mut wal = wal.into_inner();
    let mut fsync_ns: Vec<u64> = Vec::new();
    let started = Instant::now();
    while fsync_ns.len() < 30 || started.elapsed() < budget * 4 {
        wal.append_image(PageId(1), &image).map_err(io)?;
        let id = b.tracer.enter("storage.wal_fsync", 0);
        let t0 = Instant::now();
        wal.commit().map_err(io)?;
        fsync_ns.push(t0.elapsed().as_nanos() as u64);
        b.tracer.exit(id);
        if fsync_ns.len().is_multiple_of(64) {
            wal.reset().map_err(io)?;
        }
    }
    let fsync = stat::percentiles(&mut fsync_ns).expect("samples");
    put("storage.wal_fsync_p50_us", fsync.p50 / 1e3);
    put("storage.wal_fsync_p99_us", fsync.tail / 1e3);

    // ---- xdm / xml: codec, parser, serializer ------------------------------
    // A slice of the workload's own base document, capped so one call
    // stays in the millisecond range.
    let doc: Vec<Token> = gen::po_base(&mut gen::rng_for(1, 1), 20).0;
    let doc_xml = gen::xml_of(&doc);
    let doc_bytes = axs_xdm::encode_tokens(&doc);
    put(
        "xdm.encode_mb_s",
        b.mb_s("xdm.encode", doc_bytes.len(), || {
            std::hint::black_box(axs_xdm::encode_tokens(&doc));
        }),
    );
    put(
        "xdm.decode_mb_s",
        b.mb_s("xdm.decode", doc_bytes.len(), || {
            std::hint::black_box(axs_xdm::decode_tokens(&doc_bytes).expect("decodes"));
        }),
    );
    put(
        "xdm.token_bytes_per_user_byte",
        doc_bytes.len() as f64 / doc_xml.len() as f64,
    );
    put(
        "xml.parse_mb_s",
        b.mb_s("xml.parse", doc_xml.len(), || {
            std::hint::black_box(
                parse_fragment(&doc_xml, ParseOptions::data_centric()).expect("parses"),
            );
        }),
    );
    put(
        "xml.parse_fragment_ns",
        b.ns("xml.parse_fragment", 16, || {
            std::hint::black_box(
                parse_fragment(&order.xml, ParseOptions::data_centric()).expect("parses"),
            );
        }),
    );
    put(
        "xml.serialize_mb_s",
        b.mb_s("xml.serialize", doc_xml.len(), || {
            std::hint::black_box(serialize(&doc, &SerializeOptions::default()).expect("ok"));
        }),
    );

    // ---- obs / catalog ----------------------------------------------------
    let hist = axs_obs::Histogram::new();
    put(
        "obs.hist_record_ns",
        b.ns("obs.hist_record", 4096, || {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(i >> 44);
        }),
    );
    let catalog = axs_catalog::Catalog::in_memory(axs_catalog::CatalogConfig::default())
        .map_err(|e| format!("probe catalog: {e}"))?;
    put(
        "catalog.slot_resolve_ns",
        b.ns("catalog.slot_resolve", 256, || {
            std::hint::black_box(catalog.slot_by_id(0).expect("default store"));
        }),
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(v)
}

/// One replayed mutation: applies the parsed fragment to the store and
/// returns the id of the node it produced (0 for a delete).
type Apply<'a> = &'a mut dyn FnMut(&mut XmlStore, Vec<Token>) -> Result<u64, String>;

/// Orders the embedded replay feeds (fewer when the workload has fewer).
const REPLAY_ORDERS: usize = 200;

/// Replace and delete ops the embedded replay adds after the feed.
const REPLAY_CHURN: usize = 24;

/// The embedded replay: the workload's base document and its own orders,
/// fed to an embedded durable store along the server's write path, then
/// read back along both read paths, then queried.
pub fn replay(
    inputs: &Inputs,
    dir: &Path,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let _ = std::fs::remove_dir_all(dir);
    let err = |e: axs_core::StoreError| format!("replay: {e}");
    let mut store = StoreBuilder::new()
        .directory(dir.to_path_buf())
        .build()
        .map_err(err)?;
    let base = inputs.base.tokens();
    let doc_tokens = base.len();
    store.bulk_insert(base).map_err(err)?;
    store.flush().map_err(err)?;
    let locks = LockManager::new();
    let mut v = Values::new();

    // ---- writes: parse → lock → mutate → commit → fsync wait --------------
    let feed: Vec<Arc<Frag>> = inputs
        .feeds
        .first()
        .unwrap_or(&inputs.panel_feed)
        .iter()
        .take(REPLAY_ORDERS)
        .cloned()
        .collect();
    let mut req = 0u64;
    // One write request: the root span is the request, the children are
    // the layers it passes through, in order.
    let mut write = |store: &mut XmlStore,
                     tracer: &mut Tracer,
                     op: &'static str,
                     target: NodeId,
                     xml: Option<&str>,
                     apply: Apply|
     -> Result<u64, String> {
        req += 1;
        tracer.span("replay.write", req, |t| {
            let tokens = match xml {
                Some(xml) => t.span("xml.parse_fragment", req, |_| {
                    parse_fragment(xml, ParseOptions::data_centric())
                        .map_err(|e| format!("replay parse: {e}"))
                })?,
                None => Vec::new(),
            };
            let tx = t.span("lock.acquire", req, |_| {
                let tx = locks.begin();
                let resource = match store.locate_range(target) {
                    Ok(Some((block, range))) => Resource::Range { block, range },
                    _ => Resource::Store,
                };
                locks
                    .lock(tx, resource, LockMode::X)
                    .map(|()| tx)
                    .map_err(|e| format!("replay lock: {e}"))
            })?;
            let id = t.span(op, req, |_| apply(store, tokens));
            let ticket = t.span("core.commit", req, |_| store.commit().map_err(err));
            let waited = match ticket {
                Ok(Some(ticket)) => t.span("storage.fsync_wait", req, |_| {
                    ticket.wait().map_err(|e| format!("replay fsync: {e}"))
                }),
                Ok(None) => Ok(()),
                Err(e) => Err(e),
            };
            locks.unlock_all(tx);
            waited.and(id)
        })
    };
    // The §4.1 feed, as the wire rounds run it.
    let root = NodeId(inputs.base.root_id);
    let mut day: Option<NodeId> = inputs.base.days.last().map(|d| NodeId(d.id));
    let mut in_day = usize::MAX;
    let mut fed: Vec<(u64, Arc<Frag>)> = Vec::new();
    for frag in &feed {
        if in_day >= gen::ORDERS_PER_DAY {
            let opened = match day {
                Some(prev) => write(
                    &mut store,
                    tracer,
                    "core.insert_after",
                    prev,
                    Some("<day/>"),
                    &mut |s, toks| Ok(s.insert_after(prev, toks).map_err(err)?.start.get()),
                ),
                None => write(
                    &mut store,
                    tracer,
                    "core.insert_last",
                    root,
                    Some("<day/>"),
                    &mut |s, toks| Ok(s.insert_into_last(root, toks).map_err(err)?.start.get()),
                ),
            }?;
            day = Some(NodeId(opened));
            in_day = 0;
        }
        let parent = day.expect("a day is open");
        let id = write(
            &mut store,
            tracer,
            "core.insert_last",
            parent,
            Some(&frag.xml),
            &mut |s, toks| Ok(s.insert_into_last(parent, toks).map_err(err)?.start.get()),
        )?;
        in_day += 1;
        fed.push((id, frag.clone()));
    }
    // The mixed-hot writer's other two ops, on the last order fed.
    let (mut victim, _) = fed.pop().ok_or("replay: nothing fed")?;
    let parent = day.expect("a day is open");
    for k in 0..REPLAY_CHURN {
        let frag = &feed[k % feed.len()];
        let target = NodeId(victim);
        victim = if k % 2 == 0 {
            write(
                &mut store,
                tracer,
                "core.replace",
                target,
                Some(&frag.xml),
                &mut |s, toks| Ok(s.replace_node(target, toks).map_err(err)?.start.get()),
            )?
        } else {
            write(
                &mut store,
                tracer,
                "core.delete",
                target,
                None,
                &mut |s, _| s.delete_node(target).map_err(err).map(|()| 0),
            )?;
            write(
                &mut store,
                tracer,
                "core.insert_last",
                parent,
                Some(&frag.xml),
                &mut |s, toks| Ok(s.insert_into_last(parent, toks).map_err(err)?.start.get()),
            )?
        };
    }
    let selfs = tracer.self_times();
    for (metric, span) in [
        ("core.insert_last_ns", "core.insert_last"),
        ("core.replace_ns", "core.replace"),
        ("core.delete_ns", "core.delete"),
        ("core.commit_ns", "core.commit"),
    ] {
        v.insert(metric.to_string(), median_self_ns(&selfs, span));
    }
    // The replay's own view of the steps the standalone probes also time,
    // kept for the budget rows.
    v.insert(
        "replay.fsync_wait_us".to_string(),
        median_self_ns(&selfs, "storage.fsync_wait") / 1e3,
    );
    v.insert(
        "replay.parse_lock_us".to_string(),
        (median_self_ns(&selfs, "xml.parse_fragment") + median_self_ns(&selfs, "lock.acquire"))
            / 1e3,
    );

    // ---- reads: the locked path and the snapshot path ---------------------
    let mut b = Bench { tracer, budget };
    let epochs = store.epoch_registry();
    let ids: Vec<NodeId> = fed.iter().map(|(id, _)| NodeId(*id)).collect();
    let mut k = 0usize;
    v.insert(
        "core.locked_read_ns".to_string(),
        b.ns("core.locked_read", 64, || {
            k = (k + 1) % ids.len();
            std::hint::black_box(store.read_node(ids[k]).expect("fed order"));
        }),
    );
    v.insert(
        "core.snapshot_pin_ns".to_string(),
        b.ns("core.snapshot_pin", 256, || {
            std::hint::black_box(epochs.pin().expect("published"));
        }),
    );
    let pinned = epochs.pin().ok_or("replay: no published epoch")?;
    v.insert(
        "core.snapshot_read_ns".to_string(),
        b.ns("core.snapshot_read", 64, || {
            k = (k + 1) % ids.len();
            std::hint::black_box(ReadView::read_node(&*pinned, ids[k]).expect("fed order"));
        }),
    );
    drop(pinned);
    let all_bytes = gen::token_bytes(&store.read_all().map_err(err)?);
    v.insert(
        "core.read_all_mb_s".to_string(),
        b.mb_s("core.read_all", all_bytes as usize, || {
            std::hint::black_box(store.read_all().expect("scan"));
        }),
    );

    // ---- queries: the rotation, compiled and evaluated in process ----------
    let xpaths: Vec<&str> = inputs
        .queries
        .iter()
        .filter(|q| q.kind == gen::QueryKind::XPath)
        .map(|q| q.text.as_str())
        .collect();
    let flwors: Vec<&str> = inputs
        .queries
        .iter()
        .filter(|q| q.kind == gen::QueryKind::Flwor)
        .map(|q| q.text.as_str())
        .collect();
    v.insert(
        "xpath.compile_ns".to_string(),
        b.ns("xpath.compile", xpaths.len(), || {
            k = (k + 1) % xpaths.len();
            std::hint::black_box(axs_xpath::compile(xpaths[k]).expect("compiles"));
        }),
    );
    v.insert(
        "xquery.parse_ns".to_string(),
        b.ns("xquery.parse", flwors.len(), || {
            k = (k + 1) % flwors.len();
            std::hint::black_box(axs_xquery::parse_flwor(flwors[k]).expect("parses"));
        }),
    );
    let mut matches = 0usize;
    let mut eval_us = Vec::new();
    for text in &xpaths {
        let compiled = axs_xpath::compile(text).map_err(|e| format!("replay xpath: {e}"))?;
        let t0 = Instant::now();
        let found = b
            .tracer
            .span("xpath.eval", 0, |_| {
                axs_xpath::evaluate_store(&store, &compiled)
            })
            .map_err(err)?;
        eval_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        matches += found.len();
    }
    v.insert("xpath.eval_us".to_string(), stat::median(&eval_us));
    v.insert(
        "xpath.tokens_examined_per_match".to_string(),
        (doc_tokens * xpaths.len()) as f64 / matches.max(1) as f64,
    );
    eval_us.clear();
    for text in &flwors {
        let q = axs_xquery::parse_flwor(text).map_err(|e| format!("replay flwor: {e}"))?;
        let t0 = Instant::now();
        b.tracer
            .span("xquery.eval", 0, |_| axs_xquery::evaluate_flwor(&store, &q))
            .map_err(err)?;
        eval_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    v.insert("xquery.eval_us".to_string(), stat::median(&eval_us));
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(v)
}

/// The in-process Table 5 grid (the existing harness, file-backed under
/// the process's `TMPDIR`): `core.t5.<row>.<insert|scan|read>_kb_s` plus
/// `core.t5.cells_in_order`, the number of the paper's eight ordering
/// claims the grid bears out (reported, not gated).
pub fn table5_grid(seed: u64, shrink: usize, tracer: &mut Tracer) -> Values {
    let cfg = Table5Config {
        orders: (1000 / shrink).max(40),
        random_reads: (4000 / shrink).max(80),
        read_working_set: (800 / shrink).max(20),
        seed,
        ..Table5Config::default()
    };
    let mut v = Values::new();
    let mut cell = BTreeMap::new();
    for approach in Approach::ALL {
        let key = approach_key(approach);
        let (insert, mut store) = tracer.span("core.t5.insert", 0, |_| {
            axs_bench::bench_insert(approach, &cfg)
        });
        let scan = tracer.span("core.t5.scan", 0, |_| axs_bench::bench_seq_scan(&mut store));
        let read = tracer.span("core.t5.read", 0, |_| {
            axs_bench::bench_random_reads(&mut store, &cfg)
        });
        for (col, m) in [("insert", insert), ("scan", scan), ("read", read)] {
            v.insert(format!("core.t5.{key}.{col}_kb_s"), m.kb_per_sec());
            cell.insert((key, col), m.kb_per_sec());
        }
    }
    axs_bench::cleanup_temp();
    let c = |row: &'static str, col: &'static str| cell[&(row, col)];
    let scans: Vec<f64> = ["full", "granular", "coarse", "lazy"]
        .iter()
        .map(|r| c(r, "scan"))
        .collect();
    let flat = scans.iter().cloned().fold(f64::INFINITY, f64::min)
        >= 0.8 * scans.iter().cloned().fold(0.0, f64::max);
    // §7 / Table 5: inserts — full slowest, granular slower than coarse,
    // lazy at least as fast as coarse; scan — flat; random reads — coarse
    // slowest, lazy fastest.
    let claims = [
        c("full", "insert") < c("granular", "insert"),
        c("granular", "insert") < c("coarse", "insert"),
        c("lazy", "insert") >= 0.9 * c("coarse", "insert"),
        flat,
        c("coarse", "read") < c("granular", "read"),
        c("coarse", "read") < c("full", "read"),
        c("lazy", "read") > c("full", "read"),
        c("lazy", "read") > c("granular", "read"),
    ];
    v.insert(
        "core.t5.cells_in_order".to_string(),
        claims.iter().filter(|&&held| held).count() as f64,
    );
    v
}
