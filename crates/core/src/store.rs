//! The XML store: state, builder, lookup and placement machinery.
//!
//! Physical organization (§4.4): the data file is a chain of slotted blocks
//! (see `axs-storage::block`), each holding ordered ranges; document order is
//! block-chain order × slot order. The index file holds the paged B+-trees
//! (Range Index and, under the full-index policy, the per-node Full Index).
//! The Partial Index is memory-resident by design (§5, Table 5 row 4).

use crate::adapt::{AdaptEventKind, AdaptLog};
use crate::error::StoreError;
use crate::mvcc::{EpochRegistry, LazyRange, MvccStats};
use crate::policy::{AdaptiveController, AdaptiveDecision, IndexingPolicy};
use crate::range::{chop_fragment, RangeData, RangeHeader, RANGE_HEADER_LEN};
use crate::stats::{LookupPath, SharedStats, StoreStats};
use axs_idgen::MonotonicIds;
use axs_index::{BTree, NodePosition, PartialIndex, RangeEntry, RangeIndex};
use axs_storage::page::{get_u64, put_u64};
use axs_storage::{
    block, checksum, BufferPool, CommitTicket, FilePageStore, GroupCommitStats, MemPageStore,
    PageId, PageStore, PoolOptions, PoolStats, RetryPolicy, StorageConfig, StorageError, Wal,
};
use axs_xdm::{fragment_well_formed, NodeId, Token};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Width of a full-index value: begin token position as
/// `(range_id u64, token_index u32, byte_offset u32)`.
const FULL_VALUE_SIZE: usize = 16;

/// Reported by [`XmlStore::insert_fragment`] when the insert split an
/// existing range: tokens of `range_id` at positions `>= at` now live in
/// `right_range_id` (rebased by `-at`). The ops layer uses this to refresh
/// the target node's memoized position (the paper's Table 4).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitInfo {
    pub range_id: u64,
    pub at: u32,
    /// Byte offset of token `at` in the original payload (== the left
    /// half's encoded length), used to rebase memoized byte offsets.
    pub at_byte: u32,
    pub right_range_id: u64,
}

const META_MAGIC: u64 = 0x4158_535F_4D45_5441; // "AXS_META"
const FREE_PAGE_MAGIC: u64 = 0x4158_535F_4652_4545; // "AXS_FREE"

/// A hook interposed between the data file and its buffer pool (fault
/// injection wraps the store here).
type StoreWrapper = Box<dyn Fn(Arc<dyn PageStore>) -> Arc<dyn PageStore>>;

/// Builder for an [`XmlStore`].
pub struct StoreBuilder {
    policy: IndexingPolicy,
    storage: StorageConfig,
    dir: Option<PathBuf>,
    retry: RetryPolicy,
    wrap_data: Option<StoreWrapper>,
    commit_window: std::time::Duration,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreBuilder {
    /// Default configuration: lazy policy (coarse ranges + partial index),
    /// 8 KiB pages, in-memory backing, three transient-I/O retries.
    pub fn new() -> Self {
        StoreBuilder {
            policy: IndexingPolicy::default_lazy(),
            storage: StorageConfig::default(),
            dir: None,
            retry: RetryPolicy { max_retries: 3 },
            wrap_data: None,
            commit_window: std::time::Duration::ZERO,
        }
    }

    /// Sets the group-commit window: how long a commit-fsync leader waits
    /// for more commits to queue behind it before issuing one shared
    /// `fsync` (see [`XmlStore::commit`]). Zero (the default) syncs
    /// immediately; 0–2 ms is the useful range.
    pub fn commit_window(mut self, window: std::time::Duration) -> Self {
        self.commit_window = window;
        self
    }

    /// Sets the indexing policy.
    pub fn policy(mut self, policy: IndexingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets page size and buffer-pool size.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Backs the store by `data.pages` / `index.pages` / `wal.log` files in
    /// `dir` (created if missing).
    pub fn directory(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Backs the store by memory (default).
    pub fn in_memory(mut self) -> Self {
        self.dir = None;
        self
    }

    /// How many transient (`Interrupted`) I/O errors the buffer pools
    /// absorb per operation before surfacing them (see
    /// `StoreStats::io_retries`).
    pub fn io_retries(mut self, max_retries: u32) -> Self {
        self.retry = RetryPolicy { max_retries };
        self
    }

    /// Interposes `wrap` between the data file and its buffer pool — the
    /// hook fault-injection tests use to wrap the store in a
    /// `FaultyPageStore` (crash/torn-write/transient schedules) without
    /// touching files externally.
    pub fn wrap_data_store(
        mut self,
        wrap: impl Fn(Arc<dyn PageStore>) -> Arc<dyn PageStore> + 'static,
    ) -> Self {
        self.wrap_data = Some(Box::new(wrap));
        self
    }

    fn make_pools(&self) -> Result<(Arc<BufferPool>, Arc<BufferPool>), StoreError> {
        self.storage.validate()?;
        let (data, index, durable): (Arc<dyn PageStore>, Arc<dyn PageStore>, bool) = match &self.dir
        {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(StorageError::Io)?;
                (
                    Arc::new(FilePageStore::open(
                        &dir.join("data.pages"),
                        self.storage.page_size,
                    )?),
                    Arc::new(FilePageStore::open(
                        &dir.join("index.pages"),
                        self.storage.page_size,
                    )?),
                    true,
                )
            }
            None => (
                Arc::new(MemPageStore::new(self.storage.page_size)),
                Arc::new(MemPageStore::new(self.storage.page_size)),
                false,
            ),
        };
        let data = match &self.wrap_data {
            Some(wrap) => wrap(data),
            None => data,
        };
        // Durable stores run the data pool in no-steal + checksum mode: a
        // dirty page can only reach the file through flush(), after its
        // image is committed to the WAL, and every physical read verifies
        // the page stamp. In-memory stores keep the classic steal/LRU cache
        // the experiments measure. Indexes are derived data (rebuilt on
        // open), so the index pool never needs either guarantee.
        let data_opts = PoolOptions {
            checksums: durable,
            no_steal: durable,
            retry: self.retry,
        };
        let index_opts = PoolOptions {
            retry: self.retry,
            ..PoolOptions::default()
        };
        Ok((
            Arc::new(BufferPool::with_options(
                data,
                self.storage.pool_frames,
                data_opts,
            )),
            Arc::new(BufferPool::with_options(
                index,
                self.storage.pool_frames,
                index_opts,
            )),
        ))
    }

    /// Creates a fresh, empty store. Fails if a directory backing already
    /// contains data (use [`StoreBuilder::open`]).
    pub fn build(self) -> Result<XmlStore, StoreError> {
        let (data_pool, index_pool) = self.make_pools()?;
        if data_pool.store().num_pages() != 0 {
            return Err(StoreError::Corrupt(
                "directory already contains a store; use open()",
            ));
        }
        let wal = match &self.dir {
            Some(dir) => {
                let wal = Wal::create(&dir.join("wal.log"), self.storage.page_size)?;
                wal.group_commit().set_window(self.commit_window);
                Some(wal)
            }
            None => None,
        };
        let meta_page = data_pool.allocate()?;
        debug_assert_eq!(meta_page, PageId(0));
        let mut store = XmlStore::empty(self.policy, data_pool, index_pool, meta_page)?;
        store.wal = wal;
        store.write_meta()?;
        store.publish_epoch(0)?;
        Ok(store)
    }

    /// Opens an existing directory-backed store: runs crash recovery
    /// (repair torn file tails, replay committed WAL batches, discard the
    /// rest), then rebuilds the indexes by scanning the data file (indexes
    /// are derived data).
    pub fn open(self) -> Result<XmlStore, StoreError> {
        let dir = self
            .dir
            .clone()
            .ok_or(StoreError::Corrupt("open() requires a directory backing"))?;
        self.storage.validate()?;
        let page_size = self.storage.page_size;
        std::fs::create_dir_all(&dir).map_err(StorageError::Io)?;
        let data_path = dir.join("data.pages");

        // ---- recovery (before any pool caches a page) ---------------------
        // 1. A crash mid-page-write leaves a torn tail on the data file;
        //    drop the partial page. Complete-but-stale pages are repaired by
        //    WAL replay below, torn interior pages are caught by checksums.
        let mut torn_tails = 0u64;
        if FilePageStore::repair_tail(&data_path, page_size)? > 0 {
            torn_tails += 1;
        }
        // 2. Scan the WAL: committed batches are replayed (redo), the torn
        //    or uncommitted tail is discarded — those flushes never promised
        //    durability.
        let (mut wal, scan) = Wal::recover(&dir.join("wal.log"), page_size)?;
        wal.group_commit().set_window(self.commit_window);
        if scan.torn_tail_bytes > 0 {
            torn_tails += 1;
        }
        let replayed: u64 = scan.batches.iter().map(|b| b.len() as u64).sum();
        if replayed > 0 {
            let raw = FilePageStore::open(&data_path, page_size)?;
            for batch in &scan.batches {
                for img in batch {
                    // The torn page dropped in step 1 may be one the batch
                    // rewrites; re-extend the file as needed.
                    while img.page.0 >= raw.num_pages() {
                        raw.allocate_page()?;
                    }
                    let mut page = img.image.clone();
                    checksum::stamp_page(&mut page, img.lsn);
                    raw.write_page(img.page, &page)?;
                }
            }
            raw.sync()?;
        }
        wal.reset()?;
        // 3. The index file is derived data, rebuilt from the chain below;
        //    starting it empty also recovers from torn index writes.
        std::fs::write(dir.join("index.pages"), []).map_err(StorageError::Io)?;

        // ---- normal open --------------------------------------------------
        let (data_pool, index_pool) = self.make_pools()?;
        if data_pool.store().num_pages() == 0 {
            return Err(StoreError::Corrupt("no store found; use build()"));
        }
        let meta_page = PageId(0);
        let (magic, head, tail, next_id, next_range, free_head) =
            data_pool.read(meta_page, |buf| {
                (
                    get_u64(buf, 0),
                    PageId(get_u64(buf, 8)),
                    PageId(get_u64(buf, 16)),
                    get_u64(buf, 32),
                    get_u64(buf, 40),
                    PageId(get_u64(buf, 48)),
                )
            })?;
        if magic != META_MAGIC {
            return Err(StoreError::Corrupt("bad meta page magic"));
        }
        let mut store = XmlStore::empty(self.policy, data_pool, index_pool, meta_page)?;
        store.wal = Some(wal);
        store.head_block = head;
        store.tail_block = tail;
        store.ids = MonotonicIds::resume(NodeId(next_id.max(NodeId::FIRST.0)));
        store.next_range_id = next_range.max(1);
        store.free_head = free_head;
        store.stats.recoveries.store(
            u64::from(replayed > 0),
            std::sync::atomic::Ordering::Relaxed,
        );
        store
            .stats
            .torn_tail_truncations
            .store(torn_tails, std::sync::atomic::Ordering::Relaxed);
        store.rebuild_indexes()?;
        // Epoch 1 is the recovered state: exactly the WAL-committed prefix.
        store.publish_epoch(0)?;
        Ok(store)
    }
}

/// The adaptive XML store.
///
/// ```
/// use axs_core::StoreBuilder;
/// use axs_xdm::NodeId;
/// use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
///
/// let mut store = StoreBuilder::new().build()?;
/// let doc = parse_fragment("<ticket><hour>15</hour></ticket>", ParseOptions::default())?;
/// let ids = store.bulk_insert(doc)?;                 // ticket=1, hour=2, "15"=3
/// assert_eq!(ids.start, NodeId(1));
///
/// store.insert_into_last(
///     NodeId(1),
///     parse_fragment("<name>Paul</name>", ParseOptions::default())?,
/// )?;
/// let text = serialize(&store.read_all()?, &SerializeOptions::default())?;
/// assert_eq!(text, "<ticket><hour>15</hour><name>Paul</name></ticket>");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct XmlStore {
    data_pool: Arc<BufferPool>,
    index_pool: Arc<BufferPool>,
    page_size: usize,
    meta_page: PageId,
    head_block: PageId,
    tail_block: PageId,
    ids: MonotonicIds,
    next_range_id: u64,
    range_index: RangeIndex,
    /// Range directory: stable range id → current block. Memory-resident
    /// catalog (one entry per range) so block moves never touch index
    /// entries or memoized positions.
    range_dir: HashMap<u64, PageId>,
    full_index: Option<BTree>,
    partial: Option<PartialIndex>,
    /// Head of the free-page list (pages recovered from emptied blocks).
    free_head: PageId,
    /// Write-ahead log for directory-backed stores (None in memory).
    wal: Option<Wal>,
    /// The adaptive controller sits behind a mutex so concurrent shared
    /// readers can feed it observations without exclusive store access.
    adaptive: Option<Mutex<AdaptiveController>>,
    /// Decision log: admit/evict/skip/retune events with reasons, always-on
    /// counters (`adapt.*`), ring entries only while a trace is open.
    decision_log: AdaptLog,
    /// Target encoded range size — atomic so adaptive decisions reached
    /// under shared access apply without a writer in between.
    target_range_bytes: AtomicUsize,
    policy: IndexingPolicy,
    stats: SharedStats,
    /// Epoch lifecycle for MVCC snapshot reads; shared with the server
    /// sessions that pin epochs, so it outlives catalog eviction.
    epochs: Arc<EpochRegistry>,
    /// Ranges whose payload changed since the last published snapshot —
    /// the copy-on-write set: only these are re-copied at publish time.
    mvcc_dirty: HashSet<u64>,
}

impl XmlStore {
    fn empty(
        policy: IndexingPolicy,
        data_pool: Arc<BufferPool>,
        index_pool: Arc<BufferPool>,
        meta_page: PageId,
    ) -> Result<XmlStore, StoreError> {
        let page_size = data_pool.page_size();
        let range_index = RangeIndex::create(index_pool.clone())?;
        let full_index = if policy.uses_full_index() {
            Some(BTree::create(index_pool.clone(), FULL_VALUE_SIZE)?)
        } else {
            None
        };
        let partial = policy.initial_partial().map(PartialIndex::new);
        let adaptive = match &policy {
            IndexingPolicy::Adaptive(cfg) => Some(Mutex::new(AdaptiveController::new(cfg.clone()))),
            _ => None,
        };
        let target_range_bytes = policy
            .initial_target_range_bytes()
            .min(block::max_payload(page_size))
            .max(RANGE_HEADER_LEN + 16);
        Ok(XmlStore {
            data_pool,
            index_pool,
            page_size,
            meta_page,
            head_block: PageId::NONE,
            tail_block: PageId::NONE,
            free_head: PageId::NONE,
            wal: None,
            ids: MonotonicIds::new(),
            next_range_id: 1,
            range_index,
            range_dir: HashMap::new(),
            full_index,
            partial,
            adaptive,
            decision_log: AdaptLog::new(),
            target_range_bytes: AtomicUsize::new(target_range_bytes),
            policy,
            stats: SharedStats::default(),
            epochs: Arc::new(EpochRegistry::default()),
            mvcc_dirty: HashSet::new(),
        })
    }

    /// The configured indexing policy.
    pub fn policy(&self) -> &IndexingPolicy {
        &self.policy
    }

    /// Activity counters.
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.stats.snapshot();
        stats.io_retries = self.data_pool.stats().io_retries + self.index_pool.stats().io_retries;
        stats
    }

    /// The live atomic counters, shareable across threads (the server
    /// records per-session activity through this without `&mut`).
    pub fn shared_stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Buffer-pool counters for the data file.
    pub fn data_pool_stats(&self) -> PoolStats {
        self.data_pool.stats()
    }

    /// Buffer-pool counters for the index file.
    pub fn index_pool_stats(&self) -> PoolStats {
        self.index_pool.stats()
    }

    /// Partial-index counters (zeroed struct when the policy has none).
    pub fn partial_stats(&self) -> axs_index::PartialIndexStats {
        self.partial.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Zeroes all counters (store, pools, partial index).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.data_pool.reset_stats();
        self.index_pool.reset_stats();
        if let Some(p) = &self.partial {
            p.reset_stats();
        }
    }

    /// Number of ranges currently stored.
    pub fn range_count(&self) -> usize {
        self.range_dir.len()
    }

    /// Entries of the Range Index in start-id order (Tables 2/3 of the
    /// paper). For inspection and tests.
    pub fn range_index_entries(&self) -> Result<Vec<RangeEntry>, StoreError> {
        Ok(self.range_index.entries()?)
    }

    /// Locates the range covering `id` via the Range Index — `(block page,
    /// stable range id)` — without touching per-lookup statistics or the
    /// partial index. The server uses this to map a node id onto its
    /// lockable resource before acquiring hierarchical locks.
    pub fn locate_range(&self, id: NodeId) -> Result<Option<(u64, u64)>, StoreError> {
        let probe = axs_obs::probe_start();
        let located = self.range_index.locate(id)?;
        axs_obs::probe(axs_obs::EventKind::RangeProbe, probe, id.0, 0);
        Ok(located.map(|e| (e.block.0, e.range_id)))
    }

    /// Direct read access to the partial index (for inspection).
    pub fn partial_index(&self) -> Option<&PartialIndex> {
        self.partial.as_ref()
    }

    /// Drops every memoized partial-index entry. Results must be unaffected
    /// (invariant 5 of DESIGN.md) — only performance changes.
    pub fn clear_partial_index(&mut self) {
        if let Some(p) = &self.partial {
            p.clear();
        }
    }

    /// The current target encoded size of ranges created by inserts.
    pub fn target_range_bytes(&self) -> usize {
        self.target_range_bytes.load(Ordering::Relaxed)
    }

    /// The adaptive controller, when the policy is adaptive (locked for
    /// the duration of the returned guard).
    pub fn adaptive_controller(&self) -> Option<MutexGuard<'_, AdaptiveController>> {
        self.adaptive.as_ref().map(Mutex::lock)
    }

    /// The adaptive-index decision log (admit/evict/skip/retune events).
    pub fn decision_log(&self) -> &AdaptLog {
        &self.decision_log
    }

    /// The identifier the next insert will start allocating at.
    pub fn next_node_id(&self) -> NodeId {
        self.ids.peek()
    }

    /// First block of the chain (NONE when empty) — exposed for audits.
    pub fn head_block(&self) -> PageId {
        self.head_block
    }

    /// Page size of the data file.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of Range Index entries.
    pub fn range_index_len(&self) -> u64 {
        self.range_index.len()
    }

    /// Pages allocated in the index file.
    pub fn index_file_pages(&self) -> u64 {
        self.index_pool.store().num_pages()
    }

    /// The block after `page` in the chain.
    pub(crate) fn next_block(&self, page: PageId) -> Result<Option<PageId>, StoreError> {
        Ok(self.data_pool.read(page, block::next)?.into_option())
    }

    /// Inserts a Range Index entry (maintenance helper).
    pub(crate) fn range_index_insert(
        &mut self,
        interval: axs_xdm::IdInterval,
        block_page: PageId,
        range_id: u64,
    ) -> Result<(), StoreError> {
        self.range_index.insert(RangeEntry {
            interval,
            block: block_page,
            range_id,
        })?;
        Ok(())
    }

    /// Removes a range for a compaction merge: slot, directory entry,
    /// Range Index entry, and memoized positions. `keep_block` is never
    /// unlinked even when emptied — the merged range is about to be placed
    /// there.
    pub(crate) fn drop_range_for_merge(
        &mut self,
        header: &crate::range::RangeHeader,
        keep_block: PageId,
    ) -> Result<(), StoreError> {
        let range_id = header.range_id;
        let block_page = self.block_of_range(range_id)?;
        let slot = self.find_slot(block_page, range_id)?;
        self.data_pool.write(block_page, |buf| {
            block::remove_range(buf, block_page, slot).map(|_| ())
        })??;
        self.range_dir.remove(&range_id);
        if let Some(iv) = header.interval() {
            self.range_index.remove(iv.start)?;
        }
        if let Some(p) = &self.partial {
            p.invalidate_range(range_id);
        }
        if block_page != keep_block && self.block_range_count(block_page)? == 0 {
            self.unlink_block(block_page)?;
        }
        Ok(())
    }

    /// Flushes dirty pages and metadata to the backing stores.
    ///
    /// Directory-backed stores flush with a redo protocol: every dirty data
    /// page's image is appended to the WAL and committed (fsync) *before*
    /// any of them is written in place, so a crash at any point leaves
    /// either the previous flush's state (commit record absent — the batch
    /// is discarded at recovery) or this one (commit present — the batch is
    /// replayed over any torn in-place writes). Once the data file itself
    /// is synced the WAL is reset, bounding it at one flush's dirty set.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.write_meta()?;
        if let Some(wal) = &mut self.wal {
            let images = self.data_pool.dirty_page_images();
            if !images.is_empty() {
                let mut last_lsn = 0;
                for (page, image) in &images {
                    last_lsn = wal.append_image(*page, image)?;
                }
                wal.commit()?;
                SharedStats::add(&self.stats.wal_records, images.len() as u64 + 1);
                // In-place pages are stamped with the batch's final LSN so a
                // later checksum failure identifies *which* flush tore.
                self.data_pool.set_stamp_lsn(last_lsn);
            }
            self.data_pool.sync()?;
            wal.reset()?;
        } else {
            self.data_pool.sync()?;
        }
        self.index_pool.sync()?;
        self.publish_epoch(0)?;
        Ok(())
    }

    /// Commits the changes made since the last commit or flush: appends the
    /// pages newly dirtied since then to the WAL, seals them with a commit
    /// record, and returns a [`CommitTicket`] whose [`CommitTicket::wait`]
    /// makes the batch durable through the group-commit fsync batcher.
    ///
    /// This is the amortized-durability write path: the caller mutates and
    /// commits under exclusive access, *releases* that access, and only then
    /// waits on the ticket — so commits from concurrently queued writers
    /// share one fsync (see [`StoreBuilder::commit_window`]). Unlike
    /// [`XmlStore::flush`], no data page reaches the data file and the WAL
    /// keeps growing until the next flush; recovery replays the committed
    /// batches in order. Every commit publishes exactly one new MVCC epoch.
    /// Returns `Ok(None)` for in-memory stores, which have nothing to make
    /// durable.
    pub fn commit(&mut self) -> Result<Option<CommitTicket>, StoreError> {
        let _span = axs_obs::span_enter(axs_obs::EventKind::Commit, 0, 0);
        self.write_meta()?;
        let Some(wal) = self.wal.as_mut() else {
            self.publish_epoch(0)?;
            return Ok(None);
        };
        let images = self.data_pool.unlogged_dirty_images();
        let mut last_lsn = 0;
        for (page, image) in &images {
            last_lsn = wal.append_image(*page, image)?;
        }
        let ticket = wal.commit_nosync()?;
        SharedStats::add(&self.stats.wal_records, images.len() as u64 + 1);
        if last_lsn > 0 {
            self.data_pool.set_stamp_lsn(last_lsn);
        }
        // Publish only after the batch is sealed in the WAL and before the
        // caller waits on the group fsync: snapshot readers may observe the
        // commit before its fsync completes, and a crash in that window
        // erases the epoch together with the batch on replay. The caller
        // holds exclusive access, so publishes are totally ordered with the
        // mutations they describe.
        self.publish_epoch(ticket.lsn())?;
        Ok(Some(ticket))
    }

    // ---- MVCC snapshot publication -----------------------------------------

    /// The per-store epoch registry. Shared (`Arc`) with server sessions so
    /// pinned snapshots stay readable across catalog eviction of the store.
    pub fn epoch_registry(&self) -> Arc<EpochRegistry> {
        self.epochs.clone()
    }

    /// Epoch lifecycle counters (the `mvcc.*` stat entries).
    pub fn mvcc_stats(&self) -> MvccStats {
        self.epochs.stats()
    }

    /// Marks a range's payload as changed since the last snapshot; publish
    /// re-copies exactly these and shares every other range's `Arc` with
    /// the previous epoch.
    fn mark_range_dirty(&mut self, range_id: u64) {
        self.mvcc_dirty.insert(range_id);
    }

    /// Publishes the current range chain as the next epoch — the one
    /// routine behind commit, flush, build and open. Copy-on-write at range
    /// granularity: the walk peeks each slot's range header and shares the
    /// previous epoch's (possibly already decoded) `Arc<LazyRange>` unless
    /// the range is dirty or new; only then is the payload copied, and it
    /// re-enters lazily, decoded on first snapshot read. A range dirtied
    /// and then merged away in the same batch is simply not on the chain.
    fn publish_epoch(&mut self, lsn: u64) -> Result<(), StoreError> {
        let prev = self.epochs.current();
        let counter = self.epochs.materialized_counter();
        let mut ranges = Vec::with_capacity(self.range_dir.len());
        let mut cur = self.first_range_pos()?;
        while let Some((b, s)) = cur {
            let range = self
                .data_pool
                .read(b, |buf| -> Result<Arc<LazyRange>, StoreError> {
                    let payload = block::range_bytes(buf, b, s)?;
                    let range_id = RangeHeader::decode(payload)?.range_id;
                    let shared = if self.mvcc_dirty.contains(&range_id) {
                        None
                    } else {
                        prev.as_ref().and_then(|p| p.range_arc(range_id))
                    };
                    match shared {
                        Some(range) => Ok(range),
                        None => Ok(Arc::new(LazyRange::from_payload(
                            payload.to_vec(),
                            counter.clone(),
                        )?)),
                    }
                })??;
            ranges.push(range);
            cur = self.next_range_pos(b, s)?;
        }
        self.epochs.publish(lsn, ranges);
        self.mvcc_dirty.clear();
        Ok(())
    }

    /// Group-commit activity (fsync batching behind [`XmlStore::commit`]);
    /// `None` for in-memory stores.
    pub fn group_commit_stats(&self) -> Option<GroupCommitStats> {
        self.wal.as_ref().map(|w| w.group_commit().stats())
    }

    /// Adjusts the group-commit window at runtime (see
    /// [`StoreBuilder::commit_window`]). No-op for in-memory stores.
    pub fn set_commit_window(&self, window: std::time::Duration) {
        if let Some(wal) = &self.wal {
            wal.group_commit().set_window(window);
        }
    }

    fn write_meta(&mut self) -> Result<(), StoreError> {
        let head = self.head_block;
        let tail = self.tail_block;
        let next_id = self.ids.peek().0;
        let next_range = self.next_range_id;
        let free_head = self.free_head;
        self.data_pool.write(self.meta_page, |buf| {
            put_u64(buf, 0, META_MAGIC);
            put_u64(buf, 8, head.0);
            put_u64(buf, 16, tail.0);
            // [24, 32) is the uniform page stamp window (checksum::).
            put_u64(buf, 32, next_id);
            put_u64(buf, 40, next_range);
            put_u64(buf, 48, free_head.0);
        })?;
        Ok(())
    }

    // ---- adaptive plumbing ------------------------------------------------
    //
    // Both hooks take `&self`: reads feed the controller while holding only
    // shared store access, so the controller lives behind its own mutex and
    // decisions land in atomics / the internally-synchronized partial index.

    pub(crate) fn observe_read_op(&self) {
        if let Some(ctl) = &self.adaptive {
            let mut ctl = ctl.lock();
            if let Some(decision) = ctl.observe_read() {
                let (cap, target, pct) = (
                    ctl.partial_capacity(),
                    ctl.target_range_bytes(),
                    ctl.last_read_pct(),
                );
                drop(ctl);
                self.apply_adaptive(decision, cap, target, pct);
            }
        }
    }

    pub(crate) fn observe_update_op(&self) {
        if let Some(ctl) = &self.adaptive {
            let mut ctl = ctl.lock();
            if let Some(decision) = ctl.observe_update() {
                let (cap, target, pct) = (
                    ctl.partial_capacity(),
                    ctl.target_range_bytes(),
                    ctl.last_read_pct(),
                );
                drop(ctl);
                self.apply_adaptive(decision, cap, target, pct);
            }
        }
    }

    fn apply_adaptive(&self, decision: AdaptiveDecision, cap: usize, target: usize, read_pct: u64) {
        let (kind, reason) = match decision {
            AdaptiveDecision::FavorReads => (AdaptEventKind::GrowPartial, "read-heavy-window"),
            AdaptiveDecision::FavorUpdates => {
                (AdaptEventKind::ShrinkPartial, "update-heavy-window")
            }
            AdaptiveDecision::Hold => (AdaptEventKind::Hold, "mixed-window"),
        };
        self.decision_log
            .record(kind, 0, cap as u64, read_pct, reason);
        self.target_range_bytes.store(
            target
                .min(block::max_payload(self.page_size))
                .max(RANGE_HEADER_LEN + 16),
            Ordering::Relaxed,
        );
        // The adaptive policy always starts with a partial index
        // (`IndexingPolicy::initial_partial`), so only the capacity moves.
        if let Some(p) = &self.partial {
            let evicted = p.set_capacity(cap);
            if evicted > 0 {
                self.decision_log.record(
                    AdaptEventKind::Evict,
                    0,
                    evicted as u64,
                    cap as u64,
                    "budget-shrink",
                );
            }
        }
    }

    // ---- block helpers ----------------------------------------------------

    fn new_block(&mut self) -> Result<PageId, StoreError> {
        // Reuse a freed page when one is available.
        let page = match self.free_head.into_option() {
            Some(page) => {
                let next_free = self.data_pool.read(page, |buf| PageId(get_u64(buf, 8)))?;
                self.free_head = next_free;
                page
            }
            None => self.data_pool.allocate()?,
        };
        self.data_pool.write(page, block::init)?;
        Ok(page)
    }

    /// Pushes a page onto the free list. The page is stamped so audits can
    /// tell free pages from corrupt blocks.
    fn free_block(&mut self, page: PageId) -> Result<(), StoreError> {
        let next_free = self.free_head;
        self.data_pool.write(page, |buf| {
            buf[..16].fill(0);
            put_u64(buf, 0, FREE_PAGE_MAGIC);
            put_u64(buf, 8, next_free.0);
        })?;
        self.free_head = page;
        Ok(())
    }

    /// Number of pages on the free list (audits / reports).
    pub(crate) fn free_page_count(&self) -> Result<u64, StoreError> {
        let mut n = 0;
        let mut cur = self.free_head;
        while let Some(p) = cur.into_option() {
            n += 1;
            cur = self.data_pool.read(p, |buf| PageId(get_u64(buf, 8)))?;
        }
        Ok(n)
    }

    /// Links `new` into the chain immediately after `after`.
    fn link_after(&mut self, after: PageId, new: PageId) -> Result<(), StoreError> {
        let old_next = self.data_pool.write(after, |buf| {
            let n = block::next(buf);
            block::set_next(buf, new);
            n
        })?;
        self.data_pool.write(new, |buf| {
            block::set_prev(buf, after);
            block::set_next(buf, old_next);
        })?;
        match old_next.into_option() {
            Some(n) => {
                self.data_pool.write(n, |buf| block::set_prev(buf, new))?;
            }
            None => self.tail_block = new,
        }
        Ok(())
    }

    /// Unlinks an empty block from the chain.
    fn unlink_block(&mut self, page: PageId) -> Result<(), StoreError> {
        let (prev, next) = self
            .data_pool
            .read(page, |buf| (block::prev(buf), block::next(buf)))?;
        match prev.into_option() {
            Some(p) => {
                self.data_pool.write(p, |buf| block::set_next(buf, next))?;
            }
            None => self.head_block = next,
        }
        match next.into_option() {
            Some(n) => {
                self.data_pool.write(n, |buf| block::set_prev(buf, prev))?;
            }
            None => self.tail_block = prev,
        }
        self.free_block(page)?;
        Ok(())
    }

    pub(crate) fn block_range_count(&self, page: PageId) -> Result<u16, StoreError> {
        Ok(self.data_pool.read(page, block::num_ranges)?)
    }

    /// Finds the slot of `range_id` within `block` by scanning payload
    /// headers.
    pub(crate) fn find_slot(&self, block_page: PageId, range_id: u64) -> Result<u16, StoreError> {
        let found = self.data_pool.read(block_page, |buf| {
            let n = block::num_ranges(buf);
            for slot in 0..n {
                let payload = block::range_bytes(buf, block_page, slot)?;
                if payload.len() >= 8 {
                    let rid = u64::from_le_bytes(payload[0..8].try_into().unwrap());
                    if rid == range_id {
                        return Ok(Some(slot));
                    }
                }
            }
            Ok::<Option<u16>, StorageError>(None)
        })??;
        found.ok_or(StoreError::Corrupt("range id not found in its block"))
    }

    pub(crate) fn block_of_range(&self, range_id: u64) -> Result<PageId, StoreError> {
        self.range_dir
            .get(&range_id)
            .copied()
            .ok_or(StoreError::Corrupt("range id missing from range directory"))
    }

    pub(crate) fn load_range_at(
        &self,
        block_page: PageId,
        slot: u16,
    ) -> Result<RangeData, StoreError> {
        let payload = self.data_pool.read(block_page, |buf| {
            block::range_bytes(buf, block_page, slot).map(<[u8]>::to_vec)
        })??;
        RangeData::decode(&payload)
    }

    pub(crate) fn load_range(&self, range_id: u64) -> Result<(PageId, u16, RangeData), StoreError> {
        let block_page = self.block_of_range(range_id)?;
        let slot = self.find_slot(block_page, range_id)?;
        let data = self.load_range_at(block_page, slot)?;
        Ok((block_page, slot, data))
    }

    /// The range after `(block, slot)` in document order, skipping empty
    /// blocks. Returns `None` at the end of the store.
    pub(crate) fn next_range_pos(
        &self,
        block_page: PageId,
        slot: u16,
    ) -> Result<Option<(PageId, u16)>, StoreError> {
        if slot + 1 < self.block_range_count(block_page)? {
            return Ok(Some((block_page, slot + 1)));
        }
        let mut cur = self.data_pool.read(block_page, block::next)?;
        while let Some(b) = cur.into_option() {
            if self.block_range_count(b)? > 0 {
                return Ok(Some((b, 0)));
            }
            cur = self.data_pool.read(b, block::next)?;
        }
        Ok(None)
    }

    /// The range before `(block, slot)` in document order, skipping empty
    /// blocks. Returns `None` at the start of the store.
    pub(crate) fn prev_range_pos(
        &self,
        block_page: PageId,
        slot: u16,
    ) -> Result<Option<(PageId, u16)>, StoreError> {
        if slot > 0 {
            return Ok(Some((block_page, slot - 1)));
        }
        let mut cur = self.data_pool.read(block_page, block::prev)?;
        while let Some(b) = cur.into_option() {
            let n = self.block_range_count(b)?;
            if n > 0 {
                return Ok(Some((b, n - 1)));
            }
            cur = self.data_pool.read(b, block::prev)?;
        }
        Ok(None)
    }

    // ---- bulk-loader hooks --------------------------------------------------

    /// Allocates `n` consecutive node identifiers (bulk loader).
    pub(crate) fn allocate_ids(&mut self, n: u64) -> axs_xdm::IdInterval {
        self.ids.allocate(n)
    }

    /// Allocates a fresh stable range identifier (bulk loader).
    pub(crate) fn allocate_range_id(&mut self) -> u64 {
        let id = self.next_range_id;
        self.next_range_id += 1;
        id
    }

    /// Appends a fully formed range at the end of the data source,
    /// registering it in the directory and indexes (bulk loader).
    pub(crate) fn append_range_at_end(&mut self, range: &RangeData) -> Result<(), StoreError> {
        if self.head_block.is_none() {
            let b = self.new_block()?;
            self.head_block = b;
            self.tail_block = b;
        }
        let tb = self.tail_block;
        let n = self.block_range_count(tb)?;
        self.place_ranges(tb, n, std::slice::from_ref(range))?;
        let block_now = self.block_of_range(range.header.range_id)?;
        if let Some(iv) = range.header.interval() {
            self.range_index_insert(iv, block_now, range.header.range_id)?;
        }
        self.reindex_full(range)?;
        Ok(())
    }

    /// Records a completed bulk load in the statistics.
    pub(crate) fn note_bulk_load(&mut self, tokens: u64) {
        SharedStats::bump(&self.stats.inserts);
        SharedStats::add(&self.stats.tokens_inserted, tokens);
    }

    /// Replaces a range's payload with an equal-sized re-encoding (used by
    /// the in-place PSVI annotation pass; the size must not change).
    pub(crate) fn replace_range_payload_in_place(
        &mut self,
        block_page: PageId,
        slot: u16,
        range: &RangeData,
    ) -> Result<(), StoreError> {
        let payload = range.encode();
        self.data_pool.write(block_page, |buf| {
            block::replace_range(buf, block_page, slot, &payload)
        })??;
        self.mark_range_dirty(range.header.range_id);
        Ok(())
    }

    // ---- stats hooks used by the ops module --------------------------------

    pub(crate) fn note_delete(&mut self, id: NodeId) {
        SharedStats::bump(&self.stats.deletes);
        if let Some(p) = &self.partial {
            p.remove(id);
        }
    }

    pub(crate) fn note_replace(&mut self, id: NodeId) {
        SharedStats::bump(&self.stats.replaces);
        if let Some(p) = &self.partial {
            p.remove(id);
        }
    }

    pub(crate) fn note_full_scan(&self) {
        SharedStats::bump(&self.stats.full_scans);
    }

    pub(crate) fn note_node_read(&self) {
        SharedStats::bump(&self.stats.node_reads);
    }

    /// First range of the store in document order.
    pub(crate) fn first_range_pos(&self) -> Result<Option<(PageId, u16)>, StoreError> {
        let mut cur = self.head_block;
        while let Some(b) = cur.into_option() {
            if self.block_range_count(b)? > 0 {
                return Ok(Some((b, 0)));
            }
            cur = self.data_pool.read(b, block::next)?;
        }
        Ok(None)
    }

    // ---- node lookup ------------------------------------------------------

    /// Locates the begin token of `id`:
    /// `(range_id, token_index, byte_offset)`.
    ///
    /// Takes `&self`: every structure touched (partial index, range index
    /// pages through the pool, statistics) is internally synchronized, so
    /// concurrent shared readers can locate nodes without exclusive access.
    pub(crate) fn find_begin(&self, id: NodeId) -> Result<(u64, u32, u32), StoreError> {
        let probe = axs_obs::probe_start();
        // 1. Partial index (lazy).
        if let Some(p) = &self.partial {
            if let Some(pos) = p.get(id) {
                self.stats.record_lookup(LookupPath::Partial);
                axs_obs::probe(axs_obs::EventKind::LookupPartial, probe, id.0, 0);
                return Ok((pos.begin_range, pos.begin_index, pos.begin_byte));
            }
            axs_obs::point(axs_obs::EventKind::PartialMiss, id.0, 0);
        }
        // 2. Full index (eager baseline).
        if let Some(tree) = &self.full_index {
            if let Some(v) = tree.get(id.0)? {
                self.stats.record_lookup(LookupPath::Full);
                axs_obs::probe(axs_obs::EventKind::LookupFull, probe, id.0, 0);
                let range_id = u64::from_le_bytes(v[0..8].try_into().unwrap());
                let idx = u32::from_le_bytes(v[8..12].try_into().unwrap());
                let byte = u32::from_le_bytes(v[12..16].try_into().unwrap());
                return Ok((range_id, idx, byte));
            }
            return Err(StoreError::NodeNotFound(id));
        }
        // 3. Range index + in-range scan (coarse path).
        let entry = self
            .range_index
            .locate(id)?
            .ok_or(StoreError::NodeNotFound(id))?;
        let block_page = self.block_of_range(entry.range_id)?;
        let slot = self.find_slot(block_page, entry.range_id)?;
        let data = self.load_range_at(block_page, slot)?;
        let idx = data
            .index_of_id(id)
            .ok_or(StoreError::Corrupt("range index points at wrong range"))?;
        self.stats.record_lookup(LookupPath::RangeScan);
        SharedStats::add(&self.stats.tokens_scanned, idx as u64 + 1);
        axs_obs::probe(
            axs_obs::EventKind::LookupRangeScan,
            probe,
            idx as u64 + 1,
            id.0,
        );
        Ok((entry.range_id, idx as u32, data.byte_offset_of(idx) as u32))
    }

    /// Locates begin and end tokens of `id`, memoizing the result in the
    /// partial index (the §5 laziness: granular entries appear only for
    /// nodes that were actually looked up).
    pub(crate) fn find_position(&self, id: NodeId) -> Result<NodePosition, StoreError> {
        if let Some(p) = &self.partial {
            let probe = axs_obs::probe_start();
            if let Some(pos) = p.get(id) {
                self.stats.record_lookup(LookupPath::Partial);
                axs_obs::probe(axs_obs::EventKind::LookupPartial, probe, id.0, 0);
                return Ok(pos);
            }
        }
        let (begin_range, begin_index, begin_byte) = self.find_begin(id)?;
        let (end_range, end_index, end_byte) =
            self.scan_end(begin_range, begin_index, begin_byte)?;
        let pos = NodePosition {
            begin_range,
            begin_index,
            begin_byte,
            end_range,
            end_index,
            end_byte,
        };
        if let Some(p) = &self.partial {
            let out = p.insert(id, pos);
            if out.admitted {
                self.decision_log.record(
                    AdaptEventKind::Admit,
                    id.0,
                    out.entries as u64,
                    out.capacity as u64,
                    "memoized-lookup",
                );
                if let Some(victim) = out.evicted {
                    self.decision_log.record(
                        AdaptEventKind::Evict,
                        victim.0,
                        out.entries as u64,
                        out.capacity as u64,
                        "lru-pressure",
                    );
                }
            } else {
                self.decision_log.record(
                    AdaptEventKind::Skip,
                    id.0,
                    out.entries as u64,
                    out.capacity as u64,
                    "capacity-zero",
                );
            }
        }
        Ok(pos)
    }

    /// Scans forward from a begin token to its matching end token,
    /// tracking byte offsets.
    fn scan_end(
        &self,
        begin_range: u64,
        begin_index: u32,
        begin_byte: u32,
    ) -> Result<(u64, u32, u32), StoreError> {
        let (mut block_page, mut slot, mut data) = self.load_range(begin_range)?;
        let mut idx = begin_index as usize;
        let first = data
            .tokens
            .get(idx)
            .ok_or(StoreError::Corrupt("begin index out of range"))?;
        let mut depth = first.kind().depth_delta();
        if depth <= 0 {
            // Leaf token: the node is its own end.
            return Ok((begin_range, begin_index, begin_byte));
        }
        let mut byte = begin_byte as usize + axs_xdm::encoded_len(&data.tokens[idx]);
        let probe = axs_obs::probe_start();
        let mut scanned = 0u64;
        loop {
            idx += 1;
            while idx >= data.tokens.len() {
                let (b, s) = self
                    .next_range_pos(block_page, slot)?
                    .ok_or(StoreError::Corrupt("unterminated node at end of store"))?;
                block_page = b;
                slot = s;
                data = self.load_range_at(b, s)?;
                idx = 0;
                byte = RANGE_HEADER_LEN;
            }
            SharedStats::bump(&self.stats.tokens_scanned);
            scanned += 1;
            depth += data.tokens[idx].kind().depth_delta();
            if depth == 0 {
                axs_obs::probe(axs_obs::EventKind::ScanEnd, probe, scanned, 0);
                return Ok((data.header.range_id, idx as u32, byte as u32));
            }
            byte += axs_xdm::encoded_len(&data.tokens[idx]);
        }
    }

    /// Loads a range's raw payload bytes by stable id.
    pub(crate) fn load_range_payload(
        &self,
        range_id: u64,
    ) -> Result<(PageId, u16, Vec<u8>), StoreError> {
        let block_page = self.block_of_range(range_id)?;
        let slot = self.find_slot(block_page, range_id)?;
        let payload = self.data_pool.read(block_page, |buf| {
            block::range_bytes(buf, block_page, slot).map(<[u8]>::to_vec)
        })??;
        Ok((block_page, slot, payload))
    }

    /// Reads the token span from `(begin_range, begin_byte)` through the
    /// token starting at `(end_range, end_byte)` inclusive, decoding
    /// directly from the byte offsets — the "jump to the end of the given
    /// node" fast path the Partial Index enables (§5).
    pub(crate) fn read_span(
        &self,
        begin_range: u64,
        begin_byte: u32,
        end_range: u64,
        end_byte: u32,
    ) -> Result<Vec<Token>, StoreError> {
        let (mut block_page, mut slot, mut payload) = self.load_range_payload(begin_range)?;
        let mut cur_range = begin_range;
        let mut pos = begin_byte as usize;
        if pos < RANGE_HEADER_LEN || pos > payload.len() {
            return Err(StoreError::Corrupt("byte offset outside payload"));
        }
        let mut out = Vec::new();
        loop {
            let last = cur_range == end_range;
            while pos < payload.len() {
                let at = pos;
                let tok = axs_xdm::decode_token(&payload, &mut pos)?;
                out.push(tok);
                if last && at == end_byte as usize {
                    return Ok(out);
                }
                if last && at > end_byte as usize {
                    return Err(StoreError::Corrupt("end byte offset misaligned"));
                }
            }
            if last {
                return Err(StoreError::Corrupt("end byte offset beyond payload"));
            }
            let (b, s) = self
                .next_range_pos(block_page, slot)?
                .ok_or(StoreError::Corrupt("span runs past end of store"))?;
            block_page = b;
            slot = s;
            payload = self
                .data_pool
                .read(b, |buf| block::range_bytes(buf, b, s).map(<[u8]>::to_vec))??;
            cur_range = RangeHeader::decode(&payload)?.range_id;
            pos = RANGE_HEADER_LEN;
        }
    }

    // ---- placement --------------------------------------------------------

    /// Inserts the encoded payloads of `ranges` into `block_page` starting
    /// at directory position `pos`, overflowing into freshly chained blocks.
    /// Trailing ranges of the block are moved when needed. Updates the range
    /// directory and the block field of existing range-index entries; the
    /// caller creates index entries for *new* ranges afterwards.
    pub(crate) fn place_ranges(
        &mut self,
        block_page: PageId,
        pos: u16,
        ranges: &[RangeData],
    ) -> Result<(), StoreError> {
        for r in ranges {
            self.mark_range_dirty(r.header.range_id);
        }
        let payloads: Vec<Vec<u8>> = ranges.iter().map(RangeData::encode).collect();
        let max = block::max_payload(self.page_size);
        for p in &payloads {
            if p.len() > max {
                // A single token larger than a page; surface a clear error.
                return Err(StoreError::TokenTooLarge {
                    bytes: p.len(),
                    max,
                });
            }
        }
        let total: usize = payloads.iter().map(Vec::len).sum();
        let fits = self.data_pool.read(block_page, |buf| {
            let gap = block::free_for_insert(buf) + block::SLOT_LEN;
            gap >= total + payloads.len() * block::SLOT_LEN
        })?;
        if fits {
            self.data_pool.write(block_page, |buf| {
                for (i, p) in payloads.iter().enumerate() {
                    block::insert_range(buf, block_page, pos + i as u16, p)?;
                }
                Ok::<(), StorageError>(())
            })??;
            for r in ranges {
                self.range_dir.insert(r.header.range_id, block_page);
            }
            return Ok(());
        }

        // Slow path: detach trailing ranges, then refill.
        let moved_tail: Vec<Vec<u8>> = self.data_pool.write(block_page, |buf| {
            let mut out = Vec::new();
            while block::num_ranges(buf) > pos {
                out.push(block::remove_range(buf, block_page, pos)?);
            }
            Ok::<Vec<Vec<u8>>, StorageError>(out)
        })??;
        SharedStats::add(&self.stats.range_moves, moved_tail.len() as u64);

        let mut cur = block_page;
        for payload in payloads.iter().chain(moved_tail.iter()) {
            let placed = self.data_pool.write(cur, |buf| {
                let slot = block::num_ranges(buf);
                match block::insert_range(buf, cur, slot, payload) {
                    Ok(()) => Ok(true),
                    Err(StorageError::BlockFull { .. }) => Ok(false),
                    Err(e) => Err(e),
                }
            })??;
            if !placed {
                let fresh = self.new_block()?;
                self.link_after(cur, fresh)?;
                cur = fresh;
                self.data_pool.write(cur, |buf| {
                    let slot = block::num_ranges(buf);
                    block::insert_range(buf, cur, slot, payload)
                })??;
            }
            // Update the directory (and index entries for pre-existing
            // moved ranges whose block changed).
            let header = RangeHeader::decode(payload)?;
            let prior = self.range_dir.insert(header.range_id, cur);
            if let Some(old_block) = prior {
                if old_block != cur {
                    if let Some(interval) = header.interval() {
                        self.range_index.update_block(interval.start, cur)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ---- insert core ------------------------------------------------------

    /// Inserts a well-formed fragment before token `token_idx` of range
    /// `range_id`, or at the very end of the store (`at_end` form is used by
    /// [`crate::ops`]). Returns the id interval allocated to the new nodes.
    pub(crate) fn insert_fragment(
        &mut self,
        target: Option<(u64, u32)>,
        tokens: Vec<Token>,
    ) -> Result<(axs_xdm::IdInterval, Option<SplitInfo>), StoreError> {
        fragment_well_formed(&tokens)?;
        let id_count = axs_xdm::count_ids(&tokens);
        debug_assert!(id_count >= 1);
        let interval = self.ids.allocate(id_count);
        let token_count = tokens.len() as u64;

        // Chop the fragment into insert units first, so the fresh data's
        // range ids precede the split tail's (matching the paper's §4.5
        // numbering: new data = range 2, split-off tail = range 3).
        let budget = self
            .target_range_bytes()
            .min(block::max_payload(self.page_size));
        let mut new_ranges = chop_fragment(tokens, interval.start, &mut self.next_range_id, budget);

        // Resolve the physical target.
        let mut split_info: Option<SplitInfo> = None;
        let (block_page, insert_slot, right_part): (PageId, u16, Option<RangeData>) = match target {
            None => {
                // Document end.
                if self.head_block.is_none() {
                    let b = self.new_block()?;
                    self.head_block = b;
                    self.tail_block = b;
                }
                // The tail block may be empty; append after its last slot.
                let tb = self.tail_block;
                let n = self.block_range_count(tb)?;
                (tb, n, None)
            }
            Some((range_id, token_idx)) => {
                let (block_page, slot, data) = self.load_range(range_id)?;
                let token_idx = token_idx as usize;
                if token_idx == 0 {
                    (block_page, slot, None)
                } else if token_idx >= data.tokens.len() {
                    (block_page, slot + 1, None)
                } else {
                    // Interior split (§4.5 step 2c: "Split range number 1 in
                    // two").
                    let old_interval = data.header.interval();
                    let right_id = self.next_range_id;
                    self.next_range_id += 1;
                    let (left, right) = data.split_at(token_idx, right_id);
                    SharedStats::bump(&self.stats.range_splits);
                    if let Some(p) = &self.partial {
                        p.invalidate_range(range_id);
                    }
                    // Range-index: the old entry covers both halves; replace
                    // it with the left half's (the right half's entry is
                    // created after placement).
                    if let Some(iv) = old_interval {
                        self.range_index.remove(iv.start)?;
                    }
                    if let Some(iv) = left.header.interval() {
                        self.range_index.insert(RangeEntry {
                            interval: iv,
                            block: block_page,
                            range_id,
                        })?;
                    }
                    // Full index entries of nodes in the right half are
                    // rewritten after placement (the §4.1 insert penalty),
                    // together with the fresh ranges' entries.
                    // Shrink the slot to the left half in place.
                    let left_payload = left.encode();
                    self.data_pool.write(block_page, |buf| {
                        block::replace_range(buf, block_page, slot, &left_payload)
                    })??;
                    self.mark_range_dirty(range_id);
                    split_info = Some(SplitInfo {
                        range_id,
                        at: token_idx as u32,
                        at_byte: left_payload.len() as u32,
                        right_range_id: right_id,
                    });
                    (block_page, slot + 1, Some(right))
                }
            }
        };

        if let Some(right) = right_part {
            new_ranges.push(right);
        }

        self.place_ranges(block_page, insert_slot, &new_ranges)?;

        // Index the new ranges (and the split-off right half).
        for r in &new_ranges {
            let block_now = self.block_of_range(r.header.range_id)?;
            if let Some(iv) = r.header.interval() {
                // The right half of a split already lost its entry above;
                // everything here is a fresh entry.
                self.range_index.insert(RangeEntry {
                    interval: iv,
                    block: block_now,
                    range_id: r.header.range_id,
                })?;
            }
            self.reindex_full(r)?;
        }

        SharedStats::bump(&self.stats.inserts);
        SharedStats::add(&self.stats.tokens_inserted, token_count);
        Ok((interval, split_info))
    }

    /// Re-memoizes the target node's position after an insert, translating
    /// coordinates across the split if one happened. This is the lazy-index
    /// fill of §5: the positions just discovered for the update are kept so
    /// a repeated search for the same logical position is free (Table 4).
    pub(crate) fn rememoize(
        &mut self,
        id: NodeId,
        mut pos: axs_index::NodePosition,
        split: Option<SplitInfo>,
    ) {
        if let Some(s) = split {
            for (range, idx, byte) in [
                (
                    &mut pos.begin_range,
                    &mut pos.begin_index,
                    &mut pos.begin_byte,
                ),
                (&mut pos.end_range, &mut pos.end_index, &mut pos.end_byte),
            ] {
                if *range == s.range_id && *idx >= s.at {
                    *range = s.right_range_id;
                    *idx -= s.at;
                    *byte = *byte - s.at_byte + RANGE_HEADER_LEN as u32;
                }
            }
        }
        if let Some(p) = &self.partial {
            p.insert(id, pos);
        }
    }

    /// (Re)writes full-index begin entries for every node in `range` — used
    /// both to index fresh ranges and to rewrite entries after splits.
    pub(crate) fn reindex_full(&mut self, range: &RangeData) -> Result<(), StoreError> {
        let Some(tree) = &mut self.full_index else {
            return Ok(());
        };
        let mut next = range.header.start_id.0;
        let mut byte = RANGE_HEADER_LEN as u32;
        for (idx, tok) in range.tokens.iter().enumerate() {
            if tok.consumes_id() {
                let mut v = [0u8; FULL_VALUE_SIZE];
                v[0..8].copy_from_slice(&range.header.range_id.to_le_bytes());
                v[8..12].copy_from_slice(&(idx as u32).to_le_bytes());
                v[12..16].copy_from_slice(&byte.to_le_bytes());
                let old = tree.insert(next, &v)?;
                if old.is_some() {
                    SharedStats::bump(&self.stats.full_index_rewrites);
                }
                next += 1;
            }
            byte += axs_xdm::encoded_len(tok) as u32;
        }
        Ok(())
    }

    // ---- deletion core ----------------------------------------------------

    /// Deletes the token span from `(start_range, start_idx)` through
    /// `(end_range, end_idx)` inclusive. The span must be a well-formed
    /// token run (complete nodes) — guaranteed by callers that derive it
    /// from node positions.
    pub(crate) fn delete_span(
        &mut self,
        start_range: u64,
        start_idx: u32,
        end_range: u64,
        end_idx: u32,
    ) -> Result<(), StoreError> {
        // Collect affected ranges in document order.
        let (first_block, first_slot, first_data) = self.load_range(start_range)?;
        let mut affected: Vec<(PageId, u16, RangeData)> =
            vec![(first_block, first_slot, first_data)];
        while affected.last().unwrap().2.header.range_id != end_range {
            let (b, s) = {
                let last = affected.last().unwrap();
                self.next_range_pos(last.0, last.1)?
                    .ok_or(StoreError::Corrupt("delete span runs past end of store"))?
            };
            let data = self.load_range_at(b, s)?;
            affected.push((b, s, data));
        }

        // Invalidate memoized positions and collect deleted ids for the
        // full index.
        let mut deleted_ids: Vec<u64> = Vec::new();
        let single = affected.len() == 1;
        for (i, (_, _, data)) in affected.iter().enumerate() {
            if let Some(p) = &self.partial {
                p.invalidate_range(data.header.range_id);
            }
            let from = if i == 0 { start_idx as usize } else { 0 };
            let to = if i == affected.len() - 1 {
                end_idx as usize
            } else {
                data.tokens.len().saturating_sub(1)
            };
            let mut next = data.header.start_id.0;
            for (idx, tok) in data.tokens.iter().enumerate() {
                if tok.consumes_id() {
                    if idx >= from && idx <= to {
                        deleted_ids.push(next);
                    }
                    next += 1;
                }
            }
            let _ = single;
        }
        if let Some(tree) = &mut self.full_index {
            for id in &deleted_ids {
                tree.delete(*id)?;
            }
        }

        // Rewrite each affected range. Work back-to-front so earlier slots
        // stay valid while later ones are edited.
        for (i, (block_page, slot, data)) in affected.iter().enumerate().rev() {
            let is_first = i == 0;
            let is_last = i == affected.len() - 1;
            let from = if is_first { start_idx as usize } else { 0 };
            let to = if is_last {
                end_idx as usize
            } else {
                data.tokens.len() - 1
            };
            self.rewrite_range_without(*block_page, *slot, data, from, to)?;
        }
        Ok(())
    }

    /// Replaces the range at `(block, slot)` by its tokens minus
    /// `[from ..= to]`, splitting into prefix/suffix ranges as needed so ID
    /// regeneration stays contiguous per range.
    fn rewrite_range_without(
        &mut self,
        block_page: PageId,
        slot: u16,
        data: &RangeData,
        from: usize,
        to: usize,
    ) -> Result<(), StoreError> {
        let header = data.header;
        self.mark_range_dirty(header.range_id);
        let prefix: Vec<Token> = data.tokens[..from].to_vec();
        let suffix: Vec<Token> = data.tokens[to + 1..].to_vec();
        let prefix_ids = axs_xdm::count_ids(&prefix);
        let deleted_ids = axs_xdm::count_ids(&data.tokens[from..=to]);

        // Remove the old index entry; new entries are added per part.
        if let Some(iv) = header.interval() {
            self.range_index.remove(iv.start)?;
        }

        if prefix.is_empty() && suffix.is_empty() {
            // The whole range disappears.
            self.data_pool.write(block_page, |buf| {
                block::remove_range(buf, block_page, slot).map(|_| ())
            })??;
            self.range_dir.remove(&header.range_id);
            if self.block_range_count(block_page)? == 0 {
                self.unlink_block(block_page)?;
            }
            return Ok(());
        }

        if suffix.is_empty() {
            // Keep the prefix under the same identity.
            let new_range = RangeData::new(header.range_id, header.start_id, prefix);
            let payload = new_range.encode();
            self.data_pool.write(block_page, |buf| {
                block::replace_range(buf, block_page, slot, &payload)
            })??;
            if let Some(iv) = new_range.header.interval() {
                self.range_index.insert(RangeEntry {
                    interval: iv,
                    block: block_page,
                    range_id: header.range_id,
                })?;
            }
            return Ok(());
        }

        let suffix_start = NodeId(header.start_id.0 + prefix_ids + deleted_ids);
        if prefix.is_empty() {
            // Keep the suffix under the same identity, rebased.
            let new_range = RangeData::new(header.range_id, suffix_start, suffix);
            let payload = new_range.encode();
            self.data_pool.write(block_page, |buf| {
                block::replace_range(buf, block_page, slot, &payload)
            })??;
            if let Some(iv) = new_range.header.interval() {
                self.range_index.insert(RangeEntry {
                    interval: iv,
                    block: block_page,
                    range_id: header.range_id,
                })?;
            }
            self.reindex_full(&new_range)?;
            return Ok(());
        }

        // Both parts live: prefix keeps the identity, suffix becomes a new
        // range placed right after it.
        let left = RangeData::new(header.range_id, header.start_id, prefix);
        let right_id = self.next_range_id;
        self.next_range_id += 1;
        let right = RangeData::new(right_id, suffix_start, suffix);
        SharedStats::bump(&self.stats.range_splits);
        let left_payload = left.encode();
        self.data_pool.write(block_page, |buf| {
            block::replace_range(buf, block_page, slot, &left_payload)
        })??;
        if let Some(iv) = left.header.interval() {
            self.range_index.insert(RangeEntry {
                interval: iv,
                block: block_page,
                range_id: header.range_id,
            })?;
        }
        self.place_ranges(block_page, slot + 1, std::slice::from_ref(&right))?;
        let right_block = self.block_of_range(right_id)?;
        if let Some(iv) = right.header.interval() {
            self.range_index.insert(RangeEntry {
                interval: iv,
                block: right_block,
                range_id: right_id,
            })?;
        }
        self.reindex_full(&right)?;
        Ok(())
    }

    // ---- rebuild / audit ---------------------------------------------------

    /// Rebuilds the range directory, Range Index, and (if configured) Full
    /// Index by scanning the block chain. Used by [`StoreBuilder::open`].
    fn rebuild_indexes(&mut self) -> Result<(), StoreError> {
        self.range_dir.clear();
        self.range_index = RangeIndex::create(self.index_pool.clone())?;
        self.full_index = if self.policy.uses_full_index() {
            Some(BTree::create(self.index_pool.clone(), FULL_VALUE_SIZE)?)
        } else {
            None
        };
        let mut pos = self.first_range_pos()?;
        while let Some((b, s)) = pos {
            let data = self.load_range_at(b, s)?;
            self.range_dir.insert(data.header.range_id, b);
            if let Some(iv) = data.header.interval() {
                self.range_index.insert(RangeEntry {
                    interval: iv,
                    block: b,
                    range_id: data.header.range_id,
                })?;
            }
            self.reindex_full(&data)?;
            pos = self.next_range_pos(b, s)?;
        }
        Ok(())
    }

    /// Full structural audit (used by tests): block chain sane, document
    /// order well-formed, IDs regenerable and disjoint, all indexes
    /// consistent with the data.
    pub fn check_invariants(&self) -> Result<(), StoreError> {
        // Walk the chain and collect ranges.
        let mut seen_ranges: HashMap<u64, PageId> = HashMap::new();
        let mut depth = 0i64;
        let mut total_ranges = 0usize;
        let mut prev_block = PageId::NONE;
        let mut cur = self.head_block;
        let mut expected_entries = 0usize;
        while let Some(b) = cur.into_option() {
            let (prev, next) = self.data_pool.read(b, |buf| {
                block::validate(buf, b)?;
                Ok::<_, StorageError>((block::prev(buf), block::next(buf)))
            })??;
            if prev != prev_block {
                return Err(StoreError::Corrupt("broken block prev pointer"));
            }
            let n = self.block_range_count(b)?;
            for slot in 0..n {
                let data = self.load_range_at(b, slot)?;
                total_ranges += 1;
                if seen_ranges.insert(data.header.range_id, b).is_some() {
                    return Err(StoreError::Corrupt("duplicate range id in chain"));
                }
                if self.range_dir.get(&data.header.range_id) != Some(&b) {
                    return Err(StoreError::Corrupt("range directory out of date"));
                }
                if let Some(iv) = data.header.interval() {
                    expected_entries += 1;
                    match self.range_index.locate(iv.start)? {
                        Some(entry) => {
                            if entry.range_id != data.header.range_id
                                || entry.interval != iv
                                || entry.block != b
                            {
                                return Err(StoreError::Corrupt(
                                    "range index entry disagrees with data",
                                ));
                            }
                        }
                        None => return Err(StoreError::Corrupt("range missing from index")),
                    }
                }
                for tok in &data.tokens {
                    depth += i64::from(tok.kind().depth_delta());
                    if depth < 0 {
                        return Err(StoreError::Corrupt("document order underflow"));
                    }
                }
            }
            prev_block = b;
            cur = next;
        }
        if depth != 0 {
            return Err(StoreError::Corrupt("unbalanced document order"));
        }
        if total_ranges != self.range_dir.len() {
            return Err(StoreError::Corrupt("range directory size mismatch"));
        }
        if expected_entries as u64 != self.range_index.len() {
            return Err(StoreError::Corrupt("range index has stray entries"));
        }
        self.range_index.check_disjoint()?;
        if let Some(p) = &self.partial {
            if !p.check_consistent() {
                return Err(StoreError::Corrupt("partial index inconsistent"));
            }
        }
        if let Some(tree) = &self.full_index {
            tree.check_invariants()?;
            // Every live id maps to the right token.
            let mut pos = self.first_range_pos()?;
            let mut live_ids = 0u64;
            while let Some((b, s)) = pos {
                let data = self.load_range_at(b, s)?;
                for (idx, tok) in data.tokens.iter().enumerate() {
                    if tok.consumes_id() {
                        live_ids += 1;
                        let id = data.token_id(idx).expect("consuming token has id");
                        let v = tree
                            .get(id.0)?
                            .ok_or(StoreError::Corrupt("full index missing a node"))?;
                        let rid = u64::from_le_bytes(v[0..8].try_into().unwrap());
                        let tix = u32::from_le_bytes(v[8..12].try_into().unwrap());
                        if rid != data.header.range_id || tix != idx as u32 {
                            return Err(StoreError::Corrupt("full index points at wrong token"));
                        }
                    }
                }
                pos = self.next_range_pos(b, s)?;
            }
            if live_ids != tree.len() {
                return Err(StoreError::Corrupt("full index has stray entries"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket() -> Vec<Token> {
        vec![
            Token::begin_element("ticket"),
            Token::begin_element("hour"),
            Token::text("15"),
            Token::EndElement,
            Token::begin_element("name"),
            Token::text("Paul"),
            Token::EndElement,
            Token::EndElement,
        ]
    }

    #[test]
    fn build_empty_store() {
        let store = StoreBuilder::new().build().unwrap();
        assert_eq!(store.range_count(), 0);
        store.check_invariants().unwrap();
    }

    #[test]
    fn build_rejects_reuse_without_open() {
        let dir = std::env::temp_dir().join(format!("axs-core-reuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = StoreBuilder::new().directory(&dir).build().unwrap();
        s.insert_fragment(None, ticket()).unwrap();
        s.flush().unwrap();
        drop(s);
        assert!(matches!(
            StoreBuilder::new().directory(&dir).build(),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_at_end_creates_range_and_entry() {
        let mut store = StoreBuilder::new().build().unwrap();
        let (iv, _) = store.insert_fragment(None, ticket()).unwrap();
        assert_eq!(iv, axs_xdm::IdInterval::new(NodeId(1), NodeId(5)));
        assert_eq!(store.range_count(), 1);
        let entries = store.range_index_entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].interval, iv);
        store.check_invariants().unwrap();
    }

    #[test]
    fn find_begin_via_range_scan() {
        let mut store = StoreBuilder::new()
            .policy(IndexingPolicy::RangeOnly {
                target_range_bytes: 8192,
            })
            .build()
            .unwrap();
        store.insert_fragment(None, ticket()).unwrap();
        let (range_id, idx, byte) = store.find_begin(NodeId(4)).unwrap();
        let (_, _, data) = store.load_range(range_id).unwrap();
        assert_eq!(data.byte_offset_of(idx as usize), byte as usize);
        assert_eq!(
            data.tokens[idx as usize].name().unwrap().local_part(),
            "name"
        );
        assert_eq!(store.stats().lookups_range_scan, 1);
    }

    #[test]
    fn find_begin_via_full_index() {
        let mut store = StoreBuilder::new()
            .policy(IndexingPolicy::FullIndex {
                target_range_bytes: 8192,
            })
            .build()
            .unwrap();
        store.insert_fragment(None, ticket()).unwrap();
        let (_, idx, _) = store.find_begin(NodeId(2)).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(store.stats().lookups_full, 1);
        store.check_invariants().unwrap();
    }

    #[test]
    fn find_position_memoizes_in_partial() {
        let mut store = StoreBuilder::new().build().unwrap();
        store.insert_fragment(None, ticket()).unwrap();
        let p1 = store.find_position(NodeId(1)).unwrap();
        assert_eq!(store.stats().lookups_range_scan, 1);
        let p2 = store.find_position(NodeId(1)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(store.stats().lookups_partial, 1);
        assert_eq!(store.partial_stats().insertions, 1);
    }

    #[test]
    fn scan_end_finds_matching_end_token() {
        let mut store = StoreBuilder::new().build().unwrap();
        store.insert_fragment(None, ticket()).unwrap();
        // ticket spans the whole range: begin 0, end 7.
        let pos = store.find_position(NodeId(1)).unwrap();
        assert_eq!(pos.begin_index, 0);
        assert_eq!(pos.end_index, 7);
        assert_eq!(pos.begin_range, pos.end_range);
        // Leaf text node: end == begin.
        let pos3 = store.find_position(NodeId(3)).unwrap();
        assert_eq!(pos3.begin_index, pos3.end_index);
    }

    #[test]
    fn lookup_of_unknown_id_fails() {
        let mut store = StoreBuilder::new().build().unwrap();
        store.insert_fragment(None, ticket()).unwrap();
        assert!(matches!(
            store.find_begin(NodeId(99)),
            Err(StoreError::NodeNotFound(_))
        ));
    }

    #[test]
    fn interior_insert_splits_range_like_paper() {
        // §4.5 scenario scaled down: insert into the middle of a range and
        // observe the three-entry index of Table 3's shape.
        let mut store = StoreBuilder::new().build().unwrap();
        store.insert_fragment(None, ticket()).unwrap(); // ids 1..=5
                                                        // Insert before <name> (token index 4 of range 1).
        let (range_id, idx, _) = store.find_begin(NodeId(4)).unwrap();
        let (iv, split) = store
            .insert_fragment(
                Some((range_id, idx)),
                vec![Token::begin_element("extra"), Token::EndElement],
            )
            .unwrap();
        assert!(split.is_some(), "interior insert must report its split");
        assert_eq!(iv.start, NodeId(6));
        assert_eq!(store.stats().range_splits, 1);
        let entries = store.range_index_entries().unwrap();
        // Left [1..=3], new [6..=6], right [4..=5].
        assert_eq!(entries.len(), 3);
        store.check_invariants().unwrap();
    }

    #[test]
    fn big_fragment_chops_and_chains_blocks() {
        let mut store = StoreBuilder::new()
            .storage(StorageConfig {
                page_size: 512,
                pool_frames: 8,
            })
            .build()
            .unwrap();
        let mut tokens = vec![Token::begin_element("root")];
        for i in 0..200 {
            tokens.push(Token::begin_element("item"));
            tokens.push(Token::text(format!("value-{i}")));
            tokens.push(Token::EndElement);
        }
        tokens.push(Token::EndElement);
        store.insert_fragment(None, tokens).unwrap();
        assert!(store.range_count() > 1, "fragment must chop across pages");
        store.check_invariants().unwrap();
    }

    #[test]
    fn oversized_token_is_rejected() {
        let mut store = StoreBuilder::new()
            .storage(StorageConfig {
                page_size: 512,
                pool_frames: 8,
            })
            .build()
            .unwrap();
        let huge = Token::text("x".repeat(4096));
        let err = store.insert_fragment(None, vec![huge]).unwrap_err();
        assert!(matches!(err, StoreError::TokenTooLarge { .. }));
    }

    #[test]
    fn flush_and_open_rebuild_indexes() {
        let dir = std::env::temp_dir().join(format!("axs-core-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first_iv;
        {
            let mut s = StoreBuilder::new().directory(&dir).build().unwrap();
            first_iv = s.insert_fragment(None, ticket()).unwrap().0;
            s.flush().unwrap();
        }
        {
            let mut s = StoreBuilder::new().directory(&dir).open().unwrap();
            s.check_invariants().unwrap();
            assert_eq!(s.range_count(), 1);
            // Lookups still work and ids continue from where they stopped.
            let (_, idx, _) = s.find_begin(NodeId(2)).unwrap();
            assert_eq!(idx, 1);
            let (iv, _) = s.insert_fragment(None, ticket()).unwrap();
            assert!(iv.start > first_iv.end);
            s.check_invariants().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_without_directory_fails() {
        assert!(StoreBuilder::new().open().is_err());
    }

    #[test]
    fn commit_without_flush_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("axs-core-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = StoreBuilder::new().directory(&dir).build().unwrap();
            s.insert_fragment(None, ticket()).unwrap();
            s.commit().unwrap().unwrap().wait().unwrap();
            s.insert_fragment(None, ticket()).unwrap();
            s.commit().unwrap().unwrap().wait().unwrap();
            // Dropped without flush(): the data file never saw these pages;
            // only the WAL's committed batches carry them.
        }
        {
            let s = StoreBuilder::new().directory(&dir).open().unwrap();
            s.check_invariants().unwrap();
            assert_eq!(s.range_count(), 2);
            assert!(s.stats().recoveries > 0, "reopen must replay the WAL");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_logs_only_newly_dirtied_pages() {
        let dir = std::env::temp_dir().join(format!("axs-core-commit-inc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = StoreBuilder::new().directory(&dir).build().unwrap();
        s.insert_fragment(None, ticket()).unwrap();
        s.commit().unwrap().unwrap().wait().unwrap();
        let after_first = s.stats().wal_records;
        // A commit with no intervening mutation logs at most the meta page.
        s.commit().unwrap().unwrap().wait().unwrap();
        let delta = s.stats().wal_records - after_first;
        assert!(delta <= 2, "idle commit re-logged {delta} records");
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The single publish routine, through every caller: one new epoch per
    /// build / commit / flush / open, clean ranges shared by `Arc` with the
    /// previous epoch, and a range dirtied then merged away in the same
    /// batch simply absent from the published chain.
    #[test]
    fn every_publish_is_one_epoch_sharing_clean_ranges() {
        use crate::view::ReadView;
        let dir = std::env::temp_dir().join(format!("axs-core-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Granular policy: every small insert becomes its own range.
        let mut s = StoreBuilder::new()
            .directory(&dir)
            .policy(IndexingPolicy::RangeOnly {
                target_range_bytes: 64,
            })
            .build()
            .unwrap();
        let epochs = s.epoch_registry();
        assert_eq!(epochs.stats().current_epoch, 1, "build publishes epoch 1");
        let child = |i: usize| {
            vec![
                Token::begin_element("c"),
                Token::text(format!("{i}")),
                Token::EndElement,
            ]
        };
        s.bulk_insert(vec![Token::begin_element("root"), Token::EndElement])
            .unwrap();
        let kids: Vec<NodeId> = (0..6)
            .map(|i| s.insert_into_last(NodeId(1), child(i)).unwrap().start)
            .collect();
        s.commit().unwrap().unwrap().wait().unwrap();
        assert_eq!(epochs.stats().current_epoch, 2, "one epoch per commit");
        let range_of = |s: &XmlStore, id: NodeId| s.locate_range(id).unwrap().unwrap().1;
        let clean = range_of(&s, kids[0]);
        let shared = epochs.current().unwrap().range_arc(clean).unwrap();

        // A commit that dirties another range shares the clean one.
        s.insert_into_last(NodeId(1), child(6)).unwrap();
        s.commit().unwrap().unwrap().wait().unwrap();
        let snap = epochs.current().unwrap();
        assert_eq!(snap.epoch(), 3);
        assert!(Arc::ptr_eq(&snap.range_arc(clean).unwrap(), &shared));
        assert_eq!(snap.read_all().unwrap(), s.read_all().unwrap());

        // So does a flush.
        s.flush().unwrap();
        let snap = epochs.current().unwrap();
        assert_eq!(snap.epoch(), 4, "one epoch per flush");
        assert!(Arc::ptr_eq(&snap.range_arc(clean).unwrap(), &shared));

        // Dirty a range, then merge it away before the commit.
        let doomed = range_of(&s, kids[3]);
        s.insert_into_last(kids[3], child(7)).unwrap();
        s.compact(8192).unwrap();
        assert!(!s.range_dir.contains_key(&doomed), "compaction merged it");
        s.commit().unwrap().unwrap().wait().unwrap();
        let snap = epochs.current().unwrap();
        assert_eq!(snap.epoch(), 5);
        assert!(snap.range_arc(doomed).is_none());
        assert_eq!(snap.range_count(), s.range_count());
        assert_eq!(snap.read_all().unwrap(), s.read_all().unwrap());
        drop(snap);
        drop(s);

        let reopened = StoreBuilder::new().directory(&dir).open().unwrap();
        assert_eq!(reopened.mvcc_stats().current_epoch, 1, "open publishes one");
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_commit_is_a_noop() {
        let mut s = StoreBuilder::new().build().unwrap();
        s.insert_fragment(None, ticket()).unwrap();
        assert!(s.commit().unwrap().is_none());
        assert!(s.group_commit_stats().is_none());
    }
}
