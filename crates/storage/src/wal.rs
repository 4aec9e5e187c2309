//! Write-ahead log: redo-only page-image logging with torn-tail recovery.
//!
//! The store batches all dirtied data pages at each `flush()` boundary,
//! appends one [`PageImage`](RecordKind::PageImage) record per page, seals
//! the batch with a fsynced [`Commit`](RecordKind::Commit) record, then
//! writes the pages to the data file and truncates the log back to its
//! header (checkpoint-by-reset). Because the data pool never steals dirty
//! frames, the data file only ever changes *after* a commit record is
//! durable, so replaying committed batches always repairs a torn flush.
//!
//! File layout:
//!
//! ```text
//! header:  magic "AXS_WAL\0" u64 | version u32 | page_size u32   (16 bytes)
//! record:  kind u8 | lsn u64 | page u64 | len u32 | payload | crc32 u32
//! ```
//!
//! All fields are little-endian. The record CRC covers `kind ..= payload`.
//! A page image's payload is the page up to its last non-zero byte, so
//! `len <= page_size`; replay zero-fills it back to a full page, and a
//! record claiming more than `page_size` bytes is torn. Version 1 logs
//! held full images only (`len == page_size`), which the same rule reads;
//! [`Wal::reset`] always writes a version-2 header, and a recovered log is
//! reset before its first append, so no log holding a short image is ever
//! labelled version 1.
//!
//! LSNs are assigned monotonically per log lifetime; recovery resumes the
//! counter past the highest LSN it saw. A scan stops at the first record
//! that is incomplete or fails its CRC — everything after that offset is a
//! torn tail and is reported (and later truncated), never replayed.
//! Complete records with no following commit are an uncommitted batch and
//! are discarded too: the flush that wrote them never promised durability.
//!
//! # Group commit
//!
//! [`Wal::commit_nosync`] appends the commit record but defers the fsync to
//! a shared [`GroupCommit`] handle: the returned [`CommitTicket`] is waited
//! on *after* the caller releases whatever lock serialized the append, so
//! concurrent committers share one `sync_data` call. The first waiter to
//! find no sync in progress becomes the leader: it sleeps for the configured
//! window (letting more commits queue behind it), reads the highest
//! requested LSN, and issues one fsync that seals every batch appended up to
//! that point. Followers just wait until `highest_synced` covers their LSN.
//! A full [`Wal::commit`] or [`Wal::reset`] also advances `highest_synced`
//! (and wakes waiters) — by the time `reset` truncates the log, the data
//! file itself is synced, so every outstanding commit is already durable.

use crate::error::StorageError;
use crate::page::PageId;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MAGIC: u64 = u64::from_le_bytes(*b"AXS_WAL\0");
const VERSION: u32 = 2;
/// The previous format: every page image logged at full page size.
const VERSION_FULL_IMAGES: u32 = 1;
const HEADER_LEN: u64 = 16;
/// kind u8 + lsn u64 + page u64 + len u32.
const RECORD_HEADER_LEN: usize = 21;
const TRAILER_LEN: usize = 4;

/// Kinds of log records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Image of one data page (trailing zeros elided), part of the batch
    /// in progress.
    PageImage = 1,
    /// Seals the batch appended since the previous commit.
    Commit = 2,
}

/// A page image recovered from a committed batch.
#[derive(Debug, Clone)]
pub struct RecoveredImage {
    /// The page the image belongs to.
    pub page: PageId,
    /// The LSN of the record carrying the image.
    pub lsn: u64,
    /// The page bytes (exactly one page long, unstamped).
    pub image: Vec<u8>,
}

/// A page-image record of a committed batch, located in the scanned log:
/// the scan copies no image, so its memory is the log itself.
#[derive(Debug, Clone)]
pub struct LoggedImage {
    /// The page the image belongs to.
    pub page: PageId,
    /// The LSN of the record carrying the image.
    pub lsn: u64,
    /// Where the record's payload sits in the scanned log.
    payload: std::ops::Range<usize>,
}

/// What a recovery scan found in the log.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Committed batches, in commit order. Replaying them in order (later
    /// images win) reproduces the state the last successful commit promised.
    pub batches: Vec<Vec<LoggedImage>>,
    /// Bytes past the last structurally-valid record — a torn append.
    pub torn_tail_bytes: u64,
    /// Complete page-image records that were never sealed by a commit.
    pub uncommitted_records: u64,
    /// The log as read, which `batches` point into.
    log: Vec<u8>,
    page_size: usize,
}

impl WalRecovery {
    /// The page `img` logged: its payload, zero-filled back to a full page.
    pub fn image(&self, img: &LoggedImage) -> Vec<u8> {
        let mut image = vec![0u8; self.page_size];
        image[..img.payload.len()].copy_from_slice(&self.log[img.payload.clone()]);
        image
    }

    /// The last committed image of each page, in page order. Writing just
    /// these reproduces what replaying every batch in order would: later
    /// batches win, and the uncommitted tail is not in `batches` at all.
    /// Only these images are built.
    pub fn last_images(self) -> Vec<RecoveredImage> {
        let mut last = BTreeMap::new();
        for img in self.batches.iter().flatten() {
            last.insert(img.page, img);
        }
        last.into_values()
            .map(|img| RecoveredImage {
                page: img.page,
                lsn: img.lsn,
                image: self.image(img),
            })
            .collect()
    }
}

struct GcInner {
    /// Highest commit LSN any committer has asked to make durable.
    highest_requested: u64,
    /// Highest commit LSN known durable (fsynced, or superseded by a full
    /// data-file sync at reset time).
    highest_synced: u64,
    /// A leader is currently inside the window/fsync.
    syncing: bool,
    /// Commits registered since the last fsync sealed its batch.
    pending: u64,
}

axs_obs::series! {
    /// Group-commit activity: commits, the fsyncs that sealed them, and
    /// those fsyncs by batch size — `observe(batch, 1)` files a batch of
    /// `batch` commits under its bucket.
    #[derive(Debug, Default)]
    pub struct GroupCommitCounters => GroupCommitStats by u64 {
        /// Commits that went through the group-commit path.
        commits: Counter "wal.group_commits",
        /// Group-commit fsyncs; each seals one or more commits.
        syncs: Counter "wal.group_syncs",
        /// Group-commit fsyncs that sealed 1 commit.
        batch_le_1: Counter "wal.group_batch_le_1" for 1,
        /// Group-commit fsyncs that sealed 2 commits.
        batch_le_2: Counter "wal.group_batch_le_2" for 2,
        /// Group-commit fsyncs that sealed 3 commits.
        batch_le_3: Counter "wal.group_batch_le_3" for 3,
        /// Group-commit fsyncs that sealed 4 commits.
        batch_le_4: Counter "wal.group_batch_le_4" for 4,
        /// Group-commit fsyncs that sealed 5 to 8 commits.
        batch_le_8: Counter "wal.group_batch_le_8" for 5..=8,
        /// Group-commit fsyncs that sealed 9 to 16 commits.
        batch_le_16: Counter "wal.group_batch_le_16" for 9..=16,
        /// Group-commit fsyncs that sealed more than 16 commits.
        batch_gt_16: Counter "wal.group_batch_gt_16" for 17..,
    }
}

/// Shared fsync batcher behind [`Wal::commit_nosync`]. One exists per WAL;
/// [`CommitTicket`]s hold it alive independently of the `Wal` handle.
pub struct GroupCommit {
    /// Clone of the WAL file descriptor so leaders can fsync without
    /// borrowing the (exclusively held) `Wal`.
    file: File,
    /// Leader wait window in nanoseconds (0 = fsync immediately).
    window_nanos: AtomicU64,
    inner: Mutex<GcInner>,
    cond: Condvar,
    /// Activity counters.
    pub counters: GroupCommitCounters,
}

impl GroupCommit {
    fn new(file: File) -> Arc<GroupCommit> {
        Arc::new(GroupCommit {
            file,
            window_nanos: AtomicU64::new(0),
            inner: Mutex::new(GcInner {
                highest_requested: 0,
                highest_synced: 0,
                syncing: false,
                pending: 0,
            }),
            cond: Condvar::new(),
            counters: GroupCommitCounters::default(),
        })
    }

    /// Sets the leader wait window. Longer windows batch more commits per
    /// fsync at the cost of commit latency; zero fsyncs immediately.
    pub fn set_window(&self, window: Duration) {
        self.window_nanos.store(
            window.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// The current leader wait window.
    pub fn window(&self) -> Duration {
        Duration::from_nanos(self.window_nanos.load(Ordering::Relaxed))
    }

    /// Activity counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.counters.snapshot()
    }

    /// Blocks until commit `lsn` is durable, electing a leader to fsync on
    /// behalf of every queued committer.
    fn wait_durable(&self, lsn: u64) -> Result<(), StorageError> {
        let probe = axs_obs::probe_start();
        let result = self.wait_durable_inner(lsn);
        axs_obs::probe(axs_obs::EventKind::GroupCommitWait, probe, lsn, 0);
        result
    }

    fn wait_durable_inner(&self, lsn: u64) -> Result<(), StorageError> {
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        let mut g = self.inner.lock();
        if lsn > g.highest_requested {
            g.highest_requested = lsn;
        }
        g.pending += 1;
        loop {
            if g.highest_synced >= lsn {
                return Ok(());
            }
            if g.syncing {
                self.cond.wait(&mut g);
                continue;
            }
            // Leader: give followers the window to append their commits,
            // then seal everything requested so far with one fsync. The
            // records behind `highest_requested` were fully written before
            // their committers registered, so the fsync covers them.
            g.syncing = true;
            drop(g);
            let window = self.window();
            if !window.is_zero() {
                std::thread::sleep(window);
            }
            let (target, batch) = {
                let mut g = self.inner.lock();
                let target = g.highest_requested;
                let batch = std::mem::take(&mut g.pending);
                (target, batch)
            };
            let synced = self.file.sync_data();
            let mut after = self.inner.lock();
            after.syncing = false;
            if let Err(e) = synced {
                // Wake everyone; a waiter will take over as the next leader
                // and retry the fsync.
                self.cond.notify_all();
                return Err(e.into());
            }
            if target > after.highest_synced {
                after.highest_synced = target;
            }
            self.counters.syncs.fetch_add(1, Ordering::Relaxed);
            self.counters.observe(batch, 1);
            self.cond.notify_all();
            g = after;
        }
    }

    /// Marks every commit at or below `lsn` durable and wakes waiters —
    /// called when a full sync (commit or data-file flush) supersedes the
    /// queued fsyncs.
    fn mark_synced_through(&self, lsn: u64) {
        let mut g = self.inner.lock();
        if lsn > g.highest_synced {
            g.highest_synced = lsn;
            drop(g);
            self.cond.notify_all();
        }
    }
}

/// A pending group commit: proof that the commit record is in the log,
/// waiting to become durable. Obtain from [`Wal::commit_nosync`], then call
/// [`CommitTicket::wait`] *after* releasing locks so unrelated committers
/// can batch into the same fsync.
#[must_use = "a commit is not durable until the ticket is waited on"]
pub struct CommitTicket {
    group: Arc<GroupCommit>,
    lsn: u64,
}

impl CommitTicket {
    /// The LSN of the commit record this ticket tracks.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Blocks until the commit is durable (fsynced by this thread or a
    /// concurrent leader, or superseded by a full data-file sync).
    pub fn wait(self) -> Result<(), StorageError> {
        self.group.wait_durable(self.lsn)
    }
}

/// An append-only write-ahead log over one file.
pub struct Wal {
    file: File,
    page_size: usize,
    /// Next byte offset to append at.
    end: u64,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Records appended through this handle (images + commits).
    appended: u64,
    /// Shared fsync batcher for [`Wal::commit_nosync`].
    group: Arc<GroupCommit>,
}

fn open_file(path: &Path) -> Result<File, StorageError> {
    Ok(OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?)
}

impl Wal {
    /// Creates a fresh, empty log at `path`, truncating any previous file.
    pub fn create(path: &Path, page_size: usize) -> Result<Wal, StorageError> {
        let file = open_file(path)?;
        file.set_len(0)?;
        let group = GroupCommit::new(file.try_clone()?);
        let mut wal = Wal {
            file,
            page_size,
            end: HEADER_LEN,
            next_lsn: 1,
            appended: 0,
            group,
        };
        wal.write_header()?;
        wal.file.sync_data()?;
        Ok(wal)
    }

    /// Writes the current-version header over the first 16 bytes.
    fn write_header(&mut self) -> Result<(), StorageError> {
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        self.file.write_all_at(&header, 0)?;
        Ok(())
    }

    /// Opens (creating if missing) the log at `path` and scans it for
    /// committed batches. The caller replays the batches into the data
    /// file and then calls [`Wal::reset`], which also relabels a version-1
    /// log, before it appends anything.
    pub fn recover(path: &Path, page_size: usize) -> Result<(Wal, WalRecovery), StorageError> {
        if !path.exists() {
            return Ok((Wal::create(path, page_size)?, WalRecovery::default()));
        }
        let file = open_file(path)?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN {
            // Torn header: nothing can be valid, start over.
            drop(file);
            let wal = Wal::create(path, page_size)?;
            return Ok((
                wal,
                WalRecovery {
                    torn_tail_bytes: len,
                    ..WalRecovery::default()
                },
            ));
        }
        let mut buf = vec![0u8; len as usize];
        file.read_exact_at(&mut buf, 0)?;
        let magic = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let ps = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        if magic != MAGIC || !(VERSION_FULL_IMAGES..=VERSION).contains(&version) {
            return Err(StorageError::BadConfig("not a recognized WAL file"));
        }
        if ps as usize != page_size {
            return Err(StorageError::BadConfig(
                "WAL page size disagrees with the store",
            ));
        }

        let mut recovery = WalRecovery {
            page_size,
            ..WalRecovery::default()
        };
        let mut pending: Vec<LoggedImage> = Vec::new();
        let mut max_lsn = 0u64;
        let mut offset = HEADER_LEN as usize;
        let mut valid_end = offset;
        while offset < buf.len() {
            let Some(record) = parse_record(&buf[offset..], page_size) else {
                break; // torn or corrupt tail
            };
            max_lsn = max_lsn.max(record.lsn);
            match record.kind {
                RecordKind::PageImage => {
                    let at = offset + RECORD_HEADER_LEN;
                    pending.push(LoggedImage {
                        page: PageId(record.page),
                        lsn: record.lsn,
                        payload: at..at + record.payload.len(),
                    });
                }
                RecordKind::Commit => recovery.batches.push(std::mem::take(&mut pending)),
            }
            offset += record.total_len;
            valid_end = offset;
        }
        recovery.torn_tail_bytes = (buf.len() - valid_end) as u64;
        recovery.uncommitted_records = pending.len() as u64;
        recovery.log = buf;
        let group = GroupCommit::new(file.try_clone()?);
        Ok((
            Wal {
                file,
                page_size,
                end: valid_end as u64,
                next_lsn: max_lsn + 1,
                appended: 0,
                group,
            },
            recovery,
        ))
    }

    /// Appends a page-image record, returning its LSN. Not yet durable —
    /// call [`Wal::commit`] to seal the batch. The page is logged up to its
    /// last non-zero byte; recovery restores the zeros.
    pub fn append_image(&mut self, page: PageId, image: &[u8]) -> Result<u64, StorageError> {
        assert_eq!(image.len(), self.page_size, "image must be one page");
        let len = image.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let lsn = self.append(RecordKind::PageImage, page.0, &image[..len])?;
        Ok(lsn)
    }

    /// Appends a commit record and syncs the log: the batch appended since
    /// the previous commit is now durable.
    pub fn commit(&mut self) -> Result<u64, StorageError> {
        let lsn = self.append(RecordKind::Commit, 0, &[])?;
        self.file.sync_data()?;
        // The full sync also covers any commit records queued behind a
        // group-commit leader; let their waiters go.
        self.group.mark_synced_through(lsn);
        Ok(lsn)
    }

    /// Appends a commit record *without* syncing, returning a ticket that
    /// becomes durable through the shared [`GroupCommit`] batcher. Call
    /// [`CommitTicket::wait`] after releasing whatever lock serialized the
    /// append.
    pub fn commit_nosync(&mut self) -> Result<CommitTicket, StorageError> {
        let lsn = self.append(RecordKind::Commit, 0, &[])?;
        Ok(CommitTicket {
            group: Arc::clone(&self.group),
            lsn,
        })
    }

    /// The shared group-commit batcher (window configuration and stats).
    pub fn group_commit(&self) -> &Arc<GroupCommit> {
        &self.group
    }

    fn append(&mut self, kind: RecordKind, page: u64, payload: &[u8]) -> Result<u64, StorageError> {
        let probe = axs_obs::probe_start();
        let lsn = self.next_lsn;
        let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + payload.len() + TRAILER_LEN);
        rec.push(kind as u8);
        rec.extend_from_slice(&lsn.to_le_bytes());
        rec.extend_from_slice(&page.to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let crc = crate::checksum::crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all_at(&rec, self.end)?;
        self.end += rec.len() as u64;
        self.next_lsn += 1;
        self.appended += 1;
        axs_obs::probe(axs_obs::EventKind::WalAppend, probe, rec.len() as u64, 0);
        Ok(lsn)
    }

    /// Truncates the log back to its header (checkpoint: the data file now
    /// holds everything the last commit promised), rewriting the header so
    /// an older log is relabelled with the current version.
    ///
    /// Outstanding [`CommitTicket`]s are released first: reset only runs
    /// after the data file itself is synced, so every commit appended so
    /// far is already durable — truncating without waking waiters would
    /// leave them blocked on an fsync of records that no longer exist.
    pub fn reset(&mut self) -> Result<(), StorageError> {
        self.group
            .mark_synced_through(self.next_lsn.saturating_sub(1));
        self.file.set_len(HEADER_LEN)?;
        self.write_header()?;
        self.file.sync_data()?;
        self.end = HEADER_LEN;
        Ok(())
    }

    /// Records appended through this handle.
    pub fn records_appended(&self) -> u64 {
        self.appended
    }

    /// The LSN the next record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

struct ParsedRecord<'a> {
    kind: RecordKind,
    lsn: u64,
    page: u64,
    payload: &'a [u8],
    total_len: usize,
}

/// Parses one record at the start of `buf`; `None` for torn/corrupt data.
fn parse_record(buf: &[u8], page_size: usize) -> Option<ParsedRecord<'_>> {
    if buf.len() < RECORD_HEADER_LEN + TRAILER_LEN {
        return None;
    }
    let kind = match buf[0] {
        1 => RecordKind::PageImage,
        2 => RecordKind::Commit,
        _ => return None,
    };
    let lsn = u64::from_le_bytes(buf[1..9].try_into().unwrap());
    let page = u64::from_le_bytes(buf[9..17].try_into().unwrap());
    let len = u32::from_le_bytes(buf[17..21].try_into().unwrap()) as usize;
    let len_ok = match kind {
        RecordKind::PageImage => len <= page_size,
        RecordKind::Commit => len == 0,
    };
    if !len_ok {
        return None;
    }
    let total_len = RECORD_HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total_len {
        return None;
    }
    let body = &buf[..RECORD_HEADER_LEN + len];
    let stored = u32::from_le_bytes(buf[RECORD_HEADER_LEN + len..total_len].try_into().unwrap());
    if crate::checksum::crc32(body) != stored {
        return None;
    }
    Some(ParsedRecord {
        kind,
        lsn,
        page,
        payload: &buf[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len],
        total_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const PS: usize = 256;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("axs-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn image(fill: u8) -> Vec<u8> {
        vec![fill; PS]
    }

    #[test]
    fn committed_batches_are_recovered_in_order() {
        let path = temp_wal("basic");
        {
            let mut wal = Wal::create(&path, PS).unwrap();
            wal.append_image(PageId(3), &image(1)).unwrap();
            wal.append_image(PageId(5), &image(2)).unwrap();
            wal.commit().unwrap();
            wal.append_image(PageId(3), &image(9)).unwrap();
            wal.commit().unwrap();
            assert_eq!(wal.records_appended(), 5);
        }
        let (wal, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.torn_tail_bytes, 0);
        assert_eq!(rec.uncommitted_records, 0);
        assert_eq!(rec.batches[0].len(), 2);
        assert_eq!(rec.batches[0][0].page, PageId(3));
        assert_eq!(rec.image(&rec.batches[0][0]), image(1));
        assert_eq!(rec.image(&rec.batches[1][0]), image(9));
        // LSNs continue past what was scanned.
        assert!(wal.next_lsn() > rec.batches[1][0].lsn);
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let path = temp_wal("uncommitted");
        {
            let mut wal = Wal::create(&path, PS).unwrap();
            wal.append_image(PageId(1), &image(1)).unwrap();
            wal.commit().unwrap();
            wal.append_image(PageId(2), &image(2)).unwrap();
            // no commit
        }
        let (_, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.uncommitted_records, 1);
        assert_eq!(rec.torn_tail_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let path = temp_wal("torn");
        {
            let mut wal = Wal::create(&path, PS).unwrap();
            wal.append_image(PageId(1), &image(1)).unwrap();
            wal.commit().unwrap();
            wal.append_image(PageId(2), &image(2)).unwrap();
            wal.commit().unwrap();
        }
        // Tear the last commit record: drop its final 2 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        let (mut wal, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 1, "torn commit must not seal batch 2");
        assert_eq!(rec.uncommitted_records, 1);
        assert!(rec.torn_tail_bytes > 0);
        wal.reset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
    }

    #[test]
    fn corrupt_record_stops_the_scan() {
        let path = temp_wal("corrupt");
        {
            let mut wal = Wal::create(&path, PS).unwrap();
            wal.append_image(PageId(1), &image(1)).unwrap();
            wal.commit().unwrap();
            wal.append_image(PageId(2), &image(2)).unwrap();
            wal.commit().unwrap();
        }
        // Flip one payload byte of the second batch's image.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_image_payload = HEADER_LEN as usize
            + (RECORD_HEADER_LEN + PS + TRAILER_LEN)      // first image
            + (RECORD_HEADER_LEN + TRAILER_LEN)           // first commit
            + RECORD_HEADER_LEN
            + 10;
        bytes[second_image_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert!(rec.torn_tail_bytes > 0);
    }

    #[test]
    fn reset_then_reuse() {
        let path = temp_wal("reset");
        let mut wal = Wal::create(&path, PS).unwrap();
        wal.append_image(PageId(1), &image(1)).unwrap();
        wal.commit().unwrap();
        wal.reset().unwrap();
        wal.append_image(PageId(7), &image(7)).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0][0].page, PageId(7));
    }

    #[test]
    fn group_commit_tickets_become_durable() {
        let path = temp_wal("group");
        let wal = Mutex::new(Wal::create(&path, PS).unwrap());
        wal.lock()
            .group_commit()
            .set_window(Duration::from_millis(1));
        std::thread::scope(|scope| {
            for t in 0..8u8 {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..4u8 {
                        let ticket = {
                            let mut w = wal.lock();
                            w.append_image(PageId(t as u64), &image(t ^ i)).unwrap();
                            w.commit_nosync().unwrap()
                        };
                        // Wait outside the lock — this is where batching
                        // across committers happens.
                        ticket.wait().unwrap();
                    }
                });
            }
        });
        let wal = wal.into_inner();
        let stats = wal.group_commit().stats();
        assert_eq!(stats.commits, 32);
        assert!(stats.syncs >= 1 && stats.syncs <= 32);
        let mut rows = Vec::new();
        wal.group_commit().counters.rows(&mut rows);
        let batches = rows
            .iter()
            .filter(|r| r.name.starts_with("wal.group_batch_"));
        assert_eq!(batches.map(|r| r.value).sum::<u64>(), stats.syncs);
        drop(wal);
        let (_, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 32, "every nosync commit must be sealed");
        assert_eq!(rec.uncommitted_records, 0);
        assert_eq!(rec.torn_tail_bytes, 0);
    }

    #[test]
    fn reset_releases_outstanding_tickets() {
        let path = temp_wal("group-reset");
        let mut wal = Wal::create(&path, PS).unwrap();
        wal.append_image(PageId(1), &image(1)).unwrap();
        let ticket = wal.commit_nosync().unwrap();
        wal.reset().unwrap();
        // The ticket must resolve without anyone fsyncing on its behalf.
        ticket.wait().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
    }

    #[test]
    fn full_commit_releases_queued_tickets() {
        let path = temp_wal("group-full");
        let mut wal = Wal::create(&path, PS).unwrap();
        wal.append_image(PageId(1), &image(1)).unwrap();
        let ticket = wal.commit_nosync().unwrap();
        wal.append_image(PageId(2), &image(2)).unwrap();
        wal.commit().unwrap();
        ticket.wait().unwrap();
        let stats = wal.group_commit().stats();
        assert_eq!(stats.syncs, 0, "the full commit's fsync covered the ticket");
        drop(wal);
        let (_, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 2);
    }

    #[test]
    fn histogram_buckets_cover_all_sizes() {
        let c = GroupCommitCounters::default();
        for batch in [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 1000] {
            c.observe(batch, 1);
        }
        let s = c.snapshot();
        let buckets = [s.batch_le_1, s.batch_le_2, s.batch_le_3, s.batch_le_4];
        assert_eq!(buckets, [1, 1, 1, 1]);
        assert_eq!([s.batch_le_8, s.batch_le_16, s.batch_gt_16], [2, 2, 2]);
    }

    /// A page of `fill` whose last `zeros` bytes are zero.
    fn zero_tailed(fill: u8, zeros: usize) -> Vec<u8> {
        let mut img = image(fill);
        img[PS - zeros..].fill(0);
        img
    }

    fn log_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn last_committed_image_wins_once_per_page() {
        let path = temp_wal("last-image");
        let (p, q) = (PageId(4), PageId(2));
        let mut lsns = Vec::new();
        {
            let mut wal = Wal::create(&path, PS).unwrap();
            for batch in [&[(p, 1), (q, 2)][..], &[(p, 3)], &[(q, 4), (p, 5)]] {
                for &(page, fill) in batch {
                    lsns.push((page, fill, wal.append_image(page, &image(fill)).unwrap()));
                }
                wal.commit().unwrap();
            }
            wal.append_image(p, &image(9)).unwrap(); // never committed
        }
        let (_, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 3);
        assert_eq!(rec.uncommitted_records, 1);
        let lsn_of = |page, fill| {
            lsns.iter()
                .find(|&&(pg, f, _)| pg == page && f == fill)
                .unwrap()
                .2
        };
        let last: Vec<_> = rec
            .last_images()
            .into_iter()
            .map(|img| (img.page, img.image, img.lsn))
            .collect();
        assert_eq!(
            last,
            vec![(q, image(4), lsn_of(q, 4)), (p, image(5), lsn_of(p, 5))]
        );
    }

    #[test]
    fn zero_tails_are_not_logged() {
        let path = temp_wal("short");
        let mut wal = Wal::create(&path, PS).unwrap();
        for zeros in [0, 1, 7, PS - 1, PS] {
            let before = log_len(&path);
            wal.append_image(PageId(1), &zero_tailed(3, zeros)).unwrap();
            let grew = (log_len(&path) - before) as usize;
            assert_eq!(
                grew,
                RECORD_HEADER_LEN + PS - zeros + TRAILER_LEN,
                "zeros {zeros}"
            );
        }
        wal.commit().unwrap();
        drop(wal);
        let (_, rec) = Wal::recover(&path, PS).unwrap();
        let images: Vec<_> = rec.batches[0].iter().map(|i| rec.image(i)).collect();
        let expected: Vec<_> = [0, 1, 7, PS - 1, PS]
            .into_iter()
            .map(|zeros| zero_tailed(3, zeros))
            .collect();
        assert_eq!(images, expected, "replay restores every byte");
        assert_eq!(images[4], vec![0u8; PS], "an all-zero image recovers");
    }

    #[test]
    fn version_one_log_recovers_and_is_relabelled() {
        let path = temp_wal("v1");
        {
            // Full images only: exactly what a version-1 writer logged.
            let mut wal = Wal::create(&path, PS).unwrap();
            wal.append_image(PageId(1), &image(1)).unwrap();
            wal.commit().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&VERSION_FULL_IMAGES.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, rec) = Wal::recover(&path, PS).unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.image(&rec.batches[0][0]), image(1));
        assert_eq!(rec.torn_tail_bytes, 0);
        wal.reset().unwrap();
        let header = std::fs::read(&path).unwrap();
        assert_eq!(header.len() as u64, HEADER_LEN);
        assert_eq!(u32::from_le_bytes(header[8..12].try_into().unwrap()), 2);
    }

    #[test]
    fn image_longer_than_a_page_is_torn() {
        let path = temp_wal("overlong");
        {
            let mut wal = Wal::create(&path, PS).unwrap();
            wal.append_image(PageId(1), &image(1)).unwrap();
            wal.commit().unwrap();
        }
        let valid = log_len(&path);
        // A well-formed record, CRC included, one byte longer than a page.
        let mut rec = vec![RecordKind::PageImage as u8];
        rec.extend_from_slice(&9u64.to_le_bytes());
        rec.extend_from_slice(&2u64.to_le_bytes());
        rec.extend_from_slice(&((PS + 1) as u32).to_le_bytes());
        rec.extend_from_slice(&vec![7u8; PS + 1]);
        let crc = crate::checksum::crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        let mut commit = vec![RecordKind::Commit as u8];
        commit.extend_from_slice(&10u64.to_le_bytes());
        commit.extend_from_slice(&0u64.to_le_bytes());
        commit.extend_from_slice(&0u32.to_le_bytes());
        let crc = crate::checksum::crc32(&commit);
        commit.extend_from_slice(&crc.to_le_bytes());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&rec);
        bytes.extend_from_slice(&commit);
        std::fs::write(&path, &bytes).unwrap();
        let (wal, scan) = Wal::recover(&path, PS).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert_eq!(scan.torn_tail_bytes, bytes.len() as u64 - valid);
        assert_eq!(wal.next_lsn(), 3, "nothing past the torn record was read");
    }

    #[test]
    fn page_size_mismatch_is_rejected() {
        let path = temp_wal("psmismatch");
        drop(Wal::create(&path, PS).unwrap());
        assert!(matches!(
            Wal::recover(&path, PS * 2),
            Err(StorageError::BadConfig(_))
        ));
    }
}
