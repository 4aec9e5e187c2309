//! Page stores: the durable (or in-memory) array of fixed-size pages.

use crate::error::StorageError;
use crate::page::PageId;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// An array of fixed-size pages addressed by [`PageId`]. Implementations
/// must tolerate concurrent calls (the buffer pool serializes logically, but
/// stats readers may probe `num_pages` concurrently).
pub trait PageStore: Send + Sync {
    /// The fixed page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of allocated pages (ids `0..num_pages` are valid).
    fn num_pages(&self) -> u64;

    /// Reads page `id` into `buf` (`buf.len() == page_size`).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError>;

    /// Writes `buf` to page `id` (`buf.len() == page_size`).
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError>;

    /// Appends a zeroed page, returning its id.
    fn allocate_page(&self) -> Result<PageId, StorageError>;

    /// Flushes to durable media (no-op for memory stores).
    fn sync(&self) -> Result<(), StorageError>;
}

/// In-memory page store — used by unit tests and by the memory-resident
/// configurations of the experiments.
pub struct MemPageStore {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
}

impl MemPageStore {
    /// Creates an empty in-memory store.
    pub fn new(page_size: usize) -> Self {
        MemPageStore {
            page_size,
            pages: Mutex::new(Vec::new()),
        }
    }
}

impl PageStore for MemPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        debug_assert_eq!(buf.len(), self.page_size);
        let pages = self.pages.lock();
        let page = pages
            .get(id.0 as usize)
            .ok_or(StorageError::PageOutOfBounds(id))?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        debug_assert_eq!(buf.len(), self.page_size);
        let mut pages = self.pages.lock();
        let page = pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageOutOfBounds(id))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId, StorageError> {
        let mut pages = self.pages.lock();
        let id = PageId(pages.len() as u64);
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(id)
    }

    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// File-backed page store using positioned reads/writes.
pub struct FilePageStore {
    page_size: usize,
    file: File,
    num_pages: AtomicU64,
}

impl FilePageStore {
    /// Opens (or creates) the file at `path`. An existing file must have a
    /// length that is a multiple of `page_size`.
    pub fn open(path: &Path, page_size: usize) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(StorageError::BadConfig(
                "existing file length is not a multiple of the page size",
            ));
        }
        Ok(FilePageStore {
            page_size,
            file,
            num_pages: AtomicU64::new(len / page_size as u64),
        })
    }

    /// Truncates a torn tail: if the file at `path` exists and its length
    /// is not a multiple of `page_size` (a write was cut short mid-page),
    /// drops the partial page and syncs. Returns the bytes removed. This is
    /// the recovery-path entry point; [`FilePageStore::open`] itself stays
    /// strict so ordinary opens never silently discard data.
    pub fn repair_tail(path: &Path, page_size: usize) -> Result<u64, StorageError> {
        if !path.exists() {
            return Ok(0);
        }
        let file = OpenOptions::new().write(true).open(path)?;
        let len = file.metadata()?.len();
        let torn = len % page_size as u64;
        if torn != 0 {
            file.set_len(len - torn)?;
            file.sync_data()?;
        }
        Ok(torn)
    }

    fn check_bounds(&self, id: PageId) -> Result<u64, StorageError> {
        if id.0 >= self.num_pages.load(Ordering::Acquire) {
            return Err(StorageError::PageOutOfBounds(id));
        }
        Ok(id.0 * self.page_size as u64)
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::Acquire)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        debug_assert_eq!(buf.len(), self.page_size);
        let offset = self.check_bounds(id)?;
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        debug_assert_eq!(buf.len(), self.page_size);
        let offset = self.check_bounds(id)?;
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, offset)?;
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId, StorageError> {
        use std::os::unix::fs::FileExt;
        let id = self.num_pages.fetch_add(1, Ordering::AcqRel);
        let zeroes = vec![0u8; self.page_size];
        self.file
            .write_all_at(&zeroes, id * self.page_size as u64)?;
        Ok(PageId(id))
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TempDir;

    fn exercise(store: &dyn PageStore) {
        let ps = store.page_size();
        assert_eq!(store.num_pages(), 0);
        let a = store.allocate_page().unwrap();
        let b = store.allocate_page().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(store.num_pages(), 2);

        let mut buf = vec![0u8; ps];
        store.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "fresh pages are zeroed");

        buf[0] = 0xAB;
        buf[ps - 1] = 0xCD;
        store.write_page(b, &buf).unwrap();
        let mut back = vec![0u8; ps];
        store.read_page(b, &mut back).unwrap();
        assert_eq!(back, buf);
        // Page a untouched.
        store.read_page(a, &mut back).unwrap();
        assert!(back.iter().all(|&x| x == 0));

        assert!(matches!(
            store.read_page(PageId(99), &mut buf),
            Err(StorageError::PageOutOfBounds(_))
        ));
        assert!(matches!(
            store.write_page(PageId(99), &buf),
            Err(StorageError::PageOutOfBounds(_))
        ));
        store.sync().unwrap();
    }

    #[test]
    fn mem_store_basics() {
        exercise(&MemPageStore::new(1024));
    }

    #[test]
    fn file_store_basics() {
        let dir = TempDir::new("store-basics");
        let path = dir.join("basics.pages");
        let _ = std::fs::remove_file(&path);
        exercise(&FilePageStore::open(&path, 1024).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_persists_across_reopen() {
        let dir = TempDir::new("store-reopen");
        let path = dir.join("reopen.pages");
        let _ = std::fs::remove_file(&path);
        {
            let store = FilePageStore::open(&path, 512).unwrap();
            let p = store.allocate_page().unwrap();
            let mut buf = vec![7u8; 512];
            buf[0] = 42;
            store.write_page(p, &buf).unwrap();
            store.sync().unwrap();
        }
        {
            let store = FilePageStore::open(&path, 512).unwrap();
            assert_eq!(store.num_pages(), 1);
            let mut buf = vec![0u8; 512];
            store.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf[0], 42);
            assert_eq!(buf[1], 7);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_rejects_misaligned_file() {
        let dir = TempDir::new("store-misaligned");
        let path = dir.join("misaligned.pages");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(
            FilePageStore::open(&path, 512),
            Err(StorageError::BadConfig(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repair_tail_truncates_partial_pages_only() {
        let dir = TempDir::new("store-repair");
        let path = dir.join("repair.pages");
        let mut bytes = vec![7u8; 512];
        bytes.extend_from_slice(&[9u8; 100]); // torn second page
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(FilePageStore::repair_tail(&path, 512).unwrap(), 100);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 512);
        // Aligned files (and repeat repairs) are untouched.
        assert_eq!(FilePageStore::repair_tail(&path, 512).unwrap(), 0);
        let store = FilePageStore::open(&path, 512).unwrap();
        assert_eq!(store.num_pages(), 1);
        // Missing files are fine too.
        let missing = dir.join("nope.pages");
        assert_eq!(FilePageStore::repair_tail(&missing, 512).unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
