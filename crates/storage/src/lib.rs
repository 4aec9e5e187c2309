#![warn(missing_docs)]

//! # axs-storage — paged storage substrate
//!
//! The paper's prototype sat on MySQL via JDBC; this crate is the native
//! replacement (see DESIGN.md, "Substitutions"): a small but real paged
//! storage engine with the pieces the store needs:
//!
//! - [`page`] — page identifiers and little-endian field codecs;
//! - [`store`] — the [`PageStore`] trait with file-backed and in-memory
//!   implementations (`FilePageStore` uses positioned I/O, no seeks);
//! - [`pool`] — a buffer pool with LRU eviction, dirty write-back, and
//!   hit/miss/physical-I/O counters (the counters are what the experiment
//!   harness reports alongside wall-clock numbers);
//! - [`block`] — the slotted *block* layout of §4.4: a block is one page
//!   holding an ordered directory of ranges, chained to the next/previous
//!   block to preserve document order across pages;
//! - [`wal`] — a redo-only write-ahead log of page images with commit
//!   records and torn-tail recovery (see DESIGN.md, "Durability &
//!   Recovery");
//! - [`checksum`] — the uniform per-page CRC/LSN stamp verified by the
//!   buffer pool on physical reads;
//! - [`faulty`] — a deterministic fault-injecting [`PageStore`] wrapper
//!   (crash-after-Nth-write, torn writes, transient errors) for crash
//!   testing.

pub mod block;
pub mod checksum;
pub mod error;
pub mod faulty;
pub mod page;
pub mod pool;
pub mod store;
pub mod wal;

pub use block::{BLOCK_HEADER_LEN, SLOT_LEN};
pub use error::StorageError;
pub use faulty::{FaultConfig, FaultHandle, FaultyPageStore};
pub use page::PageId;
pub use pool::{BufferPool, PoolOptions, PoolStats, RetryPolicy};
pub use store::{FilePageStore, MemPageStore, PageStore};
pub use wal::{
    CommitTicket, GroupCommit, GroupCommitCounters, GroupCommitStats, LoggedImage, RecoveredImage,
    Wal, WalRecovery,
};

/// Configuration for a storage instance.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Page size in bytes. Must be a power of two, at least 512.
    pub page_size: usize,
    /// Buffer-pool capacity in frames (pages held in memory).
    pub pool_frames: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            page_size: 8192,
            pool_frames: 64,
        }
    }
}

impl StorageConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), StorageError> {
        if self.page_size < 512 || !self.page_size.is_power_of_two() {
            return Err(StorageError::BadConfig(
                "page_size must be a power of two >= 512",
            ));
        }
        if self.pool_frames < 4 {
            return Err(StorageError::BadConfig("pool_frames must be >= 4"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(StorageConfig::default().validate().is_ok());
    }

    #[test]
    fn config_rejects_tiny_and_odd_pages() {
        for (size, ok) in [(100usize, false), (5000, false), (512, true)] {
            let c = StorageConfig {
                page_size: size,
                ..StorageConfig::default()
            };
            assert_eq!(c.validate().is_ok(), ok, "page_size {size}");
        }
    }

    #[test]
    fn config_rejects_tiny_pool() {
        let c = StorageConfig {
            pool_frames: 1,
            ..StorageConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
