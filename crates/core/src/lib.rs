#![warn(missing_docs)]

//! # axs-core — the adaptive XML store
//!
//! The paper's primary contribution: an XML store whose logical storage unit
//! is the **Range** — "a sequence of variable-sized tokens" whose boundaries
//! are defined by the application's insert pattern, the XML analogue of the
//! relational *record* (§4.2). The store is *adaptive* and *lazy*: it
//! optimizes reads or updates according to the workload by choosing how much
//! indexing to do, and builds its granular index entries only when lookups
//! actually need them (§5).
//!
//! Modules:
//!
//! - [`store`] — [`XmlStore`]: state, builder, node-lookup machinery;
//! - [`range`] — the on-page range payload codec and split arithmetic;
//! - [`ops`] — the Table 1 interface: `insert_before` / `insert_after` /
//!   `insert_into_first` / `insert_into_last` / `delete_node` /
//!   `replace_node` / `replace_content` / `read` / `read_node`;
//! - [`cursor`] — document-order token cursors with ID regeneration;
//! - [`view`] — [`ReadView`]: the read surface shared by the live store
//!   and frozen MVCC snapshots;
//! - [`mvcc`] — epoch-based snapshots: publish on commit, pin at read
//!   dispatch, retire when no reader pins the epoch;
//! - [`table`] — [`NodeTable`]: the flat node table queries evaluate
//!   against, built once per snapshot epoch;
//! - [`policy`] — [`IndexingPolicy`]: Full / RangeOnly / RangePlusPartial /
//!   Adaptive, plus the adaptive controller;
//! - [`stats`] — operation and lookup-path counters;
//! - [`shared`] — [`ConcurrentStore`]: the one handle on a shared store —
//!   reader-writer lock, epoch registry, durable write (§9 outlook).

pub mod adapt;
pub mod bulkload;
pub mod cursor;
pub mod error;
pub mod maintenance;
pub mod mvcc;
pub mod navigate;
pub mod ops;
pub mod policy;
pub mod psvi;
pub mod range;
pub mod shared;
pub mod stats;
pub mod store;
pub mod table;
pub mod view;

pub use adapt::{AdaptCounters, AdaptEvent, AdaptEventKind, AdaptLog, ADAPT_LOG_CAPACITY};
pub use axs_obs::{series, stat_rows, StatRow};
pub use axs_storage::{CommitTicket, GroupCommitStats};
pub use bulkload::BulkLoader;
pub use cursor::{StoreCursor, ViewCursor};
pub use error::StoreError;
pub use maintenance::{CompactionReport, StorageReport};
pub use mvcc::{EpochRegistry, LazyRange, MvccStats, PinnedSnapshot, Snapshot};
pub use policy::{AdaptiveConfig, AdaptiveController, IndexingPolicy};
pub use psvi::AnnotateOutcome;
pub use range::{RangeHeader, RANGE_HEADER_LEN};
pub use shared::ConcurrentStore;
pub use stats::{LookupPath, SharedStats, StoreStats};
pub use store::{StoreBuilder, XmlStore};
pub use table::{NodeKind, NodeTable};
pub use view::{ReadView, ViewPos, ViewSpan};
