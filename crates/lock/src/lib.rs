#![warn(missing_docs)]

//! # axs-lock — hierarchical locking for the three-layer store
//!
//! §9 of the paper: "The flat model proposed in this paper allows the
//! definition of these concepts on a three-layer architecture: blocks,
//! ranges and tokens. Again, the principles of storage already defined in
//! the context by relational database systems, have an immediate
//! application here."
//!
//! This crate is that application: classic multi-granularity locking
//! (Gray's IS/IX/S/X) over the hierarchy **store → block → range**, with
//! strict two-phase discipline per transaction and wait-for-graph deadlock
//! detection. Locking a range takes intention locks on its block and the
//! store automatically, so a whole-store scanner (`S` on the store) blocks
//! range writers while two writers in different blocks proceed in parallel.
//!
//! The server does not use it: a store's writes are ordered by the
//! store's own reader-writer guard alone (`axs-core`'s `ConcurrentStore`,
//! which the server's catalog slots and embedded callers share) — see
//! DESIGN.md §5d. The manager is a library for callers that want
//! multi-operation isolation, and is tested standalone, including under
//! thread stress, in the crate's integration tests.

pub mod manager;
pub mod modes;

pub use manager::{LockError, LockManager, LockStats, TxId};
pub use modes::{compatible, LockMode, Resource};
