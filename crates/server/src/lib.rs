#![warn(missing_docs)]

//! # axs-server — `axsd`, a concurrent network front for the adaptive store
//!
//! The paper's store already carries the ingredients of a multi-user
//! system: a partial index designed around concurrent updaters (§5, §7),
//! MVCC epochs for readers and a crash-safe group-commit WAL. This crate
//! puts a network face on those ingredients: a multi-threaded TCP server
//! that owns a [`Catalog`] of named [`axs_core::XmlStore`]s and serves
//! many concurrent sessions over the length-prefixed binary protocol
//! defined in [`axs_client::wire`]. Every request frame names its target
//! store by id; stores are opened lazily on first access and each has its
//! own WAL, adaptive-index state, write guard and epoch registry, so
//! sessions on different stores share nothing but the worker pool.
//!
//! Architecture, per connection and per request:
//!
//! ```text
//! accept loop ─→ session thread (frame I/O, timeouts, backpressure)
//!                   │   │
//!                   │   └─→ inline: Ping, and with MVCC the point reads
//!                   │       (ReadNode / Value / Children / Parent) on a
//!                   │       pinned snapshot — no guard, no queue
//!                   │  everything else: bounded queue (Busy beyond the limit)
//!                   ▼
//!                worker pool ─→ exec: the store's write guard for writes,
//!                               its shared guard for admin reads, or a
//!                               pinned snapshot for queries and scans;
//!                               results streamed back
//! ```
//!
//! Graceful shutdown (SIGTERM, Ctrl-C, or the `Shutdown` opcode) drains
//! sessions and workers, then flushes the store through the WAL so the
//! directory reopens clean.
//!
//! ```no_run
//! use axs_core::StoreBuilder;
//! use axs_server::{Server, ServerConfig};
//!
//! let store = StoreBuilder::new().build()?;
//! let handle = Server::start(store, ServerConfig::default())?;
//! println!("axsd listening on {}", handle.local_addr());
//! handle.join()?; // serves until shutdown is requested
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod exec;
mod metrics;
mod pool;
mod server;
mod stats;

pub use axs_catalog::{Catalog, CatalogConfig, CatalogError, DEFAULT_STORE};
pub use config::ServerConfig;
pub use server::{Server, ServerError, ServerHandle};
pub use stats::{ReadGuard, ServerStats};
