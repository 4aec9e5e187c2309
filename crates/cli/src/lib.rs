#![warn(missing_docs)]

//! # axs-cli — an interactive shell over the adaptive XML store
//!
//! A small REPL exercising the full public API: load XML documents, run
//! XPath and FLWOR queries, apply the Table 1 update operations by node
//! id, inspect the store (statistics, Range Index, storage report, plan
//! traces), compact, and manage named stores. Every command runs over
//! the `axsd` wire protocol through one executor, [`Session`]: `axs
//! connect` talks to a running server, and the local shell serves its
//! directory in-process on loopback ([`Session::local`]), so the two
//! shells are the same shell. The command layer is a library so it is
//! unit-testable; the `axs` binary wires it to stdin/stdout.
//!
//! ```text
//! axs [directory]              # omit the directory for an in-memory catalog
//! axs> load orders.xml
//! axs> query //order[@id='7']
//! axs> insert-last 1 <order id="8"/>
//! axs> show 42
//! axs> stats
//! axs> compact
//! axs> save
//! ```

pub mod command;
pub mod session;
pub mod top;

pub use command::{parse_command, Command};
pub use session::{Outcome, Session};
