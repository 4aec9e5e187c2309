#![warn(missing_docs)]

//! # axs-client — wire protocol and blocking client for `axsd`
//!
//! The adaptive XML store's network face is a length-prefixed binary
//! protocol over TCP: every message is one *frame* carrying a request id
//! (so responses can be matched to requests), an opcode, a status byte and
//! an opcode-specific payload. Large results (XPath matches, FLWOR rows,
//! whole-store serializations) stream as a run of `More` frames closed by
//! one `Done` frame, so neither side ever has to buffer an unbounded
//! response.
//!
//! [`wire`] defines the frame codec — shared verbatim by the server crate —
//! and [`Client`] is a small blocking client that covers the full opcode
//! surface:
//!
//! ```no_run
//! use axs_client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! client.bulk_load("<orders><order id=\"1\"/></orders>")?;
//! for m in client.query("//order")? {
//!     println!("{:?} {}", m.id, m.xml);
//! }
//! client.insert_last(1, "<order id=\"2\"/>")?;
//! println!("{:?}", client.stats()?);
//! # Ok::<(), axs_client::ClientError>(())
//! ```

pub mod client;
pub mod wire;

pub use client::{Client, ClientError, ExplainEvent, ExplainReport, Match, StatEntry, StoreInfo};
pub use wire::{ErrorCode, Frame, OpCode, Status};
