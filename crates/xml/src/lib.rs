#![warn(missing_docs)]

//! # axs-xml — XML text ⇄ token sequences
//!
//! The paper's store consumes and produces *token sequences* (see
//! `axs-xdm`); this crate is the boundary between XML text and that
//! representation:
//!
//! - [`parser`] — a from-scratch pull parser in the style of the BEA/XQRL
//!   streaming processor [Florescu et al., VLDB 2003], producing enriched-SAX
//!   tokens (attributes get their own begin/end tokens);
//! - [`serializer`] — tokens back to XML text, compact or pretty;
//! - [`schema`] — a lightweight PSVI annotator that attaches type
//!   annotations to tokens from path rules (requirement 7 of §2);
//! - [`entities`] — the five predefined entities plus numeric character
//!   references.
//!
//! The parser supports elements, attributes, text, CDATA, comments,
//! processing instructions, an optional XML declaration, and a skipped
//! DOCTYPE. Namespaces are handled lexically (`prefix:local`); `xmlns`
//! attributes round-trip unchanged.

pub mod entities;
pub mod parser;
pub mod schema;
pub mod serializer;

pub use parser::{parse_document, parse_fragment, ParseError, ParseOptions, PullParser};
pub use schema::{Annotator, Schema, SchemaError, SchemaRule};
pub use serializer::{
    serialize, serialize_into, SerializeOptions, StreamSerializer, TextSink, TokenWriteError,
    TokenWriter,
};
