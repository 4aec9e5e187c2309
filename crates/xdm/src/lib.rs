#![warn(missing_docs)]

//! # axs-xdm — XQuery Data Model tokens
//!
//! The foundational crate of the Adaptive XML Storage system. It defines the
//! *token* representation of XML from §3 of the paper: an XML instance is a
//! flat sequence of [`Token`]s — materialized, enriched SAX events in the
//! style of the BEA/XQRL streaming XQuery processor. Tokens are the most
//! granular unit of the store; a *node* is a contiguous token subsequence
//! starting with a begin token (which carries the node identifier) and ending
//! with the matching end token.
//!
//! The crate also provides:
//!
//! - [`NodeId`] and [`IdInterval`] — stable integer identifiers and the
//!   `[startId, endId]` intervals the Range Index is keyed by;
//! - [`TypeAnnotation`] — PSVI-style type annotations carried on tokens
//!   (requirement 7 of §2);
//! - [`codec`] — the compact binary serialization used when tokens are laid
//!   out on storage pages (node IDs are deliberately *not* part of the
//!   encoding; see §6.1 on low storage overhead);
//! - [`sequence`] — helpers over token slices: nesting depth, subtree
//!   boundaries, fragment well-formedness, and ID counting.

pub mod codec;
pub mod nodeid;
pub mod qname;
pub mod sequence;
pub mod token;
pub mod types;

pub use codec::{
    decode_token, decode_token_ref, decode_tokens, encode_token, encode_tokens, encoded_len,
    QNameRef, TokenRef,
};
pub use nodeid::{IdInterval, NodeId};
pub use qname::QName;
pub use sequence::{
    count_ids, depth_delta, document_well_formed, fragment_well_formed, subtree_end,
    top_level_nodes, FragmentError,
};
pub use token::{Token, TokenKind};
pub use types::TypeAnnotation;
