#![warn(missing_docs)]

//! # axs-xpath — XPath-subset evaluation over the token store
//!
//! The paper's requirement 1 (§2) is that the store can serve query
//! evaluation over the XQuery Data Model. This crate demonstrates that the
//! flat token/range representation supports navigational queries without
//! a DOM: paths are compiled to a small AST and evaluated against a flat
//! node table (axs-core's [`NodeTable`](axs_core::NodeTable): one column
//! per node property, no per-node objects) that reads the tokens where
//! they already are. A pinned snapshot builds its table once per epoch.
//!
//! Supported grammar (an XPath 1.0 subset):
//!
//! ```text
//! path      := '/'? step ('/' step)*  |  '//' step ('/' step)*
//! step      := axis? nodetest predicate*
//! axis      := 'child::' (default) | 'descendant::' ('//' shorthand)
//!            | 'attribute::' ('@' shorthand) | 'self::'
//! nodetest  := name | '*' | 'text()' | 'comment()' | 'node()'
//! predicate := '[' integer ']'                    positional
//!            | '[' relpath ']'                    existence
//!            | '[' relpath '=' 'literal' ']'      value comparison
//!            | '[' '@' name '=' 'literal' ']'     attribute comparison
//! ```

pub mod ast;
pub mod eval;
pub mod parser;

pub use ast::{Axis, CompareOp, NodeTest, Predicate, Step, XPath};
pub use eval::{
    evaluate, evaluate_at, evaluate_from_roots, evaluate_store, evaluate_table, Match, StoreMatch,
};
pub use parser::{compile, XPathError};
