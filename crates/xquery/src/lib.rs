#![warn(missing_docs)]

//! # axs-xquery — a FLWOR subset over the adaptive store
//!
//! Requirement 2 of the paper's desiderata (§2) is XQuery support; the
//! store's contribution is that its flat token representation can serve a
//! query processor without materializing a DOM. This crate implements the
//! core FLWOR shape over the `axs-xpath` engine:
//!
//! ```text
//! for $x in <absolute-path>
//! (let $y := $v[/rel/path])*
//! [where $v[/rel/path] [<op> <literal>]]
//! [order by $v[/rel/path] [numeric] [descending]]
//! return <constructor>
//! ```
//!
//! The `return` clause is an element constructor with embedded expressions:
//! literal elements/text plus `{ $x }` (the whole binding) and
//! `{ $x/rel/path }` (matched subtrees). Examples:
//!
//! ```text
//! for $o in /orders/order
//! let $lines := $o/line
//! where $lines/qty > 5
//! order by $o/price numeric descending
//! return <big id="{ $o/@id }">{ $lines/sku }</big>
//! ```

pub mod ast;
pub mod eval;
pub mod parser;

pub use ast::{AttrPart, Constructor, FlworQuery, OrderBy, VarPath, WhereClause};
pub use eval::{evaluate_flwor, evaluate_flwor_into, RowSink};
pub use parser::{parse_flwor, FlworError};
