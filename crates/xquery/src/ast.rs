//! FLWOR AST.

use axs_xpath::{CompareOp, Literal, XPath};

/// A variable reference with an optional relative continuation:
/// `$x`, `$x/rel/path`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarPath {
    /// The referenced variable (without `$`).
    pub var: String,
    /// The variable's slot in a binding: 0 for the `for` variable, `i` for
    /// the `i`-th `let`.
    pub slot: usize,
    /// Further navigation below the variable's value, when present.
    pub path: Option<XPath>,
}

/// A parsed FLWOR query.
#[derive(Debug, Clone, PartialEq)]
pub struct FlworQuery {
    /// The `for` variable name (without `$`).
    pub variable: String,
    /// The binding sequence: an absolute path over the store.
    pub source: XPath,
    /// `let $name := $var/rel/path` bindings, in order (each may reference
    /// the `for` variable or an earlier `let`).
    pub lets: Vec<(String, VarPath)>,
    /// Optional filter.
    pub where_clause: Option<WhereClause>,
    /// Optional ordering.
    pub order_by: Option<OrderBy>,
    /// The result constructor.
    pub ret: Constructor,
}

/// `where $v[/rel/path] [<op> literal]` — existence when no operator.
#[derive(Debug, Clone, PartialEq)]
pub struct WhereClause {
    /// The tested value.
    pub path: VarPath,
    /// Comparison, when present.
    pub compare: Option<(CompareOp, Literal)>,
}

/// `order by $v[/rel/path] [numeric] [descending]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// The sort key.
    pub path: VarPath,
    /// Compare keys as numbers (missing/non-numeric keys sort first).
    pub numeric: bool,
    /// Reverse order.
    pub descending: bool,
}

/// A result constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum Constructor {
    /// A literal element with attributes and children.
    Element {
        /// Element name.
        name: String,
        /// Attributes; values may embed expressions.
        attributes: Vec<(String, Vec<AttrPart>)>,
        /// Child constructors.
        children: Vec<Constructor>,
    },
    /// Literal text.
    Text(String),
    /// `{ $v }` / `{ $v/rel/path }` — splice the value's subtrees in
    /// document order.
    Splice(VarPath),
    /// `{ string($v/rel/path) }` — the first value's string value as text.
    StringOf(VarPath),
}

/// One piece of an attribute value template: literal text or the string
/// value of a variable path.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrPart {
    /// Literal text.
    Literal(String),
    /// `{ $v/rel/path }` — the first value's string value.
    Path(VarPath),
}
