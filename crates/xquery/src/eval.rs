//! FLWOR evaluation over the store.
//!
//! Variables bind to nodes of the view's [`NodeTable`] — indexes, not token
//! copies. `parse_flwor` gave each variable a slot, so a binding is one
//! node list per slot, and every binding's lists live back to back in one
//! shared array: a binding allocates nothing of its own. Each variable path
//! is prepared once per query as a [`Probe`], so `let`, `where`,
//! `order by` and the return template navigate from the bound nodes in
//! place, and `where` stops at the first node that satisfies it. The
//! return template is flattened once into the tokens it writes, and each
//! row goes to a [`RowSink`] token by token: the tokens of a bound subtree
//! are read where they lie, never copied into a row.

use crate::ast::{AttrPart, Constructor, FlworQuery, VarPath};
use axs_core::{NodeKind, NodeTable, ReadView, StoreError};
use axs_xdm::Token;
use axs_xpath::{evaluate_table, Probe};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Where [`evaluate_flwor_into`] puts its answer: each row's tokens in
/// order, then [`RowSink::end_row`].
pub trait RowSink {
    /// What the sink can fail with; a store failure converts into it.
    type Error: From<StoreError>;
    /// One token of the current row.
    fn token(&mut self, token: &Token) -> Result<(), Self::Error>;
    /// The current row is complete.
    fn end_row(&mut self) -> Result<(), Self::Error>;
}

/// Collects rows as token vectors: what [`evaluate_flwor`] returns.
#[derive(Default)]
struct Collect {
    rows: Vec<Vec<Token>>,
    row: Vec<Token>,
}

impl RowSink for Collect {
    type Error = StoreError;

    fn token(&mut self, token: &Token) -> Result<(), StoreError> {
        self.row.push(token.clone());
        Ok(())
    }

    fn end_row(&mut self) -> Result<(), StoreError> {
        self.rows.push(std::mem::take(&mut self.row));
        Ok(())
    }
}

/// Evaluates a FLWOR query, returning one constructed token fragment per
/// surviving binding (in binding order after `order by`).
///
/// ```
/// use axs_core::StoreBuilder;
/// use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
/// use axs_xquery::{evaluate_flwor, parse_flwor};
///
/// let mut store = StoreBuilder::new().build()?;
/// store.bulk_insert(parse_fragment(
///     r#"<os><o id="1"><q>5</q></o><o id="2"><q>9</q></o></os>"#,
///     ParseOptions::default(),
/// )?)?;
/// let query = parse_flwor(r#"for $o in /os/o where $o/q > 6
///                            return <hot id="{ $o/@id }"/>"#)?;
/// let rows = evaluate_flwor(&store, &query)?;
/// assert_eq!(serialize(&rows[0], &SerializeOptions::default())?, r#"<hot id="2"/>"#);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate_flwor<V: ReadView>(
    store: &V,
    query: &FlworQuery,
) -> Result<Vec<Vec<Token>>, StoreError> {
    let mut rows = Collect::default();
    evaluate_flwor_into(store, query, &mut rows)?;
    Ok(rows.rows)
}

/// Evaluates a FLWOR query into `sink`, one row per surviving binding (in
/// binding order after `order by`); returns the number of rows.
pub fn evaluate_flwor_into<V: ReadView, S: RowSink>(
    store: &V,
    query: &FlworQuery,
    sink: &mut S,
) -> Result<usize, S::Error> {
    let table = store.node_table()?;
    let t = &*table;
    let lets: Vec<Ref<'_>> = query.lets.iter().map(|(_, vp)| Ref::new(t, vp)).collect();
    let filter = query
        .where_clause
        .as_ref()
        .map(|w| (Ref::new(t, &w.path), w.compare.as_ref()));
    let mut template = Template::new(t, &query.ret);
    let slots = 1 + lets.len();
    let mut b = Bindings::default();
    let mut kept = 0;
    for n in evaluate_table(t, &query.source) {
        // FOR binds slot 0; each LET fills the next slot.
        let at = b.open(n);
        for r in &lets {
            b.bind(t, at, r);
        }
        // WHERE: drop the binding unless some item satisfies the test.
        if let Some((r, compare)) = &filter {
            let pass = match compare {
                None => b.any(t, at, r, |_| true),
                Some((op, lit)) => b.any(t, at, r, |m| op.test(&t.string_value(m), lit)),
            };
            if !pass {
                b.close_from(at);
                continue;
            }
        }
        kept += 1;
        if query.order_by.is_none() {
            // No ORDER BY: the row goes out now and its binding is reused.
            template.emit(t, &b, at, sink)?;
            b.close_from(at);
        }
    }
    let Some(o) = &query.order_by else {
        return Ok(kept);
    };

    // ORDER BY: a stable sort of the kept bindings on their keys.
    let key = Ref::new(t, &o.path);
    let strings: Vec<Option<Cow<'_, str>>> = (0..kept)
        .map(|i| {
            b.find(t, i * slots, &key, |_| true)
                .map(|n| t.string_value(n))
        })
        .collect();
    let mut order: Vec<usize> = (0..kept).collect();
    if o.numeric {
        let numbers: Vec<Option<f64>> = strings
            .iter()
            .map(|s| s.as_deref().and_then(|s| s.trim().parse().ok()))
            .collect();
        order.sort_by(|&a, &b| {
            let ord = match (numbers[a], numbers[b]) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            };
            ord.then(a.cmp(&b))
        });
    } else {
        order.sort_by(|&a, &b| strings[a].cmp(&strings[b]).then(a.cmp(&b)));
    }
    if o.descending {
        order.reverse();
    }
    for i in order {
        template.emit(t, &b, i * slots, sink)?;
    }
    Ok(kept)
}

/// A variable path prepared against the table: its slot, and the probe
/// for the path below it, when it has one.
struct Ref<'q> {
    slot: usize,
    path: Option<Probe<'q>>,
}

impl<'q> Ref<'q> {
    fn new(t: &NodeTable<'_>, vp: &'q VarPath) -> Ref<'q> {
        Ref {
            slot: vp.slot,
            path: vp.path.as_ref().map(|p| Probe::new(t, p)),
        }
    }
}

/// Bindings, back to back: each binding is one `(start, end)` span into
/// `items` per slot, so binding `i`'s spans start at `spans[i * slots]`.
#[derive(Default)]
struct Bindings {
    items: Vec<u32>,
    spans: Vec<(u32, u32)>,
}

impl Bindings {
    /// Opens a binding with `n` in slot 0; returns where its spans start.
    fn open(&mut self, n: u32) -> usize {
        let at = self.spans.len();
        let start = self.items.len() as u32;
        self.items.push(n);
        self.spans.push((start, start + 1));
        at
    }

    /// Fills the open binding's next slot with what `r` resolves to.
    fn bind(&mut self, t: &NodeTable<'_>, at: usize, r: &Ref<'_>) {
        let start = self.items.len();
        let (from, to) = self.spans[at + r.slot];
        match &r.path {
            None => self.items.extend_from_within(from as usize..to as usize),
            Some(p) => {
                for i in from..to {
                    let base = self.items[i as usize];
                    p.collect_into(t, base, &mut self.items);
                }
            }
        }
        self.spans.push((start as u32, self.items.len() as u32));
    }

    /// Drops the bindings from the one whose spans start at `at` on.
    fn close_from(&mut self, at: usize) {
        self.items.truncate(self.spans[at].0 as usize);
        self.spans.truncate(at);
    }

    /// The slot's nodes in the binding at `at`.
    fn slot(&self, at: usize, slot: usize) -> &[u32] {
        let (from, to) = self.spans[at + slot];
        &self.items[from as usize..to as usize]
    }

    /// True when some item `r` resolves to in the binding at `at`
    /// satisfies `hit`.
    fn any(
        &self,
        t: &NodeTable<'_>,
        at: usize,
        r: &Ref<'_>,
        mut hit: impl FnMut(u32) -> bool,
    ) -> bool {
        let base = self.slot(at, r.slot);
        match &r.path {
            None => base.iter().any(|&n| hit(n)),
            Some(p) => base.iter().any(|&n| p.any(t, n, &mut hit)),
        }
    }

    /// The first item `r` resolves to in the binding at `at` that `hit`
    /// accepts: the slot's nodes in order, each navigated by `r`'s path.
    fn find(
        &self,
        t: &NodeTable<'_>,
        at: usize,
        r: &Ref<'_>,
        mut hit: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let base = self.slot(at, r.slot);
        match &r.path {
            None => base.iter().copied().find(|&n| hit(n)),
            Some(p) => base.iter().find_map(|&n| p.find(t, n, &mut hit)),
        }
    }
}

/// The return constructor flattened once per query into what it writes:
/// fixed tokens, and the pieces a binding fills in.
struct Template<'q> {
    ops: Vec<Op<'q>>,
    /// Scratch: a splice's nodes, an attribute value being built.
    nodes: Vec<u32>,
    value: String,
}

enum Op<'q> {
    /// A token written as is.
    Fixed(Token),
    /// A begin-attribute token whose value is built per row from the
    /// parts; its end token follows as a `Fixed`.
    Attribute(Token, Vec<Part<'q>>),
    /// `{ $v/path }`: the bound subtrees.
    Splice(Ref<'q>),
    /// `{ string($v/path) }`: the first item's string value as text.
    StringOf(Ref<'q>),
}

enum Part<'q> {
    Literal(&'q str),
    Path(Ref<'q>),
}

impl<'q> Template<'q> {
    fn new(t: &NodeTable<'_>, c: &'q Constructor) -> Template<'q> {
        let mut ops = Vec::new();
        flatten(t, c, &mut ops);
        Template {
            ops,
            nodes: Vec::new(),
            value: String::new(),
        }
    }

    /// Writes the row of the binding at `at`.
    fn emit<S: RowSink>(
        &mut self,
        t: &NodeTable<'_>,
        b: &Bindings,
        at: usize,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        for op in &mut self.ops {
            match op {
                Op::Fixed(tok) => sink.token(tok)?,
                Op::Attribute(tok, parts) => {
                    self.value.clear();
                    for part in parts.iter() {
                        match part {
                            Part::Literal(s) => self.value.push_str(s),
                            Part::Path(r) => {
                                if let Some(n) = b.find(t, at, r, |_| true) {
                                    self.value.push_str(&t.string_value(n));
                                }
                            }
                        }
                    }
                    if let Token::BeginAttribute { value, .. } = tok {
                        *value = self.value.as_str().into();
                    }
                    sink.token(tok)?;
                }
                Op::Splice(r) => {
                    self.nodes.clear();
                    let base = b.slot(at, r.slot);
                    match &r.path {
                        None => self.nodes.extend_from_slice(base),
                        Some(p) => {
                            for &n in base {
                                p.collect_into(t, n, &mut self.nodes);
                            }
                        }
                    }
                    for &n in &self.nodes {
                        if t.kind(n) == NodeKind::Attribute {
                            // A bare attribute cannot be content; use its value.
                            sink.token(&Token::text(t.string_value(n)))?;
                        } else {
                            for tok in t.tokens(n) {
                                sink.token(tok)?;
                            }
                        }
                    }
                }
                Op::StringOf(r) => {
                    if let Some(n) = b.find(t, at, r, |_| true) {
                        sink.token(&Token::text(t.string_value(n)))?;
                    }
                }
            }
        }
        sink.end_row()
    }
}

fn flatten<'q>(t: &NodeTable<'_>, c: &'q Constructor, ops: &mut Vec<Op<'q>>) {
    match c {
        Constructor::Element {
            name,
            attributes,
            children,
        } => {
            ops.push(Op::Fixed(Token::begin_element(name.as_str())));
            for (attr_name, parts) in attributes {
                let begin = Token::begin_attribute(attr_name.as_str(), "");
                let parts = parts
                    .iter()
                    .map(|part| match part {
                        AttrPart::Literal(s) => Part::Literal(s),
                        AttrPart::Path(vp) => Part::Path(Ref::new(t, vp)),
                    })
                    .collect();
                ops.push(Op::Attribute(begin, parts));
                ops.push(Op::Fixed(Token::EndAttribute));
            }
            for child in children {
                flatten(t, child, ops);
            }
            ops.push(Op::Fixed(Token::EndElement));
        }
        Constructor::Text(s) => ops.push(Op::Fixed(Token::text(s.as_str()))),
        Constructor::Splice(vp) => ops.push(Op::Splice(Ref::new(t, vp))),
        Constructor::StringOf(vp) => ops.push(Op::StringOf(Ref::new(t, vp))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_flwor;
    use axs_core::{StoreBuilder, XmlStore};
    use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};

    const DOC: &str = r#"<orders>
        <order id="1"><item>bolt</item><qty>5</qty><price>2.50</price></order>
        <order id="2"><item>nut</item><qty>9</qty><price>0.75</price></order>
        <order id="3"><item>cog</item><qty>2</qty><price>12.00</price></order>
    </orders>"#;

    fn store() -> XmlStore {
        let mut s = StoreBuilder::new().build().unwrap();
        s.bulk_insert(parse_fragment(DOC, ParseOptions::data_centric()).unwrap())
            .unwrap();
        s
    }

    fn run(query: &str) -> Vec<String> {
        let s = store();
        let q = parse_flwor(query).unwrap();
        evaluate_flwor(&s, &q)
            .unwrap()
            .iter()
            .map(|toks| serialize(toks, &SerializeOptions::default()).unwrap())
            .collect()
    }

    #[test]
    fn identity_return() {
        let rows = run("for $o in /orders/order return { $o }");
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with(r#"<order id="1">"#));
    }

    #[test]
    fn where_comparison_filters() {
        let rows = run("for $o in /orders/order where $o/qty > 4 return { $o/item }");
        assert_eq!(rows, vec!["<item>bolt</item>", "<item>nut</item>"]);
        let rows = run("for $o in /orders/order where $o/item = 'cog' return { $o/qty }");
        assert_eq!(rows, vec!["<qty>2</qty>"]);
        let rows = run("for $o in /orders/order where $o/@id != '2' return { $o/@id }");
        assert_eq!(rows, vec!["1", "3"]);
        // A two-step path: some order's qty is above 8, none above 9.
        let rows = run("for $r in /orders where $r/order/qty > 8 return <hit/>");
        assert_eq!(rows, vec!["<hit/>"]);
        let rows = run("for $r in /orders where $r/order/qty > 9 return <hit/>");
        assert!(rows.is_empty());
    }

    #[test]
    fn where_existence() {
        let rows = run("for $o in /orders/order where $o/missing return <hit/>");
        assert!(rows.is_empty());
        let rows = run("for $o in /orders/order where $o/item return <hit/>");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn let_bindings_flow_through_clauses() {
        // Bind the qty element once, reuse it in where, order, and return.
        let rows = run("for $o in /orders/order \
             let $q := $o/qty \
             where $q > 1 \
             order by $q numeric descending \
             return <r id=\"{ $o/@id }\" q=\"{ $q }\"/>");
        assert_eq!(
            rows,
            vec![
                r#"<r id="2" q="9"/>"#,
                r#"<r id="1" q="5"/>"#,
                r#"<r id="3" q="2"/>"#,
            ]
        );
    }

    #[test]
    fn let_chains_navigate_below_earlier_lets() {
        let rows = run("for $o in /orders/order \
             let $i := $o/item \
             let $t := $i/text() \
             where $o/@id = '2' \
             return <n>{ $t }</n>");
        assert_eq!(rows, vec!["<n>nut</n>"]);
    }

    #[test]
    fn let_of_whole_binding() {
        let rows =
            run("for $o in /orders/order let $copy := $o where $o/@id = '3' return { $copy }");
        assert_eq!(rows.len(), 1);
        assert!(rows[0].starts_with(r#"<order id="3">"#));
    }

    #[test]
    fn order_by_string_and_numeric() {
        let rows = run("for $o in /orders/order order by $o/item return { string($o/item) }");
        assert_eq!(rows, vec!["bolt", "cog", "nut"]);
        let rows =
            run("for $o in /orders/order order by $o/price numeric return { string($o/@id) }");
        assert_eq!(rows, vec!["2", "1", "3"], "0.75 < 2.50 < 12.00 numerically");
        let rows = run(
            "for $o in /orders/order order by $o/price numeric descending \
             return { string($o/@id) }",
        );
        assert_eq!(rows, vec!["3", "1", "2"]);
        // String ordering would sort '12.00' before '2.50'.
        let rows = run("for $o in /orders/order order by $o/price return { string($o/@id) }");
        assert_eq!(rows, vec!["2", "3", "1"]);
    }

    #[test]
    fn element_construction_with_templates() {
        let rows = run("for $o in /orders/order where $o/qty >= 5 \
             order by $o/qty numeric descending \
             return <big id=\"{ $o/@id }\" n=\"x{ $o/qty }y\">{ $o/item }</big>");
        assert_eq!(
            rows,
            vec![
                r#"<big id="2" n="x9y"><item>nut</item></big>"#,
                r#"<big id="1" n="x5y"><item>bolt</item></big>"#,
            ]
        );
    }

    #[test]
    fn nested_constructors() {
        let rows = run("for $o in /orders/order where $o/@id = '3' \
             return <wrap><label>order</label><body>{ $o }</body></wrap>");
        assert_eq!(rows.len(), 1);
        assert!(rows[0].starts_with("<wrap><label>order</label><body><order"));
    }

    #[test]
    fn attribute_splice_as_text_content() {
        let rows = run("for $o in /orders/order where $o/@id = '1' return <v>{ $o/@id }</v>");
        assert_eq!(rows, vec!["<v>1</v>"]);
    }

    #[test]
    fn constructed_fragments_are_well_formed() {
        let s = store();
        let q = parse_flwor(
            "for $o in /orders/order let $i := $o/item \
             return <r a=\"{ $o/@id }\">{ $i }</r>",
        )
        .unwrap();
        for row in evaluate_flwor(&s, &q).unwrap() {
            axs_xdm::fragment_well_formed(&row).unwrap();
            let mut target = StoreBuilder::new().build().unwrap();
            target.bulk_insert(row).unwrap();
            target.check_invariants().unwrap();
        }
    }

    #[test]
    fn query_over_updated_store() {
        let mut s = store();
        s.insert_into_last(
            axs_xdm::NodeId(1),
            parse_fragment(
                r#"<order id="4"><item>axle</item><qty>7</qty><price>3.10</price></order>"#,
                ParseOptions::default(),
            )
            .unwrap(),
        )
        .unwrap();
        let q = parse_flwor(
            "for $o in /orders/order where $o/qty >= 7 order by $o/item \
             return { string($o/item) }",
        )
        .unwrap();
        let rows: Vec<String> = evaluate_flwor(&s, &q)
            .unwrap()
            .iter()
            .map(|t| serialize(t, &SerializeOptions::default()).unwrap())
            .collect();
        assert_eq!(rows, vec!["axle", "nut"]);
    }
}
