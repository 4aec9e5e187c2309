//! XPath evaluation over a flat node table.
//!
//! Every entry point evaluates against one [`NodeTable`] — kind, name id,
//! token span, parent and child/attribute runs per node, no per-node
//! objects — through one step evaluator. A token fragment gets a table
//! that borrows its tokens; a pinned MVCC snapshot builds its table on the
//! first query of the epoch and every later query reuses it; the live
//! store builds one per call from the ranges it decodes. Node indexes are
//! in document order by construction, so a step's result set is sorted
//! and deduplicated as plain integers, and tokens are copied only where a
//! caller asks for a match's subtree. A step looks its name up once, and a
//! descendant name step reads only the name column until a name matches.
//! A predicate tests each candidate in place through a [`Probe`]: the
//! relative path's last step walks the attribute or child run below each
//! context and stops at the first node that passes, comparing borrowed
//! string values with a literal that was classified (text, number) when it
//! was compiled.

use crate::ast::{Axis, NodeTest, Predicate, Step, XPath};
use axs_core::{NodeKind, NodeTable, ReadView, StoreError};
use axs_xdm::{NodeId, Token};

/// One query result: the matched node's token span (within the evaluated
/// sequence) and its stable identifier when evaluated against a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Index of the node's begin token.
    pub token_start: usize,
    /// Index of the node's end token (== start for leaf tokens).
    pub token_end: usize,
    /// Stable node id (present for store evaluation).
    pub node_id: Option<NodeId>,
}

/// Evaluates `path` from the table's virtual document root: the matching
/// nodes, in document order.
pub fn evaluate_table(table: &NodeTable<'_>, path: &XPath) -> Vec<u32> {
    eval_path(table, None, path)
}

/// Evaluates a relative `path` with node `ctx` as the context node — the
/// binding semantics of a FLWOR variable.
pub fn evaluate_at(table: &NodeTable<'_>, ctx: u32, path: &XPath) -> Vec<u32> {
    eval_path(table, Some(ctx), path)
}

/// Evaluates `path` from one context node (`None` = virtual document root).
fn eval_path(t: &NodeTable<'_>, ctx: Option<u32>, path: &XPath) -> Vec<u32> {
    eval_steps(t, ctx, &path.steps)
}

/// Evaluates `steps` from one context node, in document order.
fn eval_steps(t: &NodeTable<'_>, ctx: Option<u32>, steps: &[Step]) -> Vec<u32> {
    let mut nodes = Vec::new();
    let mut contexts = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        // Each step's name is looked up once, not once per context.
        let Some(test) = Test::new(t, step) else {
            return Vec::new();
        };
        if i == 0 {
            eval_step(t, ctx, &test, &mut nodes);
            continue;
        }
        std::mem::swap(&mut nodes, &mut contexts);
        nodes.clear();
        for &c in &contexts {
            eval_step(t, Some(c), &test, &mut nodes);
        }
        if contexts.len() > 1 {
            nodes.sort_unstable();
            nodes.dedup();
        }
        if nodes.is_empty() {
            break;
        }
    }
    nodes
}

/// A step's node test resolved against one table: a name test carries the
/// table's id for the name, so candidates compare integers.
struct Test<'p> {
    step: &'p Step,
    principal: NodeKind,
    /// The name id of a name test (unused by the other tests).
    name: u32,
}

impl<'p> Test<'p> {
    /// `None` when the step tests a name no node of the table carries, so
    /// it selects nothing.
    fn new(t: &NodeTable<'_>, step: &'p Step) -> Option<Test<'p>> {
        let principal = if step.axis == Axis::Attribute {
            NodeKind::Attribute
        } else {
            NodeKind::Element
        };
        let name = match &step.test {
            NodeTest::Name(name) => t.name_id(name)?,
            _ => u32::MAX,
        };
        Some(Test {
            step,
            principal,
            name,
        })
    }

    fn matches(&self, t: &NodeTable<'_>, n: u32) -> bool {
        let kind = t.kind(n);
        match self.step.test {
            NodeTest::Name(_) => kind == self.principal && t.name_of(n) == Some(self.name),
            NodeTest::Wildcard => kind == self.principal,
            NodeTest::Text => kind == NodeKind::Text,
            NodeTest::Comment => kind == NodeKind::Comment,
            NodeTest::AnyNode => kind != NodeKind::Attribute || self.step.axis == Axis::Attribute,
        }
    }
}

/// Walks the nodes the step's axis and node test select from `ctx`, in
/// document order, until `f` accepts one; true when it did. Predicates are
/// not applied.
fn find_candidate(
    t: &NodeTable<'_>,
    ctx: Option<u32>,
    test: &Test<'_>,
    mut f: impl FnMut(u32) -> bool,
) -> bool {
    let mut hit = |n: u32| test.matches(t, n) && f(n);
    match (test.step.axis, ctx) {
        (Axis::Child, None) => t.roots().iter().any(|&n| hit(n)),
        (Axis::Child, Some(c)) => t.children(c).iter().any(|&n| hit(n)),
        (Axis::Descendant, _) => {
            let (from, to) = match ctx {
                Some(c) => (c + 1, t.subtree_end(c)),
                None => (0, t.len() as u32),
            };
            match test.step.test {
                // A name test reads only the name column until a name
                // matches.
                NodeTest::Name(_) => t.named(from, to, test.name).any(hit),
                // Off the attribute axis every test rejects attributes.
                _ => (from..to).any(hit),
            }
        }
        (Axis::Attribute, Some(c)) => t.attributes(c).iter().any(|&n| hit(n)),
        (Axis::SelfAxis, Some(c)) => hit(c),
        (Axis::Parent, Some(c)) => t.parent(c).is_some_and(hit),
        (Axis::Attribute | Axis::SelfAxis | Axis::Parent, None) => false,
    }
}

/// One step from one context: axis, node test, then predicates, appended to
/// `out` in document order.
fn eval_step(t: &NodeTable<'_>, ctx: Option<u32>, test: &Test<'_>, out: &mut Vec<u32>) {
    let mark = out.len();
    find_candidate(t, ctx, test, |n| {
        out.push(n);
        false
    });
    for p in &test.step.predicates {
        match p {
            Predicate::Position(k) => keep_one(out, mark, k.checked_sub(1)),
            Predicate::Last => keep_one(out, mark, (out.len() - mark).checked_sub(1)),
            Predicate::Exists(rel) => {
                let probe = Probe::new(t, rel);
                retain_from(out, mark, |c| probe.any(t, c, |_| true));
            }
            Predicate::PathCompare(rel, op, lit) => {
                let probe = Probe::new(t, rel);
                retain_from(out, mark, |c| {
                    probe.any(t, c, |m| op.test(&t.string_value(m), lit))
                });
            }
        }
    }
}

/// Keeps only the candidate at offset `k` past `mark`, if there is one.
fn keep_one(out: &mut Vec<u32>, mark: usize, k: Option<usize>) {
    match k.map(|k| mark + k).filter(|&i| i < out.len()) {
        Some(i) => {
            out[mark] = out[i];
            out.truncate(mark + 1);
        }
        None => out.truncate(mark),
    }
}

/// Keeps the candidates past `mark` that `keep` accepts, in order.
fn retain_from(out: &mut Vec<u32>, mark: usize, mut keep: impl FnMut(u32) -> bool) {
    let mut kept = mark;
    for i in mark..out.len() {
        let c = out[i];
        if keep(c) {
            out[kept] = c;
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// A relative path prepared against one table for testing many context
/// nodes — a predicate over every candidate, a FLWOR clause over every
/// binding. When the path's last step has no predicates, its name is
/// looked up once and the step is walked in place below each context
/// (for a one-step path such as `@id`, `qty` or `text()`, below the
/// candidate itself): an attribute or child step reads the node's
/// attribute or child run and stops at the first node that passes the
/// test. A last step with predicates needs its whole candidate set, so
/// such a path is evaluated in full.
pub struct Probe<'p> {
    rel: &'p XPath,
    walk: Walk<'p>,
}

enum Walk<'p> {
    /// The last step names a name the table lacks: the path reaches
    /// nothing.
    Nothing,
    /// A predicate-free last step, walked in place below the contexts the
    /// steps before it reach.
    Last(Test<'p>),
    /// A last step with predicates: evaluated and collected.
    Collect,
}

impl<'p> Probe<'p> {
    /// Prepares `rel` against `table`.
    pub fn new(table: &NodeTable<'_>, rel: &'p XPath) -> Probe<'p> {
        let walk = match rel.steps.last() {
            Some(last) if last.predicates.is_empty() => {
                Test::new(table, last).map_or(Walk::Nothing, Walk::Last)
            }
            _ => Walk::Collect,
        };
        Probe { rel, walk }
    }

    /// The contexts the steps before the last reach from `ctx`, when
    /// there are such steps.
    fn inner(&self, table: &NodeTable<'_>, ctx: u32) -> Option<Vec<u32>> {
        let init = &self.rel.steps[..self.rel.steps.len() - 1];
        (!init.is_empty()).then(|| eval_steps(table, Some(ctx), init))
    }

    /// True when some node the path reaches from `ctx` satisfies `hit`.
    pub fn any(&self, table: &NodeTable<'_>, ctx: u32, mut hit: impl FnMut(u32) -> bool) -> bool {
        match &self.walk {
            Walk::Nothing => false,
            Walk::Last(test) => match self.inner(table, ctx) {
                None => find_candidate(table, Some(ctx), test, hit),
                Some(contexts) => contexts
                    .into_iter()
                    .any(|c| find_candidate(table, Some(c), test, &mut hit)),
            },
            Walk::Collect => eval_path(table, Some(ctx), self.rel).into_iter().any(hit),
        }
    }

    /// The first node, in document order, that the path reaches from `ctx`
    /// and `hit` accepts.
    pub fn find(
        &self,
        table: &NodeTable<'_>,
        ctx: u32,
        mut hit: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        match &self.walk {
            Walk::Nothing => None,
            // One context: the walk runs in document order.
            Walk::Last(test) if self.rel.steps.len() == 1 => {
                let mut found = None;
                find_candidate(table, Some(ctx), test, |n| {
                    found = Some(n).filter(|&n| hit(n));
                    found.is_some()
                });
                found
            }
            _ => eval_path(table, Some(ctx), self.rel)
                .into_iter()
                .find(|&n| hit(n)),
        }
    }

    /// Appends every node the path reaches from `ctx`, in document order
    /// (what [`evaluate_at`] returns).
    pub fn collect_into(&self, table: &NodeTable<'_>, ctx: u32, out: &mut Vec<u32>) {
        match &self.walk {
            Walk::Nothing => {}
            Walk::Last(test) if self.rel.steps.len() == 1 => {
                find_candidate(table, Some(ctx), test, |n| {
                    out.push(n);
                    false
                });
            }
            _ => out.extend(eval_path(table, Some(ctx), self.rel)),
        }
    }
}

fn to_matches(table: &NodeTable<'_>, nodes: Vec<u32>) -> Vec<Match> {
    nodes
        .into_iter()
        .map(|n| Match {
            token_start: table.begin(n),
            token_end: table.end(n),
            node_id: table.node_id(n),
        })
        .collect()
}

/// Evaluates a compiled path over a token fragment.
pub fn evaluate(tokens: &[Token], path: &XPath) -> Vec<Match> {
    let table = NodeTable::from_tokens(tokens);
    let nodes = evaluate_table(&table, path);
    to_matches(&table, nodes)
}

/// Evaluates a *relative* path with the fragment's top-level nodes as the
/// initial context (rather than the virtual document root) — i.e. `qty`
/// addresses the children of each top-level node.
pub fn evaluate_from_roots(tokens: &[Token], path: &XPath) -> Vec<Match> {
    let table = NodeTable::from_tokens(tokens);
    let mut nodes: Vec<u32> = table
        .roots()
        .iter()
        .flat_map(|&root| evaluate_at(&table, root, path))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    to_matches(&table, nodes)
}

/// One store-evaluation result: stable node id + subtree tokens.
pub type StoreMatch = (Option<NodeId>, Vec<Token>);

/// Evaluates a compiled path over a whole read view (the live store or a
/// frozen MVCC snapshot), returning each match's stable node id and a copy
/// of its subtree tokens.
pub fn evaluate_store<V: ReadView>(store: &V, path: &XPath) -> Result<Vec<StoreMatch>, StoreError> {
    let table = store.node_table()?;
    Ok(evaluate_table(&table, path)
        .into_iter()
        .map(|n| (table.node_id(n), table.tokens(n).cloned().collect()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::compile;
    use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};

    fn toks(xml: &str) -> Vec<Token> {
        parse_fragment(xml, ParseOptions::default()).unwrap()
    }

    fn run(xml: &str, path: &str) -> Vec<String> {
        let tokens = toks(xml);
        let compiled = compile(path).unwrap();
        evaluate(&tokens, &compiled)
            .into_iter()
            .map(|m| {
                serialize(
                    &tokens[m.token_start..=m.token_end],
                    &SerializeOptions::default(),
                )
                .unwrap()
            })
            .collect()
    }

    const DOC: &str = r#"<orders><order id="1"><item>bolt</item><qty>5</qty></order><order id="2"><item>nut</item><qty>9</qty></order><note>rush</note></orders>"#;

    #[test]
    fn child_path() {
        assert_eq!(
            run(DOC, "/orders/order/item"),
            vec!["<item>bolt</item>", "<item>nut</item>"]
        );
    }

    #[test]
    fn descendant_path() {
        assert_eq!(run(DOC, "//qty"), vec!["<qty>5</qty>", "<qty>9</qty>"]);
        assert_eq!(run(DOC, "/orders//item").len(), 2);
    }

    #[test]
    fn wildcard_and_position() {
        assert_eq!(run(DOC, "/orders/*").len(), 3);
        assert_eq!(run(DOC, "/orders/order[2]/item"), vec!["<item>nut</item>"]);
        assert_eq!(run(DOC, "/orders/order[3]"), Vec::<String>::new());
    }

    #[test]
    fn text_and_comment_tests() {
        assert_eq!(run("<a>x<!--c-->y</a>", "/a/text()"), vec!["x", "y"]);
        assert_eq!(run("<a>x<!--c-->y</a>", "/a/comment()"), vec!["<!--c-->"]);
    }

    #[test]
    fn attribute_axis() {
        assert_eq!(
            run(DOC, "/orders/order/@id"),
            vec![r#"id="1""#, r#"id="2""#]
        );
        assert_eq!(run(DOC, "/orders/order[1]/@id"), vec![r#"id="1""#]);
    }

    #[test]
    fn existence_predicate() {
        assert_eq!(run(DOC, "/orders/order[item]").len(), 2);
        assert_eq!(run(DOC, "/orders/order[missing]").len(), 0);
        assert_eq!(run(DOC, "/orders/note[text()]"), vec!["<note>rush</note>"]);
    }

    #[test]
    fn value_comparisons() {
        assert_eq!(
            run(DOC, "/orders/order[item='nut']/qty"),
            vec!["<qty>9</qty>"]
        );
        assert_eq!(
            run(DOC, "/orders/order[@id='1']/item"),
            vec!["<item>bolt</item>"]
        );
        assert_eq!(run(DOC, "/orders/order[@id='9']").len(), 0);
    }

    #[test]
    fn numeric_comparison_predicates() {
        assert_eq!(
            run(DOC, "/orders/order[qty>5]/item"),
            vec!["<item>nut</item>"]
        );
        assert_eq!(run(DOC, "/orders/order[qty<=5]/@id"), vec![r#"id="1""#]);
        assert_eq!(run(DOC, "//order[qty>=9]").len(), 1);
        assert_eq!(run(DOC, "//order[qty<1]").len(), 0);
        assert_eq!(run(DOC, "//order[item!='nut']/@id"), vec![r#"id="1""#]);
        // Numeric equality tolerates lexical differences.
        assert_eq!(run("<a><n>05</n></a>", "/a[n=5]").len(), 1);
        // Non-numeric values never satisfy ordering comparisons.
        assert_eq!(run("<a><n>five</n></a>", "/a[n>1]").len(), 0);
    }

    #[test]
    fn element_string_value_concatenates_descendants() {
        assert_eq!(run("<a><b>x<c>y</c></b></a>", "/a[b='xy']").len(), 1);
    }

    #[test]
    fn self_axis_filters() {
        assert_eq!(run(DOC, "/orders/self::orders").len(), 1);
        assert_eq!(run(DOC, "/orders/order/self::note").len(), 0);
    }

    #[test]
    fn node_test_matches_all_child_kinds() {
        let got = run("<a>x<!--c--><b/><?p d?></a>", "/a/node()");
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn results_are_deduplicated_in_document_order() {
        // Both //b steps could reach the same nodes through different
        // contexts.
        let got = run("<a><b><b>x</b></b></a>", "//b");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], "<b><b>x</b></b>");
    }

    #[test]
    fn multiple_roots_in_fragment() {
        assert_eq!(run("<a/><b/><a/>", "/a").len(), 2);
        assert_eq!(run("<a/><b/>", "//b").len(), 1);
    }

    #[test]
    fn parent_axis() {
        assert_eq!(
            run(DOC, "//qty/parent::order/@id"),
            vec![r#"id="1""#, r#"id="2""#]
        );
        assert_eq!(run(DOC, "//item/..").len(), 2);
        assert_eq!(run(DOC, "/orders/..").len(), 0, "roots have no parent");
    }

    #[test]
    fn last_predicate() {
        assert_eq!(
            run(DOC, "/orders/order[last()]/item"),
            vec!["<item>nut</item>"]
        );
        assert_eq!(run(DOC, "/orders/missing[last()]").len(), 0);
        assert_eq!(run(DOC, "//order[last()]/@id"), vec![r#"id="2""#]);
    }

    #[test]
    fn store_evaluation_returns_ids() {
        let mut store = axs_core::StoreBuilder::new().build().unwrap();
        store.bulk_insert(toks(DOC)).unwrap();
        let path = compile("/orders/order/qty").unwrap();
        let results = evaluate_store(&store, &path).unwrap();
        assert_eq!(results.len(), 2);
        for (id, sub) in &results {
            let id = id.expect("store matches carry ids");
            // The id round-trips through read_node.
            let direct = store.read_node(id).unwrap();
            assert_eq!(&direct, sub);
        }
    }

    #[test]
    fn store_evaluation_after_updates() {
        let mut store = axs_core::StoreBuilder::new().build().unwrap();
        store.bulk_insert(toks(DOC)).unwrap();
        // Add a third order via XUpdate and re-query.
        let path = compile("/orders/order").unwrap();
        let before = evaluate_store(&store, &path).unwrap();
        assert_eq!(before.len(), 2);
        store
            .insert_into_last(before[1].0.unwrap(), toks("<late>true</late>"))
            .unwrap();
        let root = NodeId(1);
        store
            .insert_into_last(root, toks(r#"<order id="3"><item>cog</item></order>"#))
            .unwrap();
        let after = evaluate_store(&store, &path).unwrap();
        assert_eq!(after.len(), 3);
        let late = compile("/orders/order[late='true']/@id").unwrap();
        let hits = evaluate_store(&store, &late).unwrap();
        assert_eq!(hits.len(), 1);
    }
}
