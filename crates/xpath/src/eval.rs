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
//! caller asks for a match's subtree.

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
    let Some((first, rest)) = path.steps.split_first() else {
        return Vec::new();
    };
    let mut nodes = eval_step(t, ctx, first);
    for step in rest {
        if nodes.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &n in &nodes {
            next.extend(eval_step(t, Some(n), step));
        }
        next.sort_unstable();
        next.dedup();
        nodes = next;
    }
    nodes
}

/// One step from one context: axis, node test, then predicates, in
/// document order.
fn eval_step(t: &NodeTable<'_>, ctx: Option<u32>, step: &Step) -> Vec<u32> {
    let principal = if step.axis == Axis::Attribute {
        NodeKind::Attribute
    } else {
        NodeKind::Element
    };
    let name = match &step.test {
        NodeTest::Name(name) => match t.name_id(name) {
            Some(id) => Some(id),
            None => return Vec::new(),
        },
        _ => None,
    };
    let test = |n: u32| {
        let kind = t.kind(n);
        match step.test {
            NodeTest::Name(_) => kind == principal && t.name_of(n) == name,
            NodeTest::Wildcard => kind == principal,
            NodeTest::Text => kind == NodeKind::Text,
            NodeTest::Comment => kind == NodeKind::Comment,
            NodeTest::AnyNode => kind != NodeKind::Attribute || step.axis == Axis::Attribute,
        }
    };
    let mut out: Vec<u32> = match (step.axis, ctx) {
        (Axis::Child, None) => t.roots().iter().copied().filter(|&n| test(n)).collect(),
        (Axis::Child, Some(c)) => t.children(c).iter().copied().filter(|&n| test(n)).collect(),
        (Axis::Descendant, _) => {
            let (from, to) = match ctx {
                Some(c) => (c + 1, t.subtree_end(c)),
                None => (0, t.len() as u32),
            };
            // Off the attribute axis every test rejects attributes.
            (from..to).filter(|&n| test(n)).collect()
        }
        (Axis::Attribute, Some(c)) => t
            .attributes(c)
            .iter()
            .copied()
            .filter(|&n| test(n))
            .collect(),
        (Axis::SelfAxis, Some(c)) => Some(c).filter(|&n| test(n)).into_iter().collect(),
        (Axis::Parent, Some(c)) => t.parent(c).filter(|&n| test(n)).into_iter().collect(),
        (Axis::Attribute | Axis::SelfAxis | Axis::Parent, None) => Vec::new(),
    };
    for p in &step.predicates {
        out = match p {
            Predicate::Position(k) => out.get(k.wrapping_sub(1)).copied().into_iter().collect(),
            Predicate::Last => out.last().copied().into_iter().collect(),
            Predicate::Exists(rel) => out
                .into_iter()
                .filter(|&c| !eval_path(t, Some(c), rel).is_empty())
                .collect(),
            Predicate::PathCompare(rel, op, lit) => out
                .into_iter()
                .filter(|&c| {
                    eval_path(t, Some(c), rel)
                        .into_iter()
                        .any(|m| op.test(&t.string_value(m), lit))
                })
                .collect(),
        };
    }
    out
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
