//! XPath evaluation over token sequences.
//!
//! Evaluation builds a lightweight node table from the flat token stream
//! (spans + parent/child relations — no DOM objects) and applies location
//! steps with set semantics in document order.

use crate::ast::{Axis, NodeTest, Predicate, Step, XPath};
use axs_core::{ReadView, StoreError};
use axs_xdm::{NodeId, Token, TokenKind};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Element,
    Attribute,
    Text,
    Comment,
    Pi,
}

struct Node {
    kind: Kind,
    name: Option<String>,
    start: usize,
    end: usize,
    parent: Option<usize>,
    children: Vec<usize>,
    attributes: Vec<usize>,
    id: Option<NodeId>,
}

struct Tree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
}

impl Tree {
    fn build(tokens: &[(Option<NodeId>, &Token)]) -> Tree {
        let mut nodes: Vec<Node> = Vec::new();
        let mut roots = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for (i, (id, tok)) in tokens.iter().enumerate() {
            let kind = match tok.kind() {
                TokenKind::BeginElement => Some(Kind::Element),
                TokenKind::BeginAttribute => Some(Kind::Attribute),
                TokenKind::Text => Some(Kind::Text),
                TokenKind::Comment => Some(Kind::Comment),
                TokenKind::ProcessingInstruction => Some(Kind::Pi),
                _ => None,
            };
            if let Some(kind) = kind {
                let name = match tok {
                    Token::BeginElement { name, .. } | Token::BeginAttribute { name, .. } => {
                        Some(name.to_lexical())
                    }
                    Token::ProcessingInstruction { target, .. } => Some(target.to_string()),
                    _ => None,
                };
                let parent = stack.last().copied();
                let idx = nodes.len();
                nodes.push(Node {
                    kind,
                    name,
                    start: i,
                    end: i,
                    parent,
                    children: Vec::new(),
                    attributes: Vec::new(),
                    id: *id,
                });
                match parent {
                    Some(p) => {
                        if kind == Kind::Attribute {
                            nodes[p].attributes.push(idx);
                        } else {
                            nodes[p].children.push(idx);
                        }
                    }
                    None => roots.push(idx),
                }
                if tok.kind().is_begin() {
                    stack.push(idx);
                }
            } else if tok.kind().is_end() {
                if let Some(idx) = stack.pop() {
                    nodes[idx].end = i;
                }
            }
        }
        Tree { nodes, roots }
    }

    fn descendants_of(&self, ctx: Option<usize>, out: &mut Vec<usize>) {
        let children: &[usize] = match ctx {
            Some(i) => &self.nodes[i].children,
            None => &self.roots,
        };
        for &c in children {
            out.push(c);
            self.descendants_of(Some(c), out);
        }
    }
}

/// Evaluator bound to the token table (so string values can be read).
struct Evaluator<'t> {
    tree: Tree,
    tokens: Vec<(Option<NodeId>, &'t Token)>,
}

impl Evaluator<'_> {
    fn string_value(&self, idx: usize) -> String {
        let mut out = String::new();
        self.collect_string(idx, &mut out);
        out
    }

    fn collect_string(&self, idx: usize, out: &mut String) {
        let node = &self.tree.nodes[idx];
        match node.kind {
            Kind::Element => {
                for &c in &node.children {
                    self.collect_string(c, out);
                }
            }
            _ => {
                if let Some(v) = self.tokens[node.start].1.string_value() {
                    out.push_str(v);
                }
            }
        }
    }

    fn test_matches(&self, idx: usize, test: &NodeTest, axis: Axis) -> bool {
        let node = &self.tree.nodes[idx];
        match test {
            NodeTest::Name(name) => {
                let kind_ok = if axis == Axis::Attribute {
                    node.kind == Kind::Attribute
                } else {
                    node.kind == Kind::Element
                };
                kind_ok && node.name.as_deref() == Some(name.as_str())
            }
            NodeTest::Wildcard => {
                if axis == Axis::Attribute {
                    node.kind == Kind::Attribute
                } else {
                    node.kind == Kind::Element
                }
            }
            NodeTest::Text => node.kind == Kind::Text,
            NodeTest::Comment => node.kind == Kind::Comment,
            NodeTest::AnyNode => node.kind != Kind::Attribute || axis == Axis::Attribute,
        }
    }

    /// Candidates of one step from one context (`None` = virtual document
    /// root), in document order, before predicates.
    fn step_candidates(&self, ctx: Option<usize>, step: &Step) -> Vec<usize> {
        let mut raw: Vec<usize> = Vec::new();
        match step.axis {
            Axis::Child => match ctx {
                Some(i) => raw.extend(&self.tree.nodes[i].children),
                None => raw.extend(&self.tree.roots),
            },
            Axis::Descendant => self.tree.descendants_of(ctx, &mut raw),
            Axis::Attribute => {
                if let Some(i) = ctx {
                    raw.extend(&self.tree.nodes[i].attributes);
                }
            }
            Axis::SelfAxis => {
                if let Some(i) = ctx {
                    raw.push(i);
                }
            }
            Axis::Parent => {
                if let Some(i) = ctx {
                    if let Some(p) = self.tree.nodes[i].parent {
                        raw.push(p);
                    }
                }
            }
        }
        raw.retain(|&i| self.test_matches(i, &step.test, step.axis));
        raw
    }

    fn apply_predicates(&self, mut candidates: Vec<usize>, predicates: &[Predicate]) -> Vec<usize> {
        for p in predicates {
            candidates = match p {
                Predicate::Position(n) => {
                    if *n <= candidates.len() {
                        vec![candidates[*n - 1]]
                    } else {
                        Vec::new()
                    }
                }
                Predicate::Exists(rel) => candidates
                    .into_iter()
                    .filter(|&c| !self.eval_path(Some(c), rel).is_empty())
                    .collect(),
                Predicate::PathCompare(rel, op, lit) => candidates
                    .into_iter()
                    .filter(|&c| {
                        self.eval_path(Some(c), rel)
                            .iter()
                            .any(|&m| op.test(&self.string_value(m), lit))
                    })
                    .collect(),
                Predicate::Last => match candidates.pop() {
                    Some(last) => vec![last],
                    None => Vec::new(),
                },
            };
        }
        candidates
    }

    /// Evaluates `path` from a single context node.
    fn eval_path(&self, ctx: Option<usize>, path: &XPath) -> Vec<usize> {
        let mut contexts: Vec<Option<usize>> = vec![ctx];
        let mut result: Vec<usize> = Vec::new();
        for (si, step) in path.steps.iter().enumerate() {
            let mut next: Vec<usize> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for &c in &contexts {
                let candidates = self.step_candidates(c, step);
                let filtered = self.apply_predicates(candidates, &step.predicates);
                for idx in filtered {
                    if seen.insert(idx) {
                        next.push(idx);
                    }
                }
            }
            next.sort_unstable_by_key(|&i| self.tree.nodes[i].start);
            if si == path.steps.len() - 1 {
                result = next;
            } else {
                contexts = next.into_iter().map(Some).collect();
                if contexts.is_empty() {
                    return Vec::new();
                }
            }
        }
        result
    }
}

fn evaluate_pairs(pairs: Vec<(Option<NodeId>, &Token)>, path: &XPath) -> Vec<Match> {
    let tree = Tree::build(&pairs);
    let ev = Evaluator {
        tree,
        tokens: pairs,
    };
    ev.eval_path(None, path)
        .into_iter()
        .map(|i| {
            let n = &ev.tree.nodes[i];
            Match {
                token_start: n.start,
                token_end: n.end,
                node_id: n.id,
            }
        })
        .collect()
}

/// Evaluates a compiled path over a token fragment.
pub fn evaluate(tokens: &[Token], path: &XPath) -> Vec<Match> {
    let pairs: Vec<(Option<NodeId>, &Token)> = tokens.iter().map(|t| (None, t)).collect();
    evaluate_pairs(pairs, path)
}

/// Evaluates a *relative* path with the fragment's top-level nodes as the
/// initial context (rather than the virtual document root) — i.e. `qty`
/// addresses the children of each top-level node. This is the binding
/// semantics FLWOR variables need.
pub fn evaluate_from_roots(tokens: &[Token], path: &XPath) -> Vec<Match> {
    let pairs: Vec<(Option<NodeId>, &Token)> = tokens.iter().map(|t| (None, t)).collect();
    let tree = Tree::build(&pairs);
    let roots = tree.roots.clone();
    let ev = Evaluator {
        tree,
        tokens: pairs,
    };
    let mut out: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for root in roots {
        for idx in ev.eval_path(Some(root), path) {
            if seen.insert(idx) {
                out.push(idx);
            }
        }
    }
    out.sort_unstable_by_key(|&i| ev.tree.nodes[i].start);
    out.into_iter()
        .map(|i| {
            let n = &ev.tree.nodes[i];
            Match {
                token_start: n.start,
                token_end: n.end,
                node_id: n.id,
            }
        })
        .collect()
}

/// One store-evaluation result: stable node id + subtree tokens.
pub type StoreMatch = (Option<NodeId>, Vec<Token>);

/// Evaluates a compiled path over a whole read view (the live store or a
/// frozen MVCC snapshot), returning each match's stable node id and
/// subtree tokens.
pub fn evaluate_store<V: ReadView>(store: &V, path: &XPath) -> Result<Vec<StoreMatch>, StoreError> {
    let pairs: Vec<(Option<NodeId>, Token)> = store.cursor().collect::<Result<_, _>>()?;
    let borrowed: Vec<(Option<NodeId>, &Token)> = pairs.iter().map(|(id, t)| (*id, t)).collect();
    let matches = evaluate_pairs(borrowed, path);
    Ok(matches
        .into_iter()
        .map(|m| {
            let sub = pairs[m.token_start..=m.token_end]
                .iter()
                .map(|(_, t)| t.clone())
                .collect();
            (m.node_id, sub)
        })
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
