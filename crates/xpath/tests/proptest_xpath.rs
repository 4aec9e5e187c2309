//! Property tests for the XPath evaluator.
//!
//! A deliberately different reference implementation (recursive span
//! filtering over `subtree_end`, no node table) checks child/descendant
//! paths, bare and with value and existence predicates (`[@k op 'lit']`,
//! `[c op 'lit']`, `[c/d op 'lit']`, `[c]`, `[@k]`); metamorphic
//! properties cover the rest.

use axs_xdm::{subtree_end, top_level_nodes, Token, TokenKind};
use axs_xpath::{compile, evaluate};
use proptest::prelude::*;

// ---- reference evaluator (independent implementation) --------------------

/// Children spans (begin..=end token indexes) of the span `(start, end)`.
fn child_spans(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if start == end {
        return out; // leaf
    }
    let mut i = start + 1;
    while i < end {
        let e = subtree_end(tokens, i).expect("well-formed");
        // Skip attribute nodes: not children.
        if tokens[i].kind() != TokenKind::BeginAttribute {
            out.push((i, e));
        }
        i = e + 1;
    }
    out
}

fn descendant_spans(tokens: &[Token], start: usize, end: usize, out: &mut Vec<(usize, usize)>) {
    for (s, e) in child_spans(tokens, start, end) {
        out.push((s, e));
        descendant_spans(tokens, s, e, out);
    }
}

fn name_matches(tokens: &[Token], span: (usize, usize), name: &str) -> bool {
    tokens[span.0].kind() == TokenKind::BeginElement
        && tokens[span.0]
            .name()
            .is_some_and(|n| n.to_lexical() == name)
}

/// Reference evaluation of a predicate-free path like `/a/b` or `/a//b`
/// given as (descendant?, name) steps.
fn reference_eval(tokens: &[Token], steps: &[(bool, String)]) -> Vec<(usize, usize)> {
    // Virtual root: contexts are spans; start with top-level nodes for the
    // first step.
    let mut contexts: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX)]; // virtual
    for (i, (descendant, name)) in steps.iter().enumerate() {
        let mut next: Vec<(usize, usize)> = Vec::new();
        for &ctx in &contexts {
            let candidates: Vec<(usize, usize)> = if ctx.0 == usize::MAX {
                if *descendant {
                    let mut all = Vec::new();
                    for (s, e) in top_level_nodes(tokens) {
                        all.push((s, e));
                        descendant_spans(tokens, s, e, &mut all);
                    }
                    all
                } else {
                    top_level_nodes(tokens).collect()
                }
            } else if *descendant {
                let mut all = Vec::new();
                descendant_spans(tokens, ctx.0, ctx.1, &mut all);
                all
            } else {
                child_spans(tokens, ctx.0, ctx.1)
            };
            for span in candidates {
                if name_matches(tokens, span, name) && !next.contains(&span) {
                    next.push(span);
                }
            }
        }
        next.sort_unstable();
        if i == steps.len() - 1 {
            return next;
        }
        contexts = next;
    }
    Vec::new()
}

/// A value or existence predicate, as the reference evaluates it.
#[derive(Debug, Clone)]
enum Pred {
    /// `[@name]`
    HasAttr(&'static str),
    /// `[name]`
    HasChild(&'static str),
    /// `[@name op 'lit']`
    Attr(&'static str, &'static str, &'static str),
    /// `[name op 'lit']`
    Child(&'static str, &'static str, &'static str),
    /// `[name/name op 'lit']`
    Grandchild(&'static str, &'static str, &'static str, &'static str),
}

impl Pred {
    fn text(&self) -> String {
        match self {
            Pred::HasAttr(n) => format!("[@{n}]"),
            Pred::HasChild(n) => format!("[{n}]"),
            Pred::Attr(n, op, lit) => format!("[@{n}{op}'{lit}']"),
            Pred::Child(n, op, lit) => format!("[{n}{op}'{lit}']"),
            Pred::Grandchild(n, m, op, lit) => format!("[{n}/{m}{op}'{lit}']"),
        }
    }

    fn holds(&self, tokens: &[Token], span: (usize, usize)) -> bool {
        match *self {
            Pred::HasAttr(n) => attr_values(tokens, span, n).next().is_some(),
            Pred::HasChild(n) => child_spans(tokens, span.0, span.1)
                .into_iter()
                .any(|c| name_matches(tokens, c, n)),
            Pred::Attr(n, op, lit) => {
                attr_values(tokens, span, n).any(|v| reference_compare(v, op, lit))
            }
            Pred::Child(n, op, lit) => child_spans(tokens, span.0, span.1)
                .into_iter()
                .filter(|&c| name_matches(tokens, c, n))
                .any(|c| reference_compare(&text_of(tokens, c), op, lit)),
            Pred::Grandchild(n, m, op, lit) => child_spans(tokens, span.0, span.1)
                .into_iter()
                .filter(|&c| name_matches(tokens, c, n))
                .flat_map(|c| child_spans(tokens, c.0, c.1))
                .filter(|&g| name_matches(tokens, g, m))
                .any(|g| reference_compare(&text_of(tokens, g), op, lit)),
        }
    }
}

/// Values of the attributes named `name` that open the element `span`.
fn attr_values<'t>(
    tokens: &'t [Token],
    span: (usize, usize),
    name: &'t str,
) -> impl Iterator<Item = &'t str> + 't {
    tokens[span.0 + 1..=span.1]
        .iter()
        .take_while(|t| {
            matches!(
                t.kind(),
                TokenKind::BeginAttribute | TokenKind::EndAttribute
            )
        })
        .filter(move |t| {
            t.kind() == TokenKind::BeginAttribute
                && t.name().is_some_and(|q| q.to_lexical() == name)
        })
        .filter_map(Token::string_value)
}

/// An element's string value: its text tokens, concatenated.
fn text_of(tokens: &[Token], span: (usize, usize)) -> String {
    tokens[span.0..=span.1]
        .iter()
        .filter(|t| t.kind() == TokenKind::Text)
        .filter_map(Token::string_value)
        .collect()
}

/// XPath 1.0 general comparison of one string value with a literal: `=`
/// and `!=` are string comparisons unless both sides are numbers (leading
/// and trailing spaces ignored), when they compare numerically; the
/// ordering operators hold only between two numbers.
fn reference_compare(value: &str, op: &str, lit: &str) -> bool {
    let number = |s: &str| s.trim().parse::<f64>().ok();
    let both = number(value).zip(number(lit));
    match op {
        "=" => match both {
            Some((a, b)) => a == b || value == lit,
            None => value == lit,
        },
        "!=" => match both {
            Some((a, b)) => a != b && value != lit,
            None => value != lit,
        },
        "<" => both.is_some_and(|(a, b)| a < b),
        "<=" => both.is_some_and(|(a, b)| a <= b),
        ">" => both.is_some_and(|(a, b)| a > b),
        ">=" => both.is_some_and(|(a, b)| a >= b),
        other => unreachable!("operator {other}"),
    }
}

/// Reference evaluation of `(descendant?, name, predicate?)` steps.
fn reference_eval_filtered(
    tokens: &[Token],
    steps: &[(bool, String, Option<Pred>)],
) -> Vec<(usize, usize)> {
    let mut contexts: Vec<Option<(usize, usize)>> = vec![None];
    for (descendant, name, pred) in steps {
        let mut next: Vec<(usize, usize)> = Vec::new();
        for ctx in &contexts {
            let candidates: Vec<(usize, usize)> = match (ctx, descendant) {
                (None, false) => top_level_nodes(tokens).collect(),
                (None, true) => {
                    let mut all = Vec::new();
                    for (s, e) in top_level_nodes(tokens) {
                        all.push((s, e));
                        descendant_spans(tokens, s, e, &mut all);
                    }
                    all
                }
                (Some((s, e)), false) => child_spans(tokens, *s, *e),
                (Some((s, e)), true) => {
                    let mut all = Vec::new();
                    descendant_spans(tokens, *s, *e, &mut all);
                    all
                }
            };
            for span in candidates {
                if name_matches(tokens, span, name)
                    && pred.as_ref().is_none_or(|p| p.holds(tokens, span))
                    && !next.contains(&span)
                {
                    next.push(span);
                }
            }
        }
        next.sort_unstable();
        contexts = next.into_iter().map(Some).collect();
    }
    contexts.into_iter().flatten().collect()
}

// ---- strategies -----------------------------------------------------------

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn doc_strategy() -> impl Strategy<Value = Vec<Token>> {
    let leaf = prop_oneof![
        Just(vec![Token::text("x")]),
        (0usize..4).prop_map(|n| vec![Token::begin_element(NAMES[n]), Token::EndElement]),
    ];
    leaf.prop_recursive(4, 40, 4, |inner| {
        (
            0usize..4,
            proptest::bool::ANY,
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attr, children)| {
                let mut out = vec![Token::begin_element(NAMES[n])];
                if attr {
                    out.push(Token::begin_attribute("k", "v"));
                    out.push(Token::EndAttribute);
                }
                for c in children {
                    out.extend(c);
                }
                out.push(Token::EndElement);
                out
            })
    })
}

/// Attribute and text values: numbers, padded and zero-led numbers, words.
const VALUES: [&str; 7] = ["2", " 2", "02", "2.0", "x", "t", ""];

/// Like [`doc_strategy`], but attribute `k` and the text nodes carry
/// [`VALUES`].
fn valued_doc_strategy() -> impl Strategy<Value = Vec<Token>> {
    let leaf = prop_oneof![
        (0usize..VALUES.len()).prop_map(|v| vec![Token::text(VALUES[v])]),
        (0usize..4).prop_map(|n| vec![Token::begin_element(NAMES[n]), Token::EndElement]),
    ];
    leaf.prop_recursive(4, 40, 4, |inner| {
        (
            0usize..4,
            0usize..VALUES.len() + 1,
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attr, children)| {
                let mut out = vec![Token::begin_element(NAMES[n])];
                if let Some(v) = VALUES.get(attr) {
                    out.push(Token::begin_attribute("k", *v));
                    out.push(Token::EndAttribute);
                }
                for c in children {
                    out.extend(c);
                }
                out.push(Token::EndElement);
                out
            })
    })
}

/// Literals: the document's values, and ones it never holds.
const LITERALS: [&str; 9] = ["2", " 2", "02", "2.0", "x", "t", "", "1", "q"];
const OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];

fn pred_strategy() -> impl Strategy<Value = Option<Pred>> {
    // `k` is the only attribute and `z` a name no document holds.
    let attr = (0usize..2).prop_map(|i| ["k", "m"][i]);
    let child = (0usize..5).prop_map(|i| ["a", "b", "c", "d", "z"][i]);
    let op = (0usize..OPS.len()).prop_map(|i| OPS[i]);
    let lit = (0usize..LITERALS.len()).prop_map(|i| LITERALS[i]);
    prop_oneof![
        Just(None),
        attr.clone().prop_map(|n| Some(Pred::HasAttr(n))),
        child.clone().prop_map(|n| Some(Pred::HasChild(n))),
        (attr, op.clone(), lit.clone()).prop_map(|(n, o, l)| Some(Pred::Attr(n, o, l))),
        (child.clone(), op.clone(), lit.clone()).prop_map(|(n, o, l)| Some(Pred::Child(n, o, l))),
        (child.clone(), child, op, lit).prop_map(|(n, m, o, l)| Some(Pred::Grandchild(n, m, o, l))),
    ]
}

/// Every predicate shape over every name, operator and literal.
fn predicate_grid() -> Vec<Pred> {
    let children = ["a", "b", "c", "d", "z"];
    let mut grid: Vec<Pred> = ["k", "m"].into_iter().map(Pred::HasAttr).collect();
    grid.extend(children.into_iter().map(Pred::HasChild));
    for op in OPS {
        for lit in LITERALS {
            grid.extend(["k", "m"].into_iter().map(|n| Pred::Attr(n, op, lit)));
            grid.extend(children.into_iter().map(|n| Pred::Child(n, op, lit)));
            for n in ["a", "b"] {
                grid.extend(
                    ["c", "d"]
                        .into_iter()
                        .map(|m| Pred::Grandchild(n, m, op, lit)),
                );
            }
        }
    }
    grid
}

fn filtered_path_strategy() -> impl Strategy<Value = Vec<(bool, String, Option<Pred>)>> {
    proptest::collection::vec(
        (
            proptest::bool::ANY,
            (0usize..4).prop_map(|n| NAMES[n].to_string()),
            pred_strategy(),
        ),
        1..4,
    )
}

fn path_strategy() -> impl Strategy<Value = Vec<(bool, String)>> {
    proptest::collection::vec(
        (
            proptest::bool::ANY,
            (0usize..4).prop_map(|n| NAMES[n].to_string()),
        ),
        1..4,
    )
}

fn path_text(steps: &[(bool, String)]) -> String {
    let mut s = String::new();
    for (i, (descendant, name)) in steps.iter().enumerate() {
        let _ = i;
        if *descendant {
            s.push_str("//");
        } else {
            s.push('/');
        }
        s.push_str(name);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn evaluator_matches_reference_on_simple_paths(
        doc in doc_strategy(),
        steps in path_strategy(),
    ) {
        let text = path_text(&steps);
        let compiled = compile(&text).unwrap();
        let got: Vec<(usize, usize)> = evaluate(&doc, &compiled)
            .into_iter()
            .map(|m| (m.token_start, m.token_end))
            .collect();
        let want = reference_eval(&doc, &steps);
        prop_assert_eq!(got, want, "path {}", text);
    }

    #[test]
    fn evaluator_matches_reference_on_value_predicates(
        doc in valued_doc_strategy(),
        steps in filtered_path_strategy(),
    ) {
        let mut text = String::new();
        for (descendant, name, pred) in &steps {
            text.push_str(if *descendant { "//" } else { "/" });
            text.push_str(name);
            if let Some(p) = pred {
                text.push_str(&p.text());
            }
        }
        let compiled = compile(&text).unwrap();
        let got: Vec<(usize, usize)> = evaluate(&doc, &compiled)
            .into_iter()
            .map(|m| (m.token_start, m.token_end))
            .collect();
        let want = reference_eval_filtered(&doc, &steps);
        prop_assert_eq!(got, want, "path {}", text);
    }

    #[test]
    fn results_are_in_document_order_and_unique(
        doc in doc_strategy(),
        steps in path_strategy(),
    ) {
        let compiled = compile(&path_text(&steps)).unwrap();
        let got = evaluate(&doc, &compiled);
        for w in got.windows(2) {
            prop_assert!(w[0].token_start < w[1].token_start);
        }
    }

    #[test]
    fn child_results_subset_of_descendant_results(
        doc in doc_strategy(),
        name in (0usize..4).prop_map(|n| NAMES[n]),
    ) {
        let child = evaluate(&doc, &compile(&format!("/{name}")).unwrap());
        let desc = evaluate(&doc, &compile(&format!("//{name}")).unwrap());
        for m in &child {
            prop_assert!(desc.contains(m));
        }
    }

    #[test]
    fn position_predicates_partition_results(
        doc in doc_strategy(),
        name in (0usize..4).prop_map(|n| NAMES[n]),
    ) {
        // The union of /name[1], /name[2], ... equals /name.
        let all = evaluate(&doc, &compile(&format!("/{name}")).unwrap());
        let mut unioned = Vec::new();
        for k in 1..=all.len() + 1 {
            unioned.extend(evaluate(
                &doc,
                &compile(&format!("/{name}[{k}]")).unwrap(),
            ));
        }
        unioned.sort_by_key(|m| m.token_start);
        prop_assert_eq!(unioned, all);
    }

    #[test]
    fn parent_of_child_is_identity_context(
        doc in doc_strategy(),
        name in (0usize..4).prop_map(|n| NAMES[n]),
    ) {
        // //name/.. spans must each contain at least one `name` child.
        let parents = evaluate(&doc, &compile(&format!("//{name}/..")).unwrap());
        for p in &parents {
            let kids = child_spans(&doc, p.token_start, p.token_end);
            prop_assert!(
                kids.iter().any(|&k| name_matches(&doc, k, name)),
                "parent span without matching child"
            );
        }
    }

    #[test]
    fn compile_never_panics(input in "[ -~]{0,40}") {
        let _ = compile(&input);
    }
}

proptest! {
    // Each case runs the whole grid, some 2 400 paths.
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn every_value_predicate_matches_reference(doc in valued_doc_strategy()) {
        for pred in predicate_grid() {
            for name in NAMES {
                let text = format!("//{name}{}", pred.text());
                let got: Vec<(usize, usize)> = evaluate(&doc, &compile(&text).unwrap())
                    .into_iter()
                    .map(|m| (m.token_start, m.token_end))
                    .collect();
                let steps = [(true, name.to_string(), Some(pred.clone()))];
                prop_assert_eq!(got, reference_eval_filtered(&doc, &steps), "path {}", text);
            }
        }
    }
}
