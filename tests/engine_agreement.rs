//! Cross-engine agreement: the XPath evaluator, the FLWOR engine, the
//! navigation API, and raw token scans must tell the same story about the
//! same store.

use adaptive_xml_storage::prelude::*;
use axs_workload::docgen;
use axs_xpath::evaluate_store;

#[test]
fn flwor_identity_equals_xpath() {
    let mut store = StoreBuilder::new().build().unwrap();
    store.bulk_insert(docgen::auction_site(7, 6)).unwrap();

    for path in ["/site/regions/asia/item", "//person", "//bidder/increase"] {
        let xpath_hits: Vec<Vec<Token>> = evaluate_store(&store, &compile(path).unwrap())
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let flwor = parse_flwor(&format!("for $x in {path} return {{ $x }}")).unwrap();
        let flwor_rows = evaluate_flwor(&store, &flwor).unwrap();
        assert_eq!(xpath_hits, flwor_rows, "path {path}");
    }
}

#[test]
fn flwor_where_equals_xpath_predicate() {
    let mut store = StoreBuilder::new().build().unwrap();
    store.bulk_insert(docgen::purchase_orders(3, 30)).unwrap();

    let via_predicate = evaluate_store(&store, &compile("//line[qty>90]").unwrap()).unwrap();
    let via_where = evaluate_flwor(
        &store,
        &parse_flwor("for $l in //line where $l/qty > 90 return { $l }").unwrap(),
    )
    .unwrap();
    assert_eq!(via_predicate.len(), via_where.len());
    for ((_, a), b) in via_predicate.iter().zip(&via_where) {
        assert_eq!(a, b);
    }
    assert!(!via_where.is_empty(), "fixture must produce matches");
}

#[test]
fn navigation_agrees_with_xpath_children() {
    let mut store = StoreBuilder::new().build().unwrap();
    store.bulk_insert(docgen::auction_site(11, 4)).unwrap();

    // For every <item>, children_of must equal the child::* + text()/etc.
    let items = evaluate_store(&store, &compile("//item").unwrap()).unwrap();
    assert!(!items.is_empty());
    for (id, _) in items {
        let id = id.unwrap();
        let kids = store.children_of(id).unwrap();
        // XPath: node() children of this specific item — reachable via its
        // subtree evaluation.
        let sub = store.read_node(id).unwrap();
        let child_matches = axs_xpath::evaluate_from_roots(&sub, &compile("node()").unwrap());
        assert_eq!(kids.len(), child_matches.len(), "node {id}");
        // And each child's parent is the item.
        for kid in kids {
            assert_eq!(store.parent_of(kid).unwrap(), Some(id));
        }
    }
}

#[test]
fn string_values_agree_between_store_and_query_layers() {
    let mut store = StoreBuilder::new().build().unwrap();
    store.bulk_insert(docgen::purchase_orders(9, 10)).unwrap();

    let customers = evaluate_store(&store, &compile("//customer").unwrap()).unwrap();
    for (id, sub) in customers {
        let via_store = store.string_value(id.unwrap()).unwrap();
        // Serialize + strip tags via the FLWOR string() of self is overkill;
        // compare against the subtree's text token directly.
        let via_tokens: String = sub
            .iter()
            .filter(|t| t.kind() == TokenKind::Text)
            .map(|t| t.string_value().unwrap_or_default())
            .collect();
        assert_eq!(via_store, via_tokens);
    }
}

// ---- snapshot / live store / flat tokens ---------------------------------

mod three_way {
    use adaptive_xml_storage::prelude::*;
    use axs_xpath::{evaluate, evaluate_store};
    use proptest::prelude::*;

    const NAMES: [&str; 3] = ["a", "b", "c"];
    const VALUES: [&str; 3] = ["1", "2", "t"];

    /// A generated subtree: an element with an optional `k` attribute and
    /// text, comment and element children.
    fn tree() -> impl Strategy<Value = Vec<Token>> {
        let leaf = prop_oneof![
            (0usize..3).prop_map(|v| vec![Token::text(VALUES[v])]),
            Just(vec![Token::comment("c")]),
            (0usize..3).prop_map(|n| vec![Token::begin_element(NAMES[n]), Token::EndElement]),
        ];
        leaf.prop_recursive(4, 48, 4, |inner| {
            (
                0usize..3,
                (any::<bool>(), 0usize..3),
                proptest::collection::vec(inner, 0..4),
            )
                .prop_map(|(n, (attr, v), children)| {
                    let mut out = vec![Token::begin_element(NAMES[n])];
                    if attr {
                        out.push(Token::begin_attribute("k", VALUES[v]));
                        out.push(Token::EndAttribute);
                    }
                    out.extend(children.into_iter().flatten());
                    out.push(Token::EndElement);
                    out
                })
        })
    }

    fn element(name: usize, value: usize) -> Vec<Token> {
        vec![
            Token::begin_element(NAMES[name]),
            Token::text(VALUES[value]),
            Token::EndElement,
        ]
    }

    /// One committed write against a selected element below the root.
    #[derive(Debug, Clone)]
    enum Write {
        InsertLast(usize, usize),
        InsertBefore(usize, usize),
        Delete(usize),
        Replace(usize, usize),
    }

    fn write() -> impl Strategy<Value = Write> {
        let sel = any::<usize>;
        prop_oneof![
            (sel(), 0usize..3).prop_map(|(s, f)| Write::InsertLast(s, f)),
            (sel(), 0usize..3).prop_map(|(s, f)| Write::InsertBefore(s, f)),
            sel().prop_map(Write::Delete),
            (sel(), 0usize..3).prop_map(|(s, f)| Write::Replace(s, f)),
        ]
    }

    const STEPS: [&str; 11] = [
        "a",
        "b",
        "c",
        "*",
        "text()",
        "comment()",
        "node()",
        "@k",
        "..",
        "self::a",
        "self::*",
    ];
    const PREDICATES: [&str; 16] = [
        "",
        "[1]",
        "[2]",
        "[last()]",
        "[b]",
        "[@k]",
        "[b='1']",
        "[@k>1]",
        "[text()='t']",
        "[c!='2']",
        "[@k='2']",
        "[@k=2]",
        "[@k='02']",
        "[@k='x']",
        "[b!='t']",
        "[@k<'t']",
    ];
    /// Values a `where` compares `@k` with: the generated ones, a padded
    /// number and one no tree holds.
    const WHERE_VALUES: [&str; 5] = ["1", "2", "t", "02", "x"];

    /// A path of one to three steps over the grammar's shapes.
    fn path() -> impl Strategy<Value = String> {
        proptest::collection::vec((any::<bool>(), 0..STEPS.len(), 0..PREDICATES.len()), 1..4)
            .prop_map(|steps| {
                let mut text = String::new();
                for (descendant, step, pred) in steps {
                    let step = STEPS[step];
                    // `//@k` and `//..` are outside the grammar; `..` takes
                    // no predicate.
                    let plain = matches!(step, "@k" | "..");
                    text.push_str(if descendant && !plain { "//" } else { "/" });
                    text.push_str(step);
                    if step != ".." {
                        text.push_str(PREDICATES[pred]);
                    }
                }
                text
            })
    }

    fn below_root(store: &XmlStore, root: NodeId) -> Vec<NodeId> {
        store
            .read()
            .map(|r| r.unwrap())
            .filter_map(|(id, t)| match (id, t.kind()) {
                (Some(id), TokenKind::BeginElement) if id != root => Some(id),
                _ => None,
            })
            .collect()
    }

    fn apply(store: &mut XmlStore, root: NodeId, w: &Write) {
        let targets = below_root(store, root);
        let pick = |s: usize| targets.get(s % targets.len().max(1)).copied();
        match *w {
            Write::InsertLast(s, f) => {
                let target = pick(s).unwrap_or(root);
                store.insert_into_last(target, element(f, f)).unwrap();
            }
            Write::InsertBefore(s, f) => {
                if let Some(target) = pick(s) {
                    store.insert_before(target, element(f, 2 - f)).unwrap();
                }
            }
            Write::Delete(s) => {
                if let Some(target) = pick(s) {
                    store.delete_node(target).unwrap();
                }
            }
            Write::Replace(s, f) => {
                if let Some(target) = pick(s) {
                    store.replace_node(target, element(f, 0)).unwrap();
                }
            }
        }
        store.commit().unwrap();
    }

    /// The same matches three ways: on a pinned snapshot (its cached
    /// table), on the live store (a table per call) and over the flat
    /// `read_all()` tokens with the cursor's ids.
    fn assert_agree(store: &XmlStore, paths: &[String]) -> Result<(), TestCaseError> {
        let pin = store.epoch_registry().pin().unwrap();
        let flat: Vec<(Option<NodeId>, Token)> = store.read().map(|r| r.unwrap()).collect();
        let tokens: Vec<Token> = flat.iter().map(|(_, t)| t.clone()).collect();
        for text in paths {
            let path = compile(text).unwrap();
            let on_snapshot = evaluate_store(&*pin, &path).unwrap();
            let on_store = evaluate_store(store, &path).unwrap();
            let on_tokens: Vec<(Option<NodeId>, Vec<Token>)> = evaluate(&tokens, &path)
                .into_iter()
                .map(|m| {
                    (
                        flat[m.token_start].0,
                        tokens[m.token_start..=m.token_end].to_vec(),
                    )
                })
                .collect();
            prop_assert_eq!(&on_snapshot, &on_store, "snapshot vs live store: {}", text);
            prop_assert_eq!(
                &on_snapshot,
                &on_tokens,
                "snapshot vs flat tokens: {}",
                text
            );
        }
        Ok(())
    }

    /// On a pinned snapshot, `for $x in P where $x/@k = 'v' return { $x }`
    /// returns exactly the subtrees `P[@k='v']` matches, and the same for a
    /// child comparison, where a binding can have several `b` items.
    fn assert_where_agrees(
        store: &XmlStore,
        paths: &[(String, usize)],
    ) -> Result<(), TestCaseError> {
        let pin = store.epoch_registry().pin().unwrap();
        for (text, v) in paths {
            // `..` takes no predicate; its parents are the same nodes.
            let p = if text.ends_with("..") {
                format!("{text}/self::node()")
            } else {
                text.clone()
            };
            let v = WHERE_VALUES[*v];
            for operand in ["@k", "b"] {
                let predicate = format!("{p}[{operand}='{v}']");
                let via_predicate: Vec<Vec<Token>> =
                    evaluate_store(&*pin, &compile(&predicate).unwrap())
                        .unwrap()
                        .into_iter()
                        .map(|(_, t)| t)
                        .collect();
                let flwor = format!("for $x in {p} where $x/{operand} = '{v}' return {{ $x }}");
                let via_where = evaluate_flwor(&*pin, &parse_flwor(&flwor).unwrap()).unwrap();
                prop_assert_eq!(
                    &via_where,
                    &via_predicate,
                    "{} against {}",
                    flwor,
                    predicate
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn snapshot_live_store_and_flat_tokens_agree(
            children in proptest::collection::vec(tree(), 1..5),
            writes in proptest::collection::vec(write(), 0..5),
            paths in proptest::collection::vec(path(), 6..10),
        ) {
            // Small ranges put the document in many runs; the writes leave
            // their id intervals out of document order.
            let mut store = StoreBuilder::new()
                .policy(IndexingPolicy::RangeOnly { target_range_bytes: 64 })
                .build()
                .unwrap();
            let mut doc = vec![Token::begin_element("r")];
            doc.extend(children.into_iter().flatten());
            doc.push(Token::EndElement);
            let root = store.bulk_insert(doc).unwrap().start;
            store.commit().unwrap();
            assert_agree(&store, &paths)?;
            for w in &writes {
                apply(&mut store, root, w);
                assert_agree(&store, &paths)?;
            }
        }

        #[test]
        fn flwor_where_agrees_with_the_predicate_on_a_snapshot(
            children in proptest::collection::vec(tree(), 1..5),
            writes in proptest::collection::vec(write(), 0..5),
            paths in proptest::collection::vec((path(), 0..WHERE_VALUES.len()), 4..8),
        ) {
            let mut store = StoreBuilder::new()
                .policy(IndexingPolicy::RangeOnly { target_range_bytes: 64 })
                .build()
                .unwrap();
            let mut doc = vec![Token::begin_element("r")];
            doc.extend(children.into_iter().flatten());
            doc.push(Token::EndElement);
            let root = store.bulk_insert(doc).unwrap().start;
            store.commit().unwrap();
            assert_where_agrees(&store, &paths)?;
            for w in &writes {
                apply(&mut store, root, w);
                assert_where_agrees(&store, &paths)?;
            }
        }
    }
}
