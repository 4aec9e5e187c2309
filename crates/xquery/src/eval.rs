//! FLWOR evaluation over the store.
//!
//! Variables bind to nodes of the view's [`NodeTable`] — indexes, not token
//! copies — so `let`, `where`, `order by` and the return template all
//! navigate from those nodes in place. Tokens are copied only where the
//! return template splices a bound subtree into its output.

use crate::ast::{AttrPart, Constructor, FlworQuery, VarPath};
use axs_core::{NodeKind, NodeTable, ReadView, StoreError};
use axs_xdm::Token;
use axs_xpath::{evaluate_at, evaluate_table};
use std::collections::HashMap;

/// A variable environment for one `for` binding: each variable holds a
/// *sequence* of items (table nodes).
type Env = HashMap<String, Vec<u32>>;

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
    let table = store.node_table()?;
    let t = &*table;
    // FOR: bind the variable, one environment per binding.
    let mut envs: Vec<Env> = evaluate_table(t, &query.source)
        .into_iter()
        .map(|n| Env::from([(query.variable.clone(), vec![n])]))
        .collect();

    // LET: extend each environment in clause order.
    for (name, value) in &query.lets {
        for env in &mut envs {
            let items = resolve(t, env, value);
            env.insert(name.clone(), items);
        }
    }

    // WHERE: filter environments.
    if let Some(w) = &query.where_clause {
        envs.retain(|env| {
            let items = resolve(t, env, &w.path);
            match &w.compare {
                None => !items.is_empty(),
                Some((op, lit)) => items.iter().any(|&n| op.test(&t.string_value(n), lit)),
            }
        });
    }

    // ORDER BY: stable sort on the key.
    if let Some(o) = &query.order_by {
        let mut keyed: Vec<(usize, Option<String>)> = envs
            .iter()
            .enumerate()
            .map(|(i, env)| {
                let key = resolve(t, env, &o.path)
                    .first()
                    .map(|&n| t.string_value(n).into_owned());
                (i, key)
            })
            .collect();
        keyed.sort_by(|(ia, a), (ib, b)| {
            let ord = if o.numeric {
                let na = a.as_deref().and_then(|s| s.trim().parse::<f64>().ok());
                let nb = b.as_deref().and_then(|s| s.trim().parse::<f64>().ok());
                match (na, nb) {
                    (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (None, None) => std::cmp::Ordering::Equal,
                }
            } else {
                a.cmp(b)
            };
            ord.then(ia.cmp(ib))
        });
        if o.descending {
            keyed.reverse();
        }
        let order: Vec<usize> = keyed.into_iter().map(|(i, _)| i).collect();
        let mut slots: Vec<Option<Env>> = envs.into_iter().map(Some).collect();
        envs = order
            .into_iter()
            .map(|i| slots[i].take().expect("each env moved once"))
            .collect();
    }

    // RETURN: construct per environment.
    Ok(envs
        .iter()
        .map(|env| {
            let mut out = Vec::new();
            construct_into(t, env, &query.ret, &mut out);
            out
        })
        .collect())
}

/// Resolves a variable path against an environment: the variable's items,
/// each navigated further when a relative path is present.
fn resolve(t: &NodeTable<'_>, env: &Env, vp: &VarPath) -> Vec<u32> {
    let Some(base) = env.get(&vp.var) else {
        return Vec::new();
    };
    match &vp.path {
        None => base.clone(),
        Some(path) => base.iter().flat_map(|&n| evaluate_at(t, n, path)).collect(),
    }
}

/// The string value of the first item `vp` resolves to, if any.
fn first_string(t: &NodeTable<'_>, env: &Env, vp: &VarPath) -> Option<String> {
    let first = *resolve(t, env, vp).first()?;
    Some(t.string_value(first).into_owned())
}

fn construct_into(t: &NodeTable<'_>, env: &Env, c: &Constructor, out: &mut Vec<Token>) {
    match c {
        Constructor::Element {
            name,
            attributes,
            children,
        } => {
            out.push(Token::begin_element(name.as_str()));
            for (attr_name, parts) in attributes {
                let mut value = String::new();
                for part in parts {
                    match part {
                        AttrPart::Literal(s) => value.push_str(s),
                        AttrPart::Path(vp) => {
                            value.push_str(&first_string(t, env, vp).unwrap_or_default())
                        }
                    }
                }
                out.push(Token::begin_attribute(attr_name.as_str(), value));
                out.push(Token::EndAttribute);
            }
            for child in children {
                construct_into(t, env, child, out);
            }
            out.push(Token::EndElement);
        }
        Constructor::Text(s) => out.push(Token::text(s.clone())),
        Constructor::Splice(vp) => {
            for n in resolve(t, env, vp) {
                if t.kind(n) == NodeKind::Attribute {
                    // A bare attribute cannot be content; use its value.
                    out.push(Token::text(t.string_value(n)));
                } else {
                    out.extend(t.tokens(n).cloned());
                }
            }
        }
        Constructor::StringOf(vp) => {
            if let Some(value) = first_string(t, env, vp) {
                out.push(Token::text(value));
            }
        }
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
