//! Per-query cost, in process: what each benchmark rotation query costs to
//! evaluate and render on a pinned snapshot, with no network in the way.
//!
//! Loads the 2 MB auction-site document (`auction_site(4242, 2500)`, the
//! `query-scan` workload's) and a 200-day purchase-order document (ten
//! orders a day) into directory stores, pins one snapshot of each, and
//! times the nine `query-scan` queries and the four purchase-order
//! queries. Each timing is the best of N runs of compile (or parse),
//! evaluate and serialize — the server's work for one request, less the
//! framing. Next to it the example prints the answer's row count and an
//! FNV-1a hash of its serialized rows (one `\n` after each), so two builds
//! can be checked for byte-identical answers, and the node table's heap
//! bytes per node.
//!
//! ```sh
//! cargo run --release --example query_costs [-- <runs, default 20>]
//! ```

use adaptive_xml_storage::prelude::*;
use axs_core::{NodeTable, ReadView};
use axs_workload::docgen;
use axs_xml::StreamSerializer;
use axs_xquery::{evaluate_flwor_into, RowSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The `query-scan` rotation over the auction site.
const AUCTION: [&str; 9] = [
    "/site/regions/europe/item/name",
    "//bidder/increase",
    "//item[@id='itemasia17']",
    "/site/people/person[10]/name",
    "/site/regions/*/item[3]/description",
    "//open_auction[bidder]",
    "for $i in /site/regions/asia/item where $i/@id = 'itemasia5' \
     return <hit>{ $i/name }</hit>",
    "for $p in /site/people/person order by $p/name return <p>{ $p/name }</p>",
    "for $i in /site/regions/africa/item let $d := $i/description \
     return <d id=\"{ $i/@id }\">{ $d }</d>",
];

/// The purchase-order rotation (base day 2, order 7).
const ORDERS: [&str; 4] = [
    "/purchase-orders/day[2]/purchase-order",
    "//line[@no='2']",
    "for $o in /purchase-orders/day/purchase-order where $o/@id = '7' \
     return <hit>{ $o/customer }</hit>",
    "for $l in /purchase-orders/day[2]/purchase-order/line \
     order by $l/qty numeric descending return <l>{ $l/sku }</l>",
];

/// `<purchase-orders>` of `days` `<day>`s, ten orders each, numbered from 1.
fn purchase_order_days(seed: u64, days: usize) -> Vec<Token> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![Token::begin_element("purchase-orders")];
    for day in 0..days {
        out.push(Token::begin_element("day"));
        for i in 0..10 {
            out.extend(docgen::purchase_order(&mut rng, (day * 10 + i) as u64 + 1));
        }
        out.push(Token::EndElement);
    }
    out.push(Token::EndElement);
    out
}

/// Serializes FLWOR rows as they are produced, one `\n` after each.
struct Rendered {
    ser: StreamSerializer,
    out: String,
    rows: usize,
}

impl RowSink for Rendered {
    type Error = Box<dyn std::error::Error>;

    fn token(&mut self, token: &Token) -> Result<(), Self::Error> {
        Ok(self.ser.write_token_into(token, &mut self.out)?)
    }

    fn end_row(&mut self) -> Result<(), Self::Error> {
        self.ser.finish_item()?;
        self.out.push('\n');
        self.rows += 1;
        Ok(())
    }
}

/// One query's answer, serialized: its row count and text.
fn answer<V: ReadView>(
    view: &V,
    query: &str,
) -> Result<(usize, String), Box<dyn std::error::Error>> {
    let mut r = Rendered {
        ser: StreamSerializer::new(SerializeOptions::default()),
        out: String::new(),
        rows: 0,
    };
    if query.starts_with("for ") {
        evaluate_flwor_into(view, &parse_flwor(query)?, &mut r)?;
    } else {
        let path = compile(query)?;
        let table = view.node_table()?;
        for n in axs_xpath::evaluate_table(&table, &path) {
            for tok in table.tokens(n) {
                r.token(tok)?;
            }
            r.end_row()?;
        }
    }
    Ok((r.rows, r.out))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report(
    name: &str,
    tokens: Vec<Token>,
    queries: &[&str],
    runs: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("axs-query-costs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = StoreBuilder::new().directory(&dir).build()?;
    store.bulk_insert(tokens)?;
    store.commit()?;
    let pin = store
        .epoch_registry()
        .pin()
        .ok_or("the store published no epoch")?;
    let table: std::sync::Arc<NodeTable<'static>> = pin.node_table()?;
    println!(
        "# {name}: {} nodes, node table {:.1} B/node",
        table.len(),
        table.heap_bytes() as f64 / table.len() as f64
    );
    println!(
        "{:>10} {:>6}  {:<16}  query",
        "best_us", "rows", "answer_fnv1a"
    );
    for query in queries {
        let (rows, text) = answer(&*pin, query)?;
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            std::hint::black_box(answer(&*pin, query)?);
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        println!(
            "{best:>10.1} {rows:>6}  {:016x}  {query}",
            fnv1a(text.as_bytes())
        );
    }
    drop(pin);
    drop(store);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runs = match std::env::args().nth(1) {
        Some(n) => n.parse()?,
        None => 20,
    };
    report("auction", docgen::auction_site(4242, 2500), &AUCTION, runs)?;
    report("orders", purchase_order_days(4242, 200), &ORDERS, runs)?;
    Ok(())
}
