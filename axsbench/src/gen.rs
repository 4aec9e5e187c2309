//! Seeded inputs and the client-side shadow of the stored document.
//!
//! Everything the server receives is generated here from `--seed`: the
//! bulk-loaded base document, the purchase-order fragments the writers
//! insert, the Zipf-skewed read schedule and the query rotation. The
//! generator also knows what the right answer to every request is: a
//! [`Shadow`] mirrors the document the acknowledged writes must have
//! produced, and a [`NodeTpl`] per readable node holds the XML, string
//! value, children and parent a point read must return.

use axs_workload::docgen;
use axs_xdm::{Token, TokenKind};
use axs_xml::{serialize, SerializeOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Orders appended under one `<day>` before the feed opens the next day
/// (the paper's §4.1 usage pattern, as in the in-process Table 5 harness).
pub const ORDERS_PER_DAY: usize = 10;

/// Skew of the read id picker.
pub const ZIPF_S: f64 = 0.99;

/// Compact serialization, exactly what the server renders.
pub fn xml_of(tokens: &[Token]) -> String {
    serialize(tokens, &SerializeOptions::default()).expect("generated tokens are well formed")
}

/// Encoded size of `tokens`, the unit of the paper's KB/s figures.
pub fn token_bytes(tokens: &[Token]) -> u64 {
    tokens.iter().map(|t| axs_xdm::encoded_len(t) as u64).sum()
}

/// 64-bit FNV-1a, used to fingerprint op streams and `read_all` bodies.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Hash of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

/// Zipf-distributed rank picker over `0..n` (rank 0 is the hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The four point-read opcodes the read classes rotate through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `read_node`: the subtree as XML.
    Node,
    /// `string_value`.
    Value,
    /// `children`: ids and names.
    Children,
    /// `parent`.
    Parent,
}

impl ReadKind {
    /// Rotation order.
    pub const ALL: [ReadKind; 4] = [
        ReadKind::Node,
        ReadKind::Value,
        ReadKind::Children,
        ReadKind::Parent,
    ];

    /// Span / report name.
    pub fn name(self) -> &'static str {
        match self {
            ReadKind::Node => "read_node",
            ReadKind::Value => "string_value",
            ReadKind::Children => "children",
            ReadKind::Parent => "parent",
        }
    }
}

/// The expected answers for one readable node of a fragment, with ids
/// relative to the fragment's first id.
#[derive(Debug, Clone)]
pub struct NodeTpl {
    /// Id offset of the node from the fragment's first id.
    pub off: u64,
    /// Id offset of the parent, `None` when the parent is the node the
    /// fragment was inserted under.
    pub parent_off: Option<u64>,
    /// `read_node` result.
    pub xml: String,
    /// `string_value` result.
    pub value: String,
    /// `children` result: (id offset, lexical name; empty for text).
    pub kids: Vec<(u64, String)>,
    /// Encoded size of the node's tokens (the paper reports token KB/s).
    pub token_bytes: u64,
}

/// One generated purchase order: the tokens, the XML sent over the wire,
/// and the expected answers for its readable nodes (the order element
/// itself first, then each `<line>`).
#[derive(Debug)]
pub struct Frag {
    /// The order's tokens.
    pub tokens: Vec<Token>,
    /// Compact XML of `tokens` — the insert payload.
    pub xml: String,
    /// Node ids the fragment consumes.
    pub ids: u64,
    /// `<line>` elements in the order.
    pub lines: usize,
    /// Readable nodes: index 0 is the order element.
    pub nodes: Vec<NodeTpl>,
}

impl Frag {
    /// Builds the fragment for one order.
    pub fn order(rng: &mut StdRng, order_no: u64) -> Arc<Frag> {
        let tokens = docgen::purchase_order(rng, order_no);
        let nodes = node_templates(&tokens, |name| name == "purchase-order" || name == "line");
        Arc::new(Frag {
            xml: xml_of(&tokens),
            ids: axs_xdm::count_ids(&tokens),
            lines: nodes.len() - 1,
            nodes,
            tokens,
        })
    }

    /// The `id` attribute value the order was generated with.
    pub fn order_no(&self) -> &str {
        self.tokens[1].string_value().unwrap_or_default()
    }
}

/// Expected answers for every element of `tokens` (one well-formed
/// fragment) whose local name `want` accepts.
fn node_templates(tokens: &[Token], want: impl Fn(&str) -> bool) -> Vec<NodeTpl> {
    // Pass 1: the id offset of every id-consuming token, each begin
    // token's matching end, and each token's enclosing element.
    let mut offs = vec![None; tokens.len()];
    let mut ends = vec![0usize; tokens.len()];
    let mut parents: Vec<Option<usize>> = vec![None; tokens.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u64;
    for (i, tok) in tokens.iter().enumerate() {
        parents[i] = stack.last().copied();
        if tok.consumes_id() {
            offs[i] = Some(next);
            next += 1;
        }
        let kind = tok.kind();
        if kind.is_begin() {
            stack.push(i);
        } else if kind.is_end() {
            let begin = stack.pop().expect("balanced fragment");
            ends[begin] = i;
        } else {
            ends[i] = i;
        }
    }
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind() != TokenKind::BeginElement
            || !tok.name().is_some_and(|n| want(n.local_part()))
        {
            continue;
        }
        let subtree = &tokens[i..=ends[i]];
        let mut value = String::new();
        let mut kids = Vec::new();
        let mut depth = 0i32;
        let mut in_attribute = 0u32;
        for (j, t) in subtree.iter().enumerate() {
            let kind = t.kind();
            match kind {
                TokenKind::BeginAttribute => in_attribute += 1,
                TokenKind::EndAttribute => in_attribute -= 1,
                TokenKind::Text if in_attribute == 0 => {
                    value.push_str(t.string_value().unwrap_or_default());
                }
                _ => {}
            }
            if depth == 1 && kind != TokenKind::BeginAttribute {
                if let Some(off) = offs[i + j] {
                    let name = t.name().map(|n| n.to_lexical()).unwrap_or_default();
                    kids.push((off, name));
                }
            }
            depth += kind.depth_delta();
        }
        out.push(NodeTpl {
            off: offs[i].expect("elements consume ids"),
            parent_off: parents[i].and_then(|p| offs[p]),
            xml: xml_of(subtree),
            value,
            kids,
            token_bytes: token_bytes(subtree),
        });
    }
    out
}

/// One order in the shadow: where it lives and what it is.
#[derive(Debug, Clone)]
pub struct Order {
    /// Id of the order element (the fragment's first id).
    pub id: u64,
    /// The fragment.
    pub frag: Arc<Frag>,
}

/// One `<day>` subtree in the shadow.
#[derive(Debug, Clone)]
pub struct Day {
    /// Id of the `<day>` element.
    pub id: u64,
    /// Its orders, in document order.
    pub orders: Vec<Order>,
}

impl Day {
    /// Every readable node of the day's orders, in document order.
    pub fn targets(&self) -> impl Iterator<Item = Target> + '_ {
        self.orders.iter().flat_map(move |order| {
            (0..order.frag.nodes.len()).map(move |node| Target {
                frag: order.frag.clone(),
                node,
                start: order.id,
                day: self.id,
            })
        })
    }
}

/// Client-side model of the stored document: a static head (everything
/// before the first `<day>`, root begin tag included) followed by `<day>`
/// subtrees of purchase orders, then the root's end tag. Every workload
/// writes only by adding, replacing or deleting orders inside days and by
/// adding days, so this shape can mirror every acknowledged write.
#[derive(Debug, Clone)]
pub struct Shadow {
    /// Tokens before the first day (shared, never mutated).
    pub head: Arc<Vec<Token>>,
    /// Id of the root element.
    pub root_id: u64,
    /// The day subtrees, in document order.
    pub days: Vec<Day>,
}

impl Shadow {
    /// The whole document as tokens.
    pub fn tokens(&self) -> Vec<Token> {
        let mut out: Vec<Token> = self.head.as_ref().clone();
        for day in &self.days {
            out.push(Token::begin_element("day"));
            for order in &day.orders {
                out.extend_from_slice(&order.frag.tokens);
            }
            out.push(Token::EndElement);
        }
        out.push(Token::EndElement);
        out
    }

    /// Orders in the document.
    pub fn orders(&self) -> usize {
        self.days.iter().map(|d| d.orders.len()).sum()
    }

    fn all_orders(&self) -> impl Iterator<Item = &Order> {
        self.days.iter().flat_map(|d| d.orders.iter())
    }

    /// Position of the day with element id `id`.
    pub fn day_index(&self, id: u64) -> Option<usize> {
        self.days.iter().position(|d| d.id == id)
    }

    /// How many results `expect` predicts against the current document.
    pub fn expected(&self, expect: &Expect) -> usize {
        match *expect {
            Expect::Const(n) => n,
            Expect::OrdersInDay(d) => self.days[d].orders.len(),
            Expect::LinesInDay(d) => self.days[d].orders.iter().map(|o| o.frag.lines).sum(),
            Expect::OrdersWithLines(k) => self.all_orders().filter(|o| o.frag.lines >= k).count(),
            Expect::OrdersNumbered(ref no) => self
                .all_orders()
                .filter(|o| o.frag.order_no() == no)
                .count(),
        }
    }
}

/// What a query must return, as a function of the shadow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A fixed count (static parts of the document).
    Const(usize),
    /// One result per order of the day at this position.
    OrdersInDay(usize),
    /// One result per `<line>` of the day at this position.
    LinesInDay(usize),
    /// One result per order with at least this many lines.
    OrdersWithLines(usize),
    /// One result per order carrying this `id` attribute.
    OrdersNumbered(String),
}

/// XPath or FLWOR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `Query` opcode.
    XPath,
    /// `Flwor` opcode.
    Flwor,
}

/// One query of a rotation with its expected result count.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Which opcode carries it.
    pub kind: QueryKind,
    /// The query text.
    pub text: String,
    /// The result count it must produce.
    pub expect: Expect,
}

fn xp(text: impl Into<String>, expect: Expect) -> QuerySpec {
    QuerySpec {
        kind: QueryKind::XPath,
        text: text.into(),
        expect,
    }
}

fn fl(text: impl Into<String>, expect: Expect) -> QuerySpec {
    QuerySpec {
        kind: QueryKind::Flwor,
        text: text.into(),
        expect,
    }
}

/// The rotation for purchase-order documents, run by the panel of every
/// workload but query-scan: two XPath queries (child steps with a
/// positional predicate; a descendant step with an attribute predicate)
/// and two FLWOR queries (a `where` on an attribute; an `order by`).
/// Each walks the whole document, so four tell as much about its state
/// as the nine of the query workload would. `day` is a 0-based base-day
/// position and `order_no` the `id` of an order that is never deleted.
pub fn po_queries(day: usize, order_no: &str) -> Vec<QuerySpec> {
    let d = day + 1;
    vec![
        xp(
            format!("/purchase-orders/day[{d}]/purchase-order"),
            Expect::OrdersInDay(day),
        ),
        xp("//line[@no='2']", Expect::OrdersWithLines(2)),
        fl(
            format!(
                "for $o in /purchase-orders/day/purchase-order where $o/@id = '{order_no}' \
                 return <hit>{{ $o/customer }}</hit>"
            ),
            Expect::OrdersNumbered(order_no.to_string()),
        ),
        fl(
            format!(
                "for $l in /purchase-orders/day[{d}]/purchase-order/line \
                 order by $l/qty numeric descending return <l>{{ $l/sku }}</l>"
            ),
            Expect::LinesInDay(day),
        ),
    ]
}

/// The rotation for the auction-site document; every count is fixed by
/// the generated document (`items` per region, `bidders` bid elements,
/// `bid_auctions` auctions with at least one bid), because the workload's
/// writes only add `<day>` subtrees these paths never reach.
pub fn auction_queries(items: usize, bidders: usize, bid_auctions: usize) -> Vec<QuerySpec> {
    vec![
        xp("/site/regions/europe/item/name", Expect::Const(items)),
        xp("//bidder/increase", Expect::Const(bidders)),
        xp("//item[@id='itemasia17']", Expect::Const(1)),
        xp("/site/people/person[10]/name", Expect::Const(1)),
        xp("/site/regions/*/item[3]/description", Expect::Const(4)),
        xp("//open_auction[bidder]", Expect::Const(bid_auctions)),
        fl(
            "for $i in /site/regions/asia/item where $i/@id = 'itemasia5' \
             return <hit>{ $i/name }</hit>",
            Expect::Const(1),
        ),
        fl(
            "for $p in /site/people/person order by $p/name return <p>{ $p/name }</p>",
            Expect::Const((items / 2).max(1)),
        ),
        fl(
            "for $i in /site/regions/africa/item let $d := $i/description \
             return <d id=\"{ $i/@id }\">{ $d }</d>",
            Expect::Const(items),
        ),
    ]
}

/// A purchase-order base document of `days` days of [`ORDERS_PER_DAY`]
/// orders, with the ids a bulk load into an empty store assigns (the
/// root element gets id 1, every id-consuming token the next one).
/// Returns the tokens to load and their shadow.
pub fn po_base(rng: &mut StdRng, days: usize) -> (Vec<Token>, Shadow) {
    let head = vec![Token::begin_element("purchase-orders")];
    let mut shadow = Shadow {
        head: Arc::new(head),
        root_id: 1,
        days: Vec::with_capacity(days),
    };
    let mut next_id = 2u64;
    let mut order_no = 1u64;
    for _ in 0..days {
        let mut day = Day {
            id: next_id,
            orders: Vec::with_capacity(ORDERS_PER_DAY),
        };
        next_id += 1;
        for _ in 0..ORDERS_PER_DAY {
            let frag = Frag::order(rng, order_no);
            order_no += 1;
            day.orders.push(Order {
                id: next_id,
                frag: frag.clone(),
            });
            next_id += frag.ids;
        }
        shadow.days.push(day);
    }
    (shadow.tokens(), shadow)
}

/// The Table 5 starting point, `<purchase-orders><day/></purchase-orders>`:
/// the feed begins from one empty day, as in the in-process harness.
pub fn po_empty() -> (Vec<Token>, Shadow) {
    let shadow = Shadow {
        head: Arc::new(vec![Token::begin_element("purchase-orders")]),
        root_id: 1,
        days: vec![Day {
            id: 2,
            orders: Vec::new(),
        }],
    };
    (shadow.tokens(), shadow)
}

/// The auction-site base document (`items` per region) and its shadow,
/// whose head is the whole site and whose day list starts empty. Also
/// returns the two counts [`auction_queries`] needs.
pub fn auction_base(seed: u64, items: usize) -> (Vec<Token>, Shadow, usize, usize) {
    let tokens = docgen::auction_site(seed, items);
    let is = |t: &Token, name: &str| {
        t.kind() == TokenKind::BeginElement && t.name().is_some_and(|n| n.is_local(name))
    };
    let bidders = tokens.iter().filter(|t| is(t, "bidder")).count();
    let bid_auctions = tokens
        .windows(4)
        .filter(|w| is(&w[0], "open_auction") && is(&w[3], "bidder"))
        .count();
    let mut head = tokens.clone();
    head.pop();
    let shadow = Shadow {
        head: Arc::new(head),
        root_id: 1,
        days: Vec::new(),
    };
    (tokens, shadow, bidders, bid_auctions)
}

/// `n` order fragments numbered from `first_no`.
pub fn orders(rng: &mut StdRng, first_no: u64, n: usize) -> Vec<Arc<Frag>> {
    (0..n)
        .map(|i| Frag::order(rng, first_no + i as u64))
        .collect()
}

/// One planned point read: which node, which opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    /// Index into the workload's target list.
    pub target: u32,
    /// The opcode.
    pub kind: ReadKind,
}

/// A schedule of `n` point reads over `targets` targets: Zipf-skewed
/// target choice, opcodes rotating so the mix holds at every prefix.
pub fn read_plan(rng: &mut StdRng, zipf: &Zipf, n: usize) -> Vec<ReadOp> {
    (0..n)
        .map(|i| ReadOp {
            target: zipf.sample(rng) as u32,
            kind: ReadKind::ALL[i % ReadKind::ALL.len()],
        })
        .collect()
}

/// A static read target: a node of a base-document order.
#[derive(Debug, Clone)]
pub struct Target {
    /// The order's fragment.
    pub frag: Arc<Frag>,
    /// Index into `frag.nodes`.
    pub node: usize,
    /// Id of the order element.
    pub start: u64,
    /// Id of the `<day>` holding the order.
    pub day: u64,
}

impl Target {
    /// The node's expected answers.
    pub fn tpl(&self) -> &NodeTpl {
        &self.frag.nodes[self.node]
    }

    /// The node's id.
    pub fn id(&self) -> u64 {
        self.start + self.tpl().off
    }

    /// The id `parent` must return.
    pub fn parent(&self) -> u64 {
        self.tpl()
            .parent_off
            .map_or(self.day, |off| self.start + off)
    }
}

/// Readable nodes (order elements and their lines) of the days `days` of
/// `shadow`, shuffled and cut to `limit`: rank 0 of the Zipf picker is
/// then a random node, not the first of the document. Every fourth rank
/// is an order element and the rest are lines — the document's own
/// proportion — so the mix of large and small answers is the same at
/// every popularity level whatever the seed.
pub fn targets(
    rng: &mut StdRng,
    shadow: &Shadow,
    days: std::ops::Range<usize>,
    limit: usize,
) -> Vec<Target> {
    let mut all: Vec<Target> = shadow.days[days].iter().flat_map(Day::targets).collect();
    all.shuffle(rng);
    let (orders, lines): (Vec<Target>, Vec<Target>) = all.into_iter().partition(|t| t.node == 0);
    let (mut orders, mut lines) = (orders.into_iter(), lines.into_iter());
    let mut out = Vec::new();
    while out.len() < limit {
        let next = match out.len() % 4 {
            0 => orders.next().or_else(|| lines.next()),
            _ => lines.next().or_else(|| orders.next()),
        };
        match next {
            Some(t) => out.push(t),
            None => break,
        }
    }
    out
}

/// A generator seeded from the run seed and a per-purpose salt, so adding
/// draws to one input never shifts another.
pub fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, ZIPF_S);
        let mut rng = rng_for(1, 1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn templates_describe_an_order() {
        let frag = Frag::order(&mut rng_for(7, 0), 42);
        assert_eq!(frag.order_no(), "42");
        let order = &frag.nodes[0];
        assert_eq!((order.off, order.parent_off), (0, None));
        assert_eq!(order.xml, frag.xml);
        // customer, date, then the lines; the id attribute is not a child.
        assert_eq!(order.kids.len(), 2 + frag.lines);
        assert_eq!(order.kids[0], (2, "customer".to_string()));
        let line = &frag.nodes[1];
        assert_eq!(line.parent_off, Some(0));
        assert!(line.xml.starts_with("<line no=\"1\">"));
        assert_eq!(line.kids.len(), 3);
    }

    #[test]
    fn base_shadow_ids_follow_document_order() {
        let (tokens, shadow) = po_base(&mut rng_for(3, 0), 4);
        assert_eq!(shadow.orders(), 4 * ORDERS_PER_DAY);
        assert_eq!(shadow.days[0].id, 2);
        assert_eq!(shadow.days[0].orders[0].id, 3);
        let last = shadow.days[3].orders.last().unwrap();
        // Every id-consuming token of the document is numbered once.
        assert_eq!(last.id + last.frag.ids - 1, axs_xdm::count_ids(&tokens));
    }
}
