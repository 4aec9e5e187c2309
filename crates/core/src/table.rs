//! The node table: query structure over a token sequence, built in one
//! pass and read in place.
//!
//! Location steps need what the flat token stream does not say directly:
//! a node's parent, children and attributes, and where its subtree ends.
//! [`NodeTable`] records exactly that, one column per property, with one
//! row per node in document order (so a node index *is* its document
//! position, and sorting indexes sorts nodes):
//!
//! ```text
//! kind      u8    element / attribute / text / comment / PI
//! name      u32   id into the table's name dictionary (u32::MAX: none)
//! begin     u32   token position of the node's begin token
//! end       u32   token position of its end token (== begin for leaves)
//! parent    u32   node index (u32::MAX: top-level)
//! link      u32   start of its attributes-then-children run in `links`
//! attrs     u32   attribute count of that run
//! children  u32   child count of that run
//! ```
//!
//! There is no per-node `String` or `Vec`: names are interned once per
//! table, one id per lexical form (name tests compare lexically), and
//! every child list lives in one shared `Vec<u32>`. The tokens
//! are not copied — the table reads them where they already are, in a
//! borrowed `&[Token]` fragment or in the `Arc<RangeData>`s a
//! [`ReadView`](crate::ReadView) hands out, and regenerates node ids from
//! each range's start id (§6.1). Document tokens are transparent: their
//! content becomes top-level nodes.
//!
//! A [`Snapshot`](crate::Snapshot) builds its table on the first query that
//! pins the epoch and keeps it until the epoch is dropped. A snapshot never
//! changes, so the table needs no invalidation — the paper's §5 rule: build
//! structure on the first access that needs it, then keep it.

use crate::range::RangeData;
use axs_xdm::{NodeId, QName, Token};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

const NONE: u32 = u32::MAX;

/// The kind of one table node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeKind {
    /// An element.
    Element,
    /// An attribute.
    Attribute,
    /// A text node.
    Text,
    /// A comment.
    Comment,
    /// A processing instruction.
    Pi,
}

/// Where one run of consecutive tokens lives.
enum Backing<'t> {
    /// A caller's token fragment (no node ids).
    Fragment(&'t [Token]),
    /// One decoded store range (ids regenerate from its start id).
    Range(Arc<RangeData>),
}

impl Backing<'_> {
    fn tokens(&self) -> &[Token] {
        match self {
            Backing::Fragment(t) => t,
            Backing::Range(r) => &r.tokens,
        }
    }
}

struct Run<'t> {
    backing: Backing<'t>,
    /// Token position of the run's first token.
    first_token: u32,
    /// Node index of the run's first node.
    first_node: u32,
}

/// One flat node table over a token sequence (see the module docs).
#[derive(Default)]
pub struct NodeTable<'t> {
    runs: Vec<Run<'t>>,
    /// The name dictionary: lexical form → name id.
    names: HashMap<String, u32>,
    kind: Vec<NodeKind>,
    name: Vec<u32>,
    begin: Vec<u32>,
    end: Vec<u32>,
    parent: Vec<u32>,
    link: Vec<u32>,
    attrs: Vec<u32>,
    children: Vec<u32>,
    links: Vec<u32>,
    roots: Vec<u32>,
}

impl<'t> NodeTable<'t> {
    /// A table over a token fragment, borrowing its tokens. Nodes carry no
    /// ids.
    pub fn from_tokens(tokens: &'t [Token]) -> NodeTable<'t> {
        let mut b = Builder::default();
        b.add_run(Backing::Fragment(tokens));
        b.finish()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// True when the sequence holds no node.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Top-level nodes, in document order.
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The node's kind.
    pub fn kind(&self, n: u32) -> NodeKind {
        self.kind[n as usize]
    }

    /// The node's name id (elements and attributes), comparable with
    /// [`NodeTable::name_id`].
    pub fn name_of(&self, n: u32) -> Option<u32> {
        Some(self.name[n as usize]).filter(|&id| id != NONE)
    }

    /// The id of the name whose lexical form (`prefix:local`) is
    /// `lexical`, if any node of the table carries it.
    pub fn name_id(&self, lexical: &str) -> Option<u32> {
        self.names.get(lexical).copied()
    }

    /// Token position of the node's begin token.
    pub fn begin(&self, n: u32) -> usize {
        self.begin[n as usize] as usize
    }

    /// Token position of the node's end token (the begin token for leaves).
    pub fn end(&self, n: u32) -> usize {
        self.end[n as usize] as usize
    }

    /// The parent node; `None` for top-level nodes.
    pub fn parent(&self, n: u32) -> Option<u32> {
        Some(self.parent[n as usize]).filter(|&p| p != NONE)
    }

    /// The node's attributes, in document order.
    pub fn attributes(&self, n: u32) -> &[u32] {
        let at = self.link[n as usize] as usize;
        &self.links[at..at + self.attrs[n as usize] as usize]
    }

    /// The node's children (attributes excluded), in document order.
    pub fn children(&self, n: u32) -> &[u32] {
        let at = (self.link[n as usize] + self.attrs[n as usize]) as usize;
        &self.links[at..at + self.children[n as usize] as usize]
    }

    /// One past the node's last descendant: its subtree is the node range
    /// `n..subtree_end(n)`.
    pub fn subtree_end(&self, n: u32) -> u32 {
        let end = self.end[n as usize];
        n + 1 + self.begin[n as usize + 1..].partition_point(|&b| b <= end) as u32
    }

    fn run_index(&self, pos: u32) -> usize {
        self.runs.partition_point(|r| r.first_token <= pos) - 1
    }

    /// The node's begin token.
    pub fn begin_token(&self, n: u32) -> &Token {
        let pos = self.begin[n as usize];
        let run = &self.runs[self.run_index(pos)];
        &run.backing.tokens()[(pos - run.first_token) as usize]
    }

    /// The node's subtree tokens, begin through end, read in place.
    pub fn tokens(&self, n: u32) -> impl Iterator<Item = &Token> + '_ {
        let (begin, end) = (self.begin[n as usize], self.end[n as usize]);
        let first = self.run_index(begin);
        let run = &self.runs[first];
        run.backing.tokens()[(begin - run.first_token) as usize..]
            .iter()
            .chain(
                self.runs[first + 1..]
                    .iter()
                    .flat_map(|r| r.backing.tokens()),
            )
            .take((end - begin) as usize + 1)
    }

    /// The node's stable id, regenerated from its range's start id; `None`
    /// in a fragment table.
    pub fn node_id(&self, n: u32) -> Option<NodeId> {
        let run = &self.runs[self.run_index(self.begin[n as usize])];
        match &run.backing {
            Backing::Fragment(_) => None,
            Backing::Range(r) => Some(NodeId(r.header.start_id.0 + u64::from(n - run.first_node))),
        }
    }

    /// The XPath string value: the concatenated text descendants of an
    /// element, the value carried on any other node's token.
    pub fn string_value(&self, n: u32) -> Cow<'_, str> {
        if self.kind(n) != NodeKind::Element {
            return Cow::Borrowed(self.begin_token(n).string_value().unwrap_or_default());
        }
        let mut texts = (n + 1..self.subtree_end(n))
            .filter(|&d| self.kind(d) == NodeKind::Text)
            .map(|d| self.begin_token(d).string_value().unwrap_or_default());
        match (texts.next(), texts.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(only), None) => Cow::Borrowed(only),
            (Some(a), Some(b)) => {
                let mut out = format!("{a}{b}");
                texts.for_each(|t| out.push_str(t));
                Cow::Owned(out)
            }
        }
    }

    /// Heap bytes of the table's own structure; the tokens it reads in
    /// place are not counted.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let names: usize = self.names.keys().map(String::capacity).sum::<usize>()
            + self.names.capacity() * (std::mem::size_of::<(String, u32)>() + 1);
        names
            + cap(&self.runs)
            + cap(&self.kind)
            + [
                &self.name,
                &self.begin,
                &self.end,
                &self.parent,
                &self.link,
                &self.attrs,
                &self.children,
                &self.links,
                &self.roots,
            ]
            .into_iter()
            .map(cap)
            .sum::<usize>()
    }
}

impl NodeTable<'static> {
    /// A table over decoded store ranges in document order, holding their
    /// `Arc`s rather than copying their tokens.
    pub fn from_ranges(ranges: Vec<Arc<RangeData>>) -> NodeTable<'static> {
        // Every id-consuming token is a node: the headers give the count.
        let nodes: usize = ranges.iter().map(|r| r.header.id_count as usize).sum();
        let mut b = Builder::default();
        for column in [
            &mut b.t.name,
            &mut b.t.begin,
            &mut b.t.end,
            &mut b.t.parent,
            &mut b.t.link,
            &mut b.t.attrs,
            &mut b.t.children,
            &mut b.t.links,
        ] {
            column.reserve_exact(nodes);
        }
        b.t.kind.reserve_exact(nodes);
        for r in ranges {
            b.add_run(Backing::Range(r));
        }
        b.finish()
    }
}

/// One-pass construction state.
#[derive(Default)]
struct Builder<'t> {
    t: NodeTable<'t>,
    /// Spares the lexical form's allocation for names already seen.
    by_qname: HashMap<QName, u32>,
    position: u32,
    /// Open element/attribute nodes, each with where its links start in
    /// `pending`.
    open: Vec<(u32, usize)>,
    /// Links of the open nodes, innermost last; moved into the shared
    /// array when their node closes.
    pending: Vec<u32>,
}

impl<'t> Builder<'t> {
    fn add_run(&mut self, backing: Backing<'t>) {
        let first_token = self.position;
        let first_node = self.t.kind.len() as u32;
        for tok in backing.tokens() {
            let node = match tok {
                Token::BeginElement { name, .. } => Some((NodeKind::Element, self.intern(name))),
                Token::BeginAttribute { name, .. } => {
                    Some((NodeKind::Attribute, self.intern(name)))
                }
                Token::Text { .. } => Some((NodeKind::Text, NONE)),
                Token::Comment { .. } => Some((NodeKind::Comment, NONE)),
                Token::ProcessingInstruction { .. } => Some((NodeKind::Pi, NONE)),
                Token::EndElement | Token::EndAttribute => {
                    self.close(self.position);
                    None
                }
                Token::BeginDocument | Token::EndDocument => None,
            };
            if let Some((kind, name)) = node {
                self.open(kind, name);
            }
            self.position += 1;
        }
        self.t.runs.push(Run {
            backing,
            first_token,
            first_node,
        });
    }

    fn intern(&mut self, q: &QName) -> u32 {
        if let Some(&id) = self.by_qname.get(q) {
            return id;
        }
        let next = self.t.names.len() as u32;
        let id = *self.t.names.entry(q.to_lexical()).or_insert(next);
        self.by_qname.insert(q.clone(), id);
        id
    }

    fn open(&mut self, kind: NodeKind, name: u32) {
        let t = &mut self.t;
        let n = t.kind.len() as u32;
        let parent = self.open.last().map_or(NONE, |&(p, _)| p);
        t.kind.push(kind);
        t.name.push(name);
        t.begin.push(self.position);
        t.end.push(self.position);
        t.parent.push(parent);
        t.link.push(0);
        t.attrs.push(0);
        t.children.push(0);
        if parent == NONE {
            t.roots.push(n);
        } else {
            self.pending.push(n);
        }
        if matches!(kind, NodeKind::Element | NodeKind::Attribute) {
            self.open.push((n, self.pending.len()));
        }
    }

    /// Closes the innermost open node at token `pos`: its pending links
    /// move into the shared array, attributes first.
    fn close(&mut self, pos: u32) {
        let Some((n, mark)) = self.open.pop() else {
            return;
        };
        let t = &mut self.t;
        let i = n as usize;
        let run = &self.pending[mark..];
        let kind = &t.kind;
        let is_attr = |c: &&u32| kind[**c as usize] == NodeKind::Attribute;
        t.end[i] = pos;
        t.link[i] = t.links.len() as u32;
        t.links.extend(run.iter().filter(is_attr));
        t.attrs[i] = t.links.len() as u32 - t.link[i];
        t.links.extend(run.iter().filter(|c| !is_attr(c)));
        t.children[i] = run.len() as u32 - t.attrs[i];
        self.pending.truncate(mark);
    }

    fn finish(mut self) -> NodeTable<'t> {
        // An unclosed begin token (a truncated fragment) ends where it
        // starts and keeps the children it collected.
        while let Some(&(n, _)) = self.open.last() {
            self.close(self.t.begin[n as usize]);
        }
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axs_xml::{parse_fragment, ParseOptions};

    fn frag(xml: &str) -> Vec<Token> {
        parse_fragment(xml, ParseOptions::default()).unwrap()
    }

    #[test]
    fn columns_describe_the_tree() {
        let toks = frag(r#"<a k="v">x<b>y</b><!--c--></a><d/>"#);
        let t = NodeTable::from_tokens(&toks);
        // a, @k, "x", b, "y", comment, d
        assert_eq!(t.len(), 7);
        assert_eq!(t.roots(), &[0, 6]);
        assert_eq!(t.attributes(0), &[1]);
        assert_eq!(t.children(0), &[2, 3, 5]);
        assert_eq!(t.children(3), &[4]);
        assert_eq!(t.parent(4), Some(3));
        assert_eq!(t.parent(6), None);
        assert_eq!(t.subtree_end(0), 6);
        assert_eq!(t.subtree_end(4), 5);
        assert_eq!((t.begin(0), t.end(0)), (0, toks.len() - 3));
        assert_eq!(t.name_of(3), t.name_id("b"));
        assert_eq!(t.name_of(2), None);
        assert_eq!(t.string_value(0), "xy");
        assert_eq!(t.string_value(1), "v");
        assert_eq!(t.node_id(0), None);
        let sub: Vec<Token> = t.tokens(3).cloned().collect();
        assert_eq!(sub, toks[t.begin(3)..=t.end(3)]);
    }

    #[test]
    fn ranges_regenerate_ids_and_read_across_runs() {
        let toks = frag("<r><a>1</a><b>2</b></r>");
        // ids 1..=5 split over three ranges, the middle one id-less.
        let ranges = vec![
            Arc::new(RangeData::new(1, NodeId(1), toks[..3].to_vec())),
            Arc::new(RangeData::new(2, NodeId(4), toks[3..4].to_vec())),
            Arc::new(RangeData::new(3, NodeId(4), toks[4..].to_vec())),
        ];
        let t = NodeTable::from_ranges(ranges);
        let ids: Vec<u64> = (0..t.len() as u32)
            .map(|n| t.node_id(n).unwrap().0)
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(t.tokens(0).cloned().collect::<Vec<_>>(), toks);
        assert_eq!(t.tokens(3).count(), 3);
        assert_eq!(t.string_value(0), "12");
        assert!(t.heap_bytes() > 0);
    }
}
