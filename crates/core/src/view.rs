//! A read-only view abstraction over range-structured token storage.
//!
//! Every read in the system — navigation, subtree reads, cursors, XPath
//! and XQuery evaluation — needs only six primitives: walk the ranges in
//! document order, load a range's decoded tokens, and locate the range /
//! token of a node id. [`ReadView`] captures exactly that surface, so the
//! same read algorithms run against two implementations:
//!
//! * [`XmlStore`] — the live, mutable store (pages, buffer pool, indexes);
//! * [`crate::mvcc::Snapshot`] — an immutable epoch published at commit
//!   time, read lock-free by the server's MVCC path.
//!
//! Positions are opaque `(u64, u16)` pairs: the store uses
//! `(block page, slot)`, a snapshot uses `(document position, 0)`. The
//! provided methods are ports of the store's navigation layer (§9 of the
//! paper); `XmlStore` overrides the lookup entry points so its memoizing
//! partial index and byte-offset `read_span` fast path keep working on the
//! concrete type.

use crate::cursor::ViewCursor;
use crate::error::StoreError;
use crate::range::RangeData;
use crate::store::XmlStore;
use crate::table::NodeTable;
use axs_idgen::IdRegenerator;
use axs_storage::PageId;
use axs_xdm::{NodeId, QName, Token, TokenKind};
use std::sync::Arc;

/// Opaque position of a range within a view's document order.
pub type ViewPos = (u64, u16);

/// Begin/end coordinates of one node's token span within a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewSpan {
    /// Range holding the begin token.
    pub begin_range: u64,
    /// Token index of the begin token within its range.
    pub begin_index: u32,
    /// Range holding the end token.
    pub end_range: u64,
    /// Token index of the end token within its range.
    pub end_index: u32,
}

/// Uniform read access over a range-structured token sequence.
///
/// Six required primitives; everything else (navigation, subtree reads,
/// cursors) is derived. All methods take `&self` — implementations must be
/// safe under concurrent readers.
pub trait ReadView {
    /// First range in document order, `None` for an empty view.
    fn view_first_range(&self) -> Result<Option<ViewPos>, StoreError>;

    /// The range after `at` in document order.
    fn view_next_range(&self, at: ViewPos) -> Result<Option<ViewPos>, StoreError>;

    /// The range before `at` in document order.
    fn view_prev_range(&self, at: ViewPos) -> Result<Option<ViewPos>, StoreError>;

    /// The decoded tokens of the range at `at`.
    fn view_load_at(&self, at: ViewPos) -> Result<Arc<RangeData>, StoreError>;

    /// Position of the range with stable id `range_id`.
    fn view_locate_range(&self, range_id: u64) -> Result<ViewPos, StoreError>;

    /// Locates the begin token of `id`: `(range_id, token_index)`.
    fn view_find_begin(&self, id: NodeId) -> Result<(u64, u32), StoreError>;

    // ---- derived: lookup ---------------------------------------------------

    /// Loads a range by stable id together with its position.
    fn view_load_range(&self, range_id: u64) -> Result<(ViewPos, Arc<RangeData>), StoreError> {
        let pos = self.view_locate_range(range_id)?;
        Ok((pos, self.view_load_at(pos)?))
    }

    /// The token at `(range_id, idx)`.
    fn view_token_at(&self, range_id: u64, idx: u32) -> Result<Token, StoreError> {
        let (_, data) = self.view_load_range(range_id)?;
        data.tokens
            .get(idx as usize)
            .cloned()
            .ok_or(StoreError::Corrupt("token index out of range"))
    }

    /// Begin and end coordinates of `id`'s token span, found by a forward
    /// structural scan from the begin token. `XmlStore` overrides this with
    /// its memoizing partial-index lookup.
    fn view_node_span(&self, id: NodeId) -> Result<ViewSpan, StoreError> {
        let (begin_range, begin_index) = self.view_find_begin(id)?;
        let (mut pos, mut data) = self.view_load_range(begin_range)?;
        let mut idx = begin_index as usize;
        let first = data
            .tokens
            .get(idx)
            .ok_or(StoreError::Corrupt("begin index out of range"))?;
        let mut depth = first.kind().depth_delta();
        if depth <= 0 {
            // Leaf token: the node is its own end.
            return Ok(ViewSpan {
                begin_range,
                begin_index,
                end_range: begin_range,
                end_index: begin_index,
            });
        }
        loop {
            idx += 1;
            while idx >= data.tokens.len() {
                pos = self
                    .view_next_range(pos)?
                    .ok_or(StoreError::Corrupt("unterminated node at end of store"))?;
                data = self.view_load_at(pos)?;
                idx = 0;
            }
            depth += data.tokens[idx].kind().depth_delta();
            if depth == 0 {
                return Ok(ViewSpan {
                    begin_range,
                    begin_index,
                    end_range: data.header.range_id,
                    end_index: idx as u32,
                });
            }
        }
    }

    /// `read(id)`: the node's complete subtree as tokens. The generic
    /// implementation walks tokens between the span's coordinates;
    /// `XmlStore` overrides it with the byte-offset `read_span` fast path.
    fn read_node(&self, id: NodeId) -> Result<Vec<Token>, StoreError> {
        let span = self.view_node_span(id)?;
        let (mut pos, mut data) = self.view_load_range(span.begin_range)?;
        let mut idx = span.begin_index as usize;
        let mut out = Vec::new();
        loop {
            let tok = data
                .tokens
                .get(idx)
                .ok_or(StoreError::Corrupt("span index out of range"))?
                .clone();
            let done = data.header.range_id == span.end_range && idx as u32 == span.end_index;
            out.push(tok);
            if done {
                return Ok(out);
            }
            idx += 1;
            while idx >= data.tokens.len() {
                pos = self
                    .view_next_range(pos)?
                    .ok_or(StoreError::Corrupt("span runs past end of store"))?;
                data = self.view_load_at(pos)?;
                idx = 0;
            }
        }
    }

    /// Whether the view holds a node with this identifier.
    fn contains(&self, id: NodeId) -> bool {
        self.view_find_begin(id).is_ok()
    }

    // ---- derived: whole-view scans -----------------------------------------

    /// A document-order cursor over the whole view, with regenerated node
    /// identifiers.
    fn cursor(&self) -> ViewCursor<'_, Self>
    where
        Self: Sized,
    {
        ViewCursor::new(self)
    }

    /// Collects the entire view into a token vector (ids dropped).
    fn read_all(&self) -> Result<Vec<Token>, StoreError>
    where
        Self: Sized,
    {
        self.cursor().map(|r| r.map(|(_, t)| t)).collect()
    }

    /// Hands every range of the view to `visit`, in document order: a
    /// whole-view scan that borrows the decoded tokens instead of cloning
    /// them. `XmlStore` overrides it to record the full-scan statistics.
    fn scan_ranges<E, F>(&self, visit: F) -> Result<(), E>
    where
        Self: Sized,
        E: From<StoreError>,
        F: FnMut(Arc<RangeData>) -> Result<(), E>,
    {
        walk_ranges(self, visit)
    }

    /// The view's [`NodeTable`], the structure XPath and FLWOR evaluate
    /// against. Built from a full scan here; a [`crate::Snapshot`] builds
    /// it once and keeps it for the epoch's lifetime.
    fn node_table(&self) -> Result<Arc<NodeTable<'static>>, StoreError>
    where
        Self: Sized,
    {
        let mut ranges = Vec::new();
        self.scan_ranges(|data| {
            ranges.push(data);
            Ok::<_, StoreError>(())
        })?;
        Ok(Arc::new(NodeTable::from_ranges(ranges)))
    }

    // ---- derived: navigation (ports of the store's §9 layer) ---------------

    /// The node's name, for element and attribute nodes.
    fn name_of(&self, id: NodeId) -> Result<Option<QName>, StoreError> {
        let (range_id, idx) = self.view_find_begin(id)?;
        Ok(self.view_token_at(range_id, idx)?.name().cloned())
    }

    /// The node kind (token kind of the begin token).
    fn kind_of(&self, id: NodeId) -> Result<TokenKind, StoreError> {
        let (range_id, idx) = self.view_find_begin(id)?;
        Ok(self.view_token_at(range_id, idx)?.kind())
    }

    /// The XPath string value: concatenated descendant text for elements,
    /// the value itself for attribute/text/comment/PI nodes.
    fn string_value(&self, id: NodeId) -> Result<String, StoreError> {
        let tokens = self.read_node(id)?;
        let mut out = String::new();
        match tokens[0].kind() {
            TokenKind::BeginElement => {
                let mut in_attribute = 0u32;
                for tok in &tokens {
                    match tok.kind() {
                        TokenKind::BeginAttribute => in_attribute += 1,
                        TokenKind::EndAttribute => in_attribute -= 1,
                        TokenKind::Text if in_attribute == 0 => {
                            out.push_str(tok.string_value().unwrap_or_default());
                        }
                        _ => {}
                    }
                }
            }
            _ => out.push_str(tokens[0].string_value().unwrap_or_default()),
        }
        Ok(out)
    }

    /// Identifiers of the node's children (attributes excluded), in
    /// document order. Empty for leaf nodes.
    fn children_of(&self, id: NodeId) -> Result<Vec<NodeId>, StoreError> {
        Ok(self
            .children_named(id)?
            .into_iter()
            .map(|(kid, _)| kid)
            .collect())
    }

    /// [`Self::children_of`] with each child's name (`None` for text,
    /// comment and PI children), taken from the one subtree walk that
    /// finds the children — no per-child lookup.
    fn children_named(&self, id: NodeId) -> Result<Vec<(NodeId, Option<QName>)>, StoreError> {
        let subtree = self.view_subtree_with_ids(id)?;
        let mut out = Vec::new();
        let mut depth = 0i32;
        for (nid, tok) in subtree {
            let kind = tok.kind();
            if depth == 1 && kind != TokenKind::BeginAttribute {
                if let Some(nid) = nid {
                    let name = match tok {
                        Token::BeginElement { name, .. } => Some(name),
                        _ => None,
                    };
                    out.push((nid, name));
                }
            }
            depth += kind.depth_delta();
        }
        Ok(out)
    }

    /// Identifiers and values of the node's attribute nodes.
    fn attributes_of(&self, id: NodeId) -> Result<Vec<(NodeId, QName, String)>, StoreError> {
        let subtree = self.view_subtree_with_ids(id)?;
        let mut out = Vec::new();
        let mut depth = 0i32;
        for (nid, tok) in &subtree {
            if depth == 1 && tok.kind() == TokenKind::BeginAttribute {
                if let (Some(nid), Token::BeginAttribute { name, value, .. }) = (nid, tok) {
                    out.push((*nid, name.clone(), value.to_string()));
                }
            }
            depth += tok.kind().depth_delta();
        }
        Ok(out)
    }

    /// The parent node's identifier, or `None` for top-level nodes.
    ///
    /// Implemented by a backward structural scan from the begin token: the
    /// parent is the first unmatched begin token to the left. Identifier
    /// regeneration works per range, so each visited range is decoded once.
    fn parent_of(&self, id: NodeId) -> Result<Option<NodeId>, StoreError> {
        let (begin_range, begin_index) = self.view_find_begin(id)?;
        let (mut pos, mut data) = self.view_load_range(begin_range)?;
        let mut idx = begin_index as i64;
        // Walking left: a running depth that increases on end tokens and
        // decreases on begin tokens; the parent is the begin token that
        // takes the balance below zero.
        let mut balance = 0i64;
        loop {
            idx -= 1;
            while idx < 0 {
                match self.view_prev_range(pos)? {
                    Some(p) => {
                        pos = p;
                        data = self.view_load_at(p)?;
                        idx = data.tokens.len() as i64 - 1;
                    }
                    None => return Ok(None),
                }
            }
            let kind = data.tokens[idx as usize].kind();
            balance += i64::from(kind.depth_delta());
            if balance > 0 {
                let nid = data
                    .token_id(idx as usize)
                    .ok_or(StoreError::Corrupt("begin token without id"))?;
                return Ok(Some(nid));
            }
        }
    }

    /// The node's following sibling, if any.
    fn next_sibling_of(&self, id: NodeId) -> Result<Option<NodeId>, StoreError> {
        let span = self.view_node_span(id)?;
        let (mut pos, mut data) = self.view_load_range(span.end_range)?;
        let mut idx = span.end_index as usize + 1;
        while idx >= data.tokens.len() {
            match self.view_next_range(pos)? {
                Some(p) => {
                    pos = p;
                    data = self.view_load_at(p)?;
                    idx = 0;
                }
                None => return Ok(None),
            }
        }
        let tok = &data.tokens[idx];
        if tok.kind().is_end() {
            // Parent closes before another sibling starts.
            return Ok(None);
        }
        Ok(Some(
            data.token_id(idx)
                .ok_or(StoreError::Corrupt("node token without id"))?,
        ))
    }

    /// The node's preceding sibling, if any.
    fn prev_sibling_of(&self, id: NodeId) -> Result<Option<NodeId>, StoreError> {
        let (begin_range, begin_index) = self.view_find_begin(id)?;
        let (mut pos, mut data) = self.view_load_range(begin_range)?;
        let mut idx = begin_index as i64;
        let mut balance = 0i64;
        loop {
            idx -= 1;
            while idx < 0 {
                match self.view_prev_range(pos)? {
                    Some(p) => {
                        pos = p;
                        data = self.view_load_at(p)?;
                        idx = data.tokens.len() as i64 - 1;
                    }
                    None => return Ok(None),
                }
            }
            let kind = data.tokens[idx as usize].kind();
            match kind.depth_delta() {
                1 => {
                    if balance == 0 {
                        // Parent's begin token reached first: no sibling.
                        return Ok(None);
                    }
                    balance += 1;
                    if balance == 0 {
                        // A closed subtree's begin token — a sibling unless
                        // it is an attribute node (attributes are not
                        // siblings; keep scanning left past them).
                        if kind == TokenKind::BeginAttribute {
                            continue;
                        }
                        return Ok(Some(
                            data.token_id(idx as usize)
                                .ok_or(StoreError::Corrupt("begin token without id"))?,
                        ));
                    }
                }
                -1 => balance -= 1,
                _ => {
                    if balance == 0 {
                        // A leaf sibling.
                        return Ok(Some(
                            data.token_id(idx as usize)
                                .ok_or(StoreError::Corrupt("leaf token without id"))?,
                        ));
                    }
                }
            }
        }
    }

    /// Reads a subtree with regenerated identifiers (helper for navigation).
    fn view_subtree_with_ids(
        &self,
        id: NodeId,
    ) -> Result<Vec<(Option<NodeId>, Token)>, StoreError> {
        let span = self.view_node_span(id)?;
        let (mut pos, mut data) = self.view_load_range(span.begin_range)?;
        let mut idx = span.begin_index as usize;
        let mut regen = IdRegenerator::new(data.header.start_id);
        // Fast-forward the regenerator to the begin token.
        let mut regen_at = 0usize;
        while regen_at < idx {
            regen.step(data.tokens[regen_at].kind());
            regen_at += 1;
        }
        let mut out = Vec::new();
        loop {
            let tok = data.tokens[idx].clone();
            let nid = regen.step(tok.kind());
            let done = data.header.range_id == span.end_range && idx as u32 == span.end_index;
            out.push((nid, tok));
            if done {
                return Ok(out);
            }
            idx += 1;
            while idx >= data.tokens.len() {
                pos = self
                    .view_next_range(pos)?
                    .ok_or(StoreError::Corrupt("subtree runs past end of store"))?;
                data = self.view_load_at(pos)?;
                idx = 0;
                regen = IdRegenerator::new(data.header.start_id);
            }
        }
    }
}

/// The default [`ReadView::scan_ranges`]: first range to last through the
/// view's own primitives.
fn walk_ranges<V, E, F>(view: &V, mut visit: F) -> Result<(), E>
where
    V: ReadView,
    E: From<StoreError>,
    F: FnMut(Arc<RangeData>) -> Result<(), E>,
{
    let mut pos = view.view_first_range()?;
    while let Some(at) = pos {
        visit(view.view_load_at(at)?)?;
        pos = view.view_next_range(at)?;
    }
    Ok(())
}

/// The live store is a `ReadView`: positions are `(block page, slot)` and
/// the lookup entry points route through the memoizing partial index, the
/// per-lookup statistics, and the byte-offset `read_span` fast path.
impl ReadView for XmlStore {
    fn view_first_range(&self) -> Result<Option<ViewPos>, StoreError> {
        Ok(self.first_range_pos()?.map(|(b, s)| (b.0, s)))
    }

    fn view_next_range(&self, at: ViewPos) -> Result<Option<ViewPos>, StoreError> {
        Ok(self
            .next_range_pos(PageId(at.0), at.1)?
            .map(|(b, s)| (b.0, s)))
    }

    fn view_prev_range(&self, at: ViewPos) -> Result<Option<ViewPos>, StoreError> {
        Ok(self
            .prev_range_pos(PageId(at.0), at.1)?
            .map(|(b, s)| (b.0, s)))
    }

    fn view_load_at(&self, at: ViewPos) -> Result<Arc<RangeData>, StoreError> {
        Ok(Arc::new(self.load_range_at(PageId(at.0), at.1)?))
    }

    fn view_locate_range(&self, range_id: u64) -> Result<ViewPos, StoreError> {
        let block = self.block_of_range(range_id)?;
        let slot = self.find_slot(block, range_id)?;
        Ok((block.0, slot))
    }

    fn view_find_begin(&self, id: NodeId) -> Result<(u64, u32), StoreError> {
        let (range_id, idx, _) = self.find_begin(id)?;
        Ok((range_id, idx))
    }

    fn view_node_span(&self, id: NodeId) -> Result<ViewSpan, StoreError> {
        // The memoizing lookup: partial-index hit or miss-and-insert.
        let pos = self.find_position(id)?;
        Ok(ViewSpan {
            begin_range: pos.begin_range,
            begin_index: pos.begin_index,
            end_range: pos.end_range,
            end_index: pos.end_index,
        })
    }

    fn read_node(&self, id: NodeId) -> Result<Vec<Token>, StoreError> {
        // The inherent byte-offset fast path (plus read statistics).
        XmlStore::read_node(self, id)
    }

    fn contains(&self, id: NodeId) -> bool {
        XmlStore::contains(self, id)
    }

    fn cursor(&self) -> ViewCursor<'_, XmlStore> {
        // The inherent entry point records the full-scan statistics.
        self.read()
    }

    fn scan_ranges<E, F>(&self, visit: F) -> Result<(), E>
    where
        E: From<StoreError>,
        F: FnMut(Arc<RangeData>) -> Result<(), E>,
    {
        self.note_full_scan();
        self.observe_read_op();
        walk_ranges(self, visit)
    }
}
