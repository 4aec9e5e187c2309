//! The Range: on-page payload encoding and split arithmetic (§4.2).
//!
//! A range payload is a small header followed by the codec-encoded tokens.
//! Node identifiers are **not stored** (§6.1): the header carries only the
//! range's start identifier, from which every token's identifier is
//! regenerated by scanning (`idFactory`).
//!
//! ```text
//! range payload:
//!   range_id    u64   stable identity (survives slot shifts / block moves)
//!   start_id    u64   id of the first id-consuming token (0 when id_count=0)
//!   id_count    u32   number of id-consuming tokens
//!   token_count u32   number of tokens
//!   tokens      [..]  axs_xdm::codec encoding
//! ```

use crate::error::StoreError;
use axs_xdm::{codec, count_ids, IdInterval, NodeId, Token};

/// Byte length of the range payload header.
pub const RANGE_HEADER_LEN: usize = 24;

/// Decoded range header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeHeader {
    /// Stable range identity.
    pub range_id: u64,
    /// Identifier of the first id-consuming token (undefined when
    /// `id_count == 0`).
    pub start_id: NodeId,
    /// Number of id-consuming tokens in the range.
    pub id_count: u32,
    /// Number of tokens in the range.
    pub token_count: u32,
}

impl RangeHeader {
    /// The id interval covered by this range, `None` when it has no ids.
    pub fn interval(&self) -> Option<IdInterval> {
        if self.id_count == 0 {
            None
        } else {
            Some(IdInterval::new(
                self.start_id,
                NodeId(self.start_id.0 + u64::from(self.id_count) - 1),
            ))
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.range_id.to_le_bytes());
        out.extend_from_slice(&self.start_id.0.to_le_bytes());
        out.extend_from_slice(&self.id_count.to_le_bytes());
        out.extend_from_slice(&self.token_count.to_le_bytes());
    }

    /// Decodes a header from the front of a payload.
    pub fn decode(payload: &[u8]) -> Result<RangeHeader, StoreError> {
        if payload.len() < RANGE_HEADER_LEN {
            return Err(StoreError::Corrupt("range payload shorter than header"));
        }
        Ok(RangeHeader {
            range_id: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
            start_id: NodeId(u64::from_le_bytes(payload[8..16].try_into().unwrap())),
            id_count: u32::from_le_bytes(payload[16..20].try_into().unwrap()),
            token_count: u32::from_le_bytes(payload[20..24].try_into().unwrap()),
        })
    }

    /// Decodes the header and checks the payload against it without
    /// building tokens: a borrowed pass over the encoded tokens rejects
    /// exactly what [`RangeData::decode`] rejects.
    pub fn decode_checked(payload: &[u8]) -> Result<RangeHeader, StoreError> {
        let header = RangeHeader::decode(payload)?;
        let body = &payload[RANGE_HEADER_LEN..];
        let (mut pos, mut tokens, mut ids) = (0, 0usize, 0u64);
        while pos < body.len() {
            let tok = codec::decode_token_ref(body, &mut pos)?;
            tokens += 1;
            ids += u64::from(tok.kind().consumes_id());
        }
        header.check_counts(tokens, ids)?;
        Ok(header)
    }

    fn check_counts(&self, tokens: usize, ids: u64) -> Result<(), StoreError> {
        if tokens != self.token_count as usize {
            return Err(StoreError::Corrupt("range token count mismatch"));
        }
        if ids != u64::from(self.id_count) {
            return Err(StoreError::Corrupt("range id count mismatch"));
        }
        Ok(())
    }
}

/// A fully decoded range: header plus tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeData {
    /// The header.
    pub header: RangeHeader,
    /// The decoded tokens.
    pub tokens: Vec<Token>,
}

impl RangeData {
    /// Builds a range from tokens, computing `id_count`/`token_count`.
    /// `start_id` is the first identifier of the range's allocation; it is
    /// stored even when the range happens to contain no id-consuming token
    /// (where it is unused).
    pub fn new(range_id: u64, start_id: NodeId, tokens: Vec<Token>) -> RangeData {
        let id_count = count_ids(&tokens) as u32;
        RangeData {
            header: RangeHeader {
                range_id,
                start_id,
                id_count,
                token_count: tokens.len() as u32,
            },
            tokens,
        }
    }

    /// Serializes header + tokens into a block payload.
    pub fn encode(&self) -> Vec<u8> {
        let body: usize = self.tokens.iter().map(codec::encoded_len).sum();
        let mut out = Vec::with_capacity(RANGE_HEADER_LEN + body);
        self.header.encode_into(&mut out);
        for t in &self.tokens {
            codec::encode_token(&mut out, t);
        }
        out
    }

    /// The encoded payload size without materializing it.
    pub fn encoded_len(&self) -> usize {
        RANGE_HEADER_LEN + self.tokens.iter().map(codec::encoded_len).sum::<usize>()
    }

    /// Parses a payload back into header + tokens, verifying counts.
    pub fn decode(payload: &[u8]) -> Result<RangeData, StoreError> {
        let header = RangeHeader::decode(payload)?;
        let tokens = codec::decode_tokens(&payload[RANGE_HEADER_LEN..])?;
        header.check_counts(tokens.len(), count_ids(&tokens))?;
        Ok(RangeData { header, tokens })
    }

    /// Splits this range *before* token index `at`, yielding
    /// `(left, right)` with correctly rebased headers. The left half keeps
    /// the range id (paper §4.5: "Split range number 1 in two (create range
    /// 3)"); the right half receives `new_range_id`.
    ///
    /// Panics when `at` is 0 or `>= token_count` (those are not splits).
    pub fn split_at(self, at: usize, new_range_id: u64) -> (RangeData, RangeData) {
        assert!(
            at > 0 && at < self.tokens.len(),
            "split point {at} not interior"
        );
        let mut left_tokens = self.tokens;
        let right_tokens = left_tokens.split_off(at);
        let left_ids = count_ids(&left_tokens);
        let right_start = NodeId(self.header.start_id.0 + left_ids);
        let left = RangeData::new(self.header.range_id, self.header.start_id, left_tokens);
        let right = RangeData::new(new_range_id, right_start, right_tokens);
        (left, right)
    }

    /// Identifier of the token at `idx`, if it consumes one: the id-factory
    /// regeneration, locally.
    pub fn token_id(&self, idx: usize) -> Option<NodeId> {
        let tok = self.tokens.get(idx)?;
        if !tok.consumes_id() {
            return None;
        }
        let preceding = count_ids(&self.tokens[..idx]);
        Some(NodeId(self.header.start_id.0 + preceding))
    }

    /// Byte offset of token `idx` within the encoded payload (including the
    /// header). Computable without re-encoding because tokens know their
    /// encoded length.
    pub fn byte_offset_of(&self, idx: usize) -> usize {
        RANGE_HEADER_LEN
            + self.tokens[..idx]
                .iter()
                .map(codec::encoded_len)
                .sum::<usize>()
    }

    /// Token index of identifier `id` within this range, if `id` falls in
    /// the range's interval.
    pub fn index_of_id(&self, id: NodeId) -> Option<usize> {
        let interval = self.header.interval()?;
        if !interval.contains(id) {
            return None;
        }
        let mut next = self.header.start_id.0;
        for (idx, tok) in self.tokens.iter().enumerate() {
            if tok.consumes_id() {
                if next == id.0 {
                    return Some(idx);
                }
                next += 1;
            }
        }
        None
    }
}

/// Chops a fresh fragment into ranges of at most `target_bytes` encoded
/// payload each (always at least one token per range), assigning range ids
/// from `next_range_id` and identifiers starting at `start_id`. This is how
/// an insert that exceeds the target granularity becomes several adjacent
/// insert units.
pub fn chop_fragment(
    tokens: Vec<Token>,
    start_id: NodeId,
    next_range_id: &mut u64,
    target_bytes: usize,
) -> Vec<RangeData> {
    assert!(
        target_bytes > RANGE_HEADER_LEN,
        "target too small for header"
    );
    let budget = target_bytes - RANGE_HEADER_LEN;
    let mut out = Vec::new();
    let mut current: Vec<Token> = Vec::new();
    let mut current_bytes = 0usize;
    let mut next_start = start_id;

    let mut flush = |current: &mut Vec<Token>, next_start: &mut NodeId| {
        if current.is_empty() {
            return;
        }
        let ids = count_ids(current);
        let range_id = *next_range_id;
        *next_range_id += 1;
        out.push(RangeData::new(
            range_id,
            *next_start,
            std::mem::take(current),
        ));
        next_start.0 += ids;
    };

    for tok in tokens {
        let len = codec::encoded_len(&tok);
        if !current.is_empty() && current_bytes + len > budget {
            flush(&mut current, &mut next_start);
            current_bytes = 0;
        }
        current_bytes += len;
        current.push(tok);
    }
    flush(&mut current, &mut next_start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use axs_xdm::Token;

    fn ticket_tokens() -> Vec<Token> {
        vec![
            Token::begin_element("ticket"),
            Token::begin_element("hour"),
            Token::text("15"),
            Token::EndElement,
            Token::begin_element("name"),
            Token::text("Paul"),
            Token::EndElement,
            Token::EndElement,
        ]
    }

    #[test]
    fn payload_round_trip() {
        let r = RangeData::new(7, NodeId(100), ticket_tokens());
        let bytes = r.encode();
        assert_eq!(bytes.len(), r.encoded_len());
        let back = RangeData::decode(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.header.id_count, 5);
        assert_eq!(back.header.token_count, 8);
    }

    #[test]
    fn checked_header_rejects_what_decode_rejects() {
        let bytes = RangeData::new(7, NodeId(100), ticket_tokens()).encode();
        assert_eq!(
            RangeHeader::decode_checked(&bytes).unwrap(),
            RangeData::decode(&bytes).unwrap().header
        );
        let tampered = |at: usize, byte: u8| {
            let mut b = bytes.clone();
            b[at] = byte;
            b
        };
        for bad in [
            tampered(20, 9),                        // token_count
            tampered(16, 4),                        // id_count
            tampered(RANGE_HEADER_LEN, 0xee),       // first token tag
            bytes[..RANGE_HEADER_LEN - 1].to_vec(), // short header
            bytes[..bytes.len() - 1].to_vec(),      // truncated token
        ] {
            let full = RangeData::decode(&bad).unwrap_err().to_string();
            let checked = RangeHeader::decode_checked(&bad).unwrap_err().to_string();
            assert_eq!(full, checked);
        }
    }

    #[test]
    fn interval_reflects_ids() {
        let r = RangeData::new(1, NodeId(1), ticket_tokens());
        assert_eq!(
            r.header.interval(),
            Some(IdInterval::new(NodeId(1), NodeId(5)))
        );
        let empty = RangeData::new(2, NodeId(6), vec![Token::EndElement]);
        // A lone end token is not a valid fragment, but ranges may hold any
        // token run; it carries no ids.
        assert_eq!(empty.header.interval(), None);
    }

    #[test]
    fn token_id_regeneration() {
        let r = RangeData::new(1, NodeId(1), ticket_tokens());
        assert_eq!(r.token_id(0), Some(NodeId(1))); // ticket
        assert_eq!(r.token_id(1), Some(NodeId(2))); // hour
        assert_eq!(r.token_id(2), Some(NodeId(3))); // "15"
        assert_eq!(r.token_id(3), None); // end
        assert_eq!(r.token_id(4), Some(NodeId(4))); // name
        assert_eq!(r.token_id(5), Some(NodeId(5))); // "Paul"
        assert_eq!(r.token_id(99), None);
    }

    #[test]
    fn index_of_id_inverts_token_id() {
        let r = RangeData::new(1, NodeId(10), ticket_tokens());
        for idx in 0..r.tokens.len() {
            if let Some(id) = r.token_id(idx) {
                assert_eq!(r.index_of_id(id), Some(idx));
            }
        }
        assert_eq!(r.index_of_id(NodeId(9)), None);
        assert_eq!(r.index_of_id(NodeId(15)), None);
    }

    #[test]
    fn split_rebases_right_half() {
        let r = RangeData::new(1, NodeId(1), ticket_tokens());
        // Split before token 4 (<name>): left has ids 1..=3, right 4..=5.
        let (left, right) = r.split_at(4, 99);
        assert_eq!(left.header.range_id, 1);
        assert_eq!(
            left.header.interval(),
            Some(IdInterval::new(NodeId(1), NodeId(3)))
        );
        assert_eq!(right.header.range_id, 99);
        assert_eq!(right.header.start_id, NodeId(4));
        assert_eq!(
            right.header.interval(),
            Some(IdInterval::new(NodeId(4), NodeId(5)))
        );
        assert_eq!(left.tokens.len() + right.tokens.len(), 8);
    }

    #[test]
    fn split_producing_idless_tail() {
        // Split before the final end tokens: the tail has no ids.
        let r = RangeData::new(1, NodeId(1), ticket_tokens());
        let (left, right) = r.split_at(7, 2);
        assert_eq!(left.header.id_count, 5);
        assert_eq!(right.header.id_count, 0);
        assert_eq!(right.header.interval(), None);
    }

    #[test]
    #[should_panic(expected = "not interior")]
    fn split_at_zero_panics() {
        let r = RangeData::new(1, NodeId(1), ticket_tokens());
        let _ = r.split_at(0, 2);
    }

    #[test]
    fn decode_detects_count_mismatch() {
        let r = RangeData::new(1, NodeId(1), ticket_tokens());
        let mut bytes = r.encode();
        bytes[20] = 99; // token_count corrupted
        assert!(matches!(
            RangeData::decode(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_rejects_short_payload() {
        assert!(matches!(
            RangeHeader::decode(&[0u8; 4]),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn chop_single_range_when_it_fits() {
        let mut next = 10u64;
        let ranges = chop_fragment(ticket_tokens(), NodeId(1), &mut next, 4096);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].header.range_id, 10);
        assert_eq!(next, 11);
    }

    #[test]
    fn chop_respects_target_and_preserves_tokens() {
        let mut next = 1u64;
        let tokens = ticket_tokens();
        let ranges = chop_fragment(tokens.clone(), NodeId(1), &mut next, RANGE_HEADER_LEN + 8);
        assert!(ranges.len() > 1, "tiny target must chop");
        // Concatenation preserves the token sequence.
        let rejoined: Vec<Token> = ranges.iter().flat_map(|r| r.tokens.clone()).collect();
        assert_eq!(rejoined, tokens);
        // Start ids are contiguous.
        let mut expect = 1u64;
        for r in &ranges {
            if r.header.id_count > 0 {
                assert_eq!(r.header.start_id.0, expect);
            }
            expect += u64::from(r.header.id_count);
        }
        // Every range fits its budget (or holds exactly one oversized token).
        for r in &ranges {
            assert!(r.encoded_len() <= RANGE_HEADER_LEN + 8 || r.tokens.len() == 1);
        }
    }

    #[test]
    fn chop_handles_oversized_single_token() {
        let big = Token::text("x".repeat(500));
        let mut next = 1u64;
        let ranges = chop_fragment(vec![big.clone()], NodeId(1), &mut next, 64);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].tokens[0], big);
    }
}
