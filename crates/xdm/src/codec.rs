//! Compact binary encoding of tokens for on-page storage.
//!
//! Design goals, straight from §6.1 ("Low Storage Overhead"):
//!
//! - **No node identifiers are stored.** IDs are regenerated from the range
//!   start ID by scanning, so a token costs only its tag byte, annotation
//!   byte (where applicable), and LEB128-length-prefixed strings.
//! - Every token is self-delimiting, so a range payload is simply the
//!   concatenation of encoded tokens and can be split at any token boundary.
//!
//! Wire format per token:
//!
//! ```text
//! tag:u8
//!   BeginDocument / EndDocument / EndElement / EndAttribute: nothing else
//!   BeginElement:   ann:u8, name:lpstr
//!   BeginAttribute: ann:u8, name:lpstr, value:lpstr
//!   Text:           ann:u8, value:lpstr
//!   Comment:        value:lpstr
//!   PI:             target:lpstr, value:lpstr
//! lpstr = LEB128 length || utf8 bytes
//! ```

use crate::qname::QName;
use crate::token::{Token, TokenKind};
use crate::types::TypeAnnotation;
use std::fmt;

/// Errors produced while decoding token bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a token.
    UnexpectedEof,
    /// Unknown token tag byte.
    BadTag(u8),
    /// Unknown type-annotation byte.
    BadAnnotation(u8),
    /// A length prefix overflowed or ran past the buffer.
    BadLength,
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// A name field was not a valid lexical QName.
    BadName(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of token bytes"),
            CodecError::BadTag(t) => write!(f, "unknown token tag {t}"),
            CodecError::BadAnnotation(t) => write!(f, "unknown type annotation tag {t}"),
            CodecError::BadLength => write!(f, "invalid length prefix"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in token string"),
            CodecError::BadName(n) => write!(f, "invalid qname {n:?}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a LEB128-encoded `u64` to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128-encoded `u64` from `buf[*pos..]`, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut shift = 0u32;
    let mut value = 0u64;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::BadLength);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Number of bytes [`write_varint`] emits for `v`.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn write_lpstr(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_lpstr<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str, CodecError> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(CodecError::BadLength)?;
    let bytes = buf.get(*pos..end).ok_or(CodecError::UnexpectedEof)?;
    *pos = end;
    std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
}

fn lpstr_len(s: &str) -> usize {
    varint_len(s.len() as u64) + s.len()
}

fn read_annotation(buf: &[u8], pos: &mut usize) -> Result<TypeAnnotation, CodecError> {
    let byte = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    TypeAnnotation::from_tag(byte).ok_or(CodecError::BadAnnotation(byte))
}

/// A QName split in place as `(prefix, local)`.
pub type QNameRef<'a> = (Option<&'a str>, &'a str);

fn read_qname<'a>(buf: &'a [u8], pos: &mut usize) -> Result<QNameRef<'a>, CodecError> {
    let s = read_lpstr(buf, pos)?;
    QName::split_lexical(s).ok_or_else(|| CodecError::BadName(s.to_string()))
}

fn to_qname((prefix, local): QNameRef<'_>) -> QName {
    match prefix {
        Some(prefix) => QName::prefixed(prefix, local),
        None => QName::local(local),
    }
}

/// Appends the wire form of `token` to `out`.
pub fn encode_token(out: &mut Vec<u8>, token: &Token) {
    out.push(token.kind().to_tag());
    match token {
        Token::BeginDocument | Token::EndDocument | Token::EndElement | Token::EndAttribute => {}
        Token::BeginElement { name, type_ann } => {
            out.push(type_ann.to_tag());
            write_lpstr(out, &name.to_lexical());
        }
        Token::BeginAttribute {
            name,
            value,
            type_ann,
        } => {
            out.push(type_ann.to_tag());
            write_lpstr(out, &name.to_lexical());
            write_lpstr(out, value);
        }
        Token::Text { value, type_ann } => {
            out.push(type_ann.to_tag());
            write_lpstr(out, value);
        }
        Token::Comment { value } => write_lpstr(out, value),
        Token::ProcessingInstruction { target, value } => {
            write_lpstr(out, target);
            write_lpstr(out, value);
        }
    }
}

/// The number of bytes [`encode_token`] would emit for `token`, without
/// allocating. The store uses this for page free-space accounting.
pub fn encoded_len(token: &Token) -> usize {
    1 + match token {
        Token::BeginDocument | Token::EndDocument | Token::EndElement | Token::EndAttribute => 0,
        Token::BeginElement { name, .. } => {
            let name_len = name.lexical_len();
            1 + varint_len(name_len as u64) + name_len
        }
        Token::BeginAttribute { name, value, .. } => {
            let name_len = name.lexical_len();
            1 + varint_len(name_len as u64) + name_len + lpstr_len(value)
        }
        Token::Text { value, .. } => 1 + lpstr_len(value),
        Token::Comment { value } => lpstr_len(value),
        Token::ProcessingInstruction { target, value } => lpstr_len(target) + lpstr_len(value),
    }
}

/// A token decoded in place: names and values borrow the encoded bytes.
///
/// [`decode_token_ref`] checks everything [`decode_token`] checks (tag,
/// annotation, UTF-8, QName shape) without allocating, so a pass that only
/// needs kinds or counts can validate a payload without building tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenRef<'a> {
    /// See [`Token::BeginDocument`].
    BeginDocument,
    /// See [`Token::EndDocument`].
    EndDocument,
    /// See [`Token::BeginElement`].
    BeginElement {
        /// Element name, already split and shape-checked.
        name: QNameRef<'a>,
        /// Type annotation.
        type_ann: TypeAnnotation,
    },
    /// See [`Token::EndElement`].
    EndElement,
    /// See [`Token::BeginAttribute`].
    BeginAttribute {
        /// Attribute name, already split and shape-checked.
        name: QNameRef<'a>,
        /// Attribute value.
        value: &'a str,
        /// Type annotation.
        type_ann: TypeAnnotation,
    },
    /// See [`Token::EndAttribute`].
    EndAttribute,
    /// See [`Token::Text`].
    Text {
        /// Character content.
        value: &'a str,
        /// Type annotation.
        type_ann: TypeAnnotation,
    },
    /// See [`Token::Comment`].
    Comment {
        /// Comment content.
        value: &'a str,
    },
    /// See [`Token::ProcessingInstruction`].
    ProcessingInstruction {
        /// PI target.
        target: &'a str,
        /// PI content.
        value: &'a str,
    },
}

impl TokenRef<'_> {
    /// The token's kind.
    pub fn kind(&self) -> TokenKind {
        match self {
            TokenRef::BeginDocument => TokenKind::BeginDocument,
            TokenRef::EndDocument => TokenKind::EndDocument,
            TokenRef::BeginElement { .. } => TokenKind::BeginElement,
            TokenRef::EndElement => TokenKind::EndElement,
            TokenRef::BeginAttribute { .. } => TokenKind::BeginAttribute,
            TokenRef::EndAttribute => TokenKind::EndAttribute,
            TokenRef::Text { .. } => TokenKind::Text,
            TokenRef::Comment { .. } => TokenKind::Comment,
            TokenRef::ProcessingInstruction { .. } => TokenKind::ProcessingInstruction,
        }
    }

    /// An owned copy of the token.
    pub fn to_token(&self) -> Token {
        match *self {
            TokenRef::BeginDocument => Token::BeginDocument,
            TokenRef::EndDocument => Token::EndDocument,
            TokenRef::EndElement => Token::EndElement,
            TokenRef::EndAttribute => Token::EndAttribute,
            TokenRef::BeginElement { name, type_ann } => Token::BeginElement {
                name: to_qname(name),
                type_ann,
            },
            TokenRef::BeginAttribute {
                name,
                value,
                type_ann,
            } => Token::BeginAttribute {
                name: to_qname(name),
                value: value.into(),
                type_ann,
            },
            TokenRef::Text { value, type_ann } => Token::Text {
                value: value.into(),
                type_ann,
            },
            TokenRef::Comment { value } => Token::Comment {
                value: value.into(),
            },
            TokenRef::ProcessingInstruction { target, value } => Token::ProcessingInstruction {
                target: target.into(),
                value: value.into(),
            },
        }
    }
}

/// Decodes one token in place from `buf[*pos..]`, advancing `pos`. This is
/// the token grammar; [`decode_token`] is its owned wrapper.
pub fn decode_token_ref<'a>(buf: &'a [u8], pos: &mut usize) -> Result<TokenRef<'a>, CodecError> {
    let tag = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    let kind = TokenKind::from_tag(tag).ok_or(CodecError::BadTag(tag))?;
    Ok(match kind {
        TokenKind::BeginDocument => TokenRef::BeginDocument,
        TokenKind::EndDocument => TokenRef::EndDocument,
        TokenKind::EndElement => TokenRef::EndElement,
        TokenKind::EndAttribute => TokenRef::EndAttribute,
        TokenKind::BeginElement => {
            let type_ann = read_annotation(buf, pos)?;
            let name = read_qname(buf, pos)?;
            TokenRef::BeginElement { name, type_ann }
        }
        TokenKind::BeginAttribute => {
            let type_ann = read_annotation(buf, pos)?;
            let name = read_qname(buf, pos)?;
            let value = read_lpstr(buf, pos)?;
            TokenRef::BeginAttribute {
                name,
                value,
                type_ann,
            }
        }
        TokenKind::Text => {
            let type_ann = read_annotation(buf, pos)?;
            let value = read_lpstr(buf, pos)?;
            TokenRef::Text { value, type_ann }
        }
        TokenKind::Comment => TokenRef::Comment {
            value: read_lpstr(buf, pos)?,
        },
        TokenKind::ProcessingInstruction => {
            let target = read_lpstr(buf, pos)?;
            let value = read_lpstr(buf, pos)?;
            TokenRef::ProcessingInstruction { target, value }
        }
    })
}

/// Decodes one token from `buf[*pos..]`, advancing `pos`.
pub fn decode_token(buf: &[u8], pos: &mut usize) -> Result<Token, CodecError> {
    decode_token_ref(buf, pos).map(|t| t.to_token())
}

/// Encodes a whole token sequence into a fresh buffer.
///
/// ```
/// use axs_xdm::{codec, Token};
/// let tokens = vec![Token::begin_element("a"), Token::text("x"), Token::EndElement];
/// let bytes = codec::encode_tokens(&tokens);
/// assert_eq!(codec::decode_tokens(&bytes).unwrap(), tokens);
/// ```
pub fn encode_tokens(tokens: &[Token]) -> Vec<u8> {
    let cap: usize = tokens.iter().map(encoded_len).sum();
    let mut out = Vec::with_capacity(cap);
    for t in tokens {
        encode_token(&mut out, t);
    }
    out
}

/// Decodes the entire buffer into tokens.
pub fn decode_tokens(buf: &[u8]) -> Result<Vec<Token>, CodecError> {
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < buf.len() {
        out.push(decode_token(buf, &mut pos)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;

    fn sample_tokens() -> Vec<Token> {
        vec![
            Token::BeginDocument,
            Token::begin_element("ticket"),
            Token::begin_attribute("class", "economy").with_type(TypeAnnotation::String),
            Token::EndAttribute,
            Token::begin_element("hour"),
            Token::text("15").with_type(TypeAnnotation::Integer),
            Token::EndElement,
            Token::begin_element("name"),
            Token::text("Paul"),
            Token::EndElement,
            Token::comment(" issued at gate "),
            Token::pi("printer", "duplex=yes"),
            Token::EndElement,
            Token::EndDocument,
        ]
    }

    #[test]
    fn round_trip_all_token_kinds() {
        let tokens = sample_tokens();
        let bytes = encode_tokens(&tokens);
        let back = decode_tokens(&bytes).unwrap();
        assert_eq!(tokens, back);
    }

    #[test]
    fn encoded_len_is_exact() {
        for t in sample_tokens() {
            let mut buf = Vec::new();
            encode_token(&mut buf, &t);
            assert_eq!(buf.len(), encoded_len(&t), "token {t}");
        }
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_strings_encode() {
        let tokens = vec![Token::text(""), Token::comment(""), Token::pi("t", "")];
        let bytes = encode_tokens(&tokens);
        assert_eq!(decode_tokens(&bytes).unwrap(), tokens);
    }

    #[test]
    fn unicode_content_round_trips() {
        let tokens = vec![
            Token::begin_element("gr\u{00fc}sse"),
            Token::text("z\u{00fc}rich \u{2192} \u{4e2d}\u{6587}"),
            Token::EndElement,
        ];
        let bytes = encode_tokens(&tokens);
        assert_eq!(decode_tokens(&bytes).unwrap(), tokens);
    }

    /// Runs `bytes` through the borrowed pass and through `decode_tokens`;
    /// both must reject it with the same error, which is returned.
    fn both_reject(bytes: &[u8]) -> CodecError {
        let mut pos = 0;
        let borrowed = loop {
            if pos >= bytes.len() {
                panic!("borrowed pass accepted {bytes:?}");
            }
            if let Err(e) = decode_token_ref(bytes, &mut pos) {
                break e;
            }
        };
        assert_eq!(decode_tokens(bytes).unwrap_err(), borrowed, "{bytes:?}");
        borrowed
    }

    #[test]
    fn borrowed_tokens_match_owned() {
        let bytes = encode_tokens(&sample_tokens());
        let mut pos = 0;
        let mut back = Vec::new();
        while pos < bytes.len() {
            let t = decode_token_ref(&bytes, &mut pos).unwrap();
            assert_eq!(t.kind(), t.to_token().kind());
            back.push(t.to_token());
        }
        assert_eq!(back, sample_tokens());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(both_reject(&[0xee]), CodecError::BadTag(0xee));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_tokens(&[Token::text("hello world")]);
        for cut in 1..bytes.len() {
            let err = both_reject(&bytes[..cut]);
            assert!(
                matches!(err, CodecError::UnexpectedEof | CodecError::BadLength),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_annotation() {
        // Text token with annotation byte 77.
        let bytes = [TokenKind::Text.to_tag(), 77, 0];
        assert_eq!(both_reject(&bytes), CodecError::BadAnnotation(77));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let mut bytes = vec![TokenKind::Comment.to_tag()];
        write_varint(&mut bytes, 2);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(both_reject(&bytes), CodecError::BadUtf8);
    }

    #[test]
    fn decode_rejects_bad_qname() {
        for name in ["a:b:c", "", ":x", "x:"] {
            let mut bytes = vec![TokenKind::BeginElement.to_tag(), 0];
            write_lpstr(&mut bytes, name);
            assert_eq!(both_reject(&bytes), CodecError::BadName(name.into()));
        }
    }

    #[test]
    fn end_tokens_are_one_byte() {
        // The paper's storage-overhead argument depends on structural tokens
        // being tiny. Lock that in.
        assert_eq!(encoded_len(&Token::EndElement), 1);
        assert_eq!(encoded_len(&Token::EndAttribute), 1);
        assert_eq!(encoded_len(&Token::EndDocument), 1);
        assert_eq!(encoded_len(&Token::BeginDocument), 1);
    }

    #[test]
    fn annotations_survive_round_trip() {
        for ann in TypeAnnotation::ALL {
            let t = Token::text("v").with_type(ann);
            let bytes = encode_tokens(std::slice::from_ref(&t));
            assert_eq!(decode_tokens(&bytes).unwrap()[0], t);
        }
    }
}
