//! Token sequences back to XML text.

use crate::entities::{escape_attribute, escape_text};
use axs_xdm::Token;
use std::fmt;

/// Serialization configuration.
#[derive(Debug, Clone)]
pub struct SerializeOptions {
    /// Emit `<?xml version="1.0" encoding="UTF-8"?>` before a document.
    pub xml_declaration: bool,
    /// Pretty-print with this indent string (`None` = compact output).
    /// Pretty printing inserts whitespace and is therefore intended for
    /// data-centric documents where whitespace is insignificant.
    pub indent: Option<String>,
    /// Collapse `<e></e>` to `<e/>`.
    pub self_close_empty: bool,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions {
            xml_declaration: false,
            indent: None,
            self_close_empty: true,
        }
    }
}

impl SerializeOptions {
    /// Pretty printing with two-space indent.
    pub fn pretty() -> Self {
        SerializeOptions {
            indent: Some("  ".to_string()),
            ..SerializeOptions::default()
        }
    }
}

/// Errors from serialization of malformed token sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// An attribute token appeared where neither an element start nor the
    /// top of a result sequence can take it.
    MisplacedAttribute(usize),
    /// An end token with no matching begin token (or of the wrong kind).
    Underflow(usize),
    /// Begin tokens left open at the end of the sequence.
    Unclosed,
    /// An attribute token appeared after element content (attributes must
    /// precede content in XML syntax).
    AttributeAfterContent(usize),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::MisplacedAttribute(i) => {
                write!(
                    f,
                    "attribute token at position {i} outside an element start"
                )
            }
            SerializeError::Underflow(i) => {
                write!(f, "end token at position {i} closes nothing")
            }
            SerializeError::Unclosed => write!(f, "unclosed begin token(s)"),
            SerializeError::AttributeAfterContent(i) => {
                write!(f, "attribute token at position {i} after element content")
            }
        }
    }
}

impl std::error::Error for SerializeError {}

/// Where serialized text goes: a `String`, or raw bytes such as a wire
/// frame's payload, which the text is then appended to in place.
pub trait TextSink {
    /// Appends `s`.
    fn push_str(&mut self, s: &str);
}

impl TextSink for String {
    #[inline]
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

impl TextSink for Vec<u8> {
    #[inline]
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// One open construct. Element names live in the serializer's name arena;
/// a frame holds the byte offset where its name starts.
enum Frame {
    Document,
    /// Element whose start tag is still open (`<name attr=".."` so far).
    OpenTag {
        name: usize,
    },
    /// Element with content emitted. `structured_last` tracks whether the
    /// most recent child was an element/comment/PI (pretty printing indents
    /// the close tag only then, keeping `<e>text</e>` on one line).
    WithContent {
        name: usize,
        structured_last: bool,
    },
    Attribute,
}

/// Incremental, stateful serializer: feed tokens one at a time and it
/// appends their text to a [`TextSink`] of the caller's. Powers
/// [`serialize`]/[`serialize_into`] and the [`TokenWriter`] streaming sink
/// (symmetric with the store's bulk loader). After
/// [`StreamSerializer::finish_item`] it serializes the next item with the
/// buffers it already holds.
pub struct StreamSerializer {
    opts: SerializeOptions,
    stack: Vec<Frame>,
    /// The open elements' lexical names, back to back; each element frame
    /// holds its name's start offset, and closing it truncates there.
    names: String,
    declaration_pending: bool,
    emitted_any: bool,
    token_index: usize,
}

impl StreamSerializer {
    /// Creates a serializer; the XML declaration (when configured) is
    /// emitted before the first token.
    pub fn new(opts: SerializeOptions) -> StreamSerializer {
        StreamSerializer {
            declaration_pending: opts.xml_declaration,
            opts,
            stack: Vec::new(),
            names: String::new(),
            emitted_any: false,
            token_index: 0,
        }
    }

    /// Serializes one token, appending its text (and any pending
    /// declaration before the first token) to `out`.
    pub fn write_token_into<S: TextSink + ?Sized>(
        &mut self,
        token: &Token,
        out: &mut S,
    ) -> Result<(), SerializeError> {
        if self.declaration_pending {
            self.declaration_pending = false;
            out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            if self.opts.indent.is_some() {
                out.push_str("\n");
            }
            self.emitted_any = true;
        }
        self.step(token, out)?;
        self.token_index += 1;
        Ok(())
    }

    /// Verifies that every begin token was closed, and readies the
    /// serializer for the next item (say, a query's next row) as if it
    /// were new, keeping its buffers. It is ready even when this fails.
    pub fn finish_item(&mut self) -> Result<(), SerializeError> {
        let balanced = self.stack.is_empty();
        self.stack.clear();
        self.names.clear();
        self.declaration_pending = self.opts.xml_declaration;
        self.emitted_any = false;
        self.token_index = 0;
        if balanced {
            Ok(())
        } else {
            Err(SerializeError::Unclosed)
        }
    }

    /// Verifies that every begin token was closed.
    pub fn finish(mut self) -> Result<(), SerializeError> {
        self.finish_item()
    }

    fn element_depth(&self) -> usize {
        self.stack
            .iter()
            .filter(|f| matches!(f, Frame::OpenTag { .. } | Frame::WithContent { .. }))
            .count()
    }

    /// Finishes a pending start tag (`>` + state transition) before content.
    fn close_start_tag<S: TextSink + ?Sized>(&mut self, out: &mut S) {
        if let Some(frame) = self.stack.last_mut() {
            if let Frame::OpenTag { name } = *frame {
                out.push_str(">");
                *frame = Frame::WithContent {
                    name,
                    structured_last: false,
                };
            }
        }
    }

    fn note_structured_child(&mut self, structured: bool) {
        if let Some(Frame::WithContent {
            structured_last, ..
        }) = self.stack.last_mut()
        {
            *structured_last = structured;
        }
    }

    /// Newline + indent before a structured child, when pretty printing.
    fn break_before_child<S: TextSink + ?Sized>(&self, out: &mut S) {
        if let Some(indent) = self.opts.indent.as_deref() {
            if self.emitted_any {
                out.push_str("\n");
            }
            for _ in 0..self.element_depth() {
                out.push_str(indent);
            }
        }
    }

    /// Newline + indent before a close tag whose children were structured.
    fn break_before_close<S: TextSink + ?Sized>(&self, out: &mut S) {
        if let Some(indent) = self.opts.indent.as_deref() {
            out.push_str("\n");
            for _ in 0..self.element_depth() {
                out.push_str(indent);
            }
        }
    }

    /// Writes `</name>` for the element whose name starts at `name` in the
    /// arena, then drops that name.
    fn close_tag<S: TextSink + ?Sized>(&mut self, name: usize, out: &mut S) {
        out.push_str("</");
        out.push_str(&self.names[name..]);
        out.push_str(">");
        self.names.truncate(name);
    }

    /// The per-token state machine.
    fn step<S: TextSink + ?Sized>(
        &mut self,
        tok: &Token,
        out: &mut S,
    ) -> Result<(), SerializeError> {
        let i = self.token_index;
        match tok {
            Token::BeginDocument => self.stack.push(Frame::Document),
            Token::EndDocument => match self.stack.pop() {
                Some(Frame::Document) => {}
                _ => return Err(SerializeError::Underflow(i)),
            },
            Token::BeginElement { name, .. } => {
                self.close_start_tag(out);
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.break_before_child(out);
                self.note_structured_child(true);
                let start = self.names.len();
                name.write_lexical(&mut self.names);
                out.push_str("<");
                out.push_str(&self.names[start..]);
                self.stack.push(Frame::OpenTag { name: start });
                self.emitted_any = true;
            }
            Token::EndElement => match self.stack.pop() {
                Some(Frame::OpenTag { name }) => {
                    if self.opts.self_close_empty {
                        out.push_str("/>");
                        self.names.truncate(name);
                    } else {
                        out.push_str(">");
                        self.close_tag(name, out);
                    }
                }
                Some(Frame::WithContent {
                    name,
                    structured_last,
                }) => {
                    if structured_last {
                        self.break_before_close(out);
                    }
                    self.close_tag(name, out);
                }
                _ => return Err(SerializeError::Underflow(i)),
            },
            Token::BeginAttribute { name, value, .. } => {
                match self.stack.last() {
                    Some(Frame::OpenTag { .. }) => out.push_str(" "),
                    // An attribute item at the top of a result sequence (an
                    // XPath ending in `/@id`) renders bare: `name="value"`.
                    None => {}
                    Some(Frame::WithContent { .. }) => {
                        return Err(SerializeError::AttributeAfterContent(i))
                    }
                    _ => return Err(SerializeError::MisplacedAttribute(i)),
                }
                if let Some(prefix) = name.prefix() {
                    out.push_str(prefix);
                    out.push_str(":");
                }
                out.push_str(name.local_part());
                out.push_str("=\"");
                escape_attribute(value, out);
                out.push_str("\"");
                self.stack.push(Frame::Attribute);
                self.emitted_any = true;
            }
            Token::EndAttribute => match self.stack.pop() {
                Some(Frame::Attribute) => {}
                _ => return Err(SerializeError::Underflow(i)),
            },
            Token::Text { value, .. } => {
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.close_start_tag(out);
                self.note_structured_child(false);
                escape_text(value, out);
                self.emitted_any |= !value.is_empty();
            }
            Token::Comment { value } => {
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.close_start_tag(out);
                self.break_before_child(out);
                self.note_structured_child(true);
                out.push_str("<!--");
                out.push_str(value);
                out.push_str("-->");
                self.emitted_any = true;
            }
            Token::ProcessingInstruction { target, value } => {
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.close_start_tag(out);
                self.break_before_child(out);
                self.note_structured_child(true);
                out.push_str("<?");
                out.push_str(target);
                if !value.is_empty() {
                    out.push_str(" ");
                    out.push_str(value);
                }
                out.push_str("?>");
                self.emitted_any = true;
            }
        }
        Ok(())
    }
}

/// A streaming serialization sink: tokens in, XML bytes out to any
/// [`std::io::Write`] — the output-side twin of the store's bulk loader.
pub struct TokenWriter<W: std::io::Write> {
    inner: StreamSerializer,
    /// One token's text on its way to `out`.
    text: String,
    out: W,
}

/// Errors from [`TokenWriter`].
#[derive(Debug)]
pub enum TokenWriteError {
    /// The token sequence was structurally invalid.
    Structure(SerializeError),
    /// The underlying sink failed.
    Io(std::io::Error),
}

impl fmt::Display for TokenWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenWriteError::Structure(e) => write!(f, "{e}"),
            TokenWriteError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TokenWriteError {}

impl From<SerializeError> for TokenWriteError {
    fn from(e: SerializeError) -> Self {
        TokenWriteError::Structure(e)
    }
}

impl From<std::io::Error> for TokenWriteError {
    fn from(e: std::io::Error) -> Self {
        TokenWriteError::Io(e)
    }
}

impl<W: std::io::Write> TokenWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W, opts: SerializeOptions) -> TokenWriter<W> {
        TokenWriter {
            inner: StreamSerializer::new(opts),
            text: String::new(),
            out,
        }
    }

    /// Serializes one token into the sink.
    pub fn write(&mut self, token: &Token) -> Result<(), TokenWriteError> {
        self.text.clear();
        self.inner.write_token_into(token, &mut self.text)?;
        self.out.write_all(self.text.as_bytes())?;
        Ok(())
    }

    /// Verifies balance and returns the sink.
    pub fn finish(self) -> Result<W, TokenWriteError> {
        self.inner.finish()?;
        Ok(self.out)
    }
}

/// Serializes tokens into `out`. Node identifiers are irrelevant here: the
/// token sequence alone determines the text.
pub fn serialize_into(
    tokens: &[Token],
    opts: &SerializeOptions,
    out: &mut String,
) -> Result<(), SerializeError> {
    let mut ser = StreamSerializer::new(opts.clone());
    for tok in tokens {
        ser.write_token_into(tok, out)?;
    }
    ser.finish()
}

/// Serializes tokens to a fresh string.
pub fn serialize(tokens: &[Token], opts: &SerializeOptions) -> Result<String, SerializeError> {
    let mut out = String::new();
    serialize_into(tokens, opts, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_document, parse_fragment, ParseOptions};
    use axs_xdm::QName;

    fn compact(tokens: &[Token]) -> String {
        serialize(tokens, &SerializeOptions::default()).unwrap()
    }

    #[test]
    fn figure1_round_trip() {
        let input = "<ticket><hour>15</hour><name>Paul</name></ticket>";
        let tokens = parse_fragment(input, ParseOptions::default()).unwrap();
        assert_eq!(compact(&tokens), input);
    }

    #[test]
    fn attributes_serialize_in_start_tag() {
        let tokens = vec![
            Token::begin_element("e"),
            Token::begin_attribute("a", "1"),
            Token::EndAttribute,
            Token::begin_attribute("b", "x<y"),
            Token::EndAttribute,
            Token::text("body"),
            Token::EndElement,
        ];
        assert_eq!(compact(&tokens), r#"<e a="1" b="x&lt;y">body</e>"#);
    }

    #[test]
    fn empty_element_self_closes_by_default() {
        let tokens = vec![Token::begin_element("e"), Token::EndElement];
        assert_eq!(compact(&tokens), "<e/>");
        let opts = SerializeOptions {
            self_close_empty: false,
            ..SerializeOptions::default()
        };
        assert_eq!(serialize(&tokens, &opts).unwrap(), "<e></e>");
    }

    #[test]
    fn text_escaping() {
        let tokens = vec![
            Token::begin_element("e"),
            Token::text("a < b & c > d"),
            Token::EndElement,
        ];
        assert_eq!(compact(&tokens), "<e>a &lt; b &amp; c &gt; d</e>");
    }

    #[test]
    fn attribute_escaping_round_trips() {
        let tokens = vec![
            Token::begin_element("e"),
            Token::begin_attribute("a", "tab\there \"q\" <lt>"),
            Token::EndAttribute,
            Token::EndElement,
        ];
        let text = compact(&tokens);
        let back = parse_fragment(&text, ParseOptions::default()).unwrap();
        assert_eq!(back, tokens);
    }

    #[test]
    fn document_wrapper_and_declaration() {
        let tokens = vec![
            Token::BeginDocument,
            Token::begin_element("r"),
            Token::EndElement,
            Token::EndDocument,
        ];
        let opts = SerializeOptions {
            xml_declaration: true,
            ..SerializeOptions::default()
        };
        assert_eq!(
            serialize(&tokens, &opts).unwrap(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r/>"
        );
    }

    #[test]
    fn comments_and_pis_serialize() {
        let tokens = vec![
            Token::begin_element("e"),
            Token::comment(" c "),
            Token::pi("t", "d"),
            Token::pi("empty", ""),
            Token::EndElement,
        ];
        assert_eq!(compact(&tokens), "<e><!-- c --><?t d?><?empty?></e>");
    }

    #[test]
    fn pretty_printing_indents_elements() {
        let input = "<a><b>x</b><c/></a>";
        let tokens = parse_fragment(input, ParseOptions::default()).unwrap();
        let pretty = serialize(&tokens, &SerializeOptions::pretty()).unwrap();
        assert_eq!(pretty, "<a>\n  <b>x</b>\n  <c/>\n</a>");
    }

    #[test]
    fn pretty_printing_keeps_text_elements_on_one_line() {
        let input = "<a><b>x</b></a>";
        let tokens = parse_fragment(input, ParseOptions::default()).unwrap();
        let pretty = serialize(&tokens, &SerializeOptions::pretty()).unwrap();
        assert_eq!(pretty, "<a>\n  <b>x</b>\n</a>");
    }

    #[test]
    fn pretty_output_reparses_to_same_data_centric_tokens() {
        let input = "<a><b>x</b><c><d/><d/></c></a>";
        let tokens = parse_fragment(input, ParseOptions::default()).unwrap();
        let pretty = serialize(&tokens, &SerializeOptions::pretty()).unwrap();
        let back = parse_fragment(&pretty, ParseOptions::data_centric()).unwrap();
        assert_eq!(back, tokens);
    }

    #[test]
    fn parse_serialize_parse_is_identity_on_tokens() {
        let input = r#"<order id="7"><item qty="2">bolt &amp; nut</item><note/><!--x--></order>"#;
        let t1 = parse_fragment(input, ParseOptions::default()).unwrap();
        let text = compact(&t1);
        let t2 = parse_fragment(&text, ParseOptions::default()).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn document_parse_serialize_round_trip() {
        let input = "<?xml version=\"1.0\"?><r a=\"1\"><x>t</x></r>";
        let tokens = parse_document(input, ParseOptions::default()).unwrap();
        let text = serialize(
            &tokens,
            &SerializeOptions {
                xml_declaration: true,
                ..SerializeOptions::default()
            },
        )
        .unwrap();
        let tokens2 = parse_document(&text, ParseOptions::default()).unwrap();
        assert_eq!(tokens, tokens2);
    }

    #[test]
    fn error_attribute_after_content() {
        let tokens = vec![
            Token::begin_element("e"),
            Token::text("x"),
            Token::begin_attribute("a", "1"),
            Token::EndAttribute,
            Token::EndElement,
        ];
        assert_eq!(
            serialize(&tokens, &SerializeOptions::default()).unwrap_err(),
            SerializeError::AttributeAfterContent(2)
        );
    }

    #[test]
    fn top_level_attribute_item_renders_bare() {
        let tokens = vec![Token::begin_attribute("id", "a<\"b"), Token::EndAttribute];
        assert_eq!(compact(&tokens), r#"id="a&lt;&quot;b""#);
    }

    #[test]
    fn error_attribute_directly_in_document() {
        let tokens = vec![
            Token::BeginDocument,
            Token::begin_attribute("a", "1"),
            Token::EndAttribute,
            Token::EndDocument,
        ];
        assert!(matches!(
            serialize(&tokens, &SerializeOptions::default()).unwrap_err(),
            SerializeError::MisplacedAttribute(1)
        ));
    }

    #[test]
    fn error_underflow_and_unclosed() {
        assert_eq!(
            serialize(&[Token::EndElement], &SerializeOptions::default()).unwrap_err(),
            SerializeError::Underflow(0)
        );
        assert_eq!(
            serialize(&[Token::begin_element("e")], &SerializeOptions::default()).unwrap_err(),
            SerializeError::Unclosed
        );
    }

    #[test]
    fn text_inside_attribute_node_rejected() {
        let tokens = vec![
            Token::begin_element("e"),
            Token::begin_attribute("a", "1"),
            Token::text("x"),
            Token::EndAttribute,
            Token::EndElement,
        ];
        assert!(serialize(&tokens, &SerializeOptions::default()).is_err());
    }

    #[test]
    fn element_inside_attribute_node_rejected() {
        let tokens = vec![
            Token::begin_element("e"),
            Token::begin_attribute("a", "1"),
            Token::begin_element("x"),
            Token::EndElement,
            Token::EndAttribute,
            Token::EndElement,
        ];
        assert!(serialize(&tokens, &SerializeOptions::default()).is_err());
    }

    #[test]
    fn stream_serializer_concatenation_equals_batch() {
        let tokens = parse_fragment(
            r#"<a k="v"><b>x</b><!--c--><?p d?><c/></a>"#,
            ParseOptions::default(),
        )
        .unwrap();
        for opts in [
            SerializeOptions::default(),
            SerializeOptions::pretty(),
            SerializeOptions {
                xml_declaration: true,
                ..SerializeOptions::default()
            },
        ] {
            let batch = serialize(&tokens, &opts).unwrap();
            let mut ser = StreamSerializer::new(opts.clone());
            let mut streamed = String::new();
            for t in &tokens {
                ser.write_token_into(t, &mut streamed).unwrap();
            }
            ser.finish().unwrap();
            assert_eq!(streamed, batch);
        }
    }

    #[test]
    fn deep_prefixed_nesting_closes_the_right_tags() {
        // 64 levels, each a prefixed name of a different length so a wrong
        // arena offset shows up as a mangled tag; every level also has an
        // empty prefixed sibling after it.
        let name = |i: usize| {
            QName::prefixed(
                format!("p{}", i % 3),
                "e".repeat(1 + i % 5) + &i.to_string(),
            )
        };
        let depth = 64;
        let mut tokens = Vec::new();
        for i in 0..depth {
            tokens.push(Token::begin_element(name(i)));
        }
        tokens.push(Token::text("leaf"));
        for i in (0..depth).rev() {
            tokens.push(Token::EndElement);
            tokens.push(Token::begin_element(name(i + depth)));
            tokens.push(Token::EndElement);
        }
        for self_close_empty in [true, false] {
            let mut want = String::new();
            for i in 0..depth {
                want += &format!("<{}>", name(i).to_lexical());
            }
            want += "leaf";
            for i in (0..depth).rev() {
                let sibling = name(i + depth).to_lexical();
                want += &format!("</{}>", name(i).to_lexical());
                want += &if self_close_empty {
                    format!("<{sibling}/>")
                } else {
                    format!("<{sibling}></{sibling}>")
                };
            }
            let opts = SerializeOptions {
                self_close_empty,
                ..SerializeOptions::default()
            };
            assert_eq!(serialize(&tokens, &opts).unwrap(), want);
            let back = parse_fragment(&want, ParseOptions::default()).unwrap();
            assert_eq!(back, tokens, "self_close_empty: {self_close_empty}");
        }
    }

    #[test]
    fn a_reused_serializer_writes_each_item_like_a_fresh_one() {
        let items = [
            parse_fragment(r#"<x:a k="1"><b>t&amp;</b></x:a>"#, ParseOptions::default()).unwrap(),
            parse_fragment("<c/>", ParseOptions::default()).unwrap(),
            vec![Token::begin_attribute("id", "q\"")],
        ];
        for opts in [
            SerializeOptions::default(),
            SerializeOptions::pretty(),
            SerializeOptions {
                xml_declaration: true,
                ..SerializeOptions::default()
            },
        ] {
            let mut ser = StreamSerializer::new(opts.clone());
            for item in &items[..2] {
                let mut bytes = b"head".to_vec();
                for t in item {
                    ser.write_token_into(t, &mut bytes).unwrap();
                }
                ser.finish_item().unwrap();
                assert_eq!(bytes[4..], *serialize(item, &opts).unwrap().as_bytes());
            }
            // An unclosed item is reported, and the next one is unharmed.
            ser.write_token_into(&items[2][0], &mut Vec::new()).unwrap();
            assert_eq!(ser.finish_item(), Err(SerializeError::Unclosed));
            let mut out = String::new();
            for t in &items[1] {
                ser.write_token_into(t, &mut out).unwrap();
            }
            ser.finish_item().unwrap();
            assert_eq!(out, serialize(&items[1], &opts).unwrap());
        }
    }

    #[test]
    fn token_writer_writes_to_io_sink() {
        let tokens = parse_fragment("<a><b>x</b></a>", ParseOptions::default()).unwrap();
        let mut w = TokenWriter::new(Vec::new(), SerializeOptions::default());
        for t in &tokens {
            w.write(t).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), "<a><b>x</b></a>");
    }

    #[test]
    fn token_writer_reports_structure_errors() {
        let mut w = TokenWriter::new(Vec::new(), SerializeOptions::default());
        assert!(matches!(
            w.write(&Token::EndElement),
            Err(TokenWriteError::Structure(_))
        ));
        let mut w = TokenWriter::new(Vec::new(), SerializeOptions::default());
        w.write(&Token::begin_element("a")).unwrap();
        assert!(matches!(w.finish(), Err(TokenWriteError::Structure(_))));
    }

    #[test]
    fn token_writer_surfaces_io_errors() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink broke"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = TokenWriter::new(Failing, SerializeOptions::default());
        assert!(matches!(
            w.write(&Token::begin_element("a")),
            Err(TokenWriteError::Io(_))
        ));
    }
}
