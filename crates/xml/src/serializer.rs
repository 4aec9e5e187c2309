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

enum Frame {
    Document,
    /// Element whose start tag is still open (`<name attr=".."` so far).
    OpenTag {
        name: String,
    },
    /// Element with content emitted. `structured_last` tracks whether the
    /// most recent child was an element/comment/PI (pretty printing indents
    /// the close tag only then, keeping `<e>text</e>` on one line).
    WithContent {
        name: String,
        structured_last: bool,
    },
    Attribute,
}

/// Incremental, stateful serializer: feed tokens one at a time, collect
/// the text they produce. Powers [`serialize`]/[`serialize_into`] and the
/// [`TokenWriter`] streaming sink (symmetric with the store's bulk loader).
pub struct StreamSerializer {
    opts: SerializeOptions,
    stack: Vec<Frame>,
    buf: String,
    emitted_any: bool,
    token_index: usize,
}

impl StreamSerializer {
    /// Creates a serializer; the XML declaration (when configured) is
    /// emitted before the first token.
    pub fn new(opts: SerializeOptions) -> StreamSerializer {
        let mut buf = String::new();
        let mut emitted_any = false;
        if opts.xml_declaration {
            buf.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            if opts.indent.is_some() {
                buf.push('\n');
            }
            emitted_any = true;
        }
        StreamSerializer {
            opts,
            stack: Vec::new(),
            buf,
            emitted_any,
            token_index: 0,
        }
    }

    /// Serializes one token, returning the text it appended (including any
    /// pending declaration before the first token).
    pub fn write_token(&mut self, token: &Token) -> Result<&str, SerializeError> {
        if self.token_index > 0 {
            // The first call keeps the pre-buffered XML declaration.
            self.buf.clear();
        }
        self.step(token)?;
        self.token_index += 1;
        if !self.buf.is_empty() {
            self.emitted_any = true;
        }
        Ok(&self.buf)
    }

    /// Verifies that every begin token was closed.
    pub fn finish(self) -> Result<(), SerializeError> {
        if self.stack.is_empty() {
            Ok(())
        } else {
            Err(SerializeError::Unclosed)
        }
    }

    fn element_depth(&self) -> usize {
        self.stack
            .iter()
            .filter(|f| matches!(f, Frame::OpenTag { .. } | Frame::WithContent { .. }))
            .count()
    }

    /// Finishes a pending start tag (`>` + state transition) before content.
    fn close_start_tag(&mut self) {
        if matches!(self.stack.last(), Some(Frame::OpenTag { .. })) {
            self.buf.push('>');
            if let Some(Frame::OpenTag { name }) = self.stack.pop() {
                self.stack.push(Frame::WithContent {
                    name,
                    structured_last: false,
                });
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
    fn break_before_child(&mut self) {
        if self.opts.indent.is_some() {
            if self.emitted_any || !self.buf.is_empty() {
                self.buf.push('\n');
            }
            let depth = self.element_depth();
            let ind = self.opts.indent.clone().unwrap_or_default();
            for _ in 0..depth {
                self.buf.push_str(&ind);
            }
        }
    }

    /// Newline + indent before a close tag whose children were structured.
    fn break_before_close(&mut self) {
        if self.opts.indent.is_some() {
            self.buf.push('\n');
            let depth = self.element_depth();
            let ind = self.opts.indent.clone().unwrap_or_default();
            for _ in 0..depth {
                self.buf.push_str(&ind);
            }
        }
    }

    /// The per-token state machine (the former `serialize_into` loop body).
    fn step(&mut self, tok: &Token) -> Result<(), SerializeError> {
        let i = self.token_index;
        match tok {
            Token::BeginDocument => self.stack.push(Frame::Document),
            Token::EndDocument => match self.stack.pop() {
                Some(Frame::Document) => {}
                _ => return Err(SerializeError::Underflow(i)),
            },
            Token::BeginElement { name, .. } => {
                self.close_start_tag();
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.break_before_child();
                self.note_structured_child(true);
                self.buf.push('<');
                name.write_lexical(&mut self.buf);
                self.stack.push(Frame::OpenTag {
                    name: name.to_lexical(),
                });
            }
            Token::EndElement => match self.stack.pop() {
                Some(Frame::OpenTag { name }) => {
                    if self.opts.self_close_empty {
                        self.buf.push_str("/>");
                    } else {
                        self.buf.push('>');
                        self.buf.push_str("</");
                        self.buf.push_str(&name);
                        self.buf.push('>');
                    }
                }
                Some(Frame::WithContent {
                    name,
                    structured_last,
                }) => {
                    if structured_last {
                        self.break_before_close();
                    }
                    self.buf.push_str("</");
                    self.buf.push_str(&name);
                    self.buf.push('>');
                }
                _ => return Err(SerializeError::Underflow(i)),
            },
            Token::BeginAttribute { name, value, .. } => {
                match self.stack.last() {
                    Some(Frame::OpenTag { .. }) => self.buf.push(' '),
                    // An attribute item at the top of a result sequence (an
                    // XPath ending in `/@id`) renders bare: `name="value"`.
                    None => {}
                    Some(Frame::WithContent { .. }) => {
                        return Err(SerializeError::AttributeAfterContent(i))
                    }
                    _ => return Err(SerializeError::MisplacedAttribute(i)),
                }
                name.write_lexical(&mut self.buf);
                self.buf.push_str("=\"");
                escape_attribute(value, &mut self.buf);
                self.buf.push('"');
                self.stack.push(Frame::Attribute);
            }
            Token::EndAttribute => match self.stack.pop() {
                Some(Frame::Attribute) => {}
                _ => return Err(SerializeError::Underflow(i)),
            },
            Token::Text { value, .. } => {
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.close_start_tag();
                self.note_structured_child(false);
                escape_text(value, &mut self.buf);
            }
            Token::Comment { value } => {
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.close_start_tag();
                self.break_before_child();
                self.note_structured_child(true);
                self.buf.push_str("<!--");
                self.buf.push_str(value);
                self.buf.push_str("-->");
            }
            Token::ProcessingInstruction { target, value } => {
                if matches!(self.stack.last(), Some(Frame::Attribute)) {
                    return Err(SerializeError::MisplacedAttribute(i));
                }
                self.close_start_tag();
                self.break_before_child();
                self.note_structured_child(true);
                self.buf.push_str("<?");
                self.buf.push_str(target);
                if !value.is_empty() {
                    self.buf.push(' ');
                    self.buf.push_str(value);
                }
                self.buf.push_str("?>");
            }
        }
        Ok(())
    }
}

/// A streaming serialization sink: tokens in, XML bytes out to any
/// [`std::io::Write`] — the output-side twin of the store's bulk loader.
pub struct TokenWriter<W: std::io::Write> {
    inner: StreamSerializer,
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
            out,
        }
    }

    /// Serializes one token into the sink.
    pub fn write(&mut self, token: &Token) -> Result<(), TokenWriteError> {
        let text = self.inner.write_token(token)?;
        self.out.write_all(text.as_bytes())?;
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
        out.push_str(ser.write_token(tok)?);
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
                streamed.push_str(ser.write_token(t).unwrap());
            }
            ser.finish().unwrap();
            assert_eq!(streamed, batch);
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
