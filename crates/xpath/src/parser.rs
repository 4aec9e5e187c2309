//! Hand-rolled parser for the XPath subset.

use crate::ast::{Axis, CompareOp, Literal, NodeTest, Predicate, Step, XPath};
use std::fmt;

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset in the expression.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xpath error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for XPathError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> XPathError {
        XPathError {
            at: self.pos,
            message,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(' ') {
            self.pos += 1;
        }
    }

    fn parse_name(&mut self) -> Result<String, XPathError> {
        let start = self.pos;
        for c in self.rest().chars() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, XPathError> {
        if self.eat("*") {
            return Ok(NodeTest::Wildcard);
        }
        if self.eat("text()") {
            return Ok(NodeTest::Text);
        }
        if self.eat("comment()") {
            return Ok(NodeTest::Comment);
        }
        if self.eat("node()") {
            return Ok(NodeTest::AnyNode);
        }
        Ok(NodeTest::Name(self.parse_name()?))
    }

    fn parse_literal(&mut self) -> Result<String, XPathError> {
        let quote = if self.eat("'") {
            '\''
        } else if self.eat("\"") {
            '"'
        } else {
            return Err(self.err("expected a quoted literal"));
        };
        match self.rest().find(quote) {
            Some(idx) => {
                let lit = self.rest()[..idx].to_string();
                self.pos += idx + 1;
                Ok(lit)
            }
            None => Err(self.err("unterminated literal")),
        }
    }

    fn parse_predicate(&mut self) -> Result<Predicate, XPathError> {
        self.skip_ws();
        if self.eat("last()") {
            self.skip_ws();
            return Ok(Predicate::Last);
        }
        // Positional predicate.
        let digits: String = self
            .rest()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if !digits.is_empty() {
            let after = &self.rest()[digits.len()..];
            if after.trim_start().starts_with(']') {
                self.pos += digits.len();
                self.skip_ws();
                let n: usize = digits.parse().map_err(|_| self.err("bad position"))?;
                if n == 0 {
                    return Err(self.err("positions are 1-based"));
                }
                return Ok(Predicate::Position(n));
            }
        }
        // Relative path, optionally compared to a literal.
        let path = self.parse_path(false)?;
        self.skip_ws();
        let op = if self.eat("!=") {
            Some(CompareOp::Ne)
        } else if self.eat("<=") {
            Some(CompareOp::Le)
        } else if self.eat(">=") {
            Some(CompareOp::Ge)
        } else if self.eat("=") {
            Some(CompareOp::Eq)
        } else if self.eat("<") {
            Some(CompareOp::Lt)
        } else if self.eat(">") {
            Some(CompareOp::Gt)
        } else {
            None
        };
        match op {
            Some(op) => {
                self.skip_ws();
                let lit = self.parse_comparand()?;
                Ok(Predicate::PathCompare(path, op, Literal::new(lit)))
            }
            None => Ok(Predicate::Exists(path)),
        }
    }

    /// A quoted literal or a bare number.
    fn parse_comparand(&mut self) -> Result<String, XPathError> {
        if self.rest().starts_with(['\'', '"']) {
            return self.parse_literal();
        }
        let start = self.pos;
        for c in self.rest().chars() {
            if c.is_ascii_digit() || matches!(c, '.' | '-' | '+') {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a quoted literal or number"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_step(&mut self, descendant: bool) -> Result<Step, XPathError> {
        // `..` abbreviates parent::node().
        if !descendant && self.eat("..") {
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::AnyNode,
                predicates: Vec::new(),
            });
        }
        let axis = if self.eat("@") || self.eat("attribute::") {
            if descendant {
                // `//@a` = descendant-or-self + attribute; we approximate
                // with attributes of all descendants, which matches the
                // common use. Represent as Descendant axis + attr test via
                // a dedicated marker is overkill; reject for clarity.
                return Err(self.err("'//@' is not supported; use '//*/@name'"));
            }
            Axis::Attribute
        } else if self.eat("self::") {
            Axis::SelfAxis
        } else if self.eat("descendant::") {
            Axis::Descendant
        } else if self.eat("parent::") {
            if descendant {
                return Err(self.err("'//parent::' is not supported"));
            }
            Axis::Parent
        } else if self.eat("child::") {
            if descendant {
                return Err(self.err("'//child::' is not supported"));
            }
            Axis::Child
        } else if descendant {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let test = self.parse_node_test()?;
        let mut predicates = Vec::new();
        while self.eat("[") {
            let p = self.parse_predicate()?;
            self.skip_ws();
            if !self.eat("]") {
                return Err(self.err("expected ']'"));
            }
            predicates.push(p);
        }
        Ok(Step {
            axis,
            test,
            predicates,
        })
    }

    fn parse_path(&mut self, allow_absolute: bool) -> Result<XPath, XPathError> {
        let mut steps = Vec::new();
        let absolute;
        let mut descendant;
        if allow_absolute && self.eat("//") {
            absolute = true;
            descendant = true;
        } else if allow_absolute && self.eat("/") {
            absolute = true;
            descendant = false;
        } else {
            absolute = false;
            descendant = false;
        }
        loop {
            steps.push(self.parse_step(descendant)?);
            if self.eat("//") {
                descendant = true;
            } else if self.eat("/") {
                descendant = false;
            } else {
                break;
            }
        }
        Ok(XPath { absolute, steps })
    }
}

/// Compiles an XPath expression.
///
/// ```
/// use axs_xml::{parse_fragment, ParseOptions};
/// use axs_xpath::{compile, evaluate};
///
/// let doc = parse_fragment(
///     r#"<orders><order id="1"><qty>5</qty></order></orders>"#,
///     ParseOptions::default(),
/// )?;
/// let path = compile("/orders/order[qty>4]/@id")?;
/// let hits = evaluate(&doc, &path);
/// assert_eq!(hits.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(input: &str) -> Result<XPath, XPathError> {
    let mut p = Parser {
        input: input.trim(),
        pos: 0,
    };
    if p.input.is_empty() {
        return Err(XPathError {
            at: 0,
            message: "empty expression",
        });
    }
    let path = p.parse_path(true)?;
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_absolute_path() {
        let p = compile("/orders/order").unwrap();
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[0].test, NodeTest::Name("orders".into()));
    }

    #[test]
    fn descendant_shorthand() {
        let p = compile("//item").unwrap();
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        let p = compile("/a//b").unwrap();
        assert_eq!(p.steps[1].axis, Axis::Descendant);
    }

    #[test]
    fn attribute_axis() {
        let p = compile("/a/@id").unwrap();
        assert_eq!(p.steps[1].axis, Axis::Attribute);
        assert_eq!(p.steps[1].test, NodeTest::Name("id".into()));
        let p2 = compile("/a/attribute::id").unwrap();
        assert_eq!(p2.steps[1], p.steps[1]);
    }

    #[test]
    fn node_tests() {
        assert_eq!(compile("/a/*").unwrap().steps[1].test, NodeTest::Wildcard);
        assert_eq!(compile("/a/text()").unwrap().steps[1].test, NodeTest::Text);
        assert_eq!(
            compile("/a/comment()").unwrap().steps[1].test,
            NodeTest::Comment
        );
        assert_eq!(
            compile("/a/node()").unwrap().steps[1].test,
            NodeTest::AnyNode
        );
    }

    #[test]
    fn positional_predicate() {
        let p = compile("/a/b[2]").unwrap();
        assert_eq!(p.steps[1].predicates, vec![Predicate::Position(2)]);
    }

    #[test]
    fn existence_predicate() {
        let p = compile("/a/b[c/d]").unwrap();
        match &p.steps[1].predicates[0] {
            Predicate::Exists(rel) => {
                assert!(!rel.absolute);
                assert_eq!(rel.steps.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparison_predicates() {
        let p = compile("/a/b[c='x']").unwrap();
        assert_eq!(
            p.steps[1].predicates[0],
            Predicate::PathCompare(
                XPath {
                    absolute: false,
                    steps: vec![Step {
                        axis: Axis::Child,
                        test: NodeTest::Name("c".into()),
                        predicates: vec![]
                    }]
                },
                CompareOp::Eq,
                Literal::new("x")
            )
        );
        let p = compile(r#"/a/b[@id="7"]"#).unwrap();
        match &p.steps[1].predicates[0] {
            Predicate::PathCompare(rel, CompareOp::Eq, v) => {
                assert_eq!(rel.steps[0].axis, Axis::Attribute);
                assert_eq!(v.text, "7");
                assert_eq!(v.number, Some(7.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inequality_and_numeric_comparisons() {
        for (text, op) in [
            ("/a[b!='x']", CompareOp::Ne),
            ("/a[b<5]", CompareOp::Lt),
            ("/a[b<=5]", CompareOp::Le),
            ("/a[b>5]", CompareOp::Gt),
            ("/a[b>=5]", CompareOp::Ge),
            ("/a[b = 5]", CompareOp::Eq),
        ] {
            let p = compile(text).unwrap();
            match &p.steps[0].predicates[0] {
                Predicate::PathCompare(_, got, _) => assert_eq!(got, &op, "{text}"),
                other => panic!("{text}: unexpected {other:?}"),
            }
        }
        // Bare numbers allowed, including decimals and signs.
        let p = compile("/a[b>=2.5]").unwrap();
        match &p.steps[0].predicates[0] {
            Predicate::PathCompare(_, _, lit) => assert_eq!(lit, &Literal::new("2.5")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(compile("/a[b>]").is_err());
    }

    #[test]
    fn chained_predicates() {
        let p = compile("/a/b[c][2]").unwrap();
        assert_eq!(p.steps[1].predicates.len(), 2);
    }

    #[test]
    fn self_axis() {
        let p = compile("/a/self::a").unwrap();
        assert_eq!(p.steps[1].axis, Axis::SelfAxis);
    }

    #[test]
    fn rejects_garbage() {
        assert!(compile("").is_err());
        assert!(compile("/a/b[0]").is_err());
        assert!(compile("/a/b[").is_err());
        assert!(compile("/a/b]").is_err());
        assert!(compile("//@x").is_err());
        assert!(compile("/a/b[c='unterminated]").is_err());
        assert!(compile("/a/ /b").is_err());
    }

    #[test]
    fn whitespace_tolerated_in_predicates() {
        assert!(compile("/a/b[ c = 'x' ]").is_ok());
        assert!(compile("  /a/b  ").is_ok());
    }
}
