//! XPath AST.

use std::fmt;

/// Navigation axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `child::` (the default axis).
    Child,
    /// `descendant::` (the `//` shorthand resolves to this).
    Descendant,
    /// `attribute::` (`@` shorthand).
    Attribute,
    /// `self::`.
    SelfAxis,
    /// `parent::` (`..` shorthand resolves to `parent::node()`).
    Parent,
}

/// Node test of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// A name test (lexical comparison, prefix included).
    Name(String),
    /// `*` — any element (or any attribute on the attribute axis).
    Wildcard,
    /// `text()`.
    Text,
    /// `comment()`.
    Comment,
    /// `node()` — any node.
    AnyNode,
}

/// Comparison operator in a value predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// The lexical form.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }

    /// XPath 1.0 comparison semantics for one candidate value: `=`/`!=`
    /// compare as strings (falling back to numbers when both sides parse);
    /// the ordering operators compare as numbers and are false when either
    /// side is not numeric. The literal's number was parsed when it was
    /// compiled; the value is parsed only when the literal is numeric.
    pub fn test(self, value: &str, literal: &Literal) -> bool {
        let nums = || -> Option<(f64, f64)> {
            let b = literal.number?;
            Some((value.trim().parse().ok()?, b))
        };
        match self {
            CompareOp::Eq => value == literal.text || nums().is_some_and(|(a, b)| a == b),
            CompareOp::Ne => value != literal.text && nums().is_none_or(|(a, b)| a != b),
            CompareOp::Lt => nums().is_some_and(|(a, b)| a < b),
            CompareOp::Le => nums().is_some_and(|(a, b)| a <= b),
            CompareOp::Gt => nums().is_some_and(|(a, b)| a > b),
            CompareOp::Ge => nums().is_some_and(|(a, b)| a >= b),
        }
    }
}

/// The right-hand side of a value comparison, classified once when it is
/// compiled: its text and, when that text parses as a number (surrounding
/// whitespace ignored), the number.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    /// The literal text, as written between the quotes.
    pub text: String,
    /// The text as a number, when it is one.
    pub number: Option<f64>,
}

impl Literal {
    /// Classifies `text`.
    pub fn new(text: impl Into<String>) -> Literal {
        let text = text.into();
        let number = text.trim().parse().ok();
        Literal { text, number }
    }
}

/// A step predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `[n]` — 1-based position among the step's candidates per context.
    Position(usize),
    /// `[relpath]` — at least one match exists.
    Exists(XPath),
    /// `[relpath <op> 'literal']` — some match's string value compares true
    /// against the literal (`=`, `!=`, `<`, `<=`, `>`, `>=`; bare numbers
    /// may omit the quotes).
    PathCompare(XPath, CompareOp, Literal),
    /// `[last()]` — the last candidate per context.
    Last,
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates, applied left to right.
    pub predicates: Vec<Predicate>,
}

/// A compiled path expression.
#[derive(Debug, Clone, PartialEq)]
pub struct XPath {
    /// `true` for `/a/b` (anchored at each tree root of the fragment);
    /// `false` for relative paths used inside predicates.
    pub absolute: bool,
    /// The location steps.
    pub steps: Vec<Step>,
}

impl fmt::Display for XPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 || self.absolute {
                f.write_str("/")?;
            }
            match step.axis {
                Axis::Child => {}
                Axis::Descendant => f.write_str("descendant::")?,
                Axis::Attribute => f.write_str("@")?,
                Axis::SelfAxis => f.write_str("self::")?,
                Axis::Parent => f.write_str("parent::")?,
            }
            match &step.test {
                NodeTest::Name(n) => f.write_str(n)?,
                NodeTest::Wildcard => f.write_str("*")?,
                NodeTest::Text => f.write_str("text()")?,
                NodeTest::Comment => f.write_str("comment()")?,
                NodeTest::AnyNode => f.write_str("node()")?,
            }
            for p in &step.predicates {
                match p {
                    Predicate::Position(n) => write!(f, "[{n}]")?,
                    Predicate::Exists(path) => write!(f, "[{path}]")?,
                    Predicate::PathCompare(path, op, v) => {
                        write!(f, "[{path}{}'{}']", op.symbol(), v.text)?
                    }
                    Predicate::Last => f.write_str("[last()]")?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_simple_paths() {
        let path = XPath {
            absolute: true,
            steps: vec![
                Step {
                    axis: Axis::Child,
                    test: NodeTest::Name("orders".into()),
                    predicates: vec![],
                },
                Step {
                    axis: Axis::Descendant,
                    test: NodeTest::Wildcard,
                    predicates: vec![Predicate::Position(2)],
                },
            ],
        };
        assert_eq!(path.to_string(), "/orders/descendant::*[2]");
    }
}
