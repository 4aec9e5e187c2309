//! Hand-rolled FLWOR parser.

use crate::ast::{AttrPart, Constructor, FlworQuery, OrderBy, VarPath, WhereClause};
use axs_xpath::{compile, CompareOp, Literal, XPath};
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlworError {
    /// Byte offset in the query text.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FlworError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flwor error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for FlworError {}

struct P<'a> {
    input: &'a str,
    pos: usize,
    /// Variables in scope, by slot: the `for` variable, then the `let`
    /// names in order.
    scope: Vec<String>,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> FlworError {
        FlworError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().chars().next().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(after) = self.rest().strip_prefix(kw) {
            if after.is_empty() || after.starts_with(char::is_whitespace) {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FlworError> {
        self.skip_ws();
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}")))
        }
    }

    fn parse_name(&mut self) -> Result<String, FlworError> {
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

    /// Reads text up to (not including) any of the stop characters,
    /// compiling it as an XPath. Parentheses inside the path (node tests
    /// like `text()`, predicates like `[last()]`) are balanced: a `)` only
    /// stops the scan when no `(` is open.
    fn parse_path_until(&mut self, stops: &[char]) -> Result<XPath, FlworError> {
        let start = self.pos;
        let mut open_parens = 0u32;
        for c in self.rest().chars() {
            match c {
                '(' => open_parens += 1,
                ')' if open_parens > 0 => open_parens -= 1,
                ')' if stops.contains(&')') => break,
                _ if stops.contains(&c) || c.is_whitespace() => break,
                _ => {}
            }
            self.pos += c.len_utf8();
        }
        let text = &self.input[start..self.pos];
        if text.is_empty() {
            return Err(self.err("expected a path"));
        }
        compile(text).map_err(|e| FlworError {
            at: start + e.at,
            message: e.message.to_string(),
        })
    }

    /// `$var` optionally followed by `/rel/path` or `//rel/path`. The
    /// variable must be in scope.
    fn parse_var_path(&mut self) -> Result<VarPath, FlworError> {
        self.skip_ws();
        if !self.eat("$") {
            return Err(self.err("expected a variable reference ($name)"));
        }
        let var = self.parse_name()?;
        let Some(slot) = self.scope.iter().position(|v| *v == var) else {
            return Err(self.err(format!(
                "unknown variable ${var}; in scope: {}",
                self.scope
                    .iter()
                    .map(|v| format!("${v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        };
        // `$x//b` keeps both slashes, so its first step is `descendant::b`
        // from `$x`; `$x/b` drops the one, so its first is `child::b`.
        let path = if self.rest().starts_with("//") || self.eat("/") {
            let mut path = self.parse_path_until(&['}', '=', '!', '<', '>', ']', ')'])?;
            path.absolute = false;
            Some(path)
        } else {
            None
        };
        Ok(VarPath { var, slot, path })
    }

    fn parse_where(&mut self) -> Result<WhereClause, FlworError> {
        let path = self.parse_var_path()?;
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
        let compare = match op {
            None => None,
            Some(op) => {
                self.skip_ws();
                let lit = self.parse_literal_or_number()?;
                Some((op, Literal::new(lit)))
            }
        };
        Ok(WhereClause { path, compare })
    }

    fn parse_literal_or_number(&mut self) -> Result<String, FlworError> {
        for quote in ['\'', '"'] {
            if self.eat(&quote.to_string()) {
                return match self.rest().find(quote) {
                    Some(i) => {
                        let lit = self.rest()[..i].to_string();
                        self.pos += i + 1;
                        Ok(lit)
                    }
                    None => Err(self.err("unterminated literal")),
                };
            }
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

    /// `{ $v }`, `{ $v/path }`, or `{ string($v/path) }`.
    fn parse_expression(&mut self) -> Result<Constructor, FlworError> {
        self.skip_ws();
        let stringy = self.eat("string(");
        self.skip_ws();
        let vp = self.parse_var_path()?;
        self.skip_ws();
        if stringy && !self.eat(")") {
            return Err(self.err("expected ')'"));
        }
        self.skip_ws();
        if !self.eat("}") {
            return Err(self.err("expected '}'"));
        }
        Ok(if stringy {
            Constructor::StringOf(vp)
        } else {
            Constructor::Splice(vp)
        })
    }

    fn parse_attr_value(&mut self) -> Result<Vec<AttrPart>, FlworError> {
        if !self.eat("\"") {
            return Err(self.err("expected '\"'"));
        }
        let mut parts = Vec::new();
        let mut literal = String::new();
        loop {
            let Some(c) = self.rest().chars().next() else {
                return Err(self.err("unterminated attribute value"));
            };
            match c {
                '"' => {
                    self.pos += 1;
                    break;
                }
                '{' => {
                    self.pos += 1;
                    if !literal.is_empty() {
                        parts.push(AttrPart::Literal(std::mem::take(&mut literal)));
                    }
                    self.skip_ws();
                    let vp = self.parse_var_path()?;
                    self.skip_ws();
                    if !self.eat("}") {
                        return Err(self.err("expected '}'"));
                    }
                    parts.push(AttrPart::Path(vp));
                }
                _ => {
                    literal.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        if !literal.is_empty() {
            parts.push(AttrPart::Literal(literal));
        }
        Ok(parts)
    }

    fn parse_constructor(&mut self) -> Result<Constructor, FlworError> {
        self.skip_ws();
        if self.eat("{") {
            return self.parse_expression();
        }
        if !self.eat("<") {
            return Err(self.err("expected '<' or '{' in return clause"));
        }
        let name = self.parse_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("/>") {
                return Ok(Constructor::Element {
                    name,
                    attributes,
                    children: Vec::new(),
                });
            }
            if self.eat(">") {
                break;
            }
            let attr_name = self.parse_name()?;
            self.skip_ws();
            if !self.eat("=") {
                return Err(self.err("expected '=' after attribute name"));
            }
            self.skip_ws();
            let value = self.parse_attr_value()?;
            attributes.push((attr_name, value));
        }
        // Children until the matching close tag.
        let mut children = Vec::new();
        loop {
            if self.eat("</") {
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(format!("mismatched </{close}>, open <{name}>")));
                }
                self.skip_ws();
                if !self.eat(">") {
                    return Err(self.err("expected '>'"));
                }
                return Ok(Constructor::Element {
                    name,
                    attributes,
                    children,
                });
            }
            if self.rest().starts_with('<') || self.rest().starts_with('{') {
                children.push(self.parse_constructor()?);
                continue;
            }
            // Literal text until the next markup.
            let start = self.pos;
            for c in self.rest().chars() {
                if c == '<' || c == '{' {
                    break;
                }
                self.pos += c.len_utf8();
            }
            if self.pos == start {
                return Err(self.err("unterminated element constructor"));
            }
            let text = &self.input[start..self.pos];
            if !text.trim().is_empty() {
                children.push(Constructor::Text(text.to_string()));
            }
        }
    }
}

/// Parses a FLWOR query.
pub fn parse_flwor(input: &str) -> Result<FlworQuery, FlworError> {
    let mut p = P {
        input: input.trim(),
        pos: 0,
        scope: Vec::new(),
    };
    p.expect_keyword("for")?;
    p.skip_ws();
    if !p.eat("$") {
        return Err(p.err("expected '$variable' after 'for'"));
    }
    let variable = p.parse_name()?;
    p.scope.push(variable.clone());
    p.expect_keyword("in")?;
    p.skip_ws();
    let source = p.parse_path_until(&[])?;
    if !source.absolute {
        return Err(p.err("the binding sequence must be an absolute path"));
    }

    // `let $y := $v/path`, repeatable.
    let mut lets = Vec::new();
    loop {
        p.skip_ws();
        if !p.eat_keyword("let") {
            break;
        }
        p.skip_ws();
        if !p.eat("$") {
            return Err(p.err("expected '$name' after 'let'"));
        }
        let name = p.parse_name()?;
        if p.scope.contains(&name) {
            return Err(p.err(format!("${name} is already bound")));
        }
        p.skip_ws();
        if !p.eat(":=") {
            return Err(p.err("expected ':=' in let clause"));
        }
        let value = p.parse_var_path()?;
        p.scope.push(name.clone());
        lets.push((name, value));
    }

    p.skip_ws();
    let where_clause = if p.eat_keyword("where") {
        Some(p.parse_where()?)
    } else {
        None
    };

    p.skip_ws();
    let order_by = if p.eat_keyword("order") {
        p.expect_keyword("by")?;
        let path = p.parse_var_path()?;
        let mut numeric = false;
        let mut descending = false;
        loop {
            p.skip_ws();
            if p.eat_keyword("numeric") {
                numeric = true;
            } else if p.eat_keyword("descending") {
                descending = true;
            } else if p.eat_keyword("ascending") {
                descending = false;
            } else {
                break;
            }
        }
        Some(OrderBy {
            path,
            numeric,
            descending,
        })
    } else {
        None
    };

    p.expect_keyword("return")?;
    let ret = p.parse_constructor()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after the return clause"));
    }
    Ok(FlworQuery {
        variable,
        source,
        lets,
        where_clause,
        order_by,
        ret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse_flwor("for $x in /orders/order return { $x }").unwrap();
        assert_eq!(q.variable, "x");
        assert!(q.source.absolute);
        assert!(q.lets.is_empty());
        assert_eq!(q.where_clause, None);
        assert_eq!(q.order_by, None);
        assert!(
            matches!(q.ret, Constructor::Splice(VarPath { ref var, slot: 0, path: None }) if var == "x")
        );
    }

    #[test]
    fn full_query_shape() {
        let q = parse_flwor(
            "for $o in /orders/order \
             where $o/qty > 5 \
             order by $o/price numeric descending \
             return <big id=\"{ $o/@id }\">{ $o/item }</big>",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        assert_eq!(w.compare.unwrap().0, CompareOp::Gt);
        let o = q.order_by.unwrap();
        assert!(o.numeric && o.descending);
        match q.ret {
            Constructor::Element {
                name,
                attributes,
                children,
            } => {
                assert_eq!(name, "big");
                assert_eq!(attributes.len(), 1);
                assert!(matches!(attributes[0].1[0], AttrPart::Path(_)));
                assert!(matches!(children[0], Constructor::Splice(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn let_clauses_bind_and_scope() {
        let q = parse_flwor(
            "for $o in /orders/order \
             let $lines := $o/line \
             let $firstsku := $lines/sku \
             where $lines/qty > 5 \
             return { $firstsku }",
        )
        .unwrap();
        assert_eq!(q.lets.len(), 2);
        assert_eq!(q.lets[0].0, "lines");
        assert_eq!(q.lets[0].1.var, "o");
        assert_eq!(q.lets[1].1.var, "lines");
        assert_eq!((q.lets[0].1.slot, q.lets[1].1.slot), (0, 1));
        let w = q.where_clause.unwrap();
        assert_eq!((w.path.var.as_str(), w.path.slot), ("lines", 1));
        assert!(matches!(
            q.ret,
            Constructor::Splice(VarPath { ref var, slot: 2, .. }) if var == "firstsku"
        ));
    }

    #[test]
    fn let_errors() {
        assert!(
            parse_flwor("for $x in /a let $x := $x/b return { $x }").is_err(),
            "rebind"
        );
        assert!(
            parse_flwor("for $x in /a let $y = $x/b return { $y }").is_err(),
            ":= required"
        );
        assert!(
            parse_flwor("for $x in /a let $y := $z/b return { $y }").is_err(),
            "unbound rhs"
        );
        assert!(
            parse_flwor("for $x in /a return { $y }").is_err(),
            "unbound in return"
        );
    }

    #[test]
    fn where_existence_only() {
        let q = parse_flwor("for $x in //a where $x/b return { $x }").unwrap();
        assert_eq!(q.where_clause.unwrap().compare, None);
    }

    #[test]
    fn string_of_expression() {
        let q = parse_flwor("for $x in //a return <n>{ string($x/name) }</n>").unwrap();
        match q.ret {
            Constructor::Element { children, .. } => {
                assert!(matches!(children[0], Constructor::StringOf(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_constructors_and_text() {
        let q =
            parse_flwor("for $x in //a return <out><label>fixed</label><copy>{ $x }</copy></out>")
                .unwrap();
        match q.ret {
            Constructor::Element { children, .. } => {
                assert_eq!(children.len(), 2);
                match &children[0] {
                    Constructor::Element { children, .. } => {
                        assert_eq!(children[0], Constructor::Text("fixed".to_string()));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn self_closing_constructor() {
        let q = parse_flwor("for $x in //a return <hit/>").unwrap();
        assert!(matches!(q.ret, Constructor::Element { ref children, .. } if children.is_empty()));
    }

    #[test]
    fn errors() {
        assert!(parse_flwor("for x in /a return { $x }").is_err());
        assert!(
            parse_flwor("for $x in a return { $x }").is_err(),
            "relative source"
        );
        assert!(parse_flwor("for $x in /a").is_err(), "missing return");
        assert!(
            parse_flwor("for $x in /a return <a></b>").is_err(),
            "mismatch"
        );
        assert!(parse_flwor("for $x in /a return { $x } extra").is_err());
        assert!(parse_flwor("for $x in /a where $x/q > return { $x }").is_err());
    }
}
