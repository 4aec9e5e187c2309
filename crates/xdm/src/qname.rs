//! Qualified names for elements and attributes.
//!
//! The store keeps names lexically (`prefix:local`). Namespace-URI binding is
//! a query-layer concern; the storage layer of the paper treats names as
//! opaque strings, and so do we. `xmlns` declarations round-trip as ordinary
//! attributes.

use std::fmt;

/// A qualified XML name: optional prefix plus local part.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    prefix: Option<Box<str>>,
    local: Box<str>,
}

impl QName {
    /// Creates a name with no prefix.
    pub fn local(local: impl Into<String>) -> Self {
        QName {
            prefix: None,
            local: local.into().into_boxed_str(),
        }
    }

    /// Creates a prefixed name.
    pub fn prefixed(prefix: impl Into<String>, local: impl Into<String>) -> Self {
        QName {
            prefix: Some(prefix.into().into_boxed_str()),
            local: local.into().into_boxed_str(),
        }
    }

    /// Parses a lexical QName (`local` or `prefix:local`).
    ///
    /// Returns `None` when the string is empty, has an empty prefix or local
    /// part, or contains more than one colon.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match QName::split_lexical(s)? {
            (Some(prefix), local) => QName::prefixed(prefix, local),
            (None, local) => QName::local(local),
        })
    }

    /// Splits a lexical QName into `(prefix, local)` without allocating,
    /// under the same rules as [`QName::parse`].
    pub fn split_lexical(s: &str) -> Option<(Option<&str>, &str)> {
        match s.split_once(':') {
            None if !s.is_empty() => Some((None, s)),
            Some((prefix, local))
                if !prefix.is_empty() && !local.is_empty() && !local.contains(':') =>
            {
                Some((Some(prefix), local))
            }
            _ => None,
        }
    }

    /// The prefix, if any.
    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    /// The local part of the name.
    pub fn local_part(&self) -> &str {
        &self.local
    }

    /// Length of the lexical form in bytes.
    pub fn lexical_len(&self) -> usize {
        match &self.prefix {
            Some(p) => p.len() + 1 + self.local.len(),
            None => self.local.len(),
        }
    }

    /// Writes the lexical form (`prefix:local` or `local`) into `out`.
    pub fn write_lexical(&self, out: &mut String) {
        if let Some(p) = &self.prefix {
            out.push_str(p);
            out.push(':');
        }
        out.push_str(&self.local);
    }

    /// Returns the lexical form as an owned string.
    pub fn to_lexical(&self) -> String {
        let mut s = String::with_capacity(self.lexical_len());
        self.write_lexical(&mut s);
        s
    }

    /// True when this name matches `local` with no prefix.
    pub fn is_local(&self, local: &str) -> bool {
        self.prefix.is_none() && &*self.local == local
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = &self.prefix {
            write!(f, "{p}:{}", self.local)
        } else {
            write!(f, "{}", self.local)
        }
    }
}

impl From<&str> for QName {
    /// Convenience conversion used pervasively in tests and examples.
    /// Falls back to treating the whole string as a local name if it is not a
    /// valid lexical QName.
    fn from(s: &str) -> Self {
        QName::parse(s).unwrap_or_else(|| QName::local(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_local() {
        let q = QName::parse("ticket").unwrap();
        assert_eq!(q.local_part(), "ticket");
        assert_eq!(q.prefix(), None);
        assert_eq!(q.to_lexical(), "ticket");
    }

    #[test]
    fn parse_prefixed() {
        let q = QName::parse("po:order").unwrap();
        assert_eq!(q.prefix(), Some("po"));
        assert_eq!(q.local_part(), "order");
        assert_eq!(q.to_lexical(), "po:order");
    }

    #[test]
    fn parse_rejects_empty() {
        assert!(QName::parse("").is_none());
    }

    #[test]
    fn parse_rejects_empty_parts() {
        assert!(QName::parse(":x").is_none());
        assert!(QName::parse("x:").is_none());
        assert!(QName::parse(":").is_none());
    }

    #[test]
    fn parse_rejects_double_colon() {
        assert!(QName::parse("a:b:c").is_none());
    }

    #[test]
    fn display_matches_lexical() {
        let q = QName::prefixed("ns", "item");
        assert_eq!(format!("{q}"), q.to_lexical());
    }

    #[test]
    fn lexical_len_counts_colon() {
        assert_eq!(QName::prefixed("ab", "cd").lexical_len(), 5);
        assert_eq!(QName::local("abcd").lexical_len(), 4);
    }

    #[test]
    fn ordering_is_stable() {
        let a = QName::local("a");
        let b = QName::local("b");
        assert!(a < b);
    }

    #[test]
    fn is_local_checks_prefix() {
        assert!(QName::local("x").is_local("x"));
        assert!(!QName::prefixed("p", "x").is_local("x"));
    }
}
