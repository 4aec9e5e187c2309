//! Predefined XML entities and numeric character references.

use crate::serializer::TextSink;
use std::fmt;

/// Error produced when an entity reference cannot be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityError {
    /// The offending reference text (without `&`/`;`).
    pub reference: String,
}

impl fmt::Display for EntityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown or invalid entity reference &{};",
            self.reference
        )
    }
}

impl std::error::Error for EntityError {}

/// Resolves the content of an entity reference (the text between `&` and
/// `;`) to a character. Handles the five predefined entities and decimal /
/// hexadecimal character references.
pub fn resolve(reference: &str) -> Result<char, EntityError> {
    let err = || EntityError {
        reference: reference.to_string(),
    };
    match reference {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            let code = if let Some(hex) = reference
                .strip_prefix("#x")
                .or_else(|| reference.strip_prefix("#X"))
            {
                u32::from_str_radix(hex, 16).map_err(|_| err())?
            } else if let Some(dec) = reference.strip_prefix('#') {
                dec.parse::<u32>().map_err(|_| err())?
            } else {
                return Err(err());
            };
            char::from_u32(code).ok_or_else(err)
        }
    }
}

/// Decodes all entity references in `input`. Bare `&` not forming a valid
/// reference is an error, matching XML well-formedness rules.
pub fn decode(input: &str) -> Result<String, EntityError> {
    if !input.contains('&') {
        return Ok(input.to_string());
    }
    let mut out = String::with_capacity(input.len());
    let mut rest = input;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or_else(|| EntityError {
            reference: after.chars().take(12).collect(),
        })?;
        out.push(resolve(&after[..semi])?);
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Escapes text content for serialization (`&`, `<`, `>`).
pub fn escape_text<S: TextSink + ?Sized>(input: &str, out: &mut S) {
    escape_runs(input, out, |b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        _ => None,
    });
}

/// Escapes an attribute value for serialization in double quotes.
pub fn escape_attribute<S: TextSink + ?Sized>(input: &str, out: &mut S) {
    escape_runs(input, out, |b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'"' => Some("&quot;"),
        b'\n' => Some("&#10;"),
        b'\t' => Some("&#9;"),
        _ => None,
    });
}

/// Copies `input` to `out` one unescaped run at a time, replacing each
/// byte `escape` maps. Every escaped character is ASCII, and no byte of a
/// multi-byte UTF-8 sequence is, so each run boundary is a char boundary.
#[inline]
fn escape_runs<S: TextSink + ?Sized>(
    input: &str,
    out: &mut S,
    escape: impl Fn(u8) -> Option<&'static str>,
) {
    let mut run = 0;
    for (i, &b) in input.as_bytes().iter().enumerate() {
        if let Some(entity) = escape(b) {
            out.push_str(&input[run..i]);
            out.push_str(entity);
            run = i + 1;
        }
    }
    out.push_str(&input[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_entities() {
        assert_eq!(resolve("lt").unwrap(), '<');
        assert_eq!(resolve("gt").unwrap(), '>');
        assert_eq!(resolve("amp").unwrap(), '&');
        assert_eq!(resolve("apos").unwrap(), '\'');
        assert_eq!(resolve("quot").unwrap(), '"');
    }

    #[test]
    fn numeric_references() {
        assert_eq!(resolve("#65").unwrap(), 'A');
        assert_eq!(resolve("#x41").unwrap(), 'A');
        assert_eq!(resolve("#X41").unwrap(), 'A');
        assert_eq!(resolve("#x2603").unwrap(), '\u{2603}');
    }

    #[test]
    fn invalid_references() {
        assert!(resolve("nbsp").is_err());
        assert!(resolve("#xD800").is_err()); // surrogate
        assert!(resolve("#").is_err());
        assert!(resolve("").is_err());
    }

    #[test]
    fn decode_mixed_content() {
        assert_eq!(
            decode("a &lt; b &amp;&amp; c &#62; d").unwrap(),
            "a < b && c > d"
        );
    }

    #[test]
    fn decode_no_entities_is_identity() {
        assert_eq!(decode("plain text").unwrap(), "plain text");
    }

    #[test]
    fn decode_bare_ampersand_fails() {
        assert!(decode("a & b").is_err());
        assert!(decode("trailing &").is_err());
    }

    #[test]
    fn escape_round_trip() {
        let original = "a<b & c>d \"quoted\"";
        let mut escaped = String::new();
        escape_text(original, &mut escaped);
        assert_eq!(decode(&escaped).unwrap(), original);

        let mut attr = String::new();
        escape_attribute(original, &mut attr);
        assert_eq!(decode(&attr).unwrap(), original);
    }

    #[test]
    fn escape_attribute_handles_whitespace_refs() {
        let mut out = String::new();
        escape_attribute("a\tb\nc", &mut out);
        assert_eq!(out, "a&#9;b&#10;c");
        assert_eq!(decode(&out).unwrap(), "a\tb\nc");
    }
}
