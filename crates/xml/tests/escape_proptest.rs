//! Property test: the run-copying escapes equal a char-by-char reference.

use axs_xml::entities::{escape_attribute, escape_text};
use proptest::prelude::*;

/// The escapes as they were first written: one `match` per `char`.
fn reference(input: &str, attribute: bool) -> String {
    let mut out = String::new();
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' if !attribute => out.push_str("&gt;"),
            '"' if attribute => out.push_str("&quot;"),
            '\n' if attribute => out.push_str("&#10;"),
            '\t' if attribute => out.push_str("&#9;"),
            _ => out.push(c),
        }
    }
    out
}

/// Arbitrary Unicode, weighted toward every byte either escape rewrites
/// and toward multi-byte characters of each width and at each width's
/// edges, so escapes land at run starts, run ends and next to them.
fn unicode_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        3 => proptest::sample::select(vec!['&', '<', '>', '"', '\n', '\t', '\'', '\r', ';']),
        2 => proptest::sample::select(vec![
            '\u{80}', 'é', '\u{7ff}', '\u{800}', '€', '\u{ffff}', '\u{10000}', '😀',
            '\u{10ffff}',
        ]),
        2 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        2 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ];
    proptest::collection::vec(ch, 0..40).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn run_copying_escapes_equal_the_char_by_char_reference(input in unicode_text()) {
        let mut text = String::new();
        escape_text(&input, &mut text);
        prop_assert_eq!(&text, &reference(&input, false));

        let mut attr = String::new();
        escape_attribute(&input, &mut attr);
        prop_assert_eq!(&attr, &reference(&input, true));

        // A byte sink (a frame payload) receives the same bytes, appended
        // after what it already holds.
        let mut bytes = b"prefix".to_vec();
        escape_text(&input, &mut bytes);
        prop_assert_eq!(&bytes[6..], text.as_bytes());
    }
}
