//! The `axs` shell driven through a pipe, as a script would drive it.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs the in-memory shell on `script` and returns its stdout.
fn run_shell(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_axs"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("axs starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "axs exited with {}", out.status);
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn piped_transcript_has_no_blank_line_before_a_prompt() {
    let transcript = run_shell(
        "loadxml <a><b>x</b><b>y</b></a>\n\
         query //b\n\
         flwor for $b in //b return <r>{$b}</r>\n\
         children 1\n\
         stats\n\
         print\n\
         quit\n",
    );
    for answer in [
        "2 match(es)",
        "<r><b>y</b></r>",
        "store.inserts",
        "<a><b>x</b>",
    ] {
        assert!(transcript.contains(answer), "{answer:?} in:\n{transcript}");
    }
    assert_eq!(transcript.matches("axs> ").count(), 7, "{transcript}");
    assert!(
        !transcript.contains("\n\naxs> "),
        "blank line before a prompt:\n{transcript}"
    );
    // Every answer still ends its line: no prompt follows text on the
    // same line.
    for line in transcript.split("axs> ").skip(1).filter(|l| !l.is_empty()) {
        assert!(line.ends_with('\n'), "unterminated answer {line:?}");
    }
}
