//! Session: executes parsed commands against a store and renders text
//! output. Fully decoupled from stdin/stdout so tests can drive it.

use crate::command::{Command, HELP};
use axs_core::{ReadView, StoreBuilder, StoreError, XmlStore};
use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Outcome of executing one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Text to print.
    Output(String),
    /// The session should terminate.
    Quit,
}

/// An interactive session over one store.
pub struct Session {
    store: XmlStore,
    dir: Option<PathBuf>,
}

impl Session {
    /// In-memory session.
    pub fn in_memory() -> Result<Session, StoreError> {
        Ok(Session {
            store: StoreBuilder::new().build()?,
            dir: None,
        })
    }

    /// Directory-backed session: opens an existing store or creates one.
    pub fn at_directory(dir: impl Into<PathBuf>) -> Result<Session, StoreError> {
        let dir = dir.into();
        let existing = dir.join("data.pages").exists();
        let builder = StoreBuilder::new().directory(&dir);
        let store = if existing {
            builder.open()?
        } else {
            builder.build()?
        };
        Ok(Session {
            store,
            dir: Some(dir),
        })
    }

    /// Access to the underlying store (tests).
    pub fn store_mut(&mut self) -> &mut XmlStore {
        &mut self.store
    }

    fn fragment(xml: &str) -> Result<Vec<axs_xdm::Token>, String> {
        parse_fragment(xml, ParseOptions::data_centric()).map_err(|e| e.to_string())
    }

    fn render(tokens: &[axs_xdm::Token]) -> String {
        serialize(tokens, &SerializeOptions::default())
            .unwrap_or_else(|_| format!("(unserializable fragment of {} tokens)", tokens.len()))
    }

    /// Executes one command, producing printable output.
    pub fn execute(&mut self, cmd: Command) -> Outcome {
        match self.try_execute(cmd) {
            Ok(outcome) => outcome,
            Err(message) => Outcome::Output(format!("error: {message}")),
        }
    }

    fn try_execute(&mut self, cmd: Command) -> Result<Outcome, String> {
        let out = match cmd {
            Command::Quit => return Ok(Outcome::Quit),
            Command::Help => HELP.to_string(),
            Command::Load(path) => {
                let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                self.load_xml_text(&text)?
            }
            Command::LoadXml(xml) => self.load_xml_text(&xml)?,
            Command::Query(path) => {
                let compiled = axs_xpath::compile(&path).map_err(|e| e.to_string())?;
                let matches =
                    axs_xpath::evaluate_store(&self.store, &compiled).map_err(|e| e.to_string())?;
                let mut out = format!("{} match(es)\n", matches.len());
                for (id, tokens) in matches.iter().take(50) {
                    let id = id.map(|n| n.to_string()).unwrap_or_default();
                    let _ = writeln!(out, "  {id:<8} {}", Self::render(tokens));
                }
                if matches.len() > 50 {
                    let _ = writeln!(out, "  … {} more", matches.len() - 50);
                }
                out
            }
            Command::Flwor(text) => {
                let q = axs_xquery::parse_flwor(&text).map_err(|e| e.to_string())?;
                let rows =
                    axs_xquery::evaluate_flwor(&self.store, &q).map_err(|e| e.to_string())?;
                let mut out = format!("{} row(s)\n", rows.len());
                for row in rows.iter().take(50) {
                    let _ = writeln!(out, "  {}", Self::render(row));
                }
                if rows.len() > 50 {
                    let _ = writeln!(out, "  … {} more", rows.len() - 50);
                }
                out
            }
            Command::Show(id) => {
                let tokens = self.store.read_node(id).map_err(|e| e.to_string())?;
                Self::render(&tokens)
            }
            Command::Value(id) => self.store.string_value(id).map_err(|e| e.to_string())?,
            Command::Children(id) => {
                let kids = self.store.children_of(id).map_err(|e| e.to_string())?;
                let mut out = String::new();
                for kid in kids {
                    let name = self
                        .store
                        .name_of(kid)
                        .map_err(|e| e.to_string())?
                        .map(|q| q.to_lexical())
                        .unwrap_or_else(|| format!("({:?})", self.store.kind_of(kid).ok()));
                    let _ = writeln!(out, "  {kid:<8} {name}");
                }
                if out.is_empty() {
                    out.push_str("(no children)");
                }
                out
            }
            Command::Parent(id) => match self.store.parent_of(id).map_err(|e| e.to_string())? {
                Some(p) => p.to_string(),
                None => "(top level)".to_string(),
            },
            Command::InsertFirst(id, xml) => {
                let iv = self
                    .store
                    .insert_into_first(id, Self::fragment(&xml)?)
                    .map_err(|e| e.to_string())?;
                format!("inserted {iv}")
            }
            Command::InsertLast(id, xml) => {
                let iv = self
                    .store
                    .insert_into_last(id, Self::fragment(&xml)?)
                    .map_err(|e| e.to_string())?;
                format!("inserted {iv}")
            }
            Command::InsertBefore(id, xml) => {
                let iv = self
                    .store
                    .insert_before(id, Self::fragment(&xml)?)
                    .map_err(|e| e.to_string())?;
                format!("inserted {iv}")
            }
            Command::InsertAfter(id, xml) => {
                let iv = self
                    .store
                    .insert_after(id, Self::fragment(&xml)?)
                    .map_err(|e| e.to_string())?;
                format!("inserted {iv}")
            }
            Command::Delete(id) => {
                self.store.delete_node(id).map_err(|e| e.to_string())?;
                format!("deleted {id}")
            }
            Command::Replace(id, xml) => {
                let iv = self
                    .store
                    .replace_node(id, Self::fragment(&xml)?)
                    .map_err(|e| e.to_string())?;
                format!("replaced {id} with {iv}")
            }
            Command::Print => {
                let tokens = self.store.read_all().map_err(|e| e.to_string())?;
                if tokens.is_empty() {
                    "(empty store)".to_string()
                } else {
                    Self::render(&tokens)
                }
            }
            Command::Stats => {
                let s = self.store.stats();
                let p = self.store.partial_stats();
                format!(
                    "ops: {} inserts, {} deletes, {} replaces, {} point reads, {} scans\n\
                     lookups: {} partial / {} full / {} range-scan ({} tokens scanned)\n\
                     partial index: {} entries, {:.2} hit ratio\n\
                     ranges: {}   splits: {}   moves: {}",
                    s.inserts,
                    s.deletes,
                    s.replaces,
                    s.node_reads,
                    s.full_scans,
                    s.lookups_partial,
                    s.lookups_full,
                    s.lookups_range_scan,
                    s.tokens_scanned,
                    self.store.partial_index().map_or(0, |p| p.len()),
                    p.hit_ratio(),
                    self.store.range_count(),
                    s.range_splits,
                    s.range_moves,
                )
            }
            Command::Metrics => {
                return Err(
                    "metrics needs a running server (axs connect); locally, try 'stats'"
                        .to_string(),
                )
            }
            Command::ExplainNode(_) | Command::ExplainQuery(_) | Command::ExplainFlwor(_) => {
                return Err(
                    "explain needs a running server (axs connect); locally, try 'stats'"
                        .to_string(),
                )
            }
            Command::Recorder(_) => {
                return Err("the flight recorder lives in the server (axs connect)".to_string())
            }
            Command::Report => {
                let r = self.store.storage_report().map_err(|e| e.to_string())?;
                format!(
                    "blocks {}   ranges {}   index entries {}   free pages {}\n\
                     nodes {}   tokens {}   token bytes {}   payload bytes {}\n\
                     fill {:.1}%   index pages {}",
                    r.blocks,
                    r.ranges,
                    r.range_index_entries,
                    r.free_pages,
                    r.live_nodes,
                    r.tokens,
                    r.token_bytes,
                    r.payload_bytes,
                    r.fill_factor() * 100.0,
                    r.index_pages,
                )
            }
            Command::Ranges => {
                let entries = self
                    .store
                    .range_index_entries()
                    .map_err(|e| e.to_string())?;
                let mut out = String::from("RangeId  BlockId  StartId  EndId\n");
                for e in entries {
                    let _ = writeln!(
                        out,
                        "{:<8} {:<8} {:<8} {}",
                        e.range_id,
                        e.block.0,
                        e.interval.start.get(),
                        e.interval.end.get()
                    );
                }
                out
            }
            Command::Compact(target) => {
                let r = self
                    .store
                    .compact(target.unwrap_or(8 * 1024))
                    .map_err(|e| e.to_string())?;
                format!(
                    "{} merges, {} -> {} ranges",
                    r.merges, r.ranges_before, r.ranges_after
                )
            }
            Command::Export(path) => {
                // Stream through the TokenWriter — the store is never
                // materialized as one big string.
                let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
                let mut writer = axs_xml::TokenWriter::new(
                    std::io::BufWriter::new(file),
                    SerializeOptions::default(),
                );
                let mut count = 0u64;
                for item in self.store.read() {
                    let (_, tok) = item.map_err(|e| e.to_string())?;
                    writer.write(&tok).map_err(|e| e.to_string())?;
                    count += 1;
                }
                use std::io::Write as _;
                let mut out = writer.finish().map_err(|e| e.to_string())?;
                out.flush().map_err(|e| e.to_string())?;
                format!("exported {count} tokens to {path}")
            }
            Command::Save => {
                self.store.flush().map_err(|e| e.to_string())?;
                match &self.dir {
                    Some(d) => format!("saved to {}", d.display()),
                    None => "flushed (in-memory store — nothing persisted)".to_string(),
                }
            }
            Command::Recover => {
                let dir = self
                    .dir
                    .clone()
                    .ok_or("recover needs a directory-backed store")?;
                // Drop the live store first so the reopen sees files, not a
                // stale in-memory view. Unflushed changes are discarded —
                // exactly what a crash would do.
                self.store = StoreBuilder::new().build().map_err(|e| e.to_string())?;
                self.store = StoreBuilder::new()
                    .directory(&dir)
                    .open()
                    .map_err(|e| e.to_string())?;
                let s = self.store.stats();
                format!(
                    "recovered from {}: {} replay pass(es), {} torn tail(s) truncated",
                    dir.display(),
                    s.recoveries,
                    s.torn_tail_truncations,
                )
            }
            Command::Verify => {
                self.store.check_invariants().map_err(|e| e.to_string())?;
                // Walking every token forces every data page through the
                // pool, so checksum verification covers the whole file.
                let tokens = self.store.read_all().map_err(|e| e.to_string())?;
                format!(
                    "ok: invariants hold, {} tokens readable, {} range(s)",
                    tokens.len(),
                    self.store.range_count(),
                )
            }
            Command::Use(_) | Command::Stores | Command::CreateStore(_) | Command::DropStore(_) => {
                return Err("store catalog commands need a running server (axs connect)".to_string())
            }
        };
        Ok(Outcome::Output(out))
    }

    fn load_xml_text(&mut self, text: &str) -> Result<String, String> {
        // Accept full documents (with prolog) or bare fragments.
        let tokens = if text.trim_start().starts_with("<?xml")
            || text.trim_start().starts_with("<!DOCTYPE")
        {
            let doc = axs_xml::parse_document(text, ParseOptions::data_centric())
                .map_err(|e| e.to_string())?;
            doc[1..doc.len() - 1].to_vec()
        } else {
            Self::fragment(text)?
        };
        let iv = self.store.bulk_insert(tokens).map_err(|e| e.to_string())?;
        Ok(format!("loaded nodes {iv}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::parse_command;

    fn run(session: &mut Session, line: &str) -> String {
        let cmd = parse_command(line).unwrap().unwrap();
        match session.execute(cmd) {
            Outcome::Output(s) => s,
            Outcome::Quit => "(quit)".to_string(),
        }
    }

    #[test]
    fn load_query_update_print_cycle() {
        let mut s = Session::in_memory().unwrap();
        let out = run(&mut s, r#"loadxml <orders><order id="1"/></orders>"#);
        assert!(out.contains("loaded nodes"), "{out}");

        let out = run(&mut s, "query /orders/order");
        assert!(out.starts_with("1 match(es)"), "{out}");

        let out = run(
            &mut s,
            r#"insert-last 1 <order id="2"><qty>5</qty></order>"#,
        );
        assert!(out.contains("inserted"), "{out}");

        let out = run(&mut s, "query //order");
        assert!(out.starts_with("2 match(es)"), "{out}");

        let out = run(&mut s, "query /orders/order/@id");
        assert!(
            out.contains(r#"id="1""#) && out.contains(r#"id="2""#),
            "{out}"
        );

        let out = run(&mut s, "print");
        assert!(out.contains(r#"<order id="2">"#), "{out}");
    }

    #[test]
    fn navigation_commands() {
        let mut s = Session::in_memory().unwrap();
        run(&mut s, "loadxml <a><b>x</b><c/></a>");
        assert_eq!(run(&mut s, "value 2"), "x");
        assert_eq!(run(&mut s, "parent 2"), "#1");
        assert_eq!(run(&mut s, "parent 1"), "(top level)");
        let kids = run(&mut s, "children 1");
        assert!(kids.contains("#2") && kids.contains("#4"), "{kids}");
        assert_eq!(run(&mut s, "show 2"), "<b>x</b>");
    }

    #[test]
    fn delete_and_replace() {
        let mut s = Session::in_memory().unwrap();
        run(&mut s, "loadxml <a><b/><c/></a>");
        assert!(run(&mut s, "delete 2").contains("deleted"));
        assert_eq!(run(&mut s, "print"), "<a><c/></a>");
        assert!(run(&mut s, "replace 3 <c2/>").contains("replaced"));
        assert_eq!(run(&mut s, "print"), "<a><c2/></a>");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::in_memory().unwrap();
        let out = run(&mut s, "show 99");
        assert!(out.starts_with("error:"), "{out}");
        let out = run(&mut s, "query ///");
        assert!(out.starts_with("error:"), "{out}");
        let out = run(&mut s, "loadxml <broken>");
        assert!(out.starts_with("error:"), "{out}");
        // Session still usable.
        run(&mut s, "loadxml <ok/>");
        assert_eq!(run(&mut s, "print"), "<ok/>");
    }

    #[test]
    fn stats_report_ranges_render() {
        let mut s = Session::in_memory().unwrap();
        run(&mut s, "loadxml <a><b/></a>");
        run(&mut s, "show 2");
        let stats = run(&mut s, "stats");
        assert!(stats.contains("point reads"), "{stats}");
        let report = run(&mut s, "report");
        assert!(report.contains("blocks 1"), "{report}");
        let ranges = run(&mut s, "ranges");
        assert!(ranges.contains("RangeId"), "{ranges}");
    }

    #[test]
    fn compact_command() {
        let mut s = Session::in_memory().unwrap();
        run(&mut s, "loadxml <root/>");
        for i in 0..20 {
            run(&mut s, &format!("insert-last 1 <e>{i}</e>"));
        }
        let out = run(&mut s, "compact 8192");
        assert!(out.contains("ranges"), "{out}");
        s.store_mut().check_invariants().unwrap();
    }

    #[test]
    fn flwor_queries_run() {
        let mut s = Session::in_memory().unwrap();
        run(
            &mut s,
            r#"loadxml <os><o id="1"><q>5</q></o><o id="2"><q>9</q></o></os>"#,
        );
        let out = run(
            &mut s,
            "for $o in /os/o where $o/q > 6 return <hot id=\"{ $o/@id }\"/>",
        );
        assert!(out.starts_with("1 row(s)"), "{out}");
        assert!(out.contains(r#"<hot id="2"/>"#), "{out}");
    }

    #[test]
    fn export_streams_to_file() {
        let dir = std::env::temp_dir().join(format!("axs-cli-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.xml");
        let mut s = Session::in_memory().unwrap();
        run(&mut s, r#"loadxml <a k="v"><b>x &amp; y</b></a>"#);
        let out = run(&mut s, &format!("export {}", path.display()));
        assert!(out.contains("exported"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, r#"<a k="v"><b>x &amp; y</b></a>"#);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quit_terminates() {
        let mut s = Session::in_memory().unwrap();
        assert_eq!(s.execute(Command::Quit), Outcome::Quit);
    }

    #[test]
    fn directory_sessions_persist() {
        let dir = std::env::temp_dir().join(format!("axs-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = Session::at_directory(&dir).unwrap();
            run(&mut s, "loadxml <persisted/>");
            let out = run(&mut s, "save");
            assert!(out.contains("saved"), "{out}");
        }
        {
            let mut s = Session::at_directory(&dir).unwrap();
            assert_eq!(run(&mut s, "print"), "<persisted/>");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_and_verify_commands() {
        let dir = std::env::temp_dir().join(format!("axs-cli-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::at_directory(&dir).unwrap();
        run(&mut s, "loadxml <kept/>");
        run(&mut s, "save");
        // Unflushed change is discarded by recover, like a crash.
        run(&mut s, "insert-last 1 <lost/>");
        let out = run(&mut s, "recover");
        assert!(out.contains("recovered"), "{out}");
        assert_eq!(run(&mut s, "print"), "<kept/>");
        let out = run(&mut s, "verify");
        assert!(out.starts_with("ok:"), "{out}");
        // In-memory sessions cannot recover but can verify.
        let mut mem = Session::in_memory().unwrap();
        assert!(run(&mut mem, "recover").starts_with("error:"));
        run(&mut mem, "loadxml <m/>");
        assert!(run(&mut mem, "verify").starts_with("ok:"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_accepts_documents_with_prolog() {
        let dir = std::env::temp_dir().join(format!("axs-cli-doc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("doc.xml");
        std::fs::write(&file, "<?xml version=\"1.0\"?><r><x/></r>").unwrap();
        let mut s = Session::in_memory().unwrap();
        let out = run(&mut s, &format!("load {}", file.display()));
        assert!(out.contains("loaded"), "{out}");
        assert_eq!(run(&mut s, "print"), "<r><x/></r>");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
