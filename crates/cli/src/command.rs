//! Command parsing for the shell.

use axs_xdm::NodeId;
use std::fmt;

/// One shell command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `load <path>` — parse an XML file and bulk-append it.
    Load(String),
    /// `loadxml <xml>` — parse inline XML and bulk-append it.
    LoadXml(String),
    /// `query <xpath>` — evaluate a path, print matches with ids.
    Query(String),
    /// `flwor <query>` — run a FLWOR query, print constructed rows.
    Flwor(String),
    /// `show <id>` — print a node's subtree.
    Show(NodeId),
    /// `value <id>` — print a node's string value.
    Value(NodeId),
    /// `children <id>` — list child ids with names.
    Children(NodeId),
    /// `parent <id>`.
    Parent(NodeId),
    /// `insert-first <id> <xml>`.
    InsertFirst(NodeId, String),
    /// `insert-last <id> <xml>`.
    InsertLast(NodeId, String),
    /// `insert-before <id> <xml>`.
    InsertBefore(NodeId, String),
    /// `insert-after <id> <xml>`.
    InsertAfter(NodeId, String),
    /// `delete <id>`.
    Delete(NodeId),
    /// `replace <id> <xml>`.
    Replace(NodeId, String),
    /// `print` — serialize the whole store.
    Print,
    /// `stats` — operation and lookup counters.
    Stats,
    /// `metrics` — observability scrape (Prometheus text).
    Metrics,
    /// `report` — storage report.
    Report,
    /// `ranges` — dump the Range Index (Tables 2/3 style).
    Ranges,
    /// `compact [bytes]` — merge adjacent ranges.
    Compact(Option<usize>),
    /// `save` — flush to disk.
    Save,
    /// `recover` — refused: recovery runs when the server opens the store
    /// (`axs recover <directory>` runs it offline).
    Recover,
    /// `verify` — check structural invariants and page checksums.
    Verify,
    /// `export <path>` — write the whole store to an XML file.
    Export(String),
    /// `use <store>` — bind the session to a named store.
    Use(String),
    /// `stores` — list the server's catalog.
    Stores,
    /// `create-store <name>` — create a named store.
    CreateStore(String),
    /// `drop-store <name>` — drop a named store and its data.
    DropStore(String),
    /// `explain <id>` — execute a node lookup on the live path and print
    /// its plan trace: lookup-path verdict, stages, decisions.
    ExplainNode(NodeId),
    /// `explain query <xpath>` — execute and explain an XPath query.
    ExplainQuery(String),
    /// `explain flwor <query>` / `explain for ...` — execute and explain
    /// a FLWOR query.
    ExplainFlwor(String),
    /// `recorder [n]` — dump the server's flight recorder, most recent
    /// `n` requests (0 = server default).
    Recorder(u64),
    /// `help`.
    Help,
    /// `quit` / `exit`.
    Quit,
}

/// Why a line did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCommandError {
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for ParseCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseCommandError {}

fn err(message: impl Into<String>) -> ParseCommandError {
    ParseCommandError {
        message: message.into(),
    }
}

fn parse_id(word: Option<&str>, usage: &str) -> Result<NodeId, ParseCommandError> {
    let word = word.ok_or_else(|| err(format!("usage: {usage}")))?;
    let word = word.strip_prefix('#').unwrap_or(word);
    word.parse::<u64>()
        .map(NodeId)
        .map_err(|_| err(format!("{word:?} is not a node id; usage: {usage}")))
}

fn id_and_rest<'a>(rest: &'a str, usage: &str) -> Result<(NodeId, &'a str), ParseCommandError> {
    let mut parts = rest.splitn(2, char::is_whitespace);
    let id = parse_id(parts.next().filter(|s| !s.is_empty()), usage)?;
    let xml = parts.next().map(str::trim).unwrap_or("");
    if xml.is_empty() {
        return Err(err(format!("missing XML fragment; usage: {usage}")));
    }
    Ok((id, xml))
}

/// Parses one input line. Empty/comment lines yield `None`.
pub fn parse_command(line: &str) -> Result<Option<Command>, ParseCommandError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let need_rest = |usage: &str| -> Result<String, ParseCommandError> {
        if rest.is_empty() {
            Err(err(format!("usage: {usage}")))
        } else {
            Ok(rest.to_string())
        }
    };
    let cmd = match verb {
        "load" => Command::Load(need_rest("load <path>")?),
        "loadxml" => Command::LoadXml(need_rest("loadxml <xml>")?),
        "query" | "q" => Command::Query(need_rest("query <xpath>")?),
        "flwor" | "for" => {
            if verb == "for" {
                // Allow typing the query directly: `for $x in ... return ...`.
                Command::Flwor(line.to_string())
            } else {
                Command::Flwor(need_rest("flwor for $x in <path> ... return ...")?)
            }
        }
        "show" => Command::Show(parse_id(Some(rest).filter(|s| !s.is_empty()), "show <id>")?),
        "value" => Command::Value(parse_id(
            Some(rest).filter(|s| !s.is_empty()),
            "value <id>",
        )?),
        "children" => Command::Children(parse_id(
            Some(rest).filter(|s| !s.is_empty()),
            "children <id>",
        )?),
        "parent" => Command::Parent(parse_id(
            Some(rest).filter(|s| !s.is_empty()),
            "parent <id>",
        )?),
        "insert-first" => {
            let (id, xml) = id_and_rest(rest, "insert-first <id> <xml>")?;
            Command::InsertFirst(id, xml.to_string())
        }
        "insert-last" => {
            let (id, xml) = id_and_rest(rest, "insert-last <id> <xml>")?;
            Command::InsertLast(id, xml.to_string())
        }
        "insert-before" => {
            let (id, xml) = id_and_rest(rest, "insert-before <id> <xml>")?;
            Command::InsertBefore(id, xml.to_string())
        }
        "insert-after" => {
            let (id, xml) = id_and_rest(rest, "insert-after <id> <xml>")?;
            Command::InsertAfter(id, xml.to_string())
        }
        "delete" | "rm" => Command::Delete(parse_id(
            Some(rest).filter(|s| !s.is_empty()),
            "delete <id>",
        )?),
        "replace" => {
            let (id, xml) = id_and_rest(rest, "replace <id> <xml>")?;
            Command::Replace(id, xml.to_string())
        }
        "print" | "p" => Command::Print,
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "report" => Command::Report,
        "ranges" => Command::Ranges,
        "compact" => {
            let target = if rest.is_empty() {
                None
            } else {
                Some(
                    rest.parse::<usize>()
                        .map_err(|_| err("usage: compact [bytes]"))?,
                )
            };
            Command::Compact(target)
        }
        "save" => Command::Save,
        "recover" => Command::Recover,
        "verify" => Command::Verify,
        "export" => Command::Export(need_rest("export <path>")?),
        "explain" => {
            let usage = "explain <id> | explain query <xpath> | explain flwor <query>";
            let (sub, tail) = match rest.split_once(char::is_whitespace) {
                Some((s, t)) => (s, t.trim()),
                None => (rest, ""),
            };
            match sub {
                "" => return Err(err(format!("usage: {usage}"))),
                "query" | "q" => {
                    if tail.is_empty() {
                        return Err(err(format!("usage: {usage}")));
                    }
                    Command::ExplainQuery(tail.to_string())
                }
                // `explain for $x in ...` — the query starts at `for`.
                "for" => Command::ExplainFlwor(rest.to_string()),
                "flwor" => {
                    if tail.is_empty() {
                        return Err(err(format!("usage: {usage}")));
                    }
                    Command::ExplainFlwor(tail.to_string())
                }
                _ => Command::ExplainNode(parse_id(Some(sub), usage)?),
            }
        }
        "recorder" => {
            let limit = if rest.is_empty() {
                0
            } else {
                rest.parse::<u64>()
                    .map_err(|_| err("usage: recorder [n]"))?
            };
            Command::Recorder(limit)
        }
        "use" => Command::Use(need_rest("use <store>")?),
        "stores" => Command::Stores,
        "create-store" => Command::CreateStore(need_rest("create-store <name>")?),
        "drop-store" => Command::DropStore(need_rest("drop-store <name>")?),
        "help" | "?" => Command::Help,
        "quit" | "exit" => Command::Quit,
        other => return Err(err(format!("unknown command {other:?}; try 'help'"))),
    };
    Ok(Some(cmd))
}

/// The help text printed by `help`.
pub const HELP: &str = "\
commands:
  load <path>                 parse an XML file (at most 32 MiB) and append it
  loadxml <xml>               parse inline XML and append it
  query <xpath>               evaluate a path (e.g. //order[@id='7'])
  for $x in <path> [where ..] [order by ..] return <tpl>   FLWOR query
  show <id>                   print a node's subtree
  value <id>                  print a node's string value
  children <id> | parent <id> navigate
  insert-first|insert-last|insert-before|insert-after <id> <xml>
  delete <id> | replace <id> <xml>
  print                       serialize the whole store
  stats | report | ranges     inspect counters / storage / Range Index
  metrics                     latency histograms + tracing series
  compact [bytes]             merge adjacent ranges
  save                        flush the server's stores (writes are durable on ack)
  verify                      check invariants and page checksums
  export <path>               write the store to an XML file
  explain <id>                execute a lookup, print which index path served it
  explain query <xpath> | explain for ...   explain a query
  recorder [n]                dump the server's flight recorder
  stores                      list the server's named stores
  use <store>                 switch this session to a named store
  create-store <name> | drop-store <name>   manage named stores
  help | quit";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_comments_are_skipped() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   ").unwrap(), None);
        assert_eq!(parse_command("# note").unwrap(), None);
    }

    #[test]
    fn simple_commands() {
        assert_eq!(parse_command("print").unwrap(), Some(Command::Print));
        assert_eq!(parse_command("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse_command("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("exit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("help").unwrap(), Some(Command::Help));
        assert_eq!(parse_command("?").unwrap(), Some(Command::Help));
    }

    #[test]
    fn id_commands_accept_hash_prefix() {
        assert_eq!(
            parse_command("show 42").unwrap(),
            Some(Command::Show(NodeId(42)))
        );
        assert_eq!(
            parse_command("delete #7").unwrap(),
            Some(Command::Delete(NodeId(7)))
        );
        assert_eq!(
            parse_command("parent 1").unwrap(),
            Some(Command::Parent(NodeId(1)))
        );
    }

    #[test]
    fn insert_commands_keep_xml_verbatim() {
        assert_eq!(
            parse_command(r#"insert-last 1 <order id="9"><qty>3</qty></order>"#).unwrap(),
            Some(Command::InsertLast(
                NodeId(1),
                r#"<order id="9"><qty>3</qty></order>"#.to_string()
            ))
        );
        assert_eq!(
            parse_command("insert-before #2 <x/>").unwrap(),
            Some(Command::InsertBefore(NodeId(2), "<x/>".to_string()))
        );
    }

    #[test]
    fn query_keeps_spaces() {
        assert_eq!(
            parse_command("query /a/b[c = 'x y']").unwrap(),
            Some(Command::Query("/a/b[c = 'x y']".to_string()))
        );
        assert_eq!(
            parse_command("q //item").unwrap(),
            Some(Command::Query("//item".to_string()))
        );
    }

    #[test]
    fn compact_with_and_without_target() {
        assert_eq!(
            parse_command("compact").unwrap(),
            Some(Command::Compact(None))
        );
        assert_eq!(
            parse_command("compact 4096").unwrap(),
            Some(Command::Compact(Some(4096)))
        );
        assert!(parse_command("compact lots").is_err());
    }

    #[test]
    fn flwor_command_forms() {
        assert_eq!(
            parse_command("for $x in /a return { $x }").unwrap(),
            Some(Command::Flwor("for $x in /a return { $x }".to_string()))
        );
        assert_eq!(
            parse_command("flwor for $x in /a return { $x }").unwrap(),
            Some(Command::Flwor("for $x in /a return { $x }".to_string()))
        );
    }

    #[test]
    fn recover_and_verify_commands() {
        assert_eq!(parse_command("recover").unwrap(), Some(Command::Recover));
        assert_eq!(parse_command("verify").unwrap(), Some(Command::Verify));
    }

    #[test]
    fn export_command() {
        assert_eq!(
            parse_command("export /tmp/out.xml").unwrap(),
            Some(Command::Export("/tmp/out.xml".to_string()))
        );
        assert!(parse_command("export").is_err());
    }

    #[test]
    fn catalog_commands() {
        assert_eq!(
            parse_command("use orders").unwrap(),
            Some(Command::Use("orders".to_string()))
        );
        assert_eq!(parse_command("stores").unwrap(), Some(Command::Stores));
        assert_eq!(
            parse_command("create-store archive").unwrap(),
            Some(Command::CreateStore("archive".to_string()))
        );
        assert_eq!(
            parse_command("drop-store archive").unwrap(),
            Some(Command::DropStore("archive".to_string()))
        );
        assert!(parse_command("use").is_err());
        assert!(parse_command("create-store").is_err());
    }

    #[test]
    fn explain_command_forms() {
        assert_eq!(
            parse_command("explain 7").unwrap(),
            Some(Command::ExplainNode(NodeId(7)))
        );
        assert_eq!(
            parse_command("explain #7").unwrap(),
            Some(Command::ExplainNode(NodeId(7)))
        );
        assert_eq!(
            parse_command("explain query //order[@id='7']").unwrap(),
            Some(Command::ExplainQuery("//order[@id='7']".to_string()))
        );
        assert_eq!(
            parse_command("explain for $x in /a return { $x }").unwrap(),
            Some(Command::ExplainFlwor(
                "for $x in /a return { $x }".to_string()
            ))
        );
        assert_eq!(
            parse_command("explain flwor for $x in /a return { $x }").unwrap(),
            Some(Command::ExplainFlwor(
                "for $x in /a return { $x }".to_string()
            ))
        );
        assert!(parse_command("explain").is_err());
        assert!(parse_command("explain query").is_err());
        assert!(parse_command("explain banana").is_err());
    }

    #[test]
    fn recorder_command_forms() {
        assert_eq!(
            parse_command("recorder").unwrap(),
            Some(Command::Recorder(0))
        );
        assert_eq!(
            parse_command("recorder 16").unwrap(),
            Some(Command::Recorder(16))
        );
        assert!(parse_command("recorder lots").is_err());
    }

    #[test]
    fn errors_explain_usage() {
        let e = parse_command("show").unwrap_err();
        assert!(e.message.contains("show <id>"));
        let e = parse_command("insert-last 5").unwrap_err();
        assert!(e.message.contains("insert-last"));
        let e = parse_command("show banana").unwrap_err();
        assert!(e.message.contains("banana"));
        let e = parse_command("frobnicate").unwrap_err();
        assert!(e.message.contains("frobnicate"));
    }
}
