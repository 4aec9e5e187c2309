//! Session: the shell's one executor. Every command runs as a request
//! over one `axsd` connection — to a remote server for `axs connect`, or
//! to a private in-process server for the local shell ([`Session::local`]),
//! so both shells answer the same commands with the same text.

use crate::command::{Command, HELP};
use axs_client::{Client, ClientError};
use axs_server::{
    Catalog, CatalogConfig, CatalogError, Server, ServerConfig, ServerHandle, DEFAULT_STORE,
};
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::time::Duration;

/// Outcome of executing one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Text to print.
    Output(String),
    /// The session should terminate.
    Quit,
}

/// How long the local shell's server lets the shell sit idle, or one of
/// its requests run: a day, so neither a paused shell nor a long `load`
/// trips a server timeout.
const LOCAL_TIMEOUT: Duration = Duration::from_secs(24 * 60 * 60);

/// Opens a catalog root the way `axs serve` does: a directory is a
/// durable catalog (a pre-catalog directory with `data.pages` at top
/// level is adopted in place as the `default` store), and no directory
/// is an in-memory catalog.
pub fn open_catalog(dir: Option<&Path>, config: &ServerConfig) -> Result<Catalog, CatalogError> {
    let catalog_config = CatalogConfig {
        max_open: config.max_open_stores,
        commit_window: config.commit_window,
    };
    match dir {
        Some(d) => Catalog::open(d, catalog_config),
        None => Catalog::in_memory(catalog_config),
    }
}

/// An interactive session over one server connection.
pub struct Session {
    client: Client,
    /// The local shell's own server, which the session reconnects to when
    /// a transport failure poisons its connection; `None` for
    /// `axs connect`, whose user reconnects by hand.
    local: Option<SocketAddr>,
}

impl Session {
    /// Connects to an `axsd` server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Session, ClientError> {
        Ok(Session {
            client: Client::connect(addr)?,
            local: None,
        })
    }

    /// The local shell: opens `dir` as a catalog root (in memory without
    /// one), serves it on an ephemeral loopback port to this one session,
    /// and connects. The `default` store opens here, so a store that
    /// cannot open fails now rather than at the first command. The caller
    /// ends the server with `shutdown()` + `join()`, whose verdict is the
    /// final flush.
    pub fn local(dir: Option<&Path>) -> Result<(Session, ServerHandle), String> {
        Session::local_with(
            dir,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                // A second process gets `Busy`: the server is this shell's.
                max_connections: 1,
                idle_timeout: LOCAL_TIMEOUT,
                request_timeout: LOCAL_TIMEOUT,
                // Span dumps would land on the user's terminal.
                slow_request: None,
                ..ServerConfig::default()
            },
        )
    }

    /// [`Session::local`] with its server's config given, so a test can
    /// shorten the timeouts.
    fn local_with(
        dir: Option<&Path>,
        config: ServerConfig,
    ) -> Result<(Session, ServerHandle), String> {
        let catalog = open_catalog(dir, &config)
            .and_then(|c| c.slot(DEFAULT_STORE).map(|_| c))
            .map_err(|e| format!("cannot open store: {e}"))?;
        let server = Server::start_catalog(catalog, config)
            .map_err(|e| format!("cannot start the shell's server: {e}"))?;
        let client = Client::connect(server.local_addr())
            .map_err(|e| format!("cannot connect to the shell's server: {e}"))?;
        let session = Session {
            client,
            local: Some(server.local_addr()),
        };
        Ok((session, server))
    }

    /// Executes one command, producing printable output; a failure
    /// renders as an `error:` line and the session goes on. In the local
    /// shell a failure that poisoned the connection (the server closed it
    /// after its idle timeout, say) also reconnects, so the next command
    /// runs.
    pub fn execute(&mut self, cmd: Command) -> Outcome {
        match self.try_execute(cmd) {
            Ok(outcome) => outcome,
            Err(message) => {
                let mut out = format!("error: {message}");
                if let (true, Some(addr)) = (self.client.is_poisoned(), self.local) {
                    match self.reconnect(addr) {
                        Ok(()) => out.push_str("\nreconnected to the shell's server"),
                        Err(e) => {
                            let _ = write!(out, "\ncannot reconnect to the shell's server: {e}");
                        }
                    }
                }
                Outcome::Output(out)
            }
        }
    }

    /// Replaces the connection with a new one bound to the same store.
    /// The shell's server admits one connection, so the old one closes
    /// first; a `Busy` answer means the server has not yet seen that
    /// close, and is retried for up to a second.
    fn reconnect(&mut self, addr: SocketAddr) -> Result<(), ClientError> {
        let store = self.client.current_store().0.to_string();
        self.client.close();
        let mut attempts = 0;
        let mut client = loop {
            let mut client = Client::connect(addr)?;
            match client.ping() {
                Ok(()) => break client,
                Err(e) if e.is_busy() && attempts < 50 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        };
        client.use_store(&store)?;
        self.client = client;
        Ok(())
    }

    /// Executes one command, returning a failure as its message.
    pub fn try_execute(&mut self, cmd: Command) -> Result<Outcome, String> {
        let c = &mut self.client;
        let fail = |e: ClientError| e.to_string();
        let out = match cmd {
            Command::Quit => return Ok(Outcome::Quit),
            Command::Help => HELP.to_string(),
            Command::Load(path) => {
                let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                let (start, end) = c.bulk_load(&text).map_err(fail)?;
                format!("loaded nodes [#{start}, #{end}]")
            }
            Command::LoadXml(xml) => {
                let (start, end) = c.bulk_load(&xml).map_err(fail)?;
                format!("loaded nodes [#{start}, #{end}]")
            }
            Command::Query(path) => {
                let matches = c.query(&path).map_err(fail)?;
                let mut out = format!("{} match(es)\n", matches.len());
                for m in matches.iter().take(50) {
                    let id = m.id.map(|n| format!("#{n}")).unwrap_or_default();
                    let _ = writeln!(out, "  {id:<8} {}", m.xml);
                }
                if matches.len() > 50 {
                    let _ = writeln!(out, "  … {} more", matches.len() - 50);
                }
                out
            }
            Command::Flwor(text) => {
                let rows = c.flwor(&text).map_err(fail)?;
                let mut out = format!("{} row(s)\n", rows.len());
                for row in rows.iter().take(50) {
                    let _ = writeln!(out, "  {row}");
                }
                if rows.len() > 50 {
                    let _ = writeln!(out, "  … {} more", rows.len() - 50);
                }
                out
            }
            Command::Show(id) => c.read_node(id.get()).map_err(fail)?,
            Command::Value(id) => c.string_value(id.get()).map_err(fail)?,
            Command::Children(id) => {
                let kids = c.children(id.get()).map_err(fail)?;
                let mut out = String::new();
                for (kid, name) in kids {
                    let _ = writeln!(out, "  #{kid:<7} {name}");
                }
                if out.is_empty() {
                    out.push_str("(no children)");
                }
                out
            }
            Command::Parent(id) => match c.parent(id.get()).map_err(fail)? {
                Some(p) => format!("#{p}"),
                None => "(top level)".to_string(),
            },
            Command::InsertFirst(id, xml) => {
                let (start, end) = c.insert_first(id.get(), &xml).map_err(fail)?;
                format!("inserted [#{start}, #{end}]")
            }
            Command::InsertLast(id, xml) => {
                let (start, end) = c.insert_last(id.get(), &xml).map_err(fail)?;
                format!("inserted [#{start}, #{end}]")
            }
            Command::InsertBefore(id, xml) => {
                let (start, end) = c.insert_before(id.get(), &xml).map_err(fail)?;
                format!("inserted [#{start}, #{end}]")
            }
            Command::InsertAfter(id, xml) => {
                let (start, end) = c.insert_after(id.get(), &xml).map_err(fail)?;
                format!("inserted [#{start}, #{end}]")
            }
            Command::Delete(id) => {
                c.delete(id.get()).map_err(fail)?;
                format!("deleted {id}")
            }
            Command::Replace(id, xml) => {
                let (start, end) = c.replace(id.get(), &xml).map_err(fail)?;
                format!("replaced {id} with [#{start}, #{end}]")
            }
            Command::Print => {
                let text = c.read_all().map_err(fail)?;
                if text.is_empty() {
                    "(empty store)".to_string()
                } else {
                    text
                }
            }
            Command::Stats => {
                let entries = c.stats().map_err(fail)?;
                let mut out = String::new();
                for e in entries {
                    let _ = writeln!(out, "{:<32} {}", e.name, e.value);
                }
                out
            }
            Command::Metrics => {
                let (text, _entries) = c.metrics().map_err(fail)?;
                text
            }
            Command::ExplainNode(id) => c.explain_node(id.get()).map_err(fail)?.render(),
            Command::ExplainQuery(path) => c.explain_query(&path).map_err(fail)?.render(),
            Command::ExplainFlwor(query) => c.explain_flwor(&query).map_err(fail)?.render(),
            Command::Recorder(limit) => c.dump_recorder(limit).map_err(fail)?,
            Command::Report => c.report().map_err(fail)?,
            Command::Ranges => c.ranges().map_err(fail)?,
            Command::Compact(target) => {
                let (merges, before, after) =
                    c.compact(target.unwrap_or(8 * 1024) as u64).map_err(fail)?;
                format!("{merges} merges, {before} -> {after} ranges")
            }
            Command::Export(path) => {
                let text = c.read_all().map_err(fail)?;
                std::fs::write(&path, &text).map_err(|e| e.to_string())?;
                format!("exported {} bytes to {path}", text.len())
            }
            Command::Save => {
                c.flush().map_err(fail)?;
                "flushed on the server".to_string()
            }
            Command::Recover => {
                return Err(
                    "recovery runs when the server opens the store; with no server on the \
                     directory, run `axs recover <directory>`"
                        .to_string(),
                )
            }
            Command::Verify => c.verify().map_err(fail)?,
            Command::Use(name) => {
                let id = c.use_store(&name).map_err(fail)?;
                format!("using store {name:?} (id {id})")
            }
            Command::Stores => {
                let stores = c.list_stores().map_err(fail)?;
                let current = c.current_store().0.to_string();
                let mut out = String::new();
                for s in stores {
                    let marker = if s.name == current { "*" } else { " " };
                    let state = if s.open { "open" } else { "closed" };
                    let _ = writeln!(out, "{marker} {:<24} id {:<5} {state}", s.name, s.id);
                }
                out.push_str("(* = this session's store)");
                out
            }
            Command::CreateStore(name) => {
                let id = c.create_store(&name).map_err(fail)?;
                format!("created store {name:?} (id {id})")
            }
            Command::DropStore(name) => {
                c.drop_store(&name).map_err(fail)?;
                let (current, _) = c.current_store();
                format!("dropped store {name:?} (session now on {current:?})")
            }
        };
        Ok(Outcome::Output(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::parse_command;
    use std::path::PathBuf;

    /// What one command must print.
    enum Want {
        Is(&'static str),
        Starts(&'static str),
        Ends(&'static str),
        Has(&'static str),
    }
    use Want::*;

    fn run(session: &mut Session, line: &str) -> String {
        let cmd = parse_command(line).unwrap().unwrap();
        match session.execute(cmd) {
            Outcome::Output(s) => s,
            Outcome::Quit => "(quit)".to_string(),
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("axs-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn close(session: Session, server: ServerHandle) {
        drop(session);
        server.shutdown();
        server.join().unwrap();
    }

    /// Every shell command, through the local shell over a directory: the
    /// same session and server path `axs connect` uses. Each group after
    /// the first runs in a named store of its own so outputs are exact.
    /// `{dir}` in a line is the scratch directory.
    #[test]
    fn local_shell_runs_every_command_over_the_wire() {
        let dir = scratch_dir("shell");
        let root = dir.join("root");
        std::fs::write(dir.join("doc.xml"), "<?xml version=\"1.0\"?><r><x/></r>").unwrap();
        // A document one frame cannot carry.
        let filler = "x".repeat(axs_client::wire::FRAME_MAX);
        std::fs::write(dir.join("big.xml"), format!("<big>{filler}</big>")).unwrap();
        drop(filler);
        let (mut s, server) = Session::local(Some(&root)).unwrap();

        let mut script: Vec<(String, Want)> = [
            // load / query / update / print
            (
                r#"loadxml <orders><order id="1"/></orders>"#,
                Is("loaded nodes [#1, #3]"),
            ),
            ("query /orders/order", Starts("1 match(es)")),
            (
                r#"insert-last 1 <order id="2"><qty>5</qty></order>"#,
                Is("inserted [#4, #7]"),
            ),
            ("query //order", Starts("2 match(es)")),
            (
                "query /orders/order/@id",
                Is("2 match(es)\n  #3       id=\"1\"\n  #5       id=\"2\"\n"),
            ),
            (
                "print",
                Is(r#"<orders><order id="1"/><order id="2"><qty>5</qty></order></orders>"#),
            ),
            ("parent 2", Is("#1")),
            // inspection and introspection
            ("stats", Has("store.inserts")),
            ("stats", Has("server.requests")),
            ("metrics", Has("axs_server_requests")),
            ("report", Has("blocks")),
            ("ranges", Has("RangeId")),
            ("verify", Starts("ok:")),
            ("explain 1", Has("path=")),
            ("explain 1", Has("stages:")),
            ("explain query //order", Has("results=2")),
            ("recorder", Has("flight recorder dump")),
            ("save", Is("flushed on the server")),
            ("recover", Starts("error:")),
            ("help", Starts("commands:")),
            // navigation
            ("create-store nav", Starts("created store \"nav\"")),
            ("use nav", Starts("using store \"nav\"")),
            ("loadxml <a><b>x</b><c/></a>", Is("loaded nodes [#1, #4]")),
            ("report", Has("blocks 1")),
            ("value 2", Is("x")),
            ("parent 2", Is("#1")),
            ("parent 1", Is("(top level)")),
            ("children 1", Is("  #2       b\n  #4       c\n")),
            ("children 4", Is("(no children)")),
            ("show 2", Is("<b>x</b>")),
            // delete and replace
            ("create-store edit", Starts("created store")),
            ("use edit", Starts("using store")),
            ("loadxml <a><b/><c/></a>", Starts("loaded nodes")),
            ("delete 2", Is("deleted #2")),
            ("print", Is("<a><c/></a>")),
            ("replace 3 <c2/>", Starts("replaced #3 with")),
            ("print", Is("<a><c2/></a>")),
            // errors are reported, and the session goes on
            ("create-store errs", Starts("created store")),
            ("use errs", Starts("using store")),
            ("show 99", Starts("error:")),
            ("query ///", Starts("error:")),
            ("loadxml <broken>", Starts("error:")),
            ("use nosuch", Starts("error:")),
            ("load {dir}/missing.xml", Starts("error:")),
            // Refused before sending: the connection stays as it was.
            ("load {dir}/big.xml", Starts("error: request frame of")),
            ("load {dir}/big.xml", Ends("nothing was sent")),
            ("loadxml <ok/>", Starts("loaded nodes")),
            ("print", Is("<ok/>")),
            // FLWOR
            ("create-store fl", Starts("created store")),
            ("use fl", Starts("using store")),
            (
                r#"loadxml <os><o id="1"><q>5</q></o><o id="2"><q>9</q></o></os>"#,
                Starts("loaded nodes"),
            ),
            (
                r#"for $o in /os/o where $o/q > 6 return <hot id="{ $o/@id }"/>"#,
                Is("1 row(s)\n  <hot id=\"2\"/>\n"),
            ),
            // export, and load of a document with a prolog
            ("create-store ex", Starts("created store")),
            ("use ex", Starts("using store")),
            (
                r#"loadxml <a k="v"><b>x &amp; y</b></a>"#,
                Starts("loaded nodes"),
            ),
            ("export {dir}/out.xml", Starts("exported 29 bytes to")),
            ("create-store doc", Starts("created store")),
            ("use doc", Starts("using store")),
            ("load {dir}/doc.xml", Starts("loaded nodes")),
            ("print", Is("<r><x/></r>")),
            ("stores", Has("* doc")),
            // compact, then verify
            ("create-store pack", Starts("created store")),
            ("use pack", Starts("using store")),
            ("loadxml <root/>", Starts("loaded nodes")),
        ]
        .into_iter()
        .map(|(line, want)| (line.to_string(), want))
        .collect();
        script.extend((0..20).map(|i| (format!("insert-last 1 <e>{i}</e>"), Starts("inserted"))));
        script.push(("compact 8192".to_string(), Has(" ranges")));
        script.push(("verify".to_string(), Starts("ok:")));

        for (line, want) in &script {
            let line = line.replace("{dir}", &dir.display().to_string());
            let out = run(&mut s, &line);
            let ok = match want {
                Is(w) => out == *w,
                Starts(w) => out.starts_with(w),
                Ends(w) => out.ends_with(w),
                Has(w) => out.contains(w),
            };
            assert!(ok, "{line}\n  got: {out:?}");
        }
        assert_eq!(
            std::fs::read(dir.join("out.xml")).unwrap(),
            br#"<a k="v"><b>x &amp; y</b></a>"#
        );
        assert_eq!(s.execute(Command::Quit), Outcome::Quit);

        // A second lifetime over the same directory, the first having
        // shut down without `save`, sees every store's content.
        close(s, server);
        let (mut s, server) = Session::local(Some(&root)).unwrap();
        assert_eq!(
            run(&mut s, "print"),
            r#"<orders><order id="1"/><order id="2"><qty>5</qty></order></orders>"#
        );
        run(&mut s, "use nav");
        assert_eq!(run(&mut s, "print"), "<a><b>x</b><c/></a>");
        close(s, server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn local_shell_server_admits_only_the_shell() {
        let (mut s, server) = Session::local(None).unwrap();
        let mut second = Client::connect(server.local_addr()).unwrap();
        second.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let err = second.ping().unwrap_err();
        assert!(err.is_busy(), "expected Busy, got {err}");
        assert_eq!(run(&mut s, "print"), "(empty store)");
        run(&mut s, "loadxml <a><b/></a>");
        assert!(run(&mut s, "verify").starts_with("ok:"));
        close(s, server);
    }

    /// A connection the server closed (here after a short idle timeout)
    /// costs the local shell one failed command: the session reconnects,
    /// on the same store, and the next command runs.
    #[test]
    fn local_shell_reconnects_after_the_server_drops_it() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1,
            idle_timeout: Duration::from_millis(300),
            slow_request: None,
            ..ServerConfig::default()
        };
        let (mut s, server) = Session::local_with(None, config).unwrap();
        run(&mut s, "create-store side");
        run(&mut s, "use side");
        run(&mut s, "loadxml <a/>");
        std::thread::sleep(Duration::from_millis(800));
        let out = run(&mut s, "print");
        assert!(out.starts_with("error:"), "{out}");
        assert!(out.ends_with("reconnected to the shell's server"), "{out}");
        assert_eq!(run(&mut s, "print"), "<a/>");
        close(s, server);
    }
}
