//! The `axs` command-line tool.
//!
//! ```sh
//! axs                      # interactive shell, in-memory catalog
//! axs ./mystore            # interactive shell, directory-backed catalog
//! axs serve ./mystore      # run the axsd server in front of a store
//! axs connect HOST:PORT    # interactive shell against a remote server
//! axs verify ./mystore     # invariant + checksum check; exit 1 on corruption
//! axs recover ./mystore    # WAL crash recovery; exit 1 on failure
//! ```

use axs_cli::session::open_catalog;
use axs_cli::{parse_command, Outcome, Session};
use axs_core::StoreBuilder;
use axs_server::{Server, ServerConfig};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage:
  axs [directory]                 interactive shell: serves the directory (a catalog
                                  root, as for serve; in-memory without one) to this
                                  shell alone and runs the same commands as connect;
                                  one request, e.g. a load, carries at most 32 MiB
  axs serve [directory] [--addr HOST:PORT] [--workers N] [--queue N]
            [--max-connections N] [--commit-window-ms N] [--debug-sleep]
            [--slow-ms N] [--no-trace] [--max-open-stores N]
                                  run the axsd server (in-memory without a directory);
                                  the directory is a catalog root and may hold many
                                  named stores (create-store / use in the shell)
  axs connect HOST:PORT           interactive shell against a running server
  axs explain HOST:PORT <id>      execute a node lookup and print its plan trace:
  axs explain HOST:PORT query <xpath>       which lookup path served it, per-stage
  axs explain HOST:PORT flwor <query>       timings, adaptive-index decisions
  axs top HOST:PORT [--interval-ms N] [--once]
                                  live latency/throughput dashboard for a server
  axs verify <directory> [store] [--all]
                                  check invariants + checksums; with a store name or
                                  --all, walk the named store(s) of a catalog root;
                                  exit 1 if any store fails
  axs recover <directory> [store] [--all]
                                  run WAL crash recovery; exit 1 if any store fails";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("connect") => cmd_connect(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            0
        }
        _ => cmd_repl(args.first().cloned()),
    };
    std::process::exit(code);
}

// ---- interactive shells ---------------------------------------------------

/// The local shell: a private server over the directory, driven through
/// the same session as `axs connect`. Writes are durable on ack; the
/// shutdown flush decides the exit code.
fn cmd_repl(dir: Option<String>) -> i32 {
    let (mut session, server) = match Session::local(dir.as_deref().map(Path::new)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    match &dir {
        Some(d) => println!("adaptive XML store at {d} — 'help' for commands"),
        None => println!("in-memory adaptive XML store — 'help' for commands"),
    }
    let code = repl(|cmd| session.execute(cmd));
    drop(session);
    server.shutdown();
    match server.join() {
        Ok(()) => code,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn cmd_connect(args: &[String]) -> i32 {
    let Some(addr) = args.first() else {
        eprintln!("usage: axs connect HOST:PORT");
        return 2;
    };
    let mut session = match Session::connect(addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    println!("connected to axsd at {addr} — 'help' for commands");
    repl(move |cmd| session.execute(cmd))
}

/// The shared REPL loop: read lines, parse, execute, print. Output goes
/// through explicit writes so a closed pipe (e.g. `axs connect | head`)
/// ends the session instead of panicking.
fn repl(mut execute: impl FnMut(axs_cli::Command) -> Outcome) -> i32 {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut emit = move |text: &str| -> bool {
        stdout
            .write_all(text.as_bytes())
            .and_then(|()| stdout.flush())
            .is_ok()
    };
    loop {
        if !emit("axs> ") {
            return 0;
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return 0, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                return 1;
            }
        }
        let mut output = match parse_command(&line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => match execute(cmd) {
                Outcome::Output(text) => text,
                Outcome::Quit => return 0,
            },
            Err(e) => format!("error: {e}"),
        };
        // Multi-line answers (`query`, `children`, `stats`…) already end
        // in a newline; a second would leave a blank line before the prompt.
        if !output.ends_with('\n') {
            output.push('\n');
        }
        if !emit(&output) {
            return 0;
        }
    }
}

// ---- axs explain ----------------------------------------------------------

/// One-shot explain against a running server: same grammar as the REPL's
/// `explain` command, one report on stdout, exit 1 on any failure.
fn cmd_explain(args: &[String]) -> i32 {
    let usage = "usage: axs explain HOST:PORT <id> | query <xpath> | flwor <query>";
    let Some(addr) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let target = args[1..].join(" ");
    let cmd = match parse_command(&format!("explain {target}")) {
        Ok(Some(c)) => c,
        Ok(None) | Err(_) if target.is_empty() => {
            eprintln!("{usage}");
            return 2;
        }
        Ok(None) => unreachable!("non-empty explain line always parses or errors"),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut session = match Session::connect(addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    match session.try_execute(cmd) {
        Ok(Outcome::Output(report)) => {
            println!("{report}");
            0
        }
        Ok(Outcome::Quit) => unreachable!("explain lines parse to explain commands"),
        Err(e) => {
            eprintln!("explain failed: {e}");
            1
        }
    }
}

// ---- axs top --------------------------------------------------------------

/// Live dashboard: scrape `Metrics` every interval, render the deltas.
/// `--once` takes a single snapshot and exits (no screen clearing) — the
/// CI smoke run uses it to prove the dashboard renders against a live
/// server.
fn cmd_top(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => interval = Duration::from_millis(n.max(100)),
                _ => {
                    eprintln!("error: --interval-ms needs a number\n{USAGE}");
                    return 2;
                }
            },
            "--once" => once = true,
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}\n{USAGE}");
                return 2;
            }
            a if addr.is_none() => addr = Some(a.to_string()),
            extra => {
                eprintln!("error: unexpected argument {extra:?}\n{USAGE}");
                return 2;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("usage: axs top HOST:PORT [--interval-ms N] [--once]");
        return 2;
    };
    let mut client = match axs_client::Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let mut prev: Option<Vec<axs_client::StatEntry>> = None;
    loop {
        let (_text, entries) = match client.metrics() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("metrics fetch failed: {e}");
                return 1;
            }
        };
        let dashboard = axs_cli::top::render_dashboard(prev.as_deref(), &entries, interval, &addr);
        if once {
            print!("{dashboard}");
            let _ = std::io::stdout().flush();
            return 0;
        }
        // Clear screen + home, then the dashboard (plain ANSI, no deps).
        print!("\x1b[2J\x1b[H{dashboard}");
        let _ = std::io::stdout().flush();
        prev = Some(entries);
        std::thread::sleep(interval);
    }
}

// ---- axs serve ------------------------------------------------------------

/// Set by the SIGINT/SIGTERM handler; polled by the serve loop.
static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw libc `signal(2)` — the process links libc already and the
    // handler only flips an atomic, which is async-signal-safe.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn cmd_serve(args: &[String]) -> i32 {
    let mut dir: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--addr" => value_of("--addr").map(|v| config.addr = v),
            "--workers" => value_of("--workers").and_then(|v| {
                v.parse()
                    .map(|n| config.workers = n)
                    .map_err(|e| format!("--workers: {e}"))
            }),
            "--queue" => value_of("--queue").and_then(|v| {
                v.parse()
                    .map(|n| config.queue_depth = n)
                    .map_err(|e| format!("--queue: {e}"))
            }),
            "--max-connections" => value_of("--max-connections").and_then(|v| {
                v.parse()
                    .map(|n| config.max_connections = n)
                    .map_err(|e| format!("--max-connections: {e}"))
            }),
            "--commit-window-ms" => value_of("--commit-window-ms").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| config.commit_window = Duration::from_millis(n))
                    .map_err(|e| format!("--commit-window-ms: {e}"))
            }),
            "--debug-sleep" => {
                config.debug_sleep = true;
                Ok(())
            }
            "--slow-ms" => value_of("--slow-ms").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| {
                        // 0 disables the slow-request log entirely.
                        config.slow_request = (n > 0).then(|| Duration::from_millis(n));
                    })
                    .map_err(|e| format!("--slow-ms: {e}"))
            }),
            "--no-trace" => {
                config.trace = false;
                Ok(())
            }
            "--max-open-stores" => value_of("--max-open-stores").and_then(|v| {
                v.parse()
                    .map(|n| config.max_open_stores = n)
                    .map_err(|e| format!("--max-open-stores: {e}"))
            }),
            flag if flag.starts_with("--") => Err(format!("unknown flag {flag}")),
            path if dir.is_none() => {
                dir = Some(path.to_string());
                Ok(())
            }
            extra => Err(format!("unexpected argument {extra:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    }

    // `create-store` adds named stores under `<dir>/stores/`; without a
    // directory named stores work but nothing persists.
    let catalog = match open_catalog(dir.as_deref().map(Path::new), &config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open catalog: {e}");
            return 1;
        }
    };
    let store_count = catalog.list().len();

    install_signal_handlers();
    let handle = match Server::start_catalog(catalog, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return 1;
        }
    };
    // The smoke test and humans both read this line to learn the port.
    println!("axsd listening on {}", handle.local_addr());
    match &dir {
        Some(d) => println!("catalog: {d} ({store_count} store(s))"),
        None => println!("catalog: in-memory (contents are lost at shutdown)"),
    }
    let _ = std::io::stdout().flush();

    // Serve until a signal or a client's Shutdown opcode.
    while !SHUTDOWN_SIGNAL.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("axsd: shutting down (draining sessions, flushing WAL)");
    handle.shutdown();
    match handle.join() {
        Ok(()) => {
            eprintln!("axsd: clean shutdown");
            0
        }
        Err(e) => {
            eprintln!("axsd: shutdown flush failed: {e}");
            1
        }
    }
}

// ---- axs verify / axs recover --------------------------------------------

/// Parsed `axs verify` / `axs recover` arguments: the catalog root plus
/// which store(s) to walk.
struct MaintArgs {
    root: String,
    store: Option<String>,
    all: bool,
}

fn parse_maint_args(cmd: &str, args: &[String]) -> Result<MaintArgs, String> {
    let usage = format!("usage: axs {cmd} <directory> [store] [--all]");
    let mut root: Option<String> = None;
    let mut store: Option<String> = None;
    let mut all = false;
    for arg in args {
        match arg.as_str() {
            "--all" => all = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}\n{usage}")),
            a if root.is_none() => root = Some(a.to_string()),
            a if store.is_none() => store = Some(a.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}\n{usage}")),
        }
    }
    let root = root.ok_or(usage)?;
    Ok(MaintArgs { root, store, all })
}

/// Resolves which store directories a maintenance command walks.
///
/// A catalog root keeps named stores under `<root>/stores/<name>`; a
/// pre-catalog root (`data.pages` at top level) is itself the `default`
/// store. With neither a store name nor `--all`, a plain single-store
/// directory keeps its historical one-store behavior and a catalog root
/// walks everything (same as `--all`).
fn resolve_store_dirs(args: &MaintArgs) -> Result<Vec<(String, PathBuf)>, String> {
    let root = Path::new(&args.root);
    let legacy_default = root.join("data.pages").exists();
    let stores_dir = root.join("stores");

    let mut entries: Vec<(String, PathBuf)> = Vec::new();
    if legacy_default {
        entries.push(("default".to_string(), root.to_path_buf()));
    }
    if stores_dir.is_dir() {
        let mut named: Vec<(String, PathBuf)> = std::fs::read_dir(&stores_dir)
            .map_err(|e| format!("cannot list {}: {e}", stores_dir.display()))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let name = entry.file_name().into_string().ok()?;
                // Skip in-flight create/drop leftovers; boot sweeps them.
                if name.starts_with(".tmp.") || name.starts_with(".drop.") {
                    return None;
                }
                entry.path().is_dir().then(|| (name.clone(), entry.path()))
            })
            .collect();
        named.sort();
        entries.extend(named);
    }

    match (&args.store, args.all) {
        (Some(_), true) => Err("pass a store name or --all, not both".to_string()),
        (Some(name), false) => {
            let hit = entries.iter().find(|(n, _)| n == name).cloned();
            hit.map(|e| vec![e])
                .ok_or_else(|| format!("no store named {name:?} under {}", args.root))
        }
        (None, _) if entries.is_empty() => {
            // Neither a legacy store nor a catalog root: keep the old
            // behavior of trying the directory itself so the error comes
            // from the store layer ("cannot open …").
            Ok(vec![("default".to_string(), root.to_path_buf())])
        }
        (None, true) => Ok(entries),
        (None, false) => Ok(entries),
    }
}

fn verify_one(label: &str, dir: &Path) -> Result<String, String> {
    let store = StoreBuilder::new()
        .directory(dir)
        .open()
        .map_err(|e| format!("cannot open store: {e}"))?;
    store
        .check_invariants()
        .map_err(|e| format!("corruption detected: {e}"))?;
    // Walking every token forces every data page through the pool, so
    // checksum verification covers the whole file.
    let tokens = store
        .read_all()
        .map_err(|e| format!("corruption detected: {e}"))?;
    Ok(format!(
        "ok: {label}: invariants hold, {} tokens readable, {} range(s)",
        tokens.len(),
        store.range_count()
    ))
}

fn recover_one(label: &str, dir: &Path) -> Result<String, String> {
    let store = StoreBuilder::new()
        .directory(dir)
        .open()
        .map_err(|e| format!("recovery failed: {e}"))?;
    let s = store.stats();
    Ok(format!(
        "recovered {label}: {} replay pass(es), {} torn tail(s) truncated",
        s.recoveries, s.torn_tail_truncations
    ))
}

/// Shared driver for `verify` and `recover`: walk the resolved store
/// set, print per-store verdicts, exit non-zero if any store failed.
fn run_maintenance(
    cmd: &str,
    args: &[String],
    run: impl Fn(&str, &Path) -> Result<String, String>,
) -> i32 {
    let parsed = match parse_maint_args(cmd, args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let targets = match resolve_store_dirs(&parsed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{cmd} {}: {e}", parsed.root);
            return 1;
        }
    };
    let mut failures = 0usize;
    for (name, dir) in &targets {
        match run(name, dir) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{cmd} {}: store {name:?}: {e}", parsed.root);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "{cmd} {}: {failures} of {} store(s) failed",
            parsed.root,
            targets.len()
        );
        1
    } else {
        0
    }
}

fn cmd_verify(args: &[String]) -> i32 {
    run_maintenance("verify", args, verify_one)
}

fn cmd_recover(args: &[String]) -> i32 {
    run_maintenance("recover", args, recover_one)
}
