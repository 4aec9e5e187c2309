//! A blocking client over the `axsd` wire protocol.

use crate::wire::{
    self, put_str, put_u32, put_u64, ErrorCode, Frame, OpCode, Reader, Status, WireError,
};
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What went wrong talking to the server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout at the socket).
    Io(std::io::Error),
    /// The server's bytes did not decode as protocol frames.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
    /// An earlier `Io`/`Wire` error poisoned this connection (the stream
    /// may be desynchronized mid-frame); reconnect to continue.
    Poisoned,
    /// The request's frame would be this many bytes, over
    /// [`wire::FRAME_MAX`]. Nothing was sent, so the connection stays
    /// usable.
    TooLarge(usize),
}

impl ClientError {
    /// True when the server rejected the request with `Busy` — the caller
    /// should back off and retry rather than treat it as a failure.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => write!(f, "server [{code}]: {message}"),
            ClientError::Poisoned => {
                write!(
                    f,
                    "connection poisoned by an earlier io/wire error; reconnect"
                )
            }
            ClientError::TooLarge(bytes) => write!(
                f,
                "request frame of {bytes} B exceeds the {} B frame limit; nothing was sent",
                wire::FRAME_MAX
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One XPath match: the node's stable id (when the match is a whole node)
/// and its serialized subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Stable node id, absent for synthesized values (attribute strings).
    pub id: Option<u64>,
    /// Serialized XML of the match.
    pub xml: String,
}

/// One named counter from the `stats` opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatEntry {
    /// Counter name, e.g. `store.inserts` or `server.busy_rejections`.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One catalog row from the `list_stores` opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Store name.
    pub name: String,
    /// Store id (what `use_store` binds and frames carry).
    pub id: u16,
    /// Whether the store is currently resident on the server (false means
    /// the next request opens it lazily).
    pub open: bool,
}

/// Decodes a wire lookup-path code (the server derives it from trace
/// events; mirrors `axs-obs`'s path constants).
fn path_name(code: u8) -> &'static str {
    match code {
        1 => "partial",
        2 => "full",
        3 => "scan",
        4 => "mixed",
        _ => "none",
    }
}

/// One per-stage event inside an [`ExplainReport`] — a span or point
/// event the traced request recorded (labels match the slow-log format:
/// `queue_wait`, `execute`, `lookup_partial`, `lookup_range_scan`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainEvent {
    /// Stable event label.
    pub label: String,
    /// Nesting depth under the request root.
    pub depth: u8,
    /// Start offset from the request beginning, microseconds.
    pub at_us: u64,
    /// Duration, microseconds (0 for point events).
    pub dur_us: u64,
    /// Event-specific payload (node id, token count, …).
    pub a: u64,
    /// Event-specific payload.
    pub b: u64,
}

/// The structured plan trace an `Explain` request returns: which of the
/// three paper lookup paths fired, the MVCC context, the per-stage
/// timings, and the adaptive-index decisions the request
/// triggered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainReport {
    /// Lookup-path verdict: `none`, `partial`, `full`, `scan` or `mixed`.
    pub path: String,
    /// True when a normal (non-explain) execution of this request would
    /// have read an MVCC snapshot instead; explain always runs against
    /// the live store, because only it exercises the three paper lookup
    /// paths.
    pub would_snapshot: bool,
    /// Current epoch at execution time.
    pub epoch: u64,
    /// Wall time of the explained execution, microseconds.
    pub total_us: u64,
    /// Result cardinality (1 for a node lookup, rows for a query).
    pub result_count: u64,
    /// Per-stage events in chronological order.
    pub events: Vec<ExplainEvent>,
    /// Adaptive-index decisions logged during this request, rendered
    /// (`#seq +at_us admit node=… reason=…`).
    pub decisions: Vec<String>,
}

impl ExplainReport {
    /// Renders the report as indented text (the REPL/CLI output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "path={} epoch={} total={}us results={}{}\n",
            self.path,
            self.epoch,
            self.total_us,
            self.result_count,
            if self.would_snapshot {
                " (normal execution would read an MVCC snapshot)"
            } else {
                ""
            },
        );
        out.push_str("stages:\n");
        for e in &self.events {
            let indent = "  ".repeat(e.depth as usize + 1);
            let _ = write!(
                out,
                "{indent}+{:<8} {:<18}",
                format!("{}us", e.at_us),
                e.label
            );
            if e.dur_us > 0 {
                let _ = write!(out, " dur={}us", e.dur_us);
            }
            if e.a != 0 || e.b != 0 {
                let _ = write!(out, " a={} b={}", e.a, e.b);
            }
            out.push('\n');
        }
        if self.decisions.is_empty() {
            out.push_str("decisions: (none)\n");
        } else {
            out.push_str("decisions:\n");
            for d in &self.decisions {
                let _ = writeln!(out, "  {d}");
            }
        }
        out
    }
}

/// A blocking connection to one `axsd` server.
///
/// One request is in flight at a time (the protocol is strictly
/// request/response per connection); open several clients for parallelism.
///
/// Any [`ClientError::Io`] or [`ClientError::Wire`] failure *poisons* the
/// connection: the stream may have stopped mid-frame (e.g. a read timeout
/// set via [`Client::set_timeout`] firing while a response is in flight),
/// after which the remaining bytes cannot be trusted to frame correctly.
/// Every subsequent request on a poisoned client fails fast with
/// [`ClientError::Poisoned`] instead of silently decoding garbage;
/// reconnect to continue. Typed server errors ([`ClientError::Server`])
/// and requests refused before sending ([`ClientError::TooLarge`]) leave
/// the stream framed and do not poison.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_req: u64,
    poisoned: bool,
    /// Store id stamped into every request frame; 0 (the default store)
    /// until [`Client::use_store`] rebinds it.
    store: u16,
    /// Name behind [`Client::store`], for display.
    store_name: String,
}

impl Client {
    /// Connects and performs the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream);
        wire::write_hello(&mut writer)?;
        wire::read_hello(&mut reader)?;
        Ok(Client {
            reader,
            writer,
            next_req: 1,
            poisoned: false,
            store: 0,
            store_name: "default".to_string(),
        })
    }

    /// Applies a socket read timeout to every subsequent response wait
    /// (`None` blocks indefinitely, the default).
    ///
    /// A timeout that fires mid-response surfaces as [`ClientError::Io`]
    /// and poisons the connection (see [`Client`]): the request's outcome
    /// is unknown and the stream may be desynchronized, so further
    /// requests require a fresh connection.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// True once an `Io`/`Wire` error has poisoned this connection; every
    /// further request fails with [`ClientError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Closes the connection now, so the server frees its slot before this
    /// client is dropped; every further request fails with
    /// [`ClientError::Poisoned`].
    pub fn close(&mut self) {
        self.poisoned = true;
        let _ = self.reader.get_ref().shutdown(std::net::Shutdown::Both);
    }

    fn roundtrip(&mut self, opcode: OpCode, payload: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        let frames = self.roundtrip_stream(opcode, payload)?;
        debug_assert_eq!(frames.len(), 1);
        // roundtrip_stream always returns at least the final Done frame.
        Ok(frames
            .into_iter()
            .last()
            .map(|f| f.payload)
            .unwrap_or_default())
    }

    /// Sends one request and collects the full response: zero or more
    /// `More` frames followed by the final `Done` frame (last element).
    /// Transport (`Io`) and framing (`Wire`) failures poison the
    /// connection; see [`Client`].
    fn roundtrip_stream(
        &mut self,
        opcode: OpCode,
        payload: Vec<u8>,
    ) -> Result<Vec<Frame>, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        let bytes = wire::FRAME_HEADER + payload.len();
        if bytes > wire::FRAME_MAX {
            return Err(ClientError::TooLarge(bytes));
        }
        let result = self.roundtrip_stream_inner(opcode, payload);
        if matches!(result, Err(ClientError::Io(_) | ClientError::Wire(_))) {
            self.poisoned = true;
        }
        result
    }

    fn roundtrip_stream_inner(
        &mut self,
        opcode: OpCode,
        payload: Vec<u8>,
    ) -> Result<Vec<Frame>, ClientError> {
        let req_id = self.next_req;
        self.next_req += 1;
        wire::write_frame(
            &mut self.writer,
            &Frame::request_on(req_id, opcode, self.store, payload),
        )?;
        let mut frames = Vec::new();
        loop {
            let frame = wire::read_frame(&mut self.reader)?;
            // Error frames apply to the connection's single in-flight
            // request even when the server could not echo its id (e.g. a
            // connection-limit rejection sent before any request).
            if Status::from_u8(frame.status) == Some(Status::Err) {
                let (code, message) = frame.decode_error()?;
                return Err(ClientError::Server { code, message });
            }
            if frame.req_id != req_id || frame.opcode != opcode as u8 {
                return Err(WireError {
                    message: format!(
                        "response mismatch: got req {} op {}, expected req {req_id} op {}",
                        frame.req_id, frame.opcode, opcode as u8
                    ),
                }
                .into());
            }
            match Status::from_u8(frame.status) {
                Some(Status::More) => frames.push(frame),
                Some(Status::Done) => {
                    frames.push(frame);
                    return Ok(frames);
                }
                _ => {
                    return Err(WireError {
                        message: format!("unknown status byte {}", frame.status),
                    }
                    .into())
                }
            }
        }
    }

    fn interval(payload: &[u8]) -> Result<(u64, u64), ClientError> {
        let mut r = Reader::new(payload);
        let start = r.u64()?;
        let end = r.u64()?;
        r.finish()?;
        Ok((start, end))
    }

    fn id_xml(id: u64, xml: &str) -> Vec<u8> {
        let mut p = Vec::with_capacity(8 + 4 + xml.len());
        put_u64(&mut p, id);
        put_str(&mut p, xml);
        p
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.roundtrip(OpCode::Ping, Vec::new()).map(|_| ())
    }

    /// Bulk-appends an XML document or fragment; returns the allocated
    /// node-id interval `(start, end)`.
    pub fn bulk_load(&mut self, xml: &str) -> Result<(u64, u64), ClientError> {
        let mut p = Vec::with_capacity(4 + xml.len());
        put_str(&mut p, xml);
        let out = self.roundtrip(OpCode::BulkLoad, p)?;
        Self::interval(&out)
    }

    /// Evaluates an XPath expression, collecting the streamed matches.
    pub fn query(&mut self, path: &str) -> Result<Vec<Match>, ClientError> {
        let mut p = Vec::with_capacity(4 + path.len());
        put_str(&mut p, path);
        self.rows(OpCode::Query, p, |r| {
            let has_id = r.u8()? != 0;
            let id = r.u64()?;
            let xml = r.str()?;
            Ok(Match {
                id: has_id.then_some(id),
                xml,
            })
        })
    }

    /// Evaluates a FLWOR query, collecting the streamed rows.
    pub fn flwor(&mut self, query: &str) -> Result<Vec<String>, ClientError> {
        let mut p = Vec::with_capacity(4 + query.len());
        put_str(&mut p, query);
        self.rows(OpCode::Flwor, p, |r| r.str())
    }

    /// Runs a `Query` or `Flwor` request and decodes its packed answer:
    /// every row of each `More` payload, read by `row`, then the `Done`
    /// frame's row count, which must match the rows decoded.
    fn rows<T>(
        &mut self,
        opcode: OpCode,
        payload: Vec<u8>,
        mut row: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
    ) -> Result<Vec<T>, ClientError> {
        let frames = self.roundtrip_stream(opcode, payload)?;
        let (done, packed) = frames.split_last().expect("a stream ends in Done");
        let mut out = Vec::new();
        for frame in packed {
            let mut r = Reader::new(&frame.payload);
            while !r.at_end() {
                out.push(row(&mut r)?);
            }
        }
        let mut r = Reader::new(&done.payload);
        let count = r.u64()?;
        r.finish()?;
        if count != out.len() as u64 {
            return Err(WireError {
                message: format!(
                    "{} answer: {} rows decoded, Done counts {count}",
                    opcode.name(),
                    out.len()
                ),
            }
            .into());
        }
        Ok(out)
    }

    /// Reads one node's serialized subtree.
    pub fn read_node(&mut self, id: u64) -> Result<String, ClientError> {
        let mut p = Vec::new();
        put_u64(&mut p, id);
        let out = self.roundtrip(OpCode::ReadNode, p)?;
        let mut r = Reader::new(&out);
        let xml = r.str()?;
        r.finish()?;
        Ok(xml)
    }

    /// A node's string value.
    pub fn string_value(&mut self, id: u64) -> Result<String, ClientError> {
        let mut p = Vec::new();
        put_u64(&mut p, id);
        let out = self.roundtrip(OpCode::Value, p)?;
        let mut r = Reader::new(&out);
        let v = r.str()?;
        r.finish()?;
        Ok(v)
    }

    /// Child ids and element names.
    pub fn children(&mut self, id: u64) -> Result<Vec<(u64, String)>, ClientError> {
        let mut p = Vec::new();
        put_u64(&mut p, id);
        let out = self.roundtrip(OpCode::Children, p)?;
        let mut r = Reader::new(&out);
        let n = r.u32()? as usize;
        let mut kids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u64()?;
            let name = r.str()?;
            kids.push((id, name));
        }
        r.finish()?;
        Ok(kids)
    }

    /// The node's parent id, `None` at top level.
    pub fn parent(&mut self, id: u64) -> Result<Option<u64>, ClientError> {
        let mut p = Vec::new();
        put_u64(&mut p, id);
        let out = self.roundtrip(OpCode::Parent, p)?;
        let mut r = Reader::new(&out);
        let has = r.u8()? != 0;
        let pid = r.u64()?;
        r.finish()?;
        Ok(has.then_some(pid))
    }

    /// `insertIntoFirst(id, fragment)`.
    pub fn insert_first(&mut self, id: u64, xml: &str) -> Result<(u64, u64), ClientError> {
        let out = self.roundtrip(OpCode::InsertFirst, Self::id_xml(id, xml))?;
        Self::interval(&out)
    }

    /// `insertIntoLast(id, fragment)`.
    pub fn insert_last(&mut self, id: u64, xml: &str) -> Result<(u64, u64), ClientError> {
        let out = self.roundtrip(OpCode::InsertLast, Self::id_xml(id, xml))?;
        Self::interval(&out)
    }

    /// `insertBefore(id, fragment)`.
    pub fn insert_before(&mut self, id: u64, xml: &str) -> Result<(u64, u64), ClientError> {
        let out = self.roundtrip(OpCode::InsertBefore, Self::id_xml(id, xml))?;
        Self::interval(&out)
    }

    /// `insertAfter(id, fragment)`.
    pub fn insert_after(&mut self, id: u64, xml: &str) -> Result<(u64, u64), ClientError> {
        let out = self.roundtrip(OpCode::InsertAfter, Self::id_xml(id, xml))?;
        Self::interval(&out)
    }

    /// `deleteNode(id)`.
    pub fn delete(&mut self, id: u64) -> Result<(), ClientError> {
        let mut p = Vec::new();
        put_u64(&mut p, id);
        self.roundtrip(OpCode::Delete, p).map(|_| ())
    }

    /// `replaceNode(id, fragment)`.
    pub fn replace(&mut self, id: u64, xml: &str) -> Result<(u64, u64), ClientError> {
        let out = self.roundtrip(OpCode::Replace, Self::id_xml(id, xml))?;
        Self::interval(&out)
    }

    /// Serializes the whole store, streaming chunks into one string.
    pub fn read_all(&mut self) -> Result<String, ClientError> {
        let frames = self.roundtrip_stream(OpCode::ReadAll, Vec::new())?;
        // Chunks are raw bytes and may split multi-byte characters, so the
        // UTF-8 validation happens once over the whole accumulation.
        let mut bytes = Vec::new();
        for frame in &frames[..frames.len() - 1] {
            bytes.extend_from_slice(&frame.payload);
        }
        String::from_utf8(bytes).map_err(|_| {
            WireError {
                message: "read_all stream not UTF-8".into(),
            }
            .into()
        })
    }

    /// Counter snapshot (store + pools + epochs + server), as named pairs
    /// in server-defined order.
    pub fn stats(&mut self) -> Result<Vec<StatEntry>, ClientError> {
        let out = self.roundtrip(OpCode::Stats, Vec::new())?;
        let mut r = Reader::new(&out);
        let n = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let value = r.u64()?;
            entries.push(StatEntry { name, value });
        }
        r.finish()?;
        Ok(entries)
    }

    /// Observability scrape: Prometheus-style exposition text plus the
    /// extended self-describing entries (derived percentiles, ratios and
    /// gauges the text also carries, in machine-friendly form).
    pub fn metrics(&mut self) -> Result<(String, Vec<StatEntry>), ClientError> {
        let out = self.roundtrip(OpCode::Metrics, Vec::new())?;
        let mut r = Reader::new(&out);
        let text = r.str()?;
        let n = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let value = r.u64()?;
            entries.push(StatEntry { name, value });
        }
        r.finish()?;
        Ok((text, entries))
    }

    /// Rendered storage report.
    pub fn report(&mut self) -> Result<String, ClientError> {
        let out = self.roundtrip(OpCode::Report, Vec::new())?;
        let mut r = Reader::new(&out);
        let text = r.str()?;
        r.finish()?;
        Ok(text)
    }

    /// Flushes the store through the WAL.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.roundtrip(OpCode::Flush, Vec::new()).map(|_| ())
    }

    /// Runs invariant + checksum verification; `Ok` carries the summary,
    /// corruption surfaces as a [`ClientError::Server`] with
    /// [`ErrorCode::Store`].
    pub fn verify(&mut self) -> Result<String, ClientError> {
        let out = self.roundtrip(OpCode::Verify, Vec::new())?;
        let mut r = Reader::new(&out);
        let text = r.str()?;
        r.finish()?;
        Ok(text)
    }

    /// Merges adjacent ranges up to `target_bytes`; returns
    /// `(merges, ranges_before, ranges_after)`.
    pub fn compact(&mut self, target_bytes: u64) -> Result<(u64, u64, u64), ClientError> {
        let mut p = Vec::new();
        put_u64(&mut p, target_bytes);
        let out = self.roundtrip(OpCode::Compact, p)?;
        let mut r = Reader::new(&out);
        let merges = r.u64()?;
        let before = r.u64()?;
        let after = r.u64()?;
        r.finish()?;
        Ok((merges, before, after))
    }

    /// Rendered Range Index dump.
    pub fn ranges(&mut self) -> Result<String, ClientError> {
        let out = self.roundtrip(OpCode::Ranges, Vec::new())?;
        let mut r = Reader::new(&out);
        let text = r.str()?;
        r.finish()?;
        Ok(text)
    }

    /// Holds a worker for `ms` milliseconds (servers reject this unless
    /// configured with `debug_sleep`; used to test backpressure).
    pub fn sleep(&mut self, ms: u32) -> Result<(), ClientError> {
        let mut p = Vec::new();
        put_u32(&mut p, ms);
        self.roundtrip(OpCode::Sleep, p).map(|_| ())
    }

    /// Asks the server to shut down gracefully (flushing through the WAL).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.roundtrip(OpCode::Shutdown, Vec::new()).map(|_| ())
    }

    // ---- introspection ----------------------------------------------------

    fn explain(&mut self, kind: u8, target: Vec<u8>) -> Result<ExplainReport, ClientError> {
        let mut p = Vec::with_capacity(1 + target.len());
        p.push(kind);
        p.extend_from_slice(&target);
        let out = self.roundtrip(OpCode::Explain, p)?;
        let mut r = Reader::new(&out);
        let path = path_name(r.u8()?).to_string();
        let would_snapshot = r.u8()? != 0;
        let epoch = r.u64()?;
        let total_us = r.u64()?;
        let result_count = r.u64()?;
        let n = r.u32()? as usize;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let label = r.str()?;
            let depth = r.u8()?;
            let at_us = r.u64()?;
            let dur_us = r.u64()?;
            let a = r.u64()?;
            let b = r.u64()?;
            events.push(ExplainEvent {
                label,
                depth,
                at_us,
                dur_us,
                a,
                b,
            });
        }
        let m = r.u32()? as usize;
        let mut decisions = Vec::with_capacity(m);
        for _ in 0..m {
            decisions.push(r.str()?);
        }
        r.finish()?;
        Ok(ExplainReport {
            path,
            would_snapshot,
            epoch,
            total_us,
            result_count,
            events,
            decisions,
        })
    }

    /// Explains a node lookup: executes `read_node(id)` against the live
    /// store and returns its plan trace instead of the subtree.
    pub fn explain_node(&mut self, id: u64) -> Result<ExplainReport, ClientError> {
        let mut t = Vec::new();
        put_u64(&mut t, id);
        self.explain(0, t)
    }

    /// Explains an XPath query: executes it and returns the plan trace
    /// instead of the matches.
    pub fn explain_query(&mut self, path: &str) -> Result<ExplainReport, ClientError> {
        let mut t = Vec::with_capacity(4 + path.len());
        put_str(&mut t, path);
        self.explain(1, t)
    }

    /// Explains a FLWOR query: executes it and returns the plan trace
    /// instead of the rows.
    pub fn explain_flwor(&mut self, query: &str) -> Result<ExplainReport, ClientError> {
        let mut t = Vec::with_capacity(4 + query.len());
        put_str(&mut t, query);
        self.explain(2, t)
    }

    /// Dumps the server's flight recorder (most recent `limit` requests,
    /// 0 = server default).
    pub fn dump_recorder(&mut self, limit: u64) -> Result<String, ClientError> {
        let mut p = Vec::new();
        put_u64(&mut p, limit);
        let out = self.roundtrip(OpCode::DumpRecorder, p)?;
        let mut r = Reader::new(&out);
        let text = r.str()?;
        r.finish()?;
        Ok(text)
    }

    // ---- catalog ----------------------------------------------------------

    /// The store this connection currently addresses, as `(name, id)`.
    pub fn current_store(&self) -> (&str, u16) {
        (&self.store_name, self.store)
    }

    /// Binds this connection to the named store: every subsequent request
    /// carries its id. Unknown names surface as [`ClientError::Server`]
    /// with [`ErrorCode::UnknownStore`] and leave the binding unchanged.
    pub fn use_store(&mut self, name: &str) -> Result<u16, ClientError> {
        let mut p = Vec::with_capacity(4 + name.len());
        put_str(&mut p, name);
        let out = self.roundtrip(OpCode::UseStore, p)?;
        let mut r = Reader::new(&out);
        let id = r.u16()?;
        r.finish()?;
        self.store = id;
        self.store_name = name.to_string();
        Ok(id)
    }

    /// Creates a named store in the server's catalog; returns its id.
    /// Does not rebind this connection — call [`Client::use_store`] for
    /// that.
    pub fn create_store(&mut self, name: &str) -> Result<u16, ClientError> {
        let mut p = Vec::with_capacity(4 + name.len());
        put_str(&mut p, name);
        let out = self.roundtrip(OpCode::CreateStore, p)?;
        let mut r = Reader::new(&out);
        let id = r.u16()?;
        r.finish()?;
        Ok(id)
    }

    /// Drops a named store (files, WAL, index state). If this connection
    /// was bound to it, the binding falls back to the default store.
    pub fn drop_store(&mut self, name: &str) -> Result<(), ClientError> {
        let mut p = Vec::with_capacity(4 + name.len());
        put_str(&mut p, name);
        self.roundtrip(OpCode::DropStore, p)?;
        if self.store_name == name {
            self.store = 0;
            self.store_name = "default".to_string();
        }
        Ok(())
    }

    /// Lists the server's catalog, sorted by name.
    pub fn list_stores(&mut self) -> Result<Vec<StoreInfo>, ClientError> {
        let out = self.roundtrip(OpCode::ListStores, Vec::new())?;
        let mut r = Reader::new(&out);
        let n = r.u32()? as usize;
        let mut stores = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let id = r.u16()?;
            let open = r.u8()? != 0;
            stores.push(StoreInfo { name, id, open });
        }
        r.finish()?;
        Ok(stores)
    }
}
