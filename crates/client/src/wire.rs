//! The `axsd` wire protocol: handshake, frame codec, opcodes, error codes
//! and payload encoding helpers. Everything is little-endian; strings are
//! `u32` length + UTF-8 bytes. The server crate uses these definitions
//! verbatim, so the two sides cannot drift apart.
//!
//! ## Frame layout
//!
//! ```text
//! u32  length of the rest of the frame (request id .. payload)
//! u64  request id (echoed verbatim in every response frame)
//! u8   opcode (see OpCode; responses echo the request's opcode)
//! u8   status (requests: 0; responses: 0 = Done, 1 = More, 2 = Err)
//! u16  store id (requests: which store to address, 0 = default;
//!      responses echo the request's; catalog opcodes ignore it)
//! [u8] payload (opcode-specific)
//! ```
//!
//! A connection starts with an 8-byte hello in each direction
//! (`"AXSD"` + protocol version + three reserved zero bytes); version
//! mismatches fail fast instead of mis-decoding frames.
//!
//! ## Streamed answers
//!
//! `Query`, `Flwor` and `ReadAll` answer with zero or more `More` frames
//! closed by one `Done` frame. A `Query` or `Flwor` `More` payload packs
//! whole rows back to back; the server cuts it at the first row end at or
//! past 64 KiB, so no row is split across frames and a many-row answer
//! costs a frame per 64 KiB, not a frame per row. A row that alone
//! exceeds [`FRAME_MAX`] is refused with [`ErrorCode::TooLarge`] before any
//! frame goes out. `ReadAll` payloads are raw UTF-8 cut every 64 KiB.

use std::fmt;
use std::io::{self, Read, Write};

/// First four bytes of the hello exchanged by both sides.
pub const MAGIC: [u8; 4] = *b"AXSD";

/// Protocol version carried in the hello. Version 2 added the `u16`
/// store id to the frame header and the catalog opcodes (25–28); version 3
/// packs `Query` and `Flwor` rows several to a `More` frame.
pub const VERSION: u8 = 3;

/// Hard cap on one frame's body, guarding both sides against allocating
/// for garbage or hostile length prefixes.
pub const FRAME_MAX: usize = 32 << 20;

/// Fixed part of a frame after the length prefix: request id + opcode +
/// status + store id.
pub const FRAME_HEADER: usize = 8 + 1 + 1 + 2;

/// Request opcodes. Responses echo the request's opcode byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Liveness probe; empty payload both ways.
    Ping = 1,
    /// Bulk-append an XML document or fragment: `str xml` → `u64 start,
    /// u64 end` (allocated node-id interval).
    BulkLoad = 2,
    /// Evaluate an XPath: `str path` → `More` frames, each a packed
    /// sequence of `u8 has_id, u64 id, str xml` rows, closed by
    /// `u64 count` (`Done`), the number of rows.
    Query = 3,
    /// Evaluate a FLWOR query: `str query` → `More` frames, each a packed
    /// sequence of `str xml` rows, closed by `u64 count` (`Done`).
    Flwor = 4,
    /// Read one node's subtree: `u64 id` → `str xml`.
    ReadNode = 5,
    /// A node's string value: `u64 id` → `str value`.
    Value = 6,
    /// Child ids and names: `u64 id` → `u32 n, n × (u64 id, str name)`.
    Children = 7,
    /// Parent id: `u64 id` → `u8 has, u64 id`.
    Parent = 8,
    /// `insertIntoFirst`: `u64 id, str xml` → `u64 start, u64 end`.
    InsertFirst = 9,
    /// `insertIntoLast`: `u64 id, str xml` → `u64 start, u64 end`.
    InsertLast = 10,
    /// `insertBefore`: `u64 id, str xml` → `u64 start, u64 end`.
    InsertBefore = 11,
    /// `insertAfter`: `u64 id, str xml` → `u64 start, u64 end`.
    InsertAfter = 12,
    /// `deleteNode`: `u64 id` → empty.
    Delete = 13,
    /// `replaceNode`: `u64 id, str xml` → `u64 start, u64 end`.
    Replace = 14,
    /// Serialize the whole store: empty → stream of raw UTF-8 chunks
    /// (`More`), closed by `u64 token count` (`Done`).
    ReadAll = 15,
    /// Counter snapshot: empty → `u32 n, n × (str key, u64 value)` —
    /// self-describing so new counters never break old clients.
    Stats = 16,
    /// Storage report: empty → `str text`.
    Report = 17,
    /// Flush through the WAL: empty → empty.
    Flush = 18,
    /// Invariant + checksum verification: empty → `str summary`, or an
    /// `Err` frame with [`ErrorCode::Store`] when corruption is detected.
    Verify = 19,
    /// Merge adjacent ranges: `u64 target bytes` → `u64 merges,
    /// u64 ranges_before, u64 ranges_after`.
    Compact = 20,
    /// Dump the Range Index: empty → `str text`.
    Ranges = 21,
    /// Hold a worker for `u32 ms` (test aid; rejected unless the server
    /// was configured with `debug_sleep`).
    Sleep = 22,
    /// Ask the server to shut down gracefully (flushes through the WAL):
    /// empty → empty, then the listener closes.
    Shutdown = 23,
    /// Observability scrape: empty → `str prometheus_text, u32 n,
    /// n × (str key, u64 value)` — Prometheus-style exposition text plus
    /// a self-describing extended counter/percentile payload (same shape
    /// as [`OpCode::Stats`], so the entry set can grow freely).
    Metrics = 24,
    /// Create a named store in the catalog: `str name` → `u16 id`.
    /// Ignores the header's store id.
    CreateStore = 25,
    /// Drop a named store (its files, WAL, and index state): `str name` →
    /// empty. The `default` store cannot be dropped. Ignores the header's
    /// store id.
    DropStore = 26,
    /// List the catalog: empty → `u32 n, n × (str name, u16 id,
    /// u8 open)`. Ignores the header's store id.
    ListStores = 27,
    /// Resolve a store name for this connection: `str name` → `u16 id`.
    /// The client stamps the returned id into subsequent frame headers.
    UseStore = 28,
    /// Execute a request against the live store and return its plan
    /// trace instead of its result. Request: `u8 kind` then the target —
    /// kind 0 = node lookup (`u64 id`), 1 = XPath (`str path`),
    /// 2 = FLWOR (`str query`). Response: `u8 path_code,
    /// u8 would_snapshot, u64 epoch, u64 total_us, u64 result_count,
    /// u32 n × (str label, u8 depth, u64 at_us, u64 dur_us, u64 a, u64 b),
    /// u32 m × str decision` — the lookup-path verdict, MVCC context,
    /// per-stage events, and the adaptive decisions the request triggered.
    Explain = 29,
    /// Dump the flight recorder: `u64 limit` (0 = default) → `str dump`.
    /// Ignores the header's store id.
    DumpRecorder = 30,
}

impl OpCode {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<OpCode> {
        use OpCode::*;
        Some(match b {
            1 => Ping,
            2 => BulkLoad,
            3 => Query,
            4 => Flwor,
            5 => ReadNode,
            6 => Value,
            7 => Children,
            8 => Parent,
            9 => InsertFirst,
            10 => InsertLast,
            11 => InsertBefore,
            12 => InsertAfter,
            13 => Delete,
            14 => Replace,
            15 => ReadAll,
            16 => Stats,
            17 => Report,
            18 => Flush,
            19 => Verify,
            20 => Compact,
            21 => Ranges,
            22 => Sleep,
            23 => Shutdown,
            24 => Metrics,
            25 => CreateStore,
            26 => DropStore,
            27 => ListStores,
            28 => UseStore,
            29 => Explain,
            30 => DumpRecorder,
            _ => return None,
        })
    }

    /// The opcode's name, as in log lines (`"InsertLast"`).
    pub fn name(self) -> &'static str {
        use OpCode::*;
        match self {
            Ping => "Ping",
            BulkLoad => "BulkLoad",
            Query => "Query",
            Flwor => "Flwor",
            ReadNode => "ReadNode",
            Value => "Value",
            Children => "Children",
            Parent => "Parent",
            InsertFirst => "InsertFirst",
            InsertLast => "InsertLast",
            InsertBefore => "InsertBefore",
            InsertAfter => "InsertAfter",
            Delete => "Delete",
            Replace => "Replace",
            ReadAll => "ReadAll",
            Stats => "Stats",
            Report => "Report",
            Flush => "Flush",
            Verify => "Verify",
            Compact => "Compact",
            Ranges => "Ranges",
            Sleep => "Sleep",
            Shutdown => "Shutdown",
            Metrics => "Metrics",
            CreateStore => "CreateStore",
            DropStore => "DropStore",
            ListStores => "ListStores",
            UseStore => "UseStore",
            Explain => "Explain",
            DumpRecorder => "DumpRecorder",
        }
    }
}

/// Frame status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Final frame of a response (and the only status requests use).
    Done = 0,
    /// One item of a streamed response; more frames follow.
    More = 1,
    /// Final frame carrying a typed error (payload: `u16 code, str msg`).
    Err = 2,
}

impl Status {
    /// Decodes a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Done,
            1 => Status::More,
            2 => Status::Err,
            _ => return None,
        })
    }
}

/// Typed error codes carried by `Err` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame or payload.
    Protocol = 1,
    /// The XML / XPath / FLWOR text did not parse.
    Parse = 2,
    /// The store rejected the operation (missing node, corruption, I/O).
    Store = 3,
    // 4 is reserved: it was a lock-manager deadlock victim, and servers
    // no longer take logical locks. Decodes as `None`.
    /// The worker queue is full; back off and retry.
    Busy = 5,
    /// The request exceeded the server's request timeout.
    Timeout = 6,
    /// Opcode not supported by this server configuration.
    Unsupported = 7,
    /// Frame larger than [`FRAME_MAX`].
    TooLarge = 8,
    /// The server is shutting down.
    ShuttingDown = 9,
    /// The frame's store id (or a named store) is not in the catalog —
    /// never bound, dropped, or stale from before a drop + recreate.
    UnknownStore = 10,
    /// `CreateStore` on a name that already exists.
    StoreExists = 11,
}

impl ErrorCode {
    /// Decodes an error code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => Protocol,
            2 => Parse,
            3 => Store,
            5 => Busy,
            6 => Timeout,
            7 => Unsupported,
            8 => TooLarge,
            9 => ShuttingDown,
            10 => UnknownStore,
            11 => StoreExists,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Parse => "parse",
            ErrorCode::Store => "store",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::UnknownStore => "unknown-store",
            ErrorCode::StoreExists => "store-exists",
        })
    }
}

/// One wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request id; responses echo the request's.
    pub req_id: u64,
    /// Opcode byte (see [`OpCode`]).
    pub opcode: u8,
    /// Status byte (see [`Status`]).
    pub status: u8,
    /// Store id: requests address this store (0 = default); responses
    /// echo the request's. Catalog opcodes ignore it.
    pub store: u16,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request frame addressing the default store (callers with a
    /// `UseStore` binding set [`Frame::store`] afterwards, or use
    /// [`Frame::request_on`]).
    pub fn request(req_id: u64, opcode: OpCode, payload: Vec<u8>) -> Frame {
        Frame::request_on(req_id, opcode, 0, payload)
    }

    /// A request frame addressing a specific store id.
    pub fn request_on(req_id: u64, opcode: OpCode, store: u16, payload: Vec<u8>) -> Frame {
        Frame {
            req_id,
            opcode: opcode as u8,
            status: Status::Done as u8,
            store,
            payload,
        }
    }

    /// A final (`Done`) response frame. The server stamps the request's
    /// store id onto every response before writing it.
    pub fn done(req_id: u64, opcode: u8, payload: Vec<u8>) -> Frame {
        Frame {
            req_id,
            opcode,
            status: Status::Done as u8,
            store: 0,
            payload,
        }
    }

    /// A streamed (`More`) response frame.
    pub fn more(req_id: u64, opcode: u8, payload: Vec<u8>) -> Frame {
        Frame {
            req_id,
            opcode,
            status: Status::More as u8,
            store: 0,
            payload,
        }
    }

    /// A typed error frame.
    pub fn error(req_id: u64, opcode: u8, code: ErrorCode, msg: &str) -> Frame {
        let mut payload = Vec::with_capacity(2 + 4 + msg.len());
        payload.extend_from_slice(&(code as u16).to_le_bytes());
        put_str(&mut payload, msg);
        Frame {
            req_id,
            opcode,
            status: Status::Err as u8,
            store: 0,
            payload,
        }
    }

    /// Decodes an `Err` frame's payload: `(code, message)`.
    pub fn decode_error(&self) -> Result<(ErrorCode, String), WireError> {
        let mut r = Reader::new(&self.payload);
        let code = r.u16()?;
        let msg = r.str()?;
        Ok((
            ErrorCode::from_u16(code).unwrap_or(ErrorCode::Protocol),
            msg,
        ))
    }
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable explanation.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Sends the 8-byte hello.
pub fn write_hello(w: &mut impl Write) -> io::Result<()> {
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = VERSION;
    w.write_all(&hello)?;
    w.flush()
}

/// Reads and validates the peer's hello.
pub fn read_hello(r: &mut impl Read) -> io::Result<()> {
    let mut hello = [0u8; 8];
    r.read_exact(&mut hello)?;
    if hello[..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an axsd peer (bad magic)",
        ));
    }
    if hello[4] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "protocol version mismatch: peer {}, ours {VERSION}",
                hello[4]
            ),
        ));
    }
    Ok(())
}

/// Writes one frame and flushes `w`: the path of every request and of
/// every single-frame answer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    encode_frame(w, frame)?;
    w.flush()
}

/// Writes one frame to `w` without flushing it, so that a response's
/// frames can go out back to back behind one flush.
pub fn encode_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let body_len = FRAME_HEADER + frame.payload.len();
    if body_len > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {body_len} B exceeds FRAME_MAX"),
        ));
    }
    let mut header = [0u8; 4 + FRAME_HEADER];
    header[0..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    header[4..12].copy_from_slice(&frame.req_id.to_le_bytes());
    header[12] = frame.opcode;
    header[13] = frame.status;
    header[14..16].copy_from_slice(&frame.store.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.payload)
}

/// Reads one frame. Oversized or truncated frames surface as
/// `InvalidData` I/O errors.
///
/// Only sound on a stream that cannot fail mid-frame and resume: the
/// sequential `read_exact` calls lose partially-consumed bytes on a
/// `WouldBlock`/`TimedOut`, desynchronizing the stream. Readers that poll
/// under a socket read timeout must use [`FrameDecoder`] instead.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let body_len = u32::from_le_bytes(len) as usize;
    if !(FRAME_HEADER..=FRAME_MAX).contains(&body_len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body_len} B outside [{FRAME_HEADER}, {FRAME_MAX}]"),
        ));
    }
    let mut fixed = [0u8; FRAME_HEADER];
    r.read_exact(&mut fixed)?;
    let mut payload = vec![0u8; body_len - FRAME_HEADER];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        req_id: u64::from_le_bytes(fixed[0..8].try_into().unwrap()),
        opcode: fixed[8],
        status: fixed[9],
        store: u16::from_le_bytes(fixed[10..12].try_into().unwrap()),
        payload,
    })
}

/// A resumable frame decoder for reads polled under a socket timeout.
///
/// Bytes already pulled from the stream are buffered here, so a
/// `WouldBlock`/`TimedOut` mid-frame — inevitable for large frames
/// arriving over a slow link when the reader polls with a short timeout —
/// preserves the partial frame; the next [`FrameDecoder::poll`] resumes
/// exactly where the previous one stopped instead of reinterpreting
/// mid-frame bytes as a fresh length prefix.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes of the current frame received so far (length prefix included).
    buf: Vec<u8>,
    /// Decoded body length, once the 4-byte prefix is complete.
    body_len: Option<usize>,
}

impl FrameDecoder {
    /// A decoder with no buffered bytes.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// True when part of a frame has been buffered — the peer has started
    /// a frame but not finished it.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads from `r` until one full frame is buffered, then decodes it.
    ///
    /// `WouldBlock`/`TimedOut` from `r` propagate with the partial state
    /// intact — call again with the same decoder to resume. Any other
    /// error (bad length prefix as `InvalidData`, EOF as `UnexpectedEof`)
    /// is terminal for the stream.
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<Frame> {
        loop {
            let need = match self.body_len {
                None => 4,
                Some(body) => 4 + body,
            };
            self.fill(r, need)?;
            match self.body_len {
                None => {
                    let body = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
                    if !(FRAME_HEADER..=FRAME_MAX).contains(&body) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("frame body of {body} B outside [{FRAME_HEADER}, {FRAME_MAX}]"),
                        ));
                    }
                    self.body_len = Some(body);
                }
                Some(body) => {
                    let frame = Frame {
                        req_id: u64::from_le_bytes(self.buf[4..12].try_into().unwrap()),
                        opcode: self.buf[12],
                        status: self.buf[13],
                        store: u16::from_le_bytes(self.buf[14..16].try_into().unwrap()),
                        payload: self.buf[4 + FRAME_HEADER..4 + body].to_vec(),
                    };
                    self.buf.clear();
                    self.body_len = None;
                    return Ok(frame);
                }
            }
        }
    }

    /// Buffers bytes from `r` until `target` are held. Grows the buffer
    /// with what actually arrives, so a hostile length prefix never
    /// triggers a large upfront allocation.
    fn fill(&mut self, r: &mut impl Read, target: usize) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        while self.buf.len() < target {
            let want = (target - self.buf.len()).min(chunk.len());
            match r.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

// ---- payload encoding -----------------------------------------------------

/// Appends a `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload cursor.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::new("payload truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::new("string not UTF-8"))
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Errors unless the whole payload was consumed (catches trailing
    /// garbage from mismatched encoders).
    pub fn finish(self) -> Result<(), WireError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(WireError::new("trailing bytes in payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 42);
        put_str(&mut payload, "héllo <x/>");
        let frame = Frame::request(7, OpCode::InsertLast, payload);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, frame);
        let mut r = Reader::new(&back.payload);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "héllo <x/>");
        r.finish().unwrap();
    }

    #[test]
    fn hello_roundtrip_and_mismatch() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        read_hello(&mut buf.as_slice()).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_hello(&mut bad.as_slice()).is_err());
        let mut wrong_version = buf;
        wrong_version[4] = 99;
        assert!(read_hello(&mut wrong_version.as_slice()).is_err());
    }

    #[test]
    fn oversized_and_undersized_frames_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, (FRAME_MAX + 1) as u32);
        assert!(read_frame(&mut buf.as_slice()).is_err());
        let mut tiny = Vec::new();
        put_u32(&mut tiny, 2); // smaller than the fixed header
        assert!(read_frame(&mut tiny.as_slice()).is_err());
    }

    #[test]
    fn error_frame_roundtrip() {
        let f = Frame::error(9, OpCode::Query as u8, ErrorCode::Busy, "queue full");
        let (code, msg) = f.decode_error().unwrap();
        assert_eq!(code, ErrorCode::Busy);
        assert_eq!(msg, "queue full");
        assert_eq!(Status::from_u8(f.status), Some(Status::Err));
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut p = Vec::new();
        put_u32(&mut p, 100); // claims a 100-byte string with no bytes
        assert!(Reader::new(&p).str().is_err());

        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u64(&mut p, 2);
        let mut r = Reader::new(&p);
        r.u64().unwrap();
        assert!(r.finish().is_err());
    }

    /// A reader that yields its bytes one at a time, returning
    /// `WouldBlock` between every byte — the worst-case stall pattern for
    /// a decoder polled under a read timeout.
    struct StallingReader {
        bytes: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for StallingReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.ready = false;
            if self.pos == self.bytes.len() {
                return Ok(0);
            }
            out[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_decoder_resumes_across_would_block_stalls() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 7);
        put_str(&mut payload, "large enough to straddle many stalls");
        let frames = vec![
            Frame::request(1, OpCode::Query, payload),
            Frame::done(1, OpCode::Query as u8, b"tail".to_vec()),
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f).unwrap();
        }
        let mut reader = StallingReader {
            bytes,
            pos: 0,
            ready: false,
        };
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        while decoded.len() < frames.len() {
            match decoder.poll(&mut reader) {
                Ok(frame) => decoded.push(frame),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("decoder lost sync: {e}"),
            }
        }
        assert_eq!(decoded, frames);
        assert!(!decoder.mid_frame());
    }

    #[test]
    fn frame_decoder_reports_mid_frame_and_rejects_bad_prefix() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::request(3, OpCode::Ping, vec![0; 32])).unwrap();
        let half = bytes.len() / 2;
        let mut decoder = FrameDecoder::new();
        let mut front = &bytes[..half];
        match decoder.poll(&mut front) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
            other => panic!("expected EOF mid-frame, got {other:?}"),
        }
        assert!(decoder.mid_frame());
        // The same decoder finishes the frame from the remaining bytes,
        // even though the first read ended inside the payload.
        let mut back = &bytes[half..];
        let frame = decoder.poll(&mut back).unwrap();
        assert_eq!(frame.req_id, 3);
        assert_eq!(frame.payload, vec![0; 32]);

        let mut hostile = Vec::new();
        put_u32(&mut hostile, (FRAME_MAX + 1) as u32);
        let mut decoder = FrameDecoder::new();
        match decoder.poll(&mut hostile.as_slice()) {
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {}
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn opcode_and_status_codecs_are_total_inverses() {
        for b in 0..=255u8 {
            if let Some(op) = OpCode::from_u8(b) {
                assert_eq!(op as u8, b);
            }
            if let Some(st) = Status::from_u8(b) {
                assert_eq!(st as u8, b);
            }
        }
        assert_eq!(OpCode::from_u8(0), None);
        assert_eq!(OpCode::from_u8(31), None);
    }

    #[test]
    fn store_id_rides_the_frame_header() {
        let frame = Frame::request_on(11, OpCode::ReadNode, 7, vec![1, 2, 3]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back.store, 7);
        assert_eq!(back, frame);

        // The resumable decoder sees the same id.
        let mut decoder = FrameDecoder::new();
        let decoded = decoder.poll(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded.store, 7);

        // Default-store requests carry id 0; responses start at 0 until
        // the server stamps them.
        assert_eq!(Frame::request(1, OpCode::Ping, Vec::new()).store, 0);
        assert_eq!(Frame::done(1, OpCode::Ping as u8, Vec::new()).store, 0);
    }

    #[test]
    fn catalog_opcodes_and_errors_decode() {
        for (b, op) in [
            (25, OpCode::CreateStore),
            (26, OpCode::DropStore),
            (27, OpCode::ListStores),
            (28, OpCode::UseStore),
            (29, OpCode::Explain),
            (30, OpCode::DumpRecorder),
        ] {
            assert_eq!(OpCode::from_u8(b), Some(op));
        }
        assert_eq!(ErrorCode::from_u16(10), Some(ErrorCode::UnknownStore));
        assert_eq!(ErrorCode::from_u16(11), Some(ErrorCode::StoreExists));
        assert_eq!(ErrorCode::from_u16(4), None, "4 is reserved");
        assert_eq!(ErrorCode::UnknownStore.to_string(), "unknown-store");
    }
}
