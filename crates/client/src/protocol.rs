//! ERSP — the E/R Server Protocol.
//!
//! A length-framed, checksummed binary protocol over any `Read`/`Write`
//! byte stream (in practice TCP). Both peers exchange *frames*:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! ```
//!
//! `len` counts payload bytes only; `crc32` is the IEEE CRC-32 of the
//! payload, so a bit flip anywhere in the body is detected before the
//! payload is decoded (the header itself is covered indirectly: a
//! corrupted `len` misaligns the stream and the next CRC check fails, a
//! corrupted CRC fails immediately). Frames larger than [`MAX_FRAME`] are
//! rejected without allocating — a garbage length can't OOM the peer.
//!
//! The payload is one [`Request`] or [`Response`] message in a hand-rolled
//! tag-prefixed little-endian encoding (no serde on the wire: the format
//! is frozen by `PROTOCOL_VERSION`, not by Rust type layout), written with
//! the same [`erbium_model::codec`] the storage layer uses for its WAL and
//! checkpoints. Every [`Value`] round-trips losslessly, including nested
//! arrays and structs.
//!
//! This module is deliberately I/O-agnostic and panic-free: malformed
//! input of any shape yields [`WireError`], never a panic — the server
//! feeds it bytes from the network, and the frame-robustness property
//! suite (crates/server/tests) hammers exactly that contract.

pub use erbium_model::codec::crc32;
use erbium_model::codec::{
    frame_header, get_row, get_value, put_row, put_str, put_u32, put_u64, put_value, CodecError,
    Cursor,
};
use erbium_model::{DbError, Value};
use std::io::{Read, Write};

/// Protocol version exchanged in the `Hello` handshake. Bump on any wire
/// format change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload (16 MiB). Large enough for any sane
/// result set in this prototype; small enough that a corrupted length
/// field cannot trigger a giant allocation.
pub const MAX_FRAME: usize = 16 << 20;

// ---- errors -----------------------------------------------------------------

/// Anything that can go wrong between the socket and a decoded message.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (includes clean EOF mid-frame and read timeouts).
    Io(std::io::Error),
    /// The peer closed the connection at a frame boundary — the one
    /// *orderly* way a stream ends.
    Closed,
    /// Structurally invalid bytes: bad CRC, oversized length, truncated or
    /// trailing payload, unknown tags.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// The one place a decode failure becomes a protocol error.
impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Malformed(e.to_string())
    }
}

impl From<WireError> for DbError {
    fn from(e: WireError) -> DbError {
        match e {
            WireError::Io(io) => DbError::Connection(io.to_string()),
            WireError::Closed => DbError::Connection("connection closed by peer".into()),
            WireError::Malformed(m) => DbError::Protocol(m),
        }
    }
}

// ---- framing ----------------------------------------------------------------

/// Write one frame: header (length + CRC) and payload, no flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&frame_header(payload))?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one frame and verify its checksum. Returns [`WireError::Closed`]
/// on EOF at a frame boundary (the peer hung up cleanly), `Malformed` on
/// oversized length or CRC mismatch, `Io` on everything else including
/// EOF mid-frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 8];
    // Distinguish "no more frames" from "frame cut short": EOF on the
    // very first header byte is a clean close.
    match r.read(&mut header[..1])? {
        0 => return Err(WireError::Closed),
        1 => {}
        _ => unreachable!(),
    }
    r.read_exact(&mut header[1..])?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "frame length {len} exceeds maximum {MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != crc {
        return Err(WireError::Malformed(format!(
            "crc mismatch: header says {crc:#010x}, payload hashes to {actual:#010x}"
        )));
    }
    Ok(payload)
}

// ---- message pieces ------------------------------------------------------------

type DecodeResult<T> = Result<T, WireError>;

fn put_named_values(out: &mut Vec<u8>, nvs: &[(String, Value)]) {
    put_u32(out, nvs.len() as u32);
    for (name, v) in nvs {
        put_str(out, name);
        put_value(out, v);
    }
}

fn get_named_values(c: &mut Cursor<'_>) -> DecodeResult<Vec<(String, Value)>> {
    let n = c.count(5)?; // name length + value tag
    let mut nvs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = c.string()?;
        nvs.push((name, get_value(c)?));
    }
    Ok(nvs)
}

// ---- transaction operations --------------------------------------------------

/// One buffered write inside a remote transaction — the wire mirror of the
/// [`erbium_model::TxOps`] surface. The client records these; the server
/// replays them inside a single embedded transaction, so the batch commits
/// or rolls back atomically exactly like an embedded closure.
#[derive(Debug, Clone, PartialEq)]
pub enum TxOp {
    Insert { entity: String, data: Vec<(String, Value)> },
    InsertLinked {
        entity: String,
        data: Vec<(String, Value)>,
        links: Vec<(String, Vec<Value>)>,
    },
    UpdateEntity { entity: String, key: Vec<Value>, changes: Vec<(String, Value)> },
    DeleteEntity { entity: String, key: Vec<Value> },
    Link { rel: String, from: Vec<Value>, to: Vec<Value>, attrs: Vec<(String, Value)> },
    Unlink { rel: String, from: Vec<Value>, to: Vec<Value> },
}

const OP_INSERT: u8 = 1;
const OP_INSERT_LINKED: u8 = 2;
const OP_UPDATE: u8 = 3;
const OP_DELETE: u8 = 4;
const OP_LINK: u8 = 5;
const OP_UNLINK: u8 = 6;

fn put_tx_op(out: &mut Vec<u8>, op: &TxOp) {
    match op {
        TxOp::Insert { entity, data } => {
            out.push(OP_INSERT);
            put_str(out, entity);
            put_named_values(out, data);
        }
        TxOp::InsertLinked { entity, data, links } => {
            out.push(OP_INSERT_LINKED);
            put_str(out, entity);
            put_named_values(out, data);
            put_u32(out, links.len() as u32);
            for (rel, key) in links {
                put_str(out, rel);
                put_row(out, key);
            }
        }
        TxOp::UpdateEntity { entity, key, changes } => {
            out.push(OP_UPDATE);
            put_str(out, entity);
            put_row(out, key);
            put_named_values(out, changes);
        }
        TxOp::DeleteEntity { entity, key } => {
            out.push(OP_DELETE);
            put_str(out, entity);
            put_row(out, key);
        }
        TxOp::Link { rel, from, to, attrs } => {
            out.push(OP_LINK);
            put_str(out, rel);
            put_row(out, from);
            put_row(out, to);
            put_named_values(out, attrs);
        }
        TxOp::Unlink { rel, from, to } => {
            out.push(OP_UNLINK);
            put_str(out, rel);
            put_row(out, from);
            put_row(out, to);
        }
    }
}

fn get_tx_op(c: &mut Cursor<'_>) -> DecodeResult<TxOp> {
    match c.u8()? {
        OP_INSERT => Ok(TxOp::Insert { entity: c.string()?, data: get_named_values(c)? }),
        OP_INSERT_LINKED => {
            let entity = c.string()?;
            let data = get_named_values(c)?;
            let n = c.count(8)?; // name length + key count
            let mut links = Vec::with_capacity(n);
            for _ in 0..n {
                let rel = c.string()?;
                links.push((rel, get_row(c)?));
            }
            Ok(TxOp::InsertLinked { entity, data, links })
        }
        OP_UPDATE => Ok(TxOp::UpdateEntity {
            entity: c.string()?,
            key: get_row(c)?,
            changes: get_named_values(c)?,
        }),
        OP_DELETE => Ok(TxOp::DeleteEntity { entity: c.string()?, key: get_row(c)? }),
        OP_LINK => Ok(TxOp::Link {
            rel: c.string()?,
            from: get_row(c)?,
            to: get_row(c)?,
            attrs: get_named_values(c)?,
        }),
        OP_UNLINK => Ok(TxOp::Unlink {
            rel: c.string()?,
            from: get_row(c)?,
            to: get_row(c)?,
        }),
        t => Err(CodecError::BadTag { what: "tx-op", tag: t }.into()),
    }
}

// ---- requests ----------------------------------------------------------------

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first message on a connection.
    Hello { version: u32 },
    /// Run an ERQL script (DDL and/or discarded SELECTs).
    Execute { script: String },
    /// One SELECT, optionally `?`-parameterized (`params` empty = none).
    Query { sql: String, params: Vec<Value> },
    /// Bind a `?`-template server-side, returning a statement id.
    Prepare { sql: String },
    /// Execute a previously prepared statement.
    ExecutePrepared { stmt_id: u32, params: Vec<Value> },
    /// Atomically apply a batch of buffered writes.
    Transaction { ops: Vec<TxOp> },
    /// Pin the current state, returning a snapshot id scoped to this
    /// session.
    PinSnapshot,
    /// Query a pinned snapshot.
    SnapshotQuery { snap_id: u32, sql: String, params: Vec<Value> },
    /// Release a pinned snapshot (dropping the connection releases all).
    ReleaseSnapshot { snap_id: u32 },
    /// Set a session-scoped option (never visible to other sessions).
    SetOption { key: String, value: String },
    /// Plan-cache counters of the serving database.
    CacheStats,
    /// Orderly goodbye; the server acknowledges and closes.
    Close,
}

const RQ_HELLO: u8 = 1;
const RQ_EXECUTE: u8 = 2;
const RQ_QUERY: u8 = 3;
const RQ_PREPARE: u8 = 4;
const RQ_EXECUTE_PREPARED: u8 = 5;
const RQ_TRANSACTION: u8 = 6;
const RQ_PIN_SNAPSHOT: u8 = 7;
const RQ_SNAPSHOT_QUERY: u8 = 8;
const RQ_RELEASE_SNAPSHOT: u8 = 9;
const RQ_SET_OPTION: u8 = 10;
const RQ_CACHE_STATS: u8 = 11;
const RQ_CLOSE: u8 = 12;

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                out.push(RQ_HELLO);
                put_u32(&mut out, *version);
            }
            Request::Execute { script } => {
                out.push(RQ_EXECUTE);
                put_str(&mut out, script);
            }
            Request::Query { sql, params } => {
                out.push(RQ_QUERY);
                put_str(&mut out, sql);
                put_row(&mut out, params);
            }
            Request::Prepare { sql } => {
                out.push(RQ_PREPARE);
                put_str(&mut out, sql);
            }
            Request::ExecutePrepared { stmt_id, params } => {
                out.push(RQ_EXECUTE_PREPARED);
                put_u32(&mut out, *stmt_id);
                put_row(&mut out, params);
            }
            Request::Transaction { ops } => {
                out.push(RQ_TRANSACTION);
                put_u32(&mut out, ops.len() as u32);
                for op in ops {
                    put_tx_op(&mut out, op);
                }
            }
            Request::PinSnapshot => out.push(RQ_PIN_SNAPSHOT),
            Request::SnapshotQuery { snap_id, sql, params } => {
                out.push(RQ_SNAPSHOT_QUERY);
                put_u32(&mut out, *snap_id);
                put_str(&mut out, sql);
                put_row(&mut out, params);
            }
            Request::ReleaseSnapshot { snap_id } => {
                out.push(RQ_RELEASE_SNAPSHOT);
                put_u32(&mut out, *snap_id);
            }
            Request::SetOption { key, value } => {
                out.push(RQ_SET_OPTION);
                put_str(&mut out, key);
                put_str(&mut out, value);
            }
            Request::CacheStats => out.push(RQ_CACHE_STATS),
            Request::Close => out.push(RQ_CLOSE),
        }
        out
    }

    /// Decode a frame payload. Rejects unknown tags, truncation, and
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> DecodeResult<Request> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            RQ_HELLO => Request::Hello { version: c.u32()? },
            RQ_EXECUTE => Request::Execute { script: c.string()? },
            RQ_QUERY => Request::Query { sql: c.string()?, params: get_row(&mut c)? },
            RQ_PREPARE => Request::Prepare { sql: c.string()? },
            RQ_EXECUTE_PREPARED => Request::ExecutePrepared {
                stmt_id: c.u32()?,
                params: get_row(&mut c)?,
            },
            RQ_TRANSACTION => {
                let n = c.count(5)?; // op tag + name length
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(get_tx_op(&mut c)?);
                }
                Request::Transaction { ops }
            }
            RQ_PIN_SNAPSHOT => Request::PinSnapshot,
            RQ_SNAPSHOT_QUERY => Request::SnapshotQuery {
                snap_id: c.u32()?,
                sql: c.string()?,
                params: get_row(&mut c)?,
            },
            RQ_RELEASE_SNAPSHOT => Request::ReleaseSnapshot { snap_id: c.u32()? },
            RQ_SET_OPTION => {
                Request::SetOption { key: c.string()?, value: c.string()? }
            }
            RQ_CACHE_STATS => Request::CacheStats,
            RQ_CLOSE => Request::Close,
            t => return Err(CodecError::BadTag { what: "request", tag: t }.into()),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---- responses ---------------------------------------------------------------

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake reply carrying the server's protocol version and the
    /// session id (diagnostics; shows up in server logs and metrics).
    Hello { version: u32, session_id: u64 },
    /// Success with nothing to return.
    Ack,
    /// A query result.
    Rows { columns: Vec<String>, rows: Vec<Vec<Value>> },
    /// A prepared-statement id (session-scoped).
    Prepared { stmt_id: u32 },
    /// A pinned-snapshot id (session-scoped).
    SnapshotPinned { snap_id: u32 },
    /// Plan-cache counters.
    CacheStats { hits: u64, misses: u64 },
    /// Any failure, as a stable numeric code + message — decoded back
    /// into a [`DbError`] on the client via [`DbError::from_wire`].
    Error { code: u16, message: String },
}

const RS_HELLO: u8 = 1;
const RS_ACK: u8 = 2;
const RS_ROWS: u8 = 3;
const RS_PREPARED: u8 = 4;
const RS_SNAPSHOT: u8 = 5;
const RS_CACHE_STATS: u8 = 6;
const RS_ERROR: u8 = 7;

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Hello { version, session_id } => {
                out.push(RS_HELLO);
                put_u32(&mut out, *version);
                put_u64(&mut out, *session_id);
            }
            Response::Ack => out.push(RS_ACK),
            Response::Rows { columns, rows } => {
                out.push(RS_ROWS);
                put_u32(&mut out, columns.len() as u32);
                for col in columns {
                    put_str(&mut out, col);
                }
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_row(&mut out, row);
                }
            }
            Response::Prepared { stmt_id } => {
                out.push(RS_PREPARED);
                put_u32(&mut out, *stmt_id);
            }
            Response::SnapshotPinned { snap_id } => {
                out.push(RS_SNAPSHOT);
                put_u32(&mut out, *snap_id);
            }
            Response::CacheStats { hits, misses } => {
                out.push(RS_CACHE_STATS);
                put_u64(&mut out, *hits);
                put_u64(&mut out, *misses);
            }
            Response::Error { code, message } => {
                out.push(RS_ERROR);
                out.extend_from_slice(&code.to_le_bytes());
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> DecodeResult<Response> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            RS_HELLO => Response::Hello { version: c.u32()?, session_id: c.u64()? },
            RS_ACK => Response::Ack,
            RS_ROWS => {
                let ncols = c.count(4)?;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(c.string()?);
                }
                let nrows = c.count(4)?;
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    rows.push(get_row(&mut c)?);
                }
                Response::Rows { columns, rows }
            }
            RS_PREPARED => Response::Prepared { stmt_id: c.u32()? },
            RS_SNAPSHOT => Response::SnapshotPinned { snap_id: c.u32()? },
            RS_CACHE_STATS => Response::CacheStats { hits: c.u64()?, misses: c.u64()? },
            RS_ERROR => Response::Error { code: c.u16()?, message: c.string()? },
            t => return Err(CodecError::BadTag { what: "response", tag: t }.into()),
        };
        c.finish()?;
        Ok(resp)
    }

    /// Build the wire form of a [`DbError`].
    pub fn from_error(e: &DbError) -> Response {
        Response::Error { code: e.code(), message: e.wire_message().to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn frame_rejects_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Flip one payload bit.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(read_frame(&mut &buf[..]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn frame_rejects_oversize_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(read_frame(&mut &buf[..]), Err(WireError::Malformed(_))));
    }

    fn all_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::str("héllo 🦀"),
            Value::str(""),
            Value::Array(vec![Value::Int(1), Value::Array(vec![Value::Null])]),
            Value::Struct(vec![Value::str("nested"), Value::Struct(vec![])]),
        ]
    }

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Execute { script: "CREATE ENTITY e (id int KEY);".into() },
            Request::Query { sql: "SELECT e.id FROM e e".into(), params: all_values() },
            Request::Prepare { sql: "SELECT e.id FROM e e WHERE e.id = ?".into() },
            Request::ExecutePrepared { stmt_id: 7, params: vec![Value::Int(1)] },
            Request::Transaction {
                ops: vec![
                    TxOp::Insert { entity: "e".into(), data: vec![("id".into(), Value::Int(1))] },
                    TxOp::InsertLinked {
                        entity: "e".into(),
                        data: vec![],
                        links: vec![("r".into(), vec![Value::Int(2)])],
                    },
                    TxOp::UpdateEntity {
                        entity: "e".into(),
                        key: vec![Value::Int(1)],
                        changes: vec![("x".into(), Value::Null)],
                    },
                    TxOp::DeleteEntity { entity: "e".into(), key: vec![Value::Int(1)] },
                    TxOp::Link {
                        rel: "r".into(),
                        from: vec![Value::Int(1)],
                        to: vec![Value::Int(2)],
                        attrs: vec![("w".into(), Value::Float(0.5))],
                    },
                    TxOp::Unlink { rel: "r".into(), from: vec![], to: vec![] },
                ],
            },
            Request::PinSnapshot,
            Request::SnapshotQuery { snap_id: 3, sql: "SELECT 1".into(), params: vec![] },
            Request::ReleaseSnapshot { snap_id: 3 },
            Request::SetOption { key: "threads".into(), value: "1".into() },
            Request::CacheStats,
            Request::Close,
        ];
        for req in reqs {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Hello { version: 1, session_id: 42 },
            Response::Ack,
            Response::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: vec![vec![Value::Int(1), Value::str("x")], vec![Value::Null, Value::Null]],
            },
            Response::Prepared { stmt_id: 9 },
            Response::SnapshotPinned { snap_id: 2 },
            Response::CacheStats { hits: 10, misses: 3 },
            Response::Error { code: 40, message: "duplicate key".into() },
        ];
        for resp in resps {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
        // Truncated string length.
        assert!(Request::decode(&[RQ_EXECUTE, 255, 0, 0, 0, b'x']).is_err());
        // Trailing bytes.
        let mut enc = Request::Close.encode();
        enc.push(0);
        assert!(Request::decode(&enc).is_err());
        // Collection length far beyond the payload must not allocate.
        let mut enc = Vec::new();
        enc.push(RQ_QUERY);
        put_str(&mut enc, "SELECT 1");
        put_u32(&mut enc, u32::MAX);
        assert!(Request::decode(&enc).is_err());
    }

    #[test]
    fn error_response_round_trips_db_errors() {
        let e = DbError::Storage("duplicate key 'x'".into());
        let resp = Response::from_error(&e);
        let enc = resp.encode();
        let Response::Error { code, message } = Response::decode(&enc).unwrap() else {
            panic!("not an error");
        };
        let back = DbError::from_wire(code, message);
        assert!(matches!(back, DbError::Storage(_)));
        assert_eq!(back.to_string(), e.to_string());
    }

    fn framed_hex(payload: &[u8]) -> String {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Frames generated at the commit before the codec moved to
    /// `erbium_model::codec`: the wire format is pinned.
    #[test]
    fn golden_frames_pin_the_wire_format() {
        let query = Request::Query {
            sql: "SELECT 1".into(),
            params: vec![
                Value::Int(1),
                Value::str("x"),
                Value::Array(vec![Value::Null, Value::Bool(false)]),
            ],
        };
        let txn = Request::Transaction {
            ops: vec![TxOp::Insert { entity: "e".into(), data: vec![("id".into(), Value::Int(1))] }],
        };
        let rows = Response::Rows {
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Value::Int(1), Value::str("x")], vec![Value::Null, Value::Float(-0.0)]],
        };
        let error = Response::Error { code: 40, message: "dup".into() };
        assert_eq!(framed_hex(&query.encode()), "28000000ddf79936030800000053454c4543542031030000000201000000000000000401000000780502000000000100");
        assert_eq!(framed_hex(&txn.encode()), "1e000000ec6dcca4060100000001010000006501000000020000006964020100000000000000");
        assert_eq!(framed_hex(&rows.encode()), "340000004119f72203020000000100000061010000006202000000020000000201000000000000000401000000780200000000030000000000000080");
        assert_eq!(framed_hex(&error.encode()), "0a0000005ad6044407280003000000647570");
    }

    /// Every strict prefix of a message is an error, a byte flip is an error
    /// or a message, and 100,000 nested array tags are an error — no panic.
    #[test]
    fn malformed_messages_error_without_panicking() {
        let req = Request::Query { sql: "SELECT 1".into(), params: all_values() }.encode();
        let resp = Response::Rows { columns: vec!["a".into()], rows: vec![all_values()] }.encode();
        for cut in 0..req.len() {
            assert!(Request::decode(&req[..cut]).is_err(), "request prefix {cut}");
        }
        for cut in 0..resp.len() {
            assert!(Response::decode(&resp[..cut]).is_err(), "response prefix {cut}");
        }
        for i in 0..req.len() {
            let mut flipped = req.clone();
            flipped[i] ^= 0xFF;
            let _ = Request::decode(&flipped);
        }
        for i in 0..resp.len() {
            let mut flipped = resp.clone();
            flipped[i] ^= 0xFF;
            let _ = Response::decode(&flipped);
        }
        let mut deep = vec![RQ_QUERY];
        put_str(&mut deep, "SELECT 1");
        put_u32(&mut deep, 1);
        for _ in 0..100_000 {
            deep.push(5); // array tag
            put_u32(&mut deep, 1);
        }
        deep.push(0);
        assert!(matches!(Request::decode(&deep), Err(WireError::Malformed(_))));
    }
}
