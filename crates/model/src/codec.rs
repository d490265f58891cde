//! The one byte codec: every place a [`Value`] becomes bytes goes through
//! here — WAL records, `ERBSNAP1`/`ERBSNAP3` checkpoint bodies (and the
//! retired `ERBSNAP2` deltas, still read), buffer-pool page spills (all in
//! `erbium-storage`) and ERSP messages (`erbium-client`). It lives in the
//! model crate because the wire client must not link storage.
//!
//! ## Format
//!
//! Little-endian throughout. Strings are `[len u32][utf-8]`, collections
//! `[count u32][elements]`, a value is a tag byte plus payload (floats as
//! IEEE bit patterns, so NaN and `-0.0` round-trip exactly), a row is a
//! collection of values. A frame is `[len u32][crc32(payload) u32][payload]`.
//!
//! ## Decoding untrusted bytes
//!
//! [`Cursor`] never indexes out of range, never panics and never trusts a
//! length it has not checked against the bytes that remain:
//!
//! * every read returns `Err(`[`CodecError`]`)` past the end of the input;
//! * [`Cursor::count`] rejects a collection count that could not fit in the
//!   remaining input, so a pre-allocation is bounded by the input's length
//!   (times the in-memory size of one element), not by a corrupt count;
//! * [`get_value`] refuses nesting deeper than [`MAX_DEPTH`], so a
//!   checksum-valid run of array tags cannot overflow the decoder's stack.
//!
//! Each consumer maps `CodecError` to its own failure mode in one place:
//! the WAL scan to a torn tail, checkpoint loading to
//! `StorageError::Corrupt`, page decoding to `None`, ERSP to
//! `WireError::Malformed`.
//!
//! ## Why the depth cap cannot reject committed data
//!
//! The encoder has no cap, so the cap is safe only if nothing the write
//! path accepts nests deeper than [`MAX_DEPTH`]. A stored value conforms to
//! its column's [`DataType`] (`DataType::check` at every table write) and
//! can therefore nest no deeper than the type does ([`DataType::depth`]);
//! `Catalog::create_table` rejects a schema whose
//! column types nest deeper than `MAX_DEPTH`. Every row in a WAL record,
//! checkpoint or spilled page belongs to such a table. On the wire the cap
//! applies to the peer's input, where rejecting is the point.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Deepest container nesting [`get_value`] accepts: a scalar may sit inside
/// at most this many arrays/structs.
pub const MAX_DEPTH: u32 = 64;

/// Why a byte string is not a valid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the item did.
    Truncated,
    /// A string's bytes are not UTF-8.
    InvalidUtf8,
    /// A tag byte names no variant of `what`.
    BadTag { what: &'static str, tag: u8 },
    /// A collection count exceeds what the remaining input could hold.
    CountExceedsInput,
    /// Containers nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Input left over after a complete item.
    TrailingBytes,
    /// A frame's payload does not hash to its header's CRC.
    Checksum,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::InvalidUtf8 => write!(f, "string is not valid UTF-8"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::CountExceedsInput => write!(f, "collection count exceeds input"),
            CodecError::TooDeep => write!(f, "value nesting deeper than {MAX_DEPTH}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes"),
            CodecError::Checksum => write!(f, "crc mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

pub type CodecResult<T> = Result<T, CodecError>;

/// Slicing-by-16 lookup tables for the reflected IEEE polynomial, built at
/// compile time (the initializer is a constant expression). `T[0]` is the
/// classic byte-at-a-time table; `T[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so sixteen input bytes fold into the state with
/// sixteen independent lookups.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 (the reflected polynomial used by zip/png).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend a running CRC-32 with `bytes`: `crc32_update(crc32(a), b)` equals
/// `crc32` of `a` followed by `b`, and `crc32_update(0, b) == crc32(b)`, so a
/// stream can be checksummed one buffer at a time.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !state;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let b: &[u8; 16] = chunk.try_into().expect("chunks_exact yields 16 bytes");
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The 8-byte header that frames `payload`: its length, then its CRC-32.
pub fn frame_header(payload: &[u8]) -> [u8; 8] {
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

// ---- encoding ----------------------------------------------------------------

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

const T_NULL: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_FLOAT: u8 = 3;
const T_STR: u8 = 4;
const T_ARRAY: u8 = 5;
const T_STRUCT: u8 = 6;

pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(T_NULL),
        Value::Bool(b) => {
            buf.push(T_BOOL);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(T_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(T_FLOAT);
            put_u64(buf, x.to_bits());
        }
        Value::Str(s) => {
            buf.push(T_STR);
            put_str(buf, s);
        }
        Value::Array(vs) => {
            buf.push(T_ARRAY);
            put_row(buf, vs);
        }
        Value::Struct(vs) => {
            buf.push(T_STRUCT);
            put_row(buf, vs);
        }
    }
}

/// A counted sequence of values: a table row, a key, a parameter list.
pub fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    put_u32(buf, row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

// ---- decoding ----------------------------------------------------------------

/// Bounds-checked reader over a decode buffer (see the module docs).
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// `Err` unless the whole input was consumed.
    pub fn finish(&self) -> CodecResult<()> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    pub fn bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> CodecResult<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) yields N bytes"))
    }

    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A length-prefixed string, borrowed from the input.
    pub fn str(&mut self) -> CodecResult<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| CodecError::InvalidUtf8)
    }

    pub fn string(&mut self) -> CodecResult<String> {
        self.str().map(str::to_owned)
    }

    /// A collection count whose elements each occupy at least
    /// `min_elem_bytes` (≥ 1) of input. Rejects a count the remaining input
    /// cannot hold, so `Vec::with_capacity(count)` is safe on corrupt input.
    pub fn count(&mut self, min_elem_bytes: usize) -> CodecResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(CodecError::CountExceedsInput);
        }
        Ok(n)
    }

    /// One `[len][crc32][payload]` frame, checksum verified.
    pub fn frame(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.u32()? as usize;
        let crc = self.u32()?;
        let payload = self.bytes(len)?;
        if crc32(payload) != crc {
            return Err(CodecError::Checksum);
        }
        Ok(payload)
    }
}

pub fn get_value(c: &mut Cursor<'_>) -> CodecResult<Value> {
    get_value_at(c, 0)
}

fn get_value_at(c: &mut Cursor<'_>, depth: u32) -> CodecResult<Value> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match c.u8()? {
        T_NULL => Ok(Value::Null),
        T_BOOL => match c.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        },
        T_INT => Ok(Value::Int(i64::from_le_bytes(c.array()?))),
        T_FLOAT => Ok(Value::Float(f64::from_bits(c.u64()?))),
        T_STR => Ok(Value::Str(Arc::from(c.str()?))),
        T_ARRAY => Ok(Value::Array(get_row_at(c, depth + 1)?)),
        T_STRUCT => Ok(Value::Struct(get_row_at(c, depth + 1)?)),
        tag => Err(CodecError::BadTag { what: "value", tag }),
    }
}

pub fn get_row(c: &mut Cursor<'_>) -> CodecResult<Vec<Value>> {
    get_row_at(c, 0)
}

fn get_row_at(c: &mut Cursor<'_>, depth: u32) -> CodecResult<Vec<Value>> {
    let n = c.count(1)?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(get_value_at(c, depth)?);
    }
    Ok(row)
}
