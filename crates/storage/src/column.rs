//! Typed column vectors backing [`crate::table::Table`] chunks.
//!
//! The paper's performance argument for elevating to the E/R abstraction
//! rests on the freedom to pick fast physical representations. This module
//! supplies the column-major half of the table layout: every scalar column
//! of a table is mirrored in a typed vector — `Vec<i64>`, `Vec<f64>`,
//! `Vec<bool>`, or dictionary-encoded strings — with a validity [`Bitmap`]
//! per column and a table-wide *live* bitmap marking occupied slots. The
//! engine's vectorized kernels read these through [`ColumnSlice`] without
//! touching the row-shaped slot vector (and, with projection pruning,
//! without ever materializing untouched columns).
//!
//! Columns are **slot-aligned** with the row view: slot `i` of every column
//! describes the same row as slot `i` of the table's `Vec<Option<Row>>`,
//! tombstones included. Ingest canonicalization
//! ([`crate::schema::TableSchema::canonicalize_row`]) guarantees scalar
//! columns are type-pure (an Int column holds only `Value::Int` or NULL),
//! which is what makes the typed vectors lossless. Array and struct columns
//! have no typed vector ([`ColumnVec::Other`]); readers fall back to the
//! row view for those.

use crate::cow::{cow_mut, ShardedMap};
use crate::row::Row;
use crate::schema::TableSchema;
use crate::value::{DataType, Value};
use std::sync::Arc;

/// A growable bitmap (one bit per table slot).
#[derive(Debug, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Clone for Bitmap {
    fn clone(&self) -> Bitmap {
        Bitmap { words: clone_with_room(&self.words), len: self.len }
    }
}

/// A copy of `v` with `v`'s spare capacity. A column vector is copied when
/// a commit first writes a table a snapshot shares, and that commit then
/// appends: an exact-length copy would be reallocated and copied again.
fn clone_with_room<T: Copy>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend_from_slice(v);
    out
}

impl Bitmap {
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grow to at least `n` bits, new bits cleared.
    pub fn ensure_len(&mut self, n: usize) {
        if n > self.len {
            self.len = n;
            self.words.resize(n.div_ceil(64), 0);
        }
    }

    /// Bit `i`, where bits beyond the current length read as unset. The
    /// lenient upper bound is deliberate: column vectors grow lazily, so a
    /// table whose trailing slots are all tombstones keeps its bitmaps
    /// shorter than `slot_count` — those slots are simply "not set".
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }
}

/// Strings per dictionary chunk (a power of two: codes split by shift and
/// mask).
const DICT_CHUNK: usize = 64;

/// Append-only string dictionary shared by one Text column.
///
/// Codes are dense `u32` indexes into the strings. The dictionary never
/// shrinks: deleting rows leaves dead entries behind (the validity/live
/// bitmaps govern visibility), so codes stay stable for the life of the
/// table. Statistics compute the *live* NDV exactly by tracking which
/// codes are referenced by live slots.
///
/// The strings sit in fixed-size `Arc`'d chunks and the reverse map is a
/// [`ShardedMap`], so under a published snapshot interning a new string
/// copies the tail chunk and one map shard, never the whole dictionary.
#[derive(Debug, Clone, Default)]
pub struct StringDict {
    chunks: Vec<Arc<Vec<Arc<str>>>>,
    map: ShardedMap<Arc<str>, u32>,
}

impl StringDict {
    /// Code for `s`, interning it on first sight.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        let next = self.len() as u32;
        let chunks = &mut self.chunks;
        self.map.get_or_insert_with(s.as_ref(), || Arc::clone(s), || {
            if (next as usize).is_multiple_of(DICT_CHUNK) {
                chunks.push(Arc::new(Vec::with_capacity(DICT_CHUNK)));
            }
            cow_mut(chunks.last_mut().expect("a chunk with room")).push(Arc::clone(s));
            next
        })
    }

    /// Code for `s` if it is already interned (no insertion). Used by
    /// equality kernels: a literal absent from the dictionary matches no
    /// stored string.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// The string behind a code.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        let c = code as usize;
        &self.chunks[c / DICT_CHUNK][c % DICT_CHUNK]
    }

    /// Number of interned strings (live or dead).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// Chunks and map shards not shared with `other`.
    #[cfg(test)]
    pub(crate) fn unshared_with(&self, other: &StringDict) -> usize {
        crate::cow::unshared(&self.chunks, &other.chunks) + self.map.unshared_with(&other.map)
    }
}

/// One typed column vector, slot-aligned with the table's row view.
///
/// `data[i]` is meaningful only when `valid.get(i)` — cleared or
/// never-written slots keep whatever default value was there (the validity
/// bitmap, combined with the table's live bitmap, governs visibility).
#[derive(Debug)]
pub enum ColumnVec {
    Int { data: Vec<i64>, valid: Bitmap },
    Float { data: Vec<f64>, valid: Bitmap },
    Bool { data: Vec<bool>, valid: Bitmap },
    Str { codes: Vec<u32>, valid: Bitmap, dict: StringDict },
    /// Array/struct columns stay row-only: no typed vector exists and
    /// readers must go through the row view.
    Other,
}

impl Clone for ColumnVec {
    fn clone(&self) -> ColumnVec {
        match self {
            ColumnVec::Int { data, valid } => {
                ColumnVec::Int { data: clone_with_room(data), valid: valid.clone() }
            }
            ColumnVec::Float { data, valid } => {
                ColumnVec::Float { data: clone_with_room(data), valid: valid.clone() }
            }
            ColumnVec::Bool { data, valid } => {
                ColumnVec::Bool { data: clone_with_room(data), valid: valid.clone() }
            }
            ColumnVec::Str { codes, valid, dict } => ColumnVec::Str {
                codes: clone_with_room(codes),
                valid: valid.clone(),
                dict: dict.clone(),
            },
            ColumnVec::Other => ColumnVec::Other,
        }
    }
}

impl ColumnVec {
    fn for_type(dtype: &DataType) -> ColumnVec {
        match dtype {
            DataType::Int => ColumnVec::Int { data: Vec::new(), valid: Bitmap::new() },
            DataType::Float => ColumnVec::Float { data: Vec::new(), valid: Bitmap::new() },
            DataType::Bool => ColumnVec::Bool { data: Vec::new(), valid: Bitmap::new() },
            DataType::Text => {
                ColumnVec::Str { codes: Vec::new(), valid: Bitmap::new(), dict: StringDict::default() }
            }
            DataType::Array(_) | DataType::Struct(_) => ColumnVec::Other,
        }
    }

    fn ensure_len(&mut self, n: usize) {
        match self {
            ColumnVec::Int { data, valid } => {
                if data.len() < n {
                    data.resize(n, 0);
                }
                valid.ensure_len(n);
            }
            ColumnVec::Float { data, valid } => {
                if data.len() < n {
                    data.resize(n, 0.0);
                }
                valid.ensure_len(n);
            }
            ColumnVec::Bool { data, valid } => {
                if data.len() < n {
                    data.resize(n, false);
                }
                valid.ensure_len(n);
            }
            ColumnVec::Str { codes, valid, .. } => {
                if codes.len() < n {
                    codes.resize(n, 0);
                }
                valid.ensure_len(n);
            }
            ColumnVec::Other => {}
        }
    }

    /// Write slot `i` from a canonicalized cell value. Type purity is an
    /// ingest invariant (see module docs); a mismatched variant here means
    /// canonicalization was bypassed.
    fn set(&mut self, i: usize, v: &Value) {
        match self {
            ColumnVec::Int { data, valid } => match v {
                Value::Int(x) => {
                    data[i] = *x;
                    valid.set(i, true);
                }
                _ => {
                    debug_assert!(v.is_null(), "non-Int value {v} in Int column");
                    valid.set(i, false);
                }
            },
            ColumnVec::Float { data, valid } => match v {
                Value::Float(x) => {
                    data[i] = *x;
                    valid.set(i, true);
                }
                _ => {
                    debug_assert!(v.is_null(), "non-Float value {v} in Float column");
                    valid.set(i, false);
                }
            },
            ColumnVec::Bool { data, valid } => match v {
                Value::Bool(x) => {
                    data[i] = *x;
                    valid.set(i, true);
                }
                _ => {
                    debug_assert!(v.is_null(), "non-Bool value {v} in Bool column");
                    valid.set(i, false);
                }
            },
            ColumnVec::Str { codes, valid, dict } => match v {
                Value::Str(s) => {
                    codes[i] = dict.intern(s);
                    valid.set(i, true);
                }
                _ => {
                    debug_assert!(v.is_null(), "non-Str value {v} in Text column");
                    valid.set(i, false);
                }
            },
            ColumnVec::Other => {}
        }
    }

    fn clear_slot(&mut self, i: usize) {
        match self {
            ColumnVec::Int { valid, .. }
            | ColumnVec::Float { valid, .. }
            | ColumnVec::Bool { valid, .. }
            | ColumnVec::Str { valid, .. } => {
                if i < valid.len() {
                    valid.set(i, false);
                }
            }
            ColumnVec::Other => {}
        }
    }

    fn reset(&mut self) {
        match self {
            ColumnVec::Int { data, valid } => {
                data.clear();
                valid.clear();
            }
            ColumnVec::Float { data, valid } => {
                data.clear();
                valid.clear();
            }
            ColumnVec::Bool { data, valid } => {
                data.clear();
                valid.clear();
            }
            ColumnVec::Str { codes, valid, dict } => {
                codes.clear();
                valid.clear();
                *dict = StringDict::default();
            }
            ColumnVec::Other => {}
        }
    }
}

/// Borrowed read view of one typed column, handed to vectorized kernels.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    Int { data: &'a [i64], valid: &'a Bitmap },
    Float { data: &'a [f64], valid: &'a Bitmap },
    Bool { data: &'a [bool], valid: &'a Bitmap },
    Str { codes: &'a [u32], valid: &'a Bitmap, dict: &'a StringDict },
}

impl ColumnSlice<'_> {
    /// Whether slot `i` holds a non-NULL value.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            ColumnSlice::Int { valid, .. }
            | ColumnSlice::Float { valid, .. }
            | ColumnSlice::Bool { valid, .. }
            | ColumnSlice::Str { valid, .. } => valid.get(i),
        }
    }

    /// Materialize slot `i` as a [`Value`] (NULL when invalid). Round-trip
    /// inverse of [`Columns::set_row`] for scalar columns.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnSlice::Int { data, valid } => {
                if valid.get(i) {
                    Value::Int(data[i])
                } else {
                    Value::Null
                }
            }
            ColumnSlice::Float { data, valid } => {
                if valid.get(i) {
                    Value::Float(data[i])
                } else {
                    Value::Null
                }
            }
            ColumnSlice::Bool { data, valid } => {
                if valid.get(i) {
                    Value::Bool(data[i])
                } else {
                    Value::Null
                }
            }
            ColumnSlice::Str { codes, valid, dict } => {
                if valid.get(i) {
                    Value::Str(Arc::clone(dict.get(codes[i])))
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// The column-major mirror of one table: typed vectors per scalar column
/// plus a live bitmap over slots. Maintained eagerly by every table write
/// path (insert / update / delete / restore / truncate), so it is always
/// slot-aligned with the row view.
#[derive(Debug, Clone)]
pub struct Columns {
    cols: Vec<ColumnVec>,
    live: Bitmap,
    len: usize,
}

impl Columns {
    pub fn from_schema(schema: &TableSchema) -> Columns {
        Columns {
            cols: schema.columns.iter().map(|c| ColumnVec::for_type(&c.dtype)).collect(),
            live: Bitmap::new(),
            len: 0,
        }
    }

    /// Slot capacity (equals the table's `slot_count`).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live-slot bitmap (set bit = occupied slot).
    pub fn live(&self) -> &Bitmap {
        &self.live
    }

    /// Typed read view of column `col`; `None` for array/struct columns.
    pub fn slice(&self, col: usize) -> Option<ColumnSlice<'_>> {
        match self.cols.get(col)? {
            ColumnVec::Int { data, valid } => Some(ColumnSlice::Int { data, valid }),
            ColumnVec::Float { data, valid } => Some(ColumnSlice::Float { data, valid }),
            ColumnVec::Bool { data, valid } => Some(ColumnSlice::Bool { data, valid }),
            ColumnVec::Str { codes, valid, dict } => {
                Some(ColumnSlice::Str { codes, valid, dict })
            }
            ColumnVec::Other => None,
        }
    }

    /// Write every column of slot `slot` from a canonicalized row and mark
    /// the slot live, growing the vectors as needed.
    pub(crate) fn set_row(&mut self, slot: usize, row: &[Value]) {
        self.ensure_len(slot + 1);
        for (c, v) in self.cols.iter_mut().zip(row.iter()) {
            c.set(slot, v);
        }
        self.live.set(slot, true);
    }

    /// Append a contiguous batch of canonicalized rows starting at
    /// `first_slot`, marking every slot live. The bulk-ingest counterpart of
    /// [`Columns::set_row`]: the vectors grow **once** for the whole batch
    /// and each column is filled column-at-a-time, so dictionary interning
    /// for a text column happens batch-at-a-time with the dictionary's hash
    /// map hot in cache instead of being revisited once per row.
    pub(crate) fn append_rows(&mut self, first_slot: usize, rows: &[Row]) {
        let n = rows.len();
        if n == 0 {
            return;
        }
        self.ensure_len(first_slot + n);
        for (ci, c) in self.cols.iter_mut().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                c.set(first_slot + i, &row[ci]);
            }
        }
        for i in 0..n {
            self.live.set(first_slot + i, true);
        }
    }

    /// Tombstone slot `slot` (validity cleared in every column).
    pub(crate) fn clear_slot(&mut self, slot: usize) {
        if slot >= self.len {
            return;
        }
        for c in &mut self.cols {
            c.clear_slot(slot);
        }
        self.live.set(slot, false);
    }

    fn ensure_len(&mut self, n: usize) {
        if n > self.len {
            self.len = n;
            self.live.ensure_len(n);
            for c in &mut self.cols {
                c.ensure_len(n);
            }
        }
    }

    /// Drop all data, keeping the column typing (for `TRUNCATE`).
    pub(crate) fn reset(&mut self) {
        for c in &mut self.cols {
            c.reset();
        }
        self.live.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::not_null("i", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("b", DataType::Bool),
                Column::new("s", DataType::Text),
                Column::new("a", DataType::Int.array_of()),
            ],
            vec![0],
        )
    }

    fn row(i: i64, f: Option<f64>, b: Option<bool>, s: Option<&str>) -> Vec<Value> {
        vec![
            Value::Int(i),
            f.map(Value::Float).unwrap_or(Value::Null),
            b.map(Value::Bool).unwrap_or(Value::Null),
            s.map(Value::str).unwrap_or(Value::Null),
            Value::Array(vec![Value::Int(i)]),
        ]
    }

    #[test]
    fn round_trips_scalar_cells_bit_identically() {
        let mut c = Columns::from_schema(&schema());
        let rows = [
            row(1, Some(1.5), Some(true), Some("x")),
            row(2, None, None, None),
            row(3, Some(f64::NAN), Some(false), Some("x")),
            row(4, Some(-0.0), Some(true), Some("y")),
        ];
        for (slot, r) in rows.iter().enumerate() {
            c.set_row(slot, r);
        }
        for col in 0..4 {
            let s = c.slice(col).expect("scalar column has a vector");
            for (slot, r) in rows.iter().enumerate() {
                let got = s.value_at(slot);
                // Bit-level check for floats: NaN payloads and -0.0 must
                // survive the typed vector exactly.
                match (&got, &r[col]) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "col {col} slot {slot}");
                    }
                    (a, b) => assert_eq!(a, b, "col {col} slot {slot}"),
                }
            }
        }
        assert!(c.slice(4).is_none(), "array column has no typed vector");
        assert_eq!(c.live().count_ones(), 4);
    }

    #[test]
    fn dictionary_shares_codes_and_reports_absent_literals() {
        let mut c = Columns::from_schema(&schema());
        c.set_row(0, &row(1, None, None, Some("alpha")));
        c.set_row(1, &row(2, None, None, Some("beta")));
        c.set_row(2, &row(3, None, None, Some("alpha")));
        let Some(ColumnSlice::Str { codes, dict, .. }) = c.slice(3) else {
            panic!("text column slice")
        };
        assert_eq!(codes[0], codes[2], "equal strings share a code");
        assert_ne!(codes[0], codes[1]);
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.code_of("alpha"), Some(codes[0]));
        assert_eq!(dict.code_of("gamma"), None);
    }

    #[test]
    fn clear_slot_tombstones_and_reset_empties() {
        let mut c = Columns::from_schema(&schema());
        c.set_row(0, &row(1, Some(2.0), None, Some("x")));
        c.set_row(1, &row(2, Some(3.0), None, Some("y")));
        c.clear_slot(0);
        assert!(!c.live().get(0));
        assert!(c.live().get(1));
        assert_eq!(c.slice(0).unwrap().value_at(0), Value::Null, "cleared slot reads NULL");
        // Re-occupying the slot (free-list recycling) overwrites in place.
        c.set_row(0, &row(9, None, Some(true), None));
        assert_eq!(c.slice(0).unwrap().value_at(0), Value::Int(9));
        assert_eq!(c.slice(1).unwrap().value_at(0), Value::Null, "new row has NULL float");
        c.reset();
        assert_eq!(c.len(), 0);
        assert_eq!(c.live().count_ones(), 0);
    }

    #[test]
    fn bitmap_word_boundaries() {
        let mut b = Bitmap::new();
        b.ensure_len(130);
        for i in [0usize, 63, 64, 127, 128, 129] {
            b.set(i, true);
        }
        b.set(64, false);
        assert!(b.get(0) && b.get(63) && !b.get(64) && b.get(127) && b.get(128) && b.get(129));
        assert_eq!(b.count_ones(), 5);
    }
}
