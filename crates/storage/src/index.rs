//! Secondary indexes: hash (equality) and BTree (equality + range).
//!
//! Index keys are single [`Value`]s; composite keys are represented as
//! `Value::Struct`, matching [`crate::schema::TableSchema::key_of`].

use crate::cow::ShardedMap;
use crate::row::RowId;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Which index structure to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IndexKind {
    Hash,
    BTree,
}

/// Equality-only hash index.
///
/// Keys live in a [`ShardedMap`], so a commit under a published snapshot
/// copies only the shards it writes. A key with one row keeps its id
/// inline; the second row spills the ids to a `Vec` (secondary indexes).
#[derive(Debug, Default, Clone)]
pub struct HashIndex {
    map: ShardedMap<Value, RowIds>,
    entries: usize,
}

/// The row ids of one hash-index key: inline while there is one.
#[derive(Debug, Clone)]
enum RowIds {
    One(RowId),
    Many(Vec<RowId>),
}

impl RowIds {
    fn as_slice(&self) -> &[RowId] {
        match self {
            RowIds::One(rid) => std::slice::from_ref(rid),
            RowIds::Many(rids) => rids,
        }
    }

    fn push(&mut self, rid: RowId) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(vec![*first, rid]),
            RowIds::Many(rids) => rids.push(rid),
        }
    }

    /// Drop `rid`: `None` when it was not there, else whether ids remain.
    fn remove(&mut self, rid: RowId) -> Option<bool> {
        match self {
            RowIds::One(r) => (*r == rid).then_some(false),
            RowIds::Many(rids) => {
                let pos = rids.iter().position(|r| *r == rid)?;
                rids.swap_remove(pos);
                if let [last] = rids[..] {
                    *self = RowIds::One(last);
                }
                Some(true)
            }
        }
    }
}

impl HashIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, key: Value, rid: RowId) {
        self.map.upsert(key, || RowIds::One(rid), |rids| rids.push(rid));
        self.entries += 1;
    }

    pub fn remove(&mut self, key: &Value, rid: RowId) {
        let Some(rids) = self.map.get_mut(key) else { return };
        let Some(left) = rids.remove(rid) else { return };
        self.entries -= 1;
        if !left {
            self.map.remove(key);
        }
    }

    /// Row ids with exactly this key.
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map(RowIds::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Total (key, rowid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Shards not shared with `other` (see [`ShardedMap::unshared_with`]).
    #[cfg(test)]
    pub(crate) fn unshared_with(&self, other: &HashIndex) -> usize {
        self.map.unshared_with(&other.map)
    }
}

/// Ordered index supporting range scans.
#[derive(Debug, Default, Clone)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<RowId>>,
    entries: usize,
}

impl BTreeIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, key: Value, rid: RowId) {
        self.map.entry(key).or_default().push(rid);
        self.entries += 1;
    }

    pub fn remove(&mut self, key: &Value, rid: RowId) {
        if let Some(v) = self.map.get_mut(key) {
            if let Some(pos) = v.iter().position(|r| *r == rid) {
                v.swap_remove(pos);
                self.entries -= 1;
            }
            if v.is_empty() {
                self.map.remove(key);
            }
        }
    }

    pub fn get(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Row ids whose key lies within the given bounds, in key order.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        let mut out = Vec::new();
        for (_, rids) in self.map.range::<Value, _>((lo, hi)) {
            out.extend_from_slice(rids);
        }
        out
    }

    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Smallest and largest keys present.
    pub fn min_max(&self) -> Option<(&Value, &Value)> {
        let min = self.map.keys().next()?;
        let max = self.map.keys().next_back()?;
        Some((min, max))
    }
}

/// A named secondary index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    pub name: String,
    /// Column positions forming the key (composite keys become structs).
    pub columns: Vec<usize>,
    pub structure: IndexStructure,
}

/// The backing structure of a [`SecondaryIndex`].
#[derive(Debug, Clone)]
pub enum IndexStructure {
    Hash(HashIndex),
    BTree(BTreeIndex),
}

impl SecondaryIndex {
    pub fn new(name: impl Into<String>, columns: Vec<usize>, kind: IndexKind) -> Self {
        SecondaryIndex {
            name: name.into(),
            columns,
            structure: match kind {
                IndexKind::Hash => IndexStructure::Hash(HashIndex::new()),
                IndexKind::BTree => IndexStructure::BTree(BTreeIndex::new()),
            },
        }
    }

    pub fn kind(&self) -> IndexKind {
        match self.structure {
            IndexStructure::Hash(_) => IndexKind::Hash,
            IndexStructure::BTree(_) => IndexKind::BTree,
        }
    }

    /// Build the index key for a row.
    pub fn key_of(&self, row: &[Value]) -> Value {
        match self.columns.as_slice() {
            [i] => row[*i].clone(),
            ks => Value::Struct(ks.iter().map(|&i| row[i].clone()).collect()),
        }
    }

    pub fn insert(&mut self, row: &[Value], rid: RowId) {
        let key = self.key_of(row);
        match &mut self.structure {
            IndexStructure::Hash(h) => h.insert(key, rid),
            IndexStructure::BTree(b) => b.insert(key, rid),
        }
    }

    pub fn remove(&mut self, row: &[Value], rid: RowId) {
        let key = self.key_of(row);
        match &mut self.structure {
            IndexStructure::Hash(h) => h.remove(&key, rid),
            IndexStructure::BTree(b) => b.remove(&key, rid),
        }
    }

    /// Move `rid` from `old`'s key to `new`'s; a no-op when the key is
    /// unchanged.
    pub fn update(&mut self, old: &[Value], new: &[Value], rid: RowId) {
        if self.columns.iter().any(|&c| old[c] != new[c]) {
            self.remove(old, rid);
            self.insert(new, rid);
        }
    }

    pub fn lookup(&self, key: &Value) -> Vec<RowId> {
        match &self.structure {
            IndexStructure::Hash(h) => h.get(key).to_vec(),
            IndexStructure::BTree(b) => b.get(key).to_vec(),
        }
    }

    /// Range lookup; only supported by BTree indexes.
    pub fn lookup_range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Option<Vec<RowId>> {
        match &self.structure {
            IndexStructure::Hash(_) => None,
            IndexStructure::BTree(b) => Some(b.range(lo, hi)),
        }
    }

    pub fn distinct_keys(&self) -> usize {
        match &self.structure {
            IndexStructure::Hash(h) => h.distinct_keys(),
            IndexStructure::BTree(b) => b.distinct_keys(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_insert_get_remove() {
        let mut idx = HashIndex::new();
        idx.insert(Value::Int(1), RowId(10));
        idx.insert(Value::Int(1), RowId(11));
        idx.insert(Value::Int(2), RowId(12));
        assert_eq!(idx.get(&Value::Int(1)).len(), 2);
        assert_eq!(idx.len(), 3);
        idx.remove(&Value::Int(1), RowId(10));
        assert_eq!(idx.get(&Value::Int(1)), &[RowId(11)]);
        idx.remove(&Value::Int(1), RowId(11));
        assert!(idx.get(&Value::Int(1)).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
        idx.remove(&Value::Int(2), RowId(99));
        assert_eq!(idx.get(&Value::Int(2)), &[RowId(12)], "removing an absent id is a no-op");
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn hash_index_spills_and_folds_back_inline() {
        let mut idx = HashIndex::new();
        for i in 0..3 {
            idx.insert(Value::Int(7), RowId(i));
        }
        assert_eq!(idx.get(&Value::Int(7)), &[RowId(0), RowId(1), RowId(2)]);
        idx.remove(&Value::Int(7), RowId(0));
        idx.remove(&Value::Int(7), RowId(2));
        assert_eq!(idx.get(&Value::Int(7)), &[RowId(1)]);
        assert!(matches!(idx.map.get(&Value::Int(7)), Some(RowIds::One(RowId(1)))));
        // Int and integral Float keys compare and hash equal, so they share
        // a shard and an entry.
        idx.insert(Value::Float(7.0), RowId(5));
        assert_eq!(idx.get(&Value::Int(7)), &[RowId(1), RowId(5)]);
        assert_eq!((idx.len(), idx.distinct_keys()), (2, 1));
    }

    #[test]
    fn btree_range_scan_ordered() {
        let mut idx = BTreeIndex::new();
        for i in 0..10 {
            idx.insert(Value::Int(i), RowId(i as u64));
        }
        let got = idx.range(Bound::Included(&Value::Int(3)), Bound::Excluded(&Value::Int(7)));
        assert_eq!(got, vec![RowId(3), RowId(4), RowId(5), RowId(6)]);
        let (min, max) = idx.min_max().unwrap();
        assert_eq!((min, max), (&Value::Int(0), &Value::Int(9)));
    }

    #[test]
    fn secondary_index_composite_key() {
        let mut idx = SecondaryIndex::new("ix", vec![0, 2], IndexKind::Hash);
        let row = vec![Value::Int(1), Value::str("skip"), Value::str("k")];
        idx.insert(&row, RowId(0));
        let key = Value::Struct(vec![Value::Int(1), Value::str("k")]);
        assert_eq!(idx.lookup(&key), vec![RowId(0)]);
        idx.remove(&row, RowId(0));
        assert!(idx.lookup(&key).is_empty());
    }

    #[test]
    fn hash_index_has_no_range() {
        let idx = SecondaryIndex::new("ix", vec![0], IndexKind::Hash);
        assert!(idx.lookup_range(Bound::Unbounded, Bound::Unbounded).is_none());
    }
}
