//! Undo-log transactions spanning multiple tables — now WAL-aware.
//!
//! The paper identifies "a single update may require updating multiple
//! tables (depending on the mapping of the E/R model to the physical
//! storage)" as a key OLTP challenge of the E/R abstraction. The mapping
//! layer's CRUD translator emits several physical operations per logical
//! operation; this module makes that group atomic: run every operation
//! through a [`Transaction`], then [`Transaction::commit`] (drop the log) or
//! [`Transaction::rollback`] (replay inverse operations newest-first).
//!
//! Durability rides the same grouping. A logging transaction additionally
//! accumulates redo records ([`WalRecord`]s, post-canonicalization so redo
//! reproduces bit-exact state) and, on success, flushes them as ONE
//! `Begin .. ops .. Commit` group to the [`Wal`] — see
//! [`Transaction::run_with`]. Rolled-back transactions never touch disk,
//! and a crash tears at most the (discarded) tail of one group.

use crate::catalog::Catalog;
use crate::error::{StorageError, StorageResult};
use crate::row::{Row, RowId};
use crate::wal::{Wal, WalRecord};

/// One inverse operation recorded in the undo log.
#[derive(Debug, Clone)]
pub enum UndoEntry {
    /// A row was inserted; undo by deleting it.
    Insert { table: String, rid: RowId },
    /// A contiguous batch landed at the table's tail; undo by deleting the
    /// batch slots (newest first).
    BulkInsert { table: String, first: RowId, count: usize },
    /// A row was deleted; undo by restoring the old contents into its slot.
    Delete { table: String, rid: RowId, old: Row },
    /// A row was updated; undo by writing the old contents back.
    Update { table: String, rid: RowId, old: Row },
    /// A table was created; undo by dropping it.
    CreateTable { table: String },
}

/// An in-flight multi-table transaction.
///
/// The transaction does not take locks — the storage layer is single-writer
/// by construction (the `Database` facade serializes writers). What it
/// provides is atomicity: all-or-nothing application of a group of physical
/// mutations, plus (when constructed with [`Transaction::logged`]) a redo
/// log destined for the WAL.
#[derive(Debug, Default)]
pub struct Transaction {
    undo: Vec<UndoEntry>,
    /// Redo records accumulated for the WAL. Empty unless `logging`.
    log: Vec<WalRecord>,
    logging: bool,
}

impl Transaction {
    pub fn new() -> Transaction {
        Transaction::default()
    }

    /// A transaction that additionally accumulates WAL redo records; flush
    /// them at commit with [`Transaction::flush_to_wal`] (or use
    /// [`Transaction::run_with`], which does both ends).
    pub fn logged() -> Transaction {
        Transaction { logging: true, ..Transaction::default() }
    }

    /// Number of operations performed so far.
    pub fn len(&self) -> usize {
        self.undo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.undo.is_empty()
    }

    /// Insert through the transaction.
    pub fn insert(&mut self, cat: &mut Catalog, table: &str, row: Row) -> StorageResult<RowId> {
        let rid = cat.table_mut(table)?.insert(row)?;
        self.undo.push(UndoEntry::Insert { table: table.to_string(), rid });
        if self.logging {
            // Log the canonicalized stored representation, not the input:
            // redo bypasses validation and must reproduce bit-exact state.
            let stored = cat.table(table)?.get(rid).cloned().unwrap_or_default();
            self.log.push(WalRecord::Insert { table: table.to_string(), rid: rid.0, row: stored });
        }
        Ok(rid)
    }

    /// Bulk-insert a contiguous batch through the transaction — the
    /// bulk-ingest fast path. One undo entry and ONE compact
    /// [`WalRecord::BulkInsert`] cover the whole batch (the per-row path
    /// logs one record per row). Returns `(first RowId, count)`; the batch
    /// occupies slots `first .. first + count` at the table's tail (see
    /// [`crate::table::Table::bulk_append`]).
    pub fn bulk_insert(
        &mut self,
        cat: &mut Catalog,
        table: &str,
        rows: Vec<Row>,
    ) -> StorageResult<(RowId, usize)> {
        let (first, n) = cat.table_mut(table)?.bulk_append(rows)?;
        if n == 0 {
            return Ok((RowId(first), 0));
        }
        self.undo.push(UndoEntry::BulkInsert {
            table: table.to_string(),
            first: RowId(first),
            count: n,
        });
        if self.logging {
            // Log the canonicalized stored representation (see `insert`).
            let t = cat.table(table)?;
            let stored: Vec<Row> = (first..first + n as u64)
                .map(|slot| t.get(RowId(slot)).cloned().unwrap_or_default())
                .collect();
            self.log.push(WalRecord::BulkInsert { table: table.to_string(), first, rows: stored });
        }
        Ok((RowId(first), n))
    }

    /// Update through the transaction.
    pub fn update(
        &mut self,
        cat: &mut Catalog,
        table: &str,
        rid: RowId,
        new_row: Row,
    ) -> StorageResult<()> {
        let old = cat.table_mut(table)?.update(rid, new_row)?;
        self.undo.push(UndoEntry::Update { table: table.to_string(), rid, old });
        if self.logging {
            let stored = cat.table(table)?.get(rid).cloned().unwrap_or_default();
            self.log.push(WalRecord::Update { table: table.to_string(), rid: rid.0, row: stored });
        }
        Ok(())
    }

    /// Delete through the transaction.
    pub fn delete(&mut self, cat: &mut Catalog, table: &str, rid: RowId) -> StorageResult<Row> {
        let old = cat.table_mut(table)?.delete(rid)?;
        self.undo.push(UndoEntry::Delete { table: table.to_string(), rid, old: old.clone() });
        if self.logging {
            self.log.push(WalRecord::Delete { table: table.to_string(), rid: rid.0 });
        }
        Ok(old)
    }

    /// Create a table through the transaction (rolled back by dropping).
    pub fn create_table(&mut self, cat: &mut Catalog, table: crate::table::Table) -> StorageResult<()> {
        let name = table.name().to_string();
        let schema_json = if self.logging {
            serde_json::to_string(table.schema())
                .map_err(|e| StorageError::Metadata(e.to_string()))?
        } else {
            String::new()
        };
        cat.create_table(table)?;
        self.undo.push(UndoEntry::CreateTable { table: name });
        if self.logging {
            self.log.push(WalRecord::CreateTable { schema_json });
        }
        Ok(())
    }

    /// Write the accumulated redo records to the WAL as one committed
    /// group. Returns the group's transaction id (0 for an empty group).
    /// The redo log is drained; the undo log is untouched, so the caller
    /// can still roll back if the flush itself fails.
    pub fn flush_to_wal(&mut self, wal: &mut Wal) -> StorageResult<u64> {
        let records = std::mem::take(&mut self.log);
        wal.commit_group(&records)
    }

    /// Like [`Transaction::flush_to_wal`] but *deferring durability*: the
    /// group is appended without applying the sync policy, and the caller
    /// receives `(txn_id, lsn)` to park on a
    /// [`crate::group_commit::GroupCommitter`] after releasing the writer
    /// lock. An empty transaction returns LSN 0 (nothing to make durable —
    /// `wait_durable(0)` is an immediate no-op).
    pub fn flush_to_wal_deferred(&mut self, wal: &mut Wal) -> StorageResult<(u64, u64)> {
        let records = std::mem::take(&mut self.log);
        if records.is_empty() {
            let (txn, _) = wal.append_group(&records)?;
            return Ok((txn, 0));
        }
        wal.append_group(&records)
    }

    /// Make the transaction's effects permanent.
    pub fn commit(self) {
        // Dropping the undo log is all that is needed.
    }

    /// Revert every operation, newest first.
    pub fn rollback(mut self, cat: &mut Catalog) -> StorageResult<()> {
        while let Some(entry) = self.undo.pop() {
            match entry {
                UndoEntry::Insert { table, rid } => {
                    cat.table_mut(&table)?.delete(rid)?;
                }
                UndoEntry::BulkInsert { table, first, count } => {
                    let t = cat.table_mut(&table)?;
                    for i in (0..count).rev() {
                        t.delete(RowId(first.0 + i as u64))?;
                    }
                }
                UndoEntry::Delete { table, rid, old } => {
                    cat.table_mut(&table)?.restore(rid, old)?;
                }
                UndoEntry::Update { table, rid, old } => {
                    cat.table_mut(&table)?.update(rid, old)?;
                }
                UndoEntry::CreateTable { table } => {
                    cat.drop_table(&table)?;
                }
            }
        }
        Ok(())
    }

    /// Run `f` atomically: commit on `Ok`, roll back on `Err`.
    pub fn run<T>(
        cat: &mut Catalog,
        f: impl FnOnce(&mut Transaction, &mut Catalog) -> StorageResult<T>,
    ) -> StorageResult<T> {
        Transaction::run_with(cat, None, f)
    }

    /// Run `f` atomically AND durably: on `Ok`, the group's redo records
    /// are written to `wal` (when present) before the in-memory commit is
    /// acknowledged; on `Err` — including a failed WAL flush — every
    /// in-memory effect is rolled back and nothing reaches disk.
    pub fn run_with<T>(
        cat: &mut Catalog,
        wal: Option<&mut Wal>,
        f: impl FnOnce(&mut Transaction, &mut Catalog) -> StorageResult<T>,
    ) -> StorageResult<T> {
        let mut txn = if wal.is_some() { Transaction::logged() } else { Transaction::new() };
        match f(&mut txn, cat) {
            Ok(v) => {
                if let Some(w) = wal {
                    if let Err(e) = txn.flush_to_wal(w) {
                        txn.rollback(cat).map_err(|re| {
                            StorageError::Internal(format!(
                                "rollback failed: {re} (original error: {e})"
                            ))
                        })?;
                        return Err(e);
                    }
                }
                txn.commit();
                Ok(v)
            }
            Err(e) => {
                txn.rollback(cat).map_err(|re| {
                    StorageError::Internal(format!("rollback failed: {re} (original error: {e})"))
                })?;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn setup() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Table::new(TableSchema::new(
            "t",
            vec![Column::not_null("id", DataType::Int), Column::new("v", DataType::Text)],
            vec![0],
        )))
        .unwrap();
        c
    }

    fn row(id: i64, v: &str) -> Row {
        vec![Value::Int(id), Value::str(v)]
    }

    #[test]
    fn commit_keeps_changes() {
        let mut c = setup();
        let mut txn = Transaction::new();
        txn.insert(&mut c, "t", row(1, "a")).unwrap();
        txn.commit();
        assert_eq!(c.table("t").unwrap().len(), 1);
    }

    #[test]
    fn rollback_reverts_mixed_operations_in_order() {
        let mut c = setup();
        let rid0 = c.table_mut("t").unwrap().insert(row(1, "a")).unwrap();
        c.table_mut("t").unwrap().insert(row(2, "b")).unwrap();

        let mut txn = Transaction::new();
        txn.insert(&mut c, "t", row(3, "c")).unwrap();
        txn.update(&mut c, "t", rid0, row(1, "a2")).unwrap();
        txn.delete(&mut c, "t", rid0).unwrap();
        txn.rollback(&mut c).unwrap();

        let t = c.table("t").unwrap();
        assert_eq!(t.len(), 2);
        let (_, r) = t.lookup_pk(&Value::Int(1)).unwrap();
        assert_eq!(r[1], Value::str("a"), "update also reverted");
        assert!(t.lookup_pk(&Value::Int(3)).is_none());
    }

    #[test]
    fn rollback_restores_secondary_indexes() {
        use crate::index::IndexKind;
        let mut c = setup();
        c.table_mut("t").unwrap().create_index("ix_v", vec![1], IndexKind::Hash).unwrap();
        let rid0 = c.table_mut("t").unwrap().insert(row(1, "a")).unwrap();
        let rid1 = c.table_mut("t").unwrap().insert(row(2, "b")).unwrap();

        let mut txn = Transaction::new();
        txn.update(&mut c, "t", rid0, row(1, "zz")).unwrap();
        txn.delete(&mut c, "t", rid1).unwrap();
        txn.insert(&mut c, "t", row(3, "c")).unwrap();
        txn.rollback(&mut c).unwrap();

        let t = c.table("t").unwrap();
        let by = |v: &str| {
            t.index_lookup(&[1], &Value::str(v))
                .map(|hits| hits.into_iter().map(|(rid, _)| rid).collect::<Vec<_>>())
                .unwrap_or_default()
        };
        assert_eq!(by("a"), vec![rid0], "updated key restored in the index");
        assert_eq!(by("b"), vec![rid1], "deleted row restored in the index");
        assert!(by("zz").is_empty(), "transient update key removed");
        assert!(by("c").is_empty(), "rolled-back insert not indexed");
    }

    #[test]
    fn run_rolls_back_on_error() {
        let mut c = setup();
        let result: StorageResult<()> = Transaction::run(&mut c, |txn, cat| {
            txn.insert(cat, "t", row(1, "a"))?;
            txn.insert(cat, "t", row(1, "dup"))?; // duplicate key fails
            Ok(())
        });
        assert!(result.is_err());
        assert_eq!(c.table("t").unwrap().len(), 0, "first insert rolled back");
    }

    #[test]
    fn run_commits_on_success() {
        let mut c = setup();
        Transaction::run(&mut c, |txn, cat| {
            txn.insert(cat, "t", row(1, "a"))?;
            txn.insert(cat, "t", row(2, "b"))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(c.table("t").unwrap().len(), 2);
    }

    #[test]
    fn create_table_rolls_back() {
        let mut c = setup();
        let result: StorageResult<()> = Transaction::run(&mut c, |txn, cat| {
            txn.create_table(
                cat,
                Table::new(TableSchema::new(
                    "side",
                    vec![Column::not_null("k", DataType::Int)],
                    vec![0],
                )),
            )?;
            txn.insert(cat, "side", vec![Value::Int(9)])?;
            Err(StorageError::Internal("boom".into()))
        });
        assert!(result.is_err());
        assert!(!c.has_table("side"));
    }

    #[test]
    fn pk_index_consistent_after_rollback() {
        let mut c = setup();
        let rid = c.table_mut("t").unwrap().insert(row(1, "a")).unwrap();
        let mut txn = Transaction::new();
        txn.delete(&mut c, "t", rid).unwrap();
        txn.insert(&mut c, "t", row(1, "reborn")).unwrap();
        txn.rollback(&mut c).unwrap();
        let (_, r) = c.table("t").unwrap().lookup_pk(&Value::Int(1)).unwrap();
        assert_eq!(r[1], Value::str("a"));
    }

    #[test]
    fn bulk_insert_rolls_back_whole_batch() {
        let mut c = setup();
        c.table_mut("t").unwrap().insert(row(1, "keep")).unwrap();
        let mut txn = Transaction::new();
        let (first, n) = txn
            .bulk_insert(&mut c, "t", vec![row(2, "a"), row(3, "b"), row(4, "c")])
            .unwrap();
        assert_eq!((first, n), (RowId(1), 3));
        // A later per-row delete inside the same txn composes with the
        // batch undo (it restores the slot first, newest-first).
        txn.delete(&mut c, "t", RowId(2)).unwrap();
        txn.rollback(&mut c).unwrap();
        let t = c.table("t").unwrap();
        assert_eq!(t.len(), 1, "whole batch reverted");
        assert!(t.lookup_pk(&Value::Int(1)).is_some());
        assert!(t.lookup_pk(&Value::Int(3)).is_none());
    }

    #[test]
    fn bulk_insert_logs_one_compact_record() {
        let mut c = Catalog::new();
        c.create_table(Table::new(TableSchema::new(
            "m",
            vec![Column::not_null("id", DataType::Int), Column::new("score", DataType::Float)],
            vec![0],
        )))
        .unwrap();
        let mut txn = Transaction::logged();
        txn.bulk_insert(
            &mut c,
            "m",
            vec![vec![Value::Int(1), Value::Int(5)], vec![Value::Int(2), Value::Null]],
        )
        .unwrap();
        assert_eq!(txn.log.len(), 1, "one record for the whole batch");
        match &txn.log[0] {
            WalRecord::BulkInsert { table, first, rows } => {
                assert_eq!((table.as_str(), *first, rows.len()), ("m", 0, 2));
                assert!(
                    matches!(rows[0][1], Value::Float(f) if f == 5.0),
                    "logged post-canonicalization"
                );
            }
            other => panic!("unexpected record {other:?}"),
        }
        // Empty batches log nothing and create no undo work.
        assert_eq!(txn.bulk_insert(&mut c, "m", Vec::new()).unwrap().1, 0);
        assert_eq!(txn.log.len(), 1);
        txn.commit();
    }

    #[test]
    fn logged_txn_accumulates_canonical_rows() {
        let mut c = Catalog::new();
        c.create_table(Table::new(TableSchema::new(
            "m",
            vec![Column::not_null("id", DataType::Int), Column::new("score", DataType::Float)],
            vec![0],
        )))
        .unwrap();
        let mut txn = Transaction::logged();
        txn.insert(&mut c, "m", vec![Value::Int(1), Value::Int(5)]).unwrap();
        match &txn.log[0] {
            WalRecord::Insert { row, .. } => {
                assert!(matches!(row[1], Value::Float(f) if f == 5.0), "logged post-canonicalization");
            }
            other => panic!("unexpected record {other:?}"),
        }
        txn.commit();
    }
}
