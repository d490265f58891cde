//! Slotted row tables with primary-key enforcement and secondary indexes.

use crate::buffer_pool::BufferPool;
use crate::column::{Bitmap, ColumnSlice, Columns};
use crate::error::{StorageError, StorageResult};
use crate::index::{HashIndex, IndexKind, SecondaryIndex};
use crate::pages::{page_rows_for, PageData, RowStore};
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::stats::{ColumnStats, TableStats, NDV_CAP};
use crate::value::Value;
use rustc_hash::FxHashSet;
use std::hash::Hash;
use std::sync::Arc;

/// An in-memory table.
///
/// Rows live in stable slots: deleting a row tombstones its slot and the
/// slot is recycled by a later insert, so [`RowId`]s held by indexes remain
/// valid for live rows. The primary key (if declared in the schema) is
/// enforced with a unique hash index that is maintained on every mutation.
///
/// Alongside the row-shaped slot vector, every scalar column is mirrored in
/// a typed column vector ([`Columns`]) maintained eagerly by all five write
/// paths (insert / update / delete / restore / truncate — `place_at` and
/// `from_slots` both funnel through `restore`). The row view stays
/// authoritative for WAL, snapshots, CRUD, and the txn undo log; the column
/// view feeds the engine's vectorized kernels and one-pass statistics. The
/// two views are slot-aligned by construction.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    /// The row view, split into fixed-size pages managed by a
    /// [`BufferPool`] (see [`crate::pages`]). Slot indices are unchanged
    /// from the old flat `Vec<Option<Row>>`; only residency is managed.
    rows: RowStore,
    cols: Columns,
    free: Vec<u64>,
    live: usize,
    pk_index: Option<HashIndex>,
    indexes: Vec<SecondaryIndex>,
    /// Monotonic content version, bumped by `Catalog::table_mut` every time
    /// a writer checks the table out for mutation. Incremental checkpoints
    /// compare it against the version captured at the last checkpoint to
    /// decide whether the table must be re-serialized into a delta.
    content_epoch: u64,
}

impl Table {
    /// Create an empty table. A primary-key index is created automatically
    /// when the schema declares key columns.
    pub fn new(schema: TableSchema) -> Table {
        Table::with_pool(schema, BufferPool::unbounded())
    }

    /// Create an empty table whose row pages are managed by `pool`.
    /// [`Table::new`] binds the process-wide unbounded pool; the catalog
    /// rebinds tables to its own pool on install (see
    /// `Catalog::reclaim_pages`).
    pub fn with_pool(schema: TableSchema, pool: Arc<BufferPool>) -> Table {
        let pk_index = if schema.primary_key.is_empty() { None } else { Some(HashIndex::new()) };
        let cols = Columns::from_schema(&schema);
        let rows = RowStore::new(schema.arity(), page_rows_for(&schema), pool);
        Table {
            schema,
            rows,
            cols,
            free: Vec::new(),
            live: 0,
            pk_index,
            indexes: Vec::new(),
            content_epoch: 0,
        }
    }

    /// Rebind the row pages to another buffer pool (catalog install and
    /// recovery wiring). No-op when already bound to `pool`.
    pub(crate) fn bind_pool(&mut self, pool: &Arc<BufferPool>) {
        self.rows.rebind(pool);
    }

    /// One clock-sweep reclaim pass over this table's pages (see
    /// `RowStore::reclaim`). Returns pages evicted.
    pub(crate) fn reclaim_pages(&mut self, force: bool) -> StorageResult<usize> {
        self.rows.reclaim(force)
    }

    /// Rows per page of the paged row store (power of two; schema-derived).
    pub fn page_rows(&self) -> usize {
        self.rows.page_rows()
    }

    /// Number of pages currently backing the row store.
    pub fn page_count(&self) -> usize {
        self.rows.page_count()
    }

    /// Row pages written since the last checkpoint, tagged with the first
    /// slot index each covers (see `RowStore::unsaved_pages`).
    pub(crate) fn unsaved_pages(&self) -> impl Iterator<Item = (usize, Arc<PageData>)> + '_ {
        self.rows.unsaved_pages()
    }

    /// Number of row pages written since the last checkpoint.
    pub(crate) fn unsaved_page_count(&self) -> usize {
        self.rows.unsaved_page_count()
    }

    /// Forget which pages changed: the checkpoint now holds all of them.
    pub(crate) fn mark_pages_saved(&self) {
        self.rows.mark_saved();
    }

    /// Monotonic content version (see the field doc). Two observations of
    /// the same table with equal content epochs are guaranteed unchanged;
    /// unequal epochs mean a writer checked the table out in between.
    pub fn content_epoch(&self) -> u64 {
        self.content_epoch
    }

    /// Bump the content version. Called by `Catalog::table_mut` alongside
    /// dirty-set maintenance, before the writer touches any row.
    pub(crate) fn bump_content_epoch(&mut self) {
        self.content_epoch += 1;
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a validated row; returns its id. The stored representation is
    /// canonicalized (Ints bound for Float columns widen to `Value::Float`,
    /// see [`TableSchema::canonicalize_row`]) so join/group/index keys over
    /// a column always share one physical type.
    pub fn insert(&mut self, mut row: Row) -> StorageResult<RowId> {
        self.schema.validate_row(&row)?;
        self.schema.canonicalize_row(&mut row);
        if let Some(key) = self.schema.key_of(&row) {
            let pk = self.pk_index.as_ref().expect("pk index exists when key declared");
            if !pk.get(&key).is_empty() {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: key.to_string(),
                });
            }
        }
        let rid = match self.free.pop() {
            Some(slot) => {
                self.rows.set(slot as usize, Some(row));
                RowId(slot)
            }
            None => {
                self.rows.push(Some(row));
                RowId(self.rows.len() as u64 - 1)
            }
        };
        self.live += 1;
        self.index_slot(rid);
        Ok(rid)
    }

    /// Mirror the freshly stored row at `rid` into the column view, the
    /// primary key and every secondary index. Borrows the stored row and
    /// the maintained structures as disjoint fields, so nothing is cloned.
    fn index_slot(&mut self, rid: RowId) {
        let row = self.rows.get(rid.idx()).expect("slot just stored");
        self.cols.set_row(rid.idx(), row);
        if let Some(key) = self.schema.key_of(row) {
            self.pk_index.as_mut().expect("key_of implies pk index").insert(key, rid);
        }
        for idx in &mut self.indexes {
            idx.insert(row, rid);
        }
    }

    /// Append a batch of rows at the tail in one shot — the bulk-ingest
    /// fast path. Compared with a loop over [`Table::insert`]:
    ///
    /// - validation, canonicalization, and primary-key checks (against the
    ///   index **and** within the batch) run up front, so a failure leaves
    ///   the table untouched instead of half-ingested;
    /// - the typed column vectors grow once for the whole batch and are
    ///   filled column-at-a-time (dictionary interning batch-at-a-time);
    /// - secondary indexes are extended in one pass at the end, not per row.
    ///
    /// Rows always land in fresh tail slots (`first..first+n`), never in
    /// recycled free-list slots, so the batch is contiguous — which is what
    /// lets the WAL describe it with a single compact `BulkInsert` record.
    /// Returns `(first_slot, row_count)`.
    pub fn bulk_append(&mut self, rows: Vec<Row>) -> StorageResult<(u64, usize)> {
        let mut canon: Vec<Row> = Vec::with_capacity(rows.len());
        let mut batch_keys: FxHashSet<Value> = FxHashSet::default();
        for mut row in rows {
            self.schema.validate_row(&row)?;
            self.schema.canonicalize_row(&mut row);
            if let Some(key) = self.schema.key_of(&row) {
                let pk = self.pk_index.as_ref().expect("pk index exists when key declared");
                if !pk.get(&key).is_empty() || !batch_keys.insert(key.clone()) {
                    return Err(StorageError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: key.to_string(),
                    });
                }
            }
            canon.push(row);
        }
        let first = self.rows.len();
        let n = canon.len();
        if n == 0 {
            return Ok((first as u64, 0));
        }
        self.cols.append_rows(first, &canon);
        for row in canon {
            self.rows.push(Some(row));
        }
        self.live += n;
        for slot in first..first + n {
            let rid = RowId(slot as u64);
            let row = self.rows.get(slot).expect("just appended");
            if let Some(key) = self.schema.key_of(row) {
                self.pk_index.as_mut().expect("pk index").insert(key, rid);
            }
            for idx in &mut self.indexes {
                idx.insert(row, rid);
            }
        }
        Ok((first as u64, n))
    }

    /// Fetch a live row (faulting its page in if evicted).
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid.idx())
    }

    /// Replace a live row in place (same slot, indexes maintained).
    /// Returns the previous contents. Canonicalizes like [`Table::insert`].
    pub fn update(&mut self, rid: RowId, mut new_row: Row) -> StorageResult<Row> {
        self.schema.validate_row(&new_row)?;
        self.schema.canonicalize_row(&mut new_row);
        let old = self
            .rows
            .get(rid.idx())
            .cloned()
            .ok_or_else(|| StorageError::RowNotFound { table: self.schema.name.clone(), row: rid.0 })?;
        // Primary-key change must stay unique.
        let old_key = self.schema.key_of(&old);
        let new_key = self.schema.key_of(&new_row);
        if let (Some(ok), Some(nk)) = (&old_key, &new_key) {
            if ok != nk {
                let pk = self.pk_index.as_ref().expect("pk index");
                if !pk.get(nk).is_empty() {
                    return Err(StorageError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: nk.to_string(),
                    });
                }
            }
        }
        // Index entries move only when their key does: an untouched key
        // leaves its shard shared with any snapshot.
        if let Some(pk) = self.pk_index.as_mut().filter(|_| old_key != new_key) {
            if let Some(ok) = &old_key {
                pk.remove(ok, rid);
            }
            if let Some(nk) = new_key {
                pk.insert(nk, rid);
            }
        }
        for idx in &mut self.indexes {
            idx.update(&old, &new_row, rid);
        }
        self.cols.set_row(rid.idx(), &new_row);
        self.rows.set(rid.idx(), Some(new_row));
        Ok(old)
    }

    /// Delete a live row; returns its contents.
    pub fn delete(&mut self, rid: RowId) -> StorageResult<Row> {
        let row = self
            .rows
            .take(rid.idx())
            .ok_or_else(|| StorageError::RowNotFound { table: self.schema.name.clone(), row: rid.0 })?;
        self.free.push(rid.0);
        self.live -= 1;
        self.cols.clear_slot(rid.idx());
        if let Some(key) = self.schema.key_of(&row) {
            self.pk_index.as_mut().expect("pk index").remove(&key, rid);
        }
        for idx in &mut self.indexes {
            idx.remove(&row, rid);
        }
        Ok(row)
    }

    /// Re-insert a previously deleted row into a specific slot (transaction
    /// rollback support). The slot must be free. The row is canonicalized
    /// like [`Table::insert`] so restored state is physically identical to
    /// freshly ingested state.
    pub(crate) fn restore(&mut self, rid: RowId, mut row: Row) -> StorageResult<()> {
        if rid.idx() >= self.rows.len() || self.rows.get(rid.idx()).is_some() {
            return Err(StorageError::Internal(format!(
                "restore into occupied or out-of-range slot {rid} of '{}'",
                self.schema.name
            )));
        }
        self.schema.canonicalize_row(&mut row);
        if let Some(pos) = self.free.iter().position(|s| *s == rid.0) {
            self.free.swap_remove(pos);
        }
        self.rows.set(rid.idx(), Some(row));
        self.live += 1;
        self.index_slot(rid);
        Ok(())
    }

    /// Place a row into an exact slot, growing the slot vector with
    /// tombstones as needed (WAL redo support: rows must land at the ids
    /// the log recorded, which free-list replay cannot guarantee because
    /// rolled-back transactions never reach the log). The caller is
    /// expected to call [`Table::rebuild_free`] once after replay.
    pub(crate) fn place_at(&mut self, rid: RowId, row: Row) -> StorageResult<()> {
        if rid.idx() >= self.rows.len() {
            let want = rid.idx().checked_add(1).ok_or_else(|| {
                StorageError::Corrupt(format!("row id {rid} overflows the slot space"))
            })?;
            self.rows.resize_none(want);
        }
        self.restore(rid, row)
    }

    /// Recompute the free list from the slot vector (after WAL redo, which
    /// places rows at exact slots rather than popping the free list).
    pub(crate) fn rebuild_free(&mut self) {
        let mut free = Vec::new();
        for (first, page) in self.rows.page_pins() {
            for (i, slot) in page.iter().enumerate() {
                if slot.is_none() {
                    free.push((first + i) as u64);
                }
            }
        }
        self.free = free;
    }

    /// Materialized slot vector (live rows and tombstones), for tests and
    /// snapshot round-trips. The snapshot must preserve slot positions
    /// exactly so that [`RowId`]s in the WAL suffix and in row-id link
    /// tables stay valid. Checkpoint encoding itself streams page by page
    /// via [`Table::page_pins`] instead of materializing this vector.
    #[cfg(test)]
    pub(crate) fn slots_vec(&self) -> Vec<Option<Row>> {
        self.rows.slots_vec()
    }

    /// The free list as a sorted set (test support: recovery rebuilds it in
    /// slot order, the live table in the order slots were freed).
    #[cfg(test)]
    pub(crate) fn free_slots(&self) -> Vec<u64> {
        let mut free = self.free.clone();
        free.sort_unstable();
        free
    }

    /// Transient pins over every page, in slot order, tagged with the first
    /// slot index each page covers. Pages evicted to the spill store are
    /// decoded without being re-installed as resident, so a full-table walk
    /// stays within the frame budget.
    pub(crate) fn page_pins(&self) -> impl Iterator<Item = (usize, Arc<PageData>)> + '_ {
        self.rows.page_pins()
    }

    /// Rebuild a table from a checkpointed slot vector: rows are validated,
    /// canonicalized, and indexed; the free list is derived from the
    /// tombstone positions. Production decoding streams slots one at a time
    /// through [`Table::load_slot`] instead; this materialized-vector form
    /// exists for round-trip tests.
    #[cfg(test)]
    pub(crate) fn from_slots(schema: TableSchema, slots: Vec<Option<Row>>) -> StorageResult<Table> {
        let mut t = Table::new(schema);
        for slot in slots {
            t.load_slot(slot)?;
        }
        t.rebuild_free();
        Ok(t)
    }

    /// Append one checkpointed slot (row or tombstone) at the next slot
    /// index: the streaming unit of the snapshot decoder. The caller is
    /// expected to run [`Table::rebuild_free`] once after the last slot.
    pub(crate) fn load_slot(&mut self, slot: Option<Row>) -> StorageResult<()> {
        let i = self.rows.len();
        match slot {
            None => self.rows.push(None),
            Some(mut row) => {
                self.schema.validate_row(&row)?;
                self.schema.canonicalize_row(&mut row);
                self.rows.push(Some(row));
                self.live += 1;
                self.index_slot(RowId(i as u64));
            }
        }
        Ok(())
    }

    /// Number of physical slots (live rows plus tombstones). Slot indexes
    /// `0..slot_count()` partition the table into contiguous ranges, which
    /// is what morsel-driven executors hand out to worker threads.
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Iterate the live rows whose slots fall in `range` (a morsel). The
    /// iterator borrows the table, so callers stream rows without cloning.
    ///
    /// # Bounds
    ///
    /// `range.end` may overshoot [`Table::slot_count`] — the final morsel of
    /// a fixed-size partition legitimately does — and is clamped. A
    /// `range.start` beyond `slot_count`, however, is caller off-by-one
    /// morsel math (a partition scheme can never produce one): it yields an
    /// empty iterator in release builds but panics under `debug_assertions`
    /// so kernel code cannot silently mask the bug.
    pub fn scan_slots(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = (RowId, &Row)> {
        debug_assert!(
            range.start <= self.rows.len(),
            "scan_slots range starts at {} but '{}' has only {} slots",
            range.start,
            self.schema.name,
            self.rows.len()
        );
        self.rows
            .iter_range(range.start, range.end)
            .map(|(i, row)| (RowId(i as u64), row))
    }

    /// Iterate live rows with their ids. Every call counts once in
    /// `erbium_storage_table_scans_total`, so a keyed path that falls back
    /// to a full pass shows up in the metrics.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        m_table_scans().inc();
        self.scan_slots(0..self.rows.len())
    }

    /// Column-major view of the table: typed vectors per scalar column plus
    /// the live-slot bitmap, slot-aligned with the row view. Array/struct
    /// columns have no typed vector (`Columns::slice` returns `None`);
    /// readers fall back to [`Table::get`] for those.
    pub fn columns(&self) -> &Columns {
        &self.cols
    }

    /// Typed read view of one column (`None` for array/struct columns).
    /// Shorthand for `self.columns().slice(col)`.
    pub fn column_slice(&self, col: usize) -> Option<ColumnSlice<'_>> {
        self.cols.slice(col)
    }

    /// Live-slot bitmap: bit `i` is set iff slot `i` holds a live row.
    /// Bits beyond the column view's length read as unset (trailing
    /// tombstones may leave the bitmap shorter than [`Table::slot_count`]).
    pub fn live_slots(&self) -> &Bitmap {
        self.cols.live()
    }

    /// Materialize all live rows (cloned).
    pub fn all_rows(&self) -> Vec<Row> {
        self.scan().map(|(_, r)| r.clone()).collect()
    }

    /// Primary-key point lookup.
    pub fn lookup_pk(&self, key: &Value) -> Option<(RowId, &Row)> {
        let pk = self.pk_index.as_ref()?;
        let rid = *pk.get(key).first()?;
        self.get(rid).map(|r| (rid, r))
    }

    /// Create a named secondary index over the given columns and backfill it.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        kind: IndexKind,
    ) -> StorageResult<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(StorageError::IndexExists(name));
        }
        for &c in &columns {
            if c >= self.schema.arity() {
                return Err(StorageError::ColumnNotFound {
                    table: self.schema.name.clone(),
                    column: format!("#{c}"),
                });
            }
        }
        let mut idx = SecondaryIndex::new(name, columns, kind);
        for (first, page) in self.rows.page_pins() {
            for (i, slot) in page.iter().enumerate() {
                if let Some(row) = slot {
                    idx.insert(row, RowId((first + i) as u64));
                }
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// Drop a secondary index by name.
    pub fn drop_index(&mut self, name: &str) -> StorageResult<()> {
        let pos = self
            .indexes
            .iter()
            .position(|i| i.name == name)
            .ok_or_else(|| StorageError::IndexNotFound(name.to_string()))?;
        self.indexes.remove(pos);
        Ok(())
    }

    /// All secondary indexes.
    pub fn indexes(&self) -> &[SecondaryIndex] {
        &self.indexes
    }

    /// Find a secondary index whose key is exactly `columns` (in order), or
    /// the primary key if it matches. Returns the rows for `key`.
    pub fn index_lookup(&self, columns: &[usize], key: &Value) -> Option<Vec<(RowId, &Row)>> {
        let rids = self.index_rids(columns, key)?;
        Some(rids.into_iter().filter_map(|rid| self.get(rid).map(|r| (rid, r))).collect())
    }

    /// Row ids for `key` from the primary key or a secondary index declared
    /// on exactly `columns`; `None` when no such index exists.
    fn index_rids(&self, columns: &[usize], key: &Value) -> Option<Vec<RowId>> {
        if columns == self.schema.primary_key.as_slice() {
            if let Some(pk) = &self.pk_index {
                return Some(pk.get(key).to_vec());
            }
        }
        Some(self.indexes.iter().find(|i| i.columns == columns)?.lookup(key))
    }

    /// Ids of the live rows whose `columns` equal `key` (one value per
    /// column, `Value` equality, so `Int(3)` matches `Float(3.0)` and NULL
    /// matches NULL), in slot order. This is the equality probe keyed
    /// access goes through: the primary key or a secondary index declared
    /// on exactly `columns` answers it when one exists; otherwise one typed
    /// pass over the column mirror does, with the key converted to each
    /// column's type once up front (a string becomes one dictionary code).
    /// Only array/struct columns, which have no typed vector, read rows.
    pub fn rows_eq(&self, columns: &[usize], key: &[Value]) -> Vec<RowId> {
        debug_assert_eq!(columns.len(), key.len(), "one key value per column");
        if self.has_index_on(columns) {
            let probe = match key {
                [v] => v.clone(),
                vs => Value::Struct(vs.to_vec()),
            };
            let mut rids = self.index_rids(columns, &probe).unwrap_or_default();
            rids.sort_unstable();
            return rids;
        }
        let mut typed = Vec::with_capacity(columns.len());
        let mut untyped = Vec::new();
        for (&c, k) in columns.iter().zip(key) {
            match self.cols.slice(c) {
                Some(slice) => match CellEq::new(slice, k) {
                    Some(eq) => typed.push(eq),
                    None => return Vec::new(),
                },
                None => untyped.push((c, k)),
            }
        }
        let live = self.cols.live();
        // One tight compare loop over the first selective column yields the
        // candidates; liveness, validity and the other columns are checked
        // on those alone.
        let candidates = match typed.iter().find_map(CellEq::positions) {
            Some(slots) => slots,
            None => (0..self.cols.len()).collect(),
        };
        candidates
            .into_iter()
            .filter(|&slot| live.get(slot) && typed.iter().all(|eq| eq.matches(slot)))
            .filter(|&slot| {
                untyped.is_empty()
                    || self
                        .rows
                        .get(slot)
                        .is_some_and(|row| untyped.iter().all(|(c, k)| row[*c] == **k))
            })
            .map(|slot| RowId(slot as u64))
            .collect()
    }

    /// Does an equality-capable index exist on exactly these columns?
    pub fn has_index_on(&self, columns: &[usize]) -> bool {
        (!self.schema.primary_key.is_empty() && columns == self.schema.primary_key.as_slice())
            || self.indexes.iter().any(|i| i.columns == columns)
    }

    /// Compute fresh statistics in one pass over the typed column vectors.
    ///
    /// Produces exactly what [`TableStats::compute`] produces over the live
    /// rows — same NDV saturation at the cap, same total-order min/max
    /// (floats by `total_cmp`), same width accumulation order — but without
    /// materializing or re-matching row cells: Int/Float/Bool columns hash
    /// raw scalars, and dictionary-encoded text columns get NDV for free
    /// from a per-code presence vector. Array/struct columns (no typed
    /// vector) fall back to a row pass for that column only.
    pub fn compute_stats(&self) -> TableStats {
        let row_count = self.live as u64;
        let slot_count = self.rows.len();
        let live = self.cols.live();
        let mut columns = Vec::with_capacity(self.schema.arity());
        let mut total_bytes = 0u64;
        for c in 0..self.schema.arity() {
            let (stats, bytes) = match self.cols.slice(c) {
                Some(ColumnSlice::Int { data, valid }) => typed_column_stats(
                    live,
                    valid,
                    slot_count,
                    row_count,
                    |i| (8, data[i]),
                    |a, b| a < b,
                    |k| Value::Int(*k),
                ),
                // Floats key NDV by bit pattern: `Value` equality over
                // floats is `total_cmp == Equal`, which holds iff the bits
                // match, so the u64 set has identical cardinality.
                Some(ColumnSlice::Float { data, valid }) => typed_column_stats(
                    live,
                    valid,
                    slot_count,
                    row_count,
                    |i| (8, data[i].to_bits()),
                    |a, b| f64::from_bits(*a).total_cmp(&f64::from_bits(*b)).is_lt(),
                    |k| Value::Float(f64::from_bits(*k)),
                ),
                Some(ColumnSlice::Bool { data, valid }) => typed_column_stats(
                    live,
                    valid,
                    slot_count,
                    row_count,
                    |i| (1, data[i]),
                    |a, b| !*a & *b,
                    |k| Value::Bool(*k),
                ),
                Some(ColumnSlice::Str { codes, valid, dict }) => {
                    dict_column_stats(live, valid, codes, dict, slot_count, row_count)
                }
                None => self.row_column_stats(c, row_count),
            };
            total_bytes += bytes;
            columns.push(stats);
        }
        TableStats { row_count, columns, total_bytes }
    }

    /// Row-pass statistics for one array/struct column (no typed vector).
    /// Mirrors the per-cell bookkeeping of [`TableStats::compute`].
    fn row_column_stats(&self, col: usize, row_count: u64) -> (ColumnStats, u64) {
        let mut out = ColumnStats::default();
        let mut bytes = 0u64;
        let mut width_sum = 0f64;
        let mut arr_sum = 0f64;
        let mut arr_count = 0u64;
        let mut set: FxHashSet<&Value> = FxHashSet::default();
        let mut saturated = false;
        for (_, row) in self.scan() {
            let v = &row[col];
            let sz = v.approx_size();
            bytes += sz as u64;
            width_sum += sz as f64;
            if v.is_null() {
                out.null_count += 1;
                continue;
            }
            if let Value::Array(vs) = v {
                arr_sum += vs.len() as f64;
                arr_count += 1;
            }
            match (&out.min, v) {
                (None, v) => out.min = Some(v.clone()),
                (Some(m), v) if v < m => out.min = Some(v.clone()),
                _ => {}
            }
            match (&out.max, v) {
                (None, v) => out.max = Some(v.clone()),
                (Some(m), v) if v > m => out.max = Some(v.clone()),
                _ => {}
            }
            if !saturated {
                set.insert(v);
                if set.len() >= NDV_CAP {
                    saturated = true;
                }
            }
        }
        out.ndv = set.len() as u64;
        out.avg_width = if row_count > 0 { width_sum / row_count as f64 } else { 0.0 };
        out.avg_array_len = if arr_count > 0 { arr_sum / arr_count as f64 } else { 0.0 };
        (out, bytes)
    }

    /// Remove all rows (indexes cleared too). Schema is kept.
    pub fn truncate(&mut self) {
        self.rows.clear();
        self.cols.reset();
        self.free.clear();
        self.live = 0;
        if let Some(pk) = &mut self.pk_index {
            *pk = HashIndex::new();
        }
        let specs: Vec<(String, Vec<usize>, IndexKind)> = self
            .indexes
            .iter()
            .map(|i| (i.name.clone(), i.columns.clone(), i.kind()))
            .collect();
        self.indexes.clear();
        for (name, cols, kind) in specs {
            let _ = self.create_index(name, cols, kind);
        }
    }
}

/// One-pass statistics over a typed scalar column. Generic over the raw
/// key type `K` (i64 / f64-bits / bool) so Int, Float, and Bool columns
/// share the loop; `cell(slot)` yields the value's byte width and key,
/// `lt` is the column's total order, `to_value` lifts a key back into a
/// [`Value`] for the min/max fields.
fn typed_column_stats<K: Copy + Eq + Hash>(
    live: &Bitmap,
    valid: &Bitmap,
    slot_count: usize,
    row_count: u64,
    mut cell: impl FnMut(usize) -> (u64, K),
    mut lt: impl FnMut(&K, &K) -> bool,
    to_value: impl Fn(&K) -> Value,
) -> (ColumnStats, u64) {
    let mut out = ColumnStats::default();
    let mut bytes = 0u64;
    let mut width_sum = 0f64;
    let mut set: FxHashSet<K> = FxHashSet::default();
    let mut saturated = false;
    let mut min: Option<K> = None;
    let mut max: Option<K> = None;
    for slot in 0..slot_count {
        if !live.get(slot) {
            continue;
        }
        if !valid.get(slot) {
            out.null_count += 1;
            bytes += 1;
            width_sum += 1.0;
            continue;
        }
        let (w, k) = cell(slot);
        bytes += w;
        width_sum += w as f64;
        match &min {
            None => min = Some(k),
            Some(m) if lt(&k, m) => min = Some(k),
            _ => {}
        }
        match &max {
            None => max = Some(k),
            Some(m) if lt(m, &k) => max = Some(k),
            _ => {}
        }
        if !saturated {
            set.insert(k);
            if set.len() >= NDV_CAP {
                saturated = true;
            }
        }
    }
    out.ndv = set.len() as u64;
    out.avg_width = if row_count > 0 { width_sum / row_count as f64 } else { 0.0 };
    out.min = min.as_ref().map(&to_value);
    out.max = max.as_ref().map(&to_value);
    (out, bytes)
}

/// One-pass statistics over a dictionary-encoded text column: NDV comes
/// free from a per-code presence vector (no hashing of string payloads),
/// min/max compare the dictionary strings behind the codes.
fn dict_column_stats(
    live: &Bitmap,
    valid: &Bitmap,
    codes: &[u32],
    dict: &crate::column::StringDict,
    slot_count: usize,
    row_count: u64,
) -> (ColumnStats, u64) {
    let mut out = ColumnStats::default();
    let mut bytes = 0u64;
    let mut width_sum = 0f64;
    let mut present = vec![false; dict.len()];
    let mut live_codes = 0usize;
    let mut min: Option<u32> = None;
    let mut max: Option<u32> = None;
    for (slot, &code) in codes.iter().enumerate().take(slot_count) {
        if !live.get(slot) {
            continue;
        }
        if !valid.get(slot) {
            out.null_count += 1;
            bytes += 1;
            width_sum += 1.0;
            continue;
        }
        let s = dict.get(code);
        let w = 16 + s.len() as u64;
        bytes += w;
        width_sum += w as f64;
        if !present[code as usize] {
            present[code as usize] = true;
            live_codes += 1;
        }
        match min {
            None => min = Some(code),
            Some(m) if s.as_ref() < dict.get(m).as_ref() => min = Some(code),
            _ => {}
        }
        match max {
            None => max = Some(code),
            Some(m) if s.as_ref() > dict.get(m).as_ref() => max = Some(code),
            _ => {}
        }
    }
    out.ndv = live_codes.min(NDV_CAP) as u64;
    out.avg_width = if row_count > 0 { width_sum / row_count as f64 } else { 0.0 };
    out.min = min.map(|c| Value::Str(std::sync::Arc::clone(dict.get(c))));
    out.max = max.map(|c| Value::Str(std::sync::Arc::clone(dict.get(c))));
    (out, bytes)
}

/// One column's test for [`Table::rows_eq`]: the key already converted to
/// the column's representation, so each slot costs one typed compare.
enum CellEq<'a> {
    Int(&'a [i64], &'a Bitmap, i64),
    /// An Int column probed with a Float key: compared the way `Value`
    /// compares the two, through `f64`.
    IntAsFloat(&'a [i64], &'a Bitmap, f64),
    Float(&'a [f64], &'a Bitmap, f64),
    Bool(&'a [bool], &'a Bitmap, bool),
    Str(&'a [u32], &'a Bitmap, u32),
    Null(&'a Bitmap),
}

impl<'a> CellEq<'a> {
    /// `None` when no stored cell can equal `key` (a type the column never
    /// holds, or a string absent from its dictionary).
    fn new(slice: ColumnSlice<'a>, key: &Value) -> Option<CellEq<'a>> {
        Some(match (slice, key) {
            (ColumnSlice::Int { valid, .. }
            | ColumnSlice::Float { valid, .. }
            | ColumnSlice::Bool { valid, .. }
            | ColumnSlice::Str { valid, .. }, Value::Null) => CellEq::Null(valid),
            (ColumnSlice::Int { data, valid }, Value::Int(k)) => CellEq::Int(data, valid, *k),
            (ColumnSlice::Int { data, valid }, Value::Float(k)) => {
                CellEq::IntAsFloat(data, valid, *k)
            }
            (ColumnSlice::Float { data, valid }, Value::Int(_) | Value::Float(_)) => {
                CellEq::Float(data, valid, key.as_float()?)
            }
            (ColumnSlice::Bool { data, valid }, Value::Bool(k)) => CellEq::Bool(data, valid, *k),
            (ColumnSlice::Str { codes, valid, dict }, Value::Str(k)) => {
                CellEq::Str(codes, valid, dict.code_of(k)?)
            }
            _ => return None,
        })
    }

    /// Slots whose stored payload equals the key, validity and liveness
    /// unchecked (a cleared slot keeps its old payload): one branch-light
    /// pass over the raw vector. `None` for a NULL key, which only the
    /// validity bitmap can answer.
    fn positions(&self) -> Option<Vec<usize>> {
        fn scan<T: Copy>(data: &[T], hit: impl Fn(T) -> bool) -> Vec<usize> {
            data.iter().enumerate().filter(|(_, x)| hit(**x)).map(|(i, _)| i).collect()
        }
        Some(match *self {
            CellEq::Int(data, _, k) => scan(data, |x| x == k),
            CellEq::IntAsFloat(data, _, k) => scan(data, |x| (x as f64).total_cmp(&k).is_eq()),
            // `total_cmp` equality is bit equality.
            CellEq::Float(data, _, k) => scan(data, |x| x.to_bits() == k.to_bits()),
            CellEq::Bool(data, _, k) => scan(data, |x| x == k),
            CellEq::Str(codes, _, k) => scan(codes, |x| x == k),
            CellEq::Null(_) => return None,
        })
    }

    #[inline]
    fn matches(&self, slot: usize) -> bool {
        match *self {
            CellEq::Int(data, valid, k) => valid.get(slot) && data[slot] == k,
            CellEq::IntAsFloat(data, valid, k) => {
                valid.get(slot) && (data[slot] as f64).total_cmp(&k).is_eq()
            }
            CellEq::Float(data, valid, k) => valid.get(slot) && data[slot].to_bits() == k.to_bits(),
            CellEq::Bool(data, valid, k) => valid.get(slot) && data[slot] == k,
            CellEq::Str(codes, valid, k) => valid.get(slot) && codes[slot] == k,
            CellEq::Null(valid) => !valid.get(slot),
        }
    }
}

/// Counts [`Table::scan`] calls: full passes over a table's rows. Handle
/// interned once per process (same pattern as the WAL metrics).
fn m_table_scans() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_storage_table_scans_total",
            "Full row scans of a table (Table::scan calls)",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn people() -> Table {
        Table::new(TableSchema::new(
            "people",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("age", DataType::Int),
            ],
            vec![0],
        ))
    }

    fn row(id: i64, name: &str, age: i64) -> Row {
        vec![Value::Int(id), Value::str(name), Value::Int(age)]
    }

    /// Copy-on-write pieces (pages, index shards, dictionary chunks and
    /// map shards) of `a` that are not the very allocation `b` holds, and
    /// the number of pieces `a` has.
    fn unshared_pieces(a: &Table, b: &Table) -> (usize, usize) {
        let mut unshared = a.rows.unshared_pages(&b.rows);
        let mut total = a.page_count();
        fn hash(t: &Table) -> Vec<&HashIndex> {
            let secondary = t.indexes.iter().filter_map(|i| match &i.structure {
                crate::index::IndexStructure::Hash(h) => Some(h),
                crate::index::IndexStructure::BTree(_) => None,
            });
            t.pk_index.iter().chain(secondary).collect()
        }
        // Against an empty structure every piece counts as unshared.
        for (x, y) in hash(a).into_iter().zip(hash(b)) {
            unshared += x.unshared_with(y);
            total += x.unshared_with(&HashIndex::new());
        }
        for c in 0..a.schema.arity() {
            if let (Some(ColumnSlice::Str { dict: x, .. }), Some(ColumnSlice::Str { dict: y, .. })) =
                (a.column_slice(c), b.column_slice(c))
            {
                unshared += x.unshared_with(y);
                total += x.unshared_with(&crate::column::StringDict::default());
            }
        }
        (unshared, total)
    }

    /// A clone shares everything; a write detaches only the pieces it
    /// lands in, however large the table, and the original keeps every
    /// answer it gave before.
    #[test]
    fn clone_shares_all_but_the_pieces_a_write_touches() {
        // Insert: tail page, one PK shard, one secondary shard, the
        // dictionary's tail chunk and one map shard. Update of a secondary
        // key: one page, two secondary shards. Delete: one page, one PK
        // shard, one secondary shard.
        const BOUND: usize = 13;
        for n in [2_000i64, 20_000] {
            let mut t = Table::new(TableSchema::new(
                "t",
                vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("name", DataType::Text),
                    Column::new("grp", DataType::Int),
                ],
                vec![0],
            ));
            let grp = |id: i64| id % 50;
            for id in 0..n {
                t.insert(vec![Value::Int(id), Value::str(format!("s{id}")), Value::Int(grp(id))])
                    .unwrap();
            }
            t.create_index("by_grp", vec![2], IndexKind::Hash).unwrap();
            let probe = |t: &Table| {
                let pk: Vec<_> =
                    [3, 5, n - 1].iter().map(|&k| t.rows_eq(&[0], &[Value::Int(k)])).collect();
                let by_grp: Vec<_> = [3, 5, 7, 9]
                    .iter()
                    .map(|&g| t.rows_eq(&[2], &[Value::Int(g)]))
                    .collect();
                let Some(ColumnSlice::Str { codes, dict, .. }) = t.column_slice(1) else {
                    panic!("text column")
                };
                let names: Vec<Arc<str>> =
                    (0..n as usize).map(|s| Arc::clone(dict.get(codes[s]))).collect();
                let row5 = t.lookup_pk(&Value::Int(5)).map(|(_, r)| r.clone());
                (pk, by_grp, names, dict.code_of("fresh"), row5)
            };
            let before = probe(&t);

            let mut w = t.clone();
            assert_eq!(unshared_pieces(&w, &t).0, 0, "a clone shares every piece");
            w.insert(vec![Value::Int(n), Value::str("fresh"), Value::Int(7)]).unwrap();
            let (rid3, _) = w.lookup_pk(&Value::Int(3)).unwrap();
            w.update(rid3, vec![Value::Int(3), Value::str("s3"), Value::Int(9)]).unwrap();
            let (rid5, _) = w.lookup_pk(&Value::Int(5)).unwrap();
            w.delete(rid5).unwrap();

            let (unshared, total) = unshared_pieces(&w, &t);
            assert!(unshared <= BOUND, "n={n}: {unshared} of {total} pieces copied");
            assert!(n < 20_000 || total > 10 * BOUND, "n={n}: only {total} pieces");
            assert_eq!(probe(&t), before, "n={n}: the original changed");

            assert!(w.lookup_pk(&Value::Int(5)).is_none());
            assert_eq!(w.rows_eq(&[2], &[Value::Int(9)]).len(), before.1[3].len() + 1);
            let Some(ColumnSlice::Str { dict, .. }) = w.column_slice(1) else {
                panic!("text column")
            };
            assert_eq!(dict.code_of("fresh"), Some(n as u32));
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        assert_eq!(t.get(rid).unwrap()[1], Value::str("ada"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = people();
        t.insert(row(1, "ada", 36)).unwrap();
        assert!(matches!(t.insert(row(1, "bob", 20)), Err(StorageError::DuplicateKey { .. })));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bulk_append_matches_per_row_insert() {
        let mut a = people();
        let mut b = people();
        let rows: Vec<Row> = (0..50).map(|i| row(i, "p", i % 7)).collect();
        for r in rows.clone() {
            a.insert(r).unwrap();
        }
        let (first, n) = b.bulk_append(rows).unwrap();
        assert_eq!((first, n), (0, 50));
        assert_eq!(a.all_rows(), b.all_rows());
        assert_eq!(a.compute_stats(), b.compute_stats());
        assert_eq!(b.lookup_pk(&Value::Int(17)).unwrap().1[0], Value::Int(17));
    }

    #[test]
    fn bulk_append_rejects_duplicates_atomically() {
        let mut t = people();
        t.insert(row(1, "ada", 36)).unwrap();
        // Duplicate against the existing primary-key index ...
        assert!(matches!(
            t.bulk_append(vec![row(2, "b", 1), row(1, "dup", 2)]),
            Err(StorageError::DuplicateKey { .. })
        ));
        // ... and within the batch itself.
        assert!(matches!(
            t.bulk_append(vec![row(3, "c", 1), row(3, "c2", 2)]),
            Err(StorageError::DuplicateKey { .. })
        ));
        assert_eq!(t.len(), 1, "failed batch leaves the table untouched");
        assert_eq!(t.slot_count(), 1);
        assert!(t.lookup_pk(&Value::Int(2)).is_none());
    }

    #[test]
    fn bulk_append_lands_at_tail_not_free_slots() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        t.delete(r1).unwrap();
        let (first, n) = t.bulk_append(vec![row(3, "eve", 25), row(4, "kim", 30)]).unwrap();
        assert_eq!((first, n), (2, 2), "batch is contiguous at the tail");
        assert!(t.get(RowId(0)).is_none(), "freed slot is not recycled by a batch");
        assert_eq!(t.len(), 3);
        // The freed slot is still available to the per-row path afterwards.
        assert_eq!(t.insert(row(5, "joe", 40)).unwrap(), r1);
    }

    #[test]
    fn bulk_append_canonicalizes_and_indexes_once() {
        let mut t = Table::new(TableSchema::new(
            "m",
            vec![Column::not_null("id", DataType::Int), Column::new("score", DataType::Float)],
            vec![0],
        ));
        t.create_index("by_score", vec![1], IndexKind::Hash).unwrap();
        t.bulk_append(vec![
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(2), Value::Float(5.0)],
        ])
        .unwrap();
        assert!(matches!(t.get(RowId(0)).unwrap()[1], Value::Float(f) if f == 5.0));
        assert_eq!(t.index_lookup(&[1], &Value::Float(5.0)).unwrap().len(), 2);
        // Column view is slot-aligned with the batch too.
        assert_eq!(t.column_slice(0).unwrap().value_at(1), Value::Int(2));
    }

    #[test]
    fn delete_frees_slot_and_reuses_it() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        let old = t.delete(r1).unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert_eq!(t.len(), 1);
        let r3 = t.insert(row(3, "eve", 25)).unwrap();
        assert_eq!(r3, r1, "freed slot is recycled");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pk_lookup_follows_updates() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        t.update(rid, row(5, "ada", 37)).unwrap();
        assert!(t.lookup_pk(&Value::Int(1)).is_none());
        let (_, r) = t.lookup_pk(&Value::Int(5)).unwrap();
        assert_eq!(r[2], Value::Int(37));
    }

    #[test]
    fn update_to_existing_key_rejected() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        assert!(matches!(t.update(rid, row(2, "ada", 36)), Err(StorageError::DuplicateKey { .. })));
        // Unchanged on failure.
        assert_eq!(t.lookup_pk(&Value::Int(1)).unwrap().1[1], Value::str("ada"));
    }

    #[test]
    fn secondary_index_maintained_across_mutations() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 36)).unwrap();
        t.create_index("by_age", vec![2], IndexKind::Hash).unwrap();
        assert_eq!(t.index_lookup(&[2], &Value::Int(36)).unwrap().len(), 2);
        t.update(r1, row(1, "ada", 40)).unwrap();
        assert_eq!(t.index_lookup(&[2], &Value::Int(36)).unwrap().len(), 1);
        assert_eq!(t.index_lookup(&[2], &Value::Int(40)).unwrap().len(), 1);
        t.delete(r1).unwrap();
        assert!(t.index_lookup(&[2], &Value::Int(40)).unwrap().is_empty());
    }

    #[test]
    fn restore_undoes_delete_exactly() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        let old = t.delete(rid).unwrap();
        t.restore(rid, old).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.lookup_pk(&Value::Int(1)).is_some());
        assert!(t.restore(rid, row(1, "x", 0)).is_err(), "occupied slot rejected");
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        t.delete(r1).unwrap();
        let ids: Vec<i64> = t.scan().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn scan_slots_partitions_scan() {
        let mut t = people();
        for i in 0..10 {
            t.insert(row(i, "p", i)).unwrap();
        }
        t.delete(RowId(4)).unwrap();
        let full: Vec<i64> = t.scan().map(|(_, r)| r[0].as_int().unwrap()).collect();
        let mut pieced = Vec::new();
        for start in (0..t.slot_count()).step_by(3) {
            pieced.extend(
                t.scan_slots(start..start + 3).map(|(_, r)| r[0].as_int().unwrap()),
            );
        }
        assert_eq!(pieced, full, "contiguous slot morsels cover the scan exactly once");
        // A tail morsel may overshoot slot_count at its *end*; it is clamped.
        let tail: Vec<i64> = t.scan_slots(8..200).map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(tail, vec![8, 9]);
    }

    #[test]
    #[should_panic(expected = "scan_slots range starts at")]
    #[cfg(debug_assertions)]
    fn scan_slots_start_past_end_is_caller_bug() {
        let mut t = people();
        t.insert(row(1, "ada", 36)).unwrap();
        // A start beyond slot_count can never come from a correct morsel
        // partition; it must panic loudly in debug builds.
        let _ = t.scan_slots(100..200).count();
    }

    #[test]
    fn truncate_clears_rows_keeps_indexes() {
        let mut t = people();
        t.create_index("by_age", vec![2], IndexKind::BTree).unwrap();
        t.insert(row(1, "ada", 36)).unwrap();
        t.truncate();
        assert_eq!(t.len(), 0);
        assert!(t.has_index_on(&[2]));
        t.insert(row(1, "ada", 36)).unwrap();
        assert_eq!(t.index_lookup(&[2], &Value::Int(36)).unwrap().len(), 1);
    }

    #[test]
    fn float_column_canonicalizes_int_ingest() {
        let mut t = Table::new(TableSchema::new(
            "m",
            vec![Column::not_null("id", DataType::Int), Column::new("score", DataType::Float)],
            vec![0],
        ));
        let rid = t.insert(vec![Value::Int(1), Value::Int(5)]).unwrap();
        assert!(
            matches!(t.get(rid).unwrap()[1], Value::Float(f) if f == 5.0),
            "Int widened to Float at ingest"
        );
        // Index keys see the canonical representation too.
        t.create_index("by_score", vec![1], IndexKind::Hash).unwrap();
        t.insert(vec![Value::Int(2), Value::Float(5.0)]).unwrap();
        assert_eq!(t.index_lookup(&[1], &Value::Float(5.0)).unwrap().len(), 2);
        // Update path canonicalizes as well.
        t.update(rid, vec![Value::Int(1), Value::Int(7)]).unwrap();
        assert!(matches!(t.get(rid).unwrap()[1], Value::Float(f) if f == 7.0));
    }

    #[test]
    fn stats_reflect_live_rows() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        t.delete(r1).unwrap();
        let stats = t.compute_stats();
        assert_eq!(stats.row_count, 1);
        assert_eq!(stats.columns[0].min, Some(Value::Int(2)));
    }

    /// A table with every column shape, churned through insert / update /
    /// delete / restore so the column view has tombstones, recycled slots,
    /// and dead dictionary entries.
    fn churned_mixed_table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "mixed",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("score", DataType::Float),
                Column::new("flag", DataType::Bool),
                Column::new("tag", DataType::Text),
                Column::new("mv", DataType::Int.array_of()),
            ],
            vec![0],
        ));
        for i in 0..20i64 {
            t.insert(vec![
                Value::Int(i),
                if i % 4 == 0 { Value::Null } else { Value::Int(i * 3) }, // widens to Float
                if i % 5 == 0 { Value::Null } else { Value::Bool(i % 2 == 0) },
                if i % 3 == 0 { Value::Null } else { Value::str(["red", "green", "blue"][(i % 3) as usize]) },
                if i % 6 == 0 { Value::Null } else { Value::Array(vec![Value::Int(i), Value::Int(i + 1)]) },
            ])
            .unwrap();
        }
        let gone = t.delete(RowId(3)).unwrap();
        t.delete(RowId(7)).unwrap();
        t.delete(RowId(19)).unwrap(); // trailing tombstone
        t.restore(RowId(3), gone).unwrap();
        t.update(RowId(5), vec![Value::Int(105), Value::Float(-0.0), Value::Bool(false), Value::str("red"), Value::Null])
            .unwrap();
        t.insert(vec![Value::Int(200), Value::Float(f64::NAN), Value::Null, Value::str("violet"), Value::Null])
            .unwrap(); // recycles a freed slot
        t
    }

    #[test]
    fn columnar_stats_match_row_pass_exactly() {
        let t = churned_mixed_table();
        let row_pass = TableStats::compute(t.scan().map(|(_, r)| r.as_slice()), t.schema().arity());
        assert_eq!(t.compute_stats(), row_pass, "columnar one-pass stats must be identical");
        // Dictionary NDV counts *live* strings only: "violet" replaced one
        // deleted row; dead codes must not inflate the count.
        assert_eq!(row_pass.columns[3].ndv, t.compute_stats().columns[3].ndv);
    }

    #[test]
    fn column_view_tracks_all_write_paths() {
        let t = churned_mixed_table();
        assert_eq!(t.live_slots().count_ones(), t.len());
        for c in 0..4 {
            let s = t.column_slice(c).expect("scalar column");
            for (rid, row) in t.scan() {
                let got = s.value_at(rid.idx());
                match (&got, &row[c]) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "col {c} slot {rid}")
                    }
                    (a, b) => assert_eq!(a, b, "col {c} slot {rid}"),
                }
            }
        }
        assert!(t.column_slice(4).is_none(), "array column is row-only");
        // The trailing tombstone is dead in the live bitmap; the restored
        // slot and the recycled slot (the 200-row reused freed slot 7) live.
        assert!(!t.live_slots().get(19));
        assert!(t.live_slots().get(3), "restored slot is live again");
        assert_eq!(t.column_slice(0).unwrap().value_at(7), Value::Int(200), "freed slot recycled");
    }

    /// `rows_eq` agrees with a filtered scan for every column shape, every
    /// live value, NULL, cross-type numeric keys and absent keys — on the
    /// typed pass and with an index declared on the probed columns.
    #[test]
    fn rows_eq_matches_filtered_scan() {
        let mut t = churned_mixed_table();
        let reference = |t: &Table, cols: &[usize], key: &[Value]| -> Vec<RowId> {
            t.scan()
                .filter(|(_, r)| cols.iter().zip(key).all(|(&c, k)| r[c] == *k))
                .map(|(rid, _)| rid)
                .collect()
        };
        let mut probes: Vec<(Vec<usize>, Vec<Value>)> = Vec::new();
        for c in 0..5 {
            let mut keys: Vec<Value> = t.scan().map(|(_, r)| r[c].clone()).collect();
            keys.extend([Value::Null, Value::str("absent"), Value::Int(-1), Value::Bool(true)]);
            probes.extend(keys.into_iter().map(|k| (vec![c], vec![k])));
        }
        // Int keys on the Float column, Float keys on the Int column.
        probes.push((vec![1], vec![Value::Int(6)]));
        probes.push((vec![0], vec![Value::Float(4.0)]));
        probes.push((vec![0], vec![Value::Float(4.5)]));
        // Composite keys, one half typed and one half array.
        for (_, r) in t.scan() {
            probes.push((vec![3, 2], vec![r[3].clone(), r[2].clone()]));
            probes.push((vec![4, 0], vec![r[4].clone(), r[0].clone()]));
        }
        for (cols, key) in &probes {
            assert_eq!(t.rows_eq(cols, key), reference(&t, cols, key), "{cols:?} = {key:?}");
        }
        assert_eq!(t.rows_eq(&[0], &[Value::Int(2)]), vec![RowId(2)], "primary-key probe");
        t.create_index("by_tag_flag", vec![3, 2], IndexKind::Hash).unwrap();
        for (cols, key) in probes.iter().filter(|(c, _)| c == &[3, 2]) {
            assert_eq!(t.rows_eq(cols, key), reference(&t, cols, key), "indexed {key:?}");
        }
    }

    #[test]
    fn column_view_survives_snapshot_roundtrip_and_truncate() {
        let t = churned_mixed_table();
        let rebuilt = Table::from_slots(t.schema().clone(), t.slots_vec()).unwrap();
        assert_eq!(rebuilt.compute_stats(), t.compute_stats());
        assert_eq!(rebuilt.live_slots().count_ones(), t.len());
        let mut t2 = t.clone();
        t2.truncate();
        assert_eq!(t2.live_slots().count_ones(), 0);
        assert_eq!(t2.compute_stats().row_count, 0);
        // Insert after truncate repopulates the column view from scratch.
        t2.insert(vec![Value::Int(1), Value::Null, Value::Null, Value::str("x"), Value::Null]).unwrap();
        assert_eq!(t2.column_slice(0).unwrap().value_at(0), Value::Int(1));
    }
}
