//! Multi-relational compressed (factorized) storage.
//!
//! The paper's third physical representation target: "store the join of
//! multiple relations together in a compact fashion ... The key benefit
//! here is the ability to use physical pointers to avoid joins, and to
//! execute some types of aggregate queries more efficiently (by, in effect,
//! pushing down aggregations through the joins)."
//!
//! A [`FactorizedTable`] holds two member [`Table`]s (each row stored once)
//! plus an adjacency structure of physical pointers between them. Compare
//! with a materialized denormalized join table, which duplicates every left
//! row once per matching right row. Enumerating the join follows pointers
//! (no hashing, no duplication), and distributive aggregates can be pushed
//! through the join without ever materializing it.

use crate::error::{StorageError, StorageResult};
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::table::Table;
use crate::value::Value;
use parking_lot::Mutex;
use std::sync::Arc;

/// Compressed-sparse-row view of one adjacency direction: `offsets` has one
/// entry per source slot plus a terminator, and `neighbours_of(slot)` is the
/// contiguous sub-slice `neighbours[offsets[slot]..offsets[slot+1]]`. Built
/// lazily from the per-slot pointer lists on first traversal after a
/// mutation (Kuzu's edge representation); traversal then walks two flat
/// arrays instead of chasing one heap allocation per source row. Neighbour
/// order within a slot is exactly the pointer-list order, so CSR expansion
/// is bit-identical to row-at-a-time expansion.
#[derive(Debug)]
pub struct Csr {
    offsets: Vec<u64>,
    neighbours: Vec<RowId>,
}

impl Csr {
    fn build(adj: &[Vec<RowId>], slots: usize) -> Csr {
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(slots + 1);
        let mut neighbours = Vec::with_capacity(total);
        offsets.push(0);
        for slot in 0..slots {
            if let Some(ns) = adj.get(slot) {
                neighbours.extend_from_slice(ns);
            }
            offsets.push(neighbours.len() as u64);
        }
        Csr { offsets, neighbours }
    }

    /// Neighbours of a source slot; empty for out-of-range slots.
    #[inline]
    pub fn neighbours_of(&self, slot: usize) -> &[RowId] {
        match (self.offsets.get(slot), self.offsets.get(slot + 1)) {
            (Some(&s), Some(&e)) => &self.neighbours[s as usize..e as usize],
            _ => &[],
        }
    }

    /// Number of source slots covered.
    pub fn slot_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.neighbours.len()
    }
}

/// The join of two relations stored in factorized form.
#[derive(Debug)]
pub struct FactorizedTable {
    name: String,
    left: Table,
    right: Table,
    /// Forward pointers: left slot index → right row ids.
    fwd: Vec<Vec<RowId>>,
    /// Reverse pointers: right slot index → left row ids.
    rev: Vec<Vec<RowId>>,
    /// Total number of (left, right) pairs, i.e. the join cardinality.
    pairs: usize,
    /// CSR view of `fwd`, built lazily on first traversal after a mutation
    /// (`None` means stale). Behind a mutex so `csr_forward` can memoize
    /// through `&self` (published snapshot views are shared immutably);
    /// every adjacency mutation already holds `&mut self` and invalidates
    /// lock-free via `Mutex::get_mut`.
    csr: Mutex<Option<Arc<Csr>>>,
    /// Monotonic content version bumped by `Catalog::factorized_mut`; see
    /// [`Table::content_epoch`].
    content_epoch: u64,
}

impl Clone for FactorizedTable {
    fn clone(&self) -> Self {
        FactorizedTable {
            name: self.name.clone(),
            left: self.left.clone(),
            right: self.right.clone(),
            fwd: self.fwd.clone(),
            rev: self.rev.clone(),
            pairs: self.pairs,
            // Share the built CSR view: it is immutable behind an `Arc`,
            // and a later mutation on either clone invalidates only that
            // clone's cache. Keeps the cache warm across the catalog's
            // copy-on-write `Arc::make_mut`.
            csr: Mutex::new(self.csr.lock().clone()),
            content_epoch: self.content_epoch,
        }
    }
}

impl FactorizedTable {
    /// Create an empty factorized table over two member schemas.
    pub fn new(name: impl Into<String>, left: TableSchema, right: TableSchema) -> Self {
        FactorizedTable {
            name: name.into(),
            left: Table::new(left),
            right: Table::new(right),
            fwd: Vec::new(),
            rev: Vec::new(),
            pairs: 0,
            csr: Mutex::new(None),
            content_epoch: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotonic content version (see [`Table::content_epoch`]).
    pub fn content_epoch(&self) -> u64 {
        self.content_epoch
    }

    /// Bump the content version. Called by `Catalog::factorized_mut`.
    pub(crate) fn bump_content_epoch(&mut self) {
        self.content_epoch += 1;
    }

    /// Drop the CSR view. Called by every adjacency mutation (row
    /// inserts/deletes change the slot universe, link/unlink change the
    /// edges); in-place member `update_*` calls do NOT invalidate because
    /// they never touch the pointer lists.
    fn invalidate_csr(&mut self) {
        *self.csr.get_mut() = None;
    }

    /// The forward (left slot → right neighbours) CSR view, building it on
    /// first traversal after a mutation. Cheap when cached: one mutex lock
    /// and an `Arc` clone.
    pub fn csr_forward(&self) -> Arc<Csr> {
        let mut cache = self.csr.lock();
        if let Some(c) = &*cache {
            return Arc::clone(c);
        }
        let c = Arc::new(Csr::build(&self.fwd, self.left.slot_count()));
        m_csr_rebuilds().inc();
        *cache = Some(Arc::clone(&c));
        c
    }

    pub fn left(&self) -> &Table {
        &self.left
    }

    pub fn right(&self) -> &Table {
        &self.right
    }

    /// Join cardinality (number of linked pairs).
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// Insert a row on the left side.
    pub fn insert_left(&mut self, row: Row) -> StorageResult<RowId> {
        let rid = self.left.insert(row)?;
        if self.fwd.len() <= rid.idx() {
            self.fwd.resize_with(rid.idx() + 1, Vec::new);
        }
        self.invalidate_csr();
        Ok(rid)
    }

    /// Insert a row on the right side.
    pub fn insert_right(&mut self, row: Row) -> StorageResult<RowId> {
        let rid = self.right.insert(row)?;
        if self.rev.len() <= rid.idx() {
            self.rev.resize_with(rid.idx() + 1, Vec::new);
        }
        self.invalidate_csr();
        Ok(rid)
    }

    /// Link a left row to a right row (one join pair).
    pub fn link(&mut self, l: RowId, r: RowId) -> StorageResult<()> {
        if self.left.get(l).is_none() {
            return Err(StorageError::RowNotFound { table: format!("{}.left", self.name), row: l.0 });
        }
        if self.right.get(r).is_none() {
            return Err(StorageError::RowNotFound { table: format!("{}.right", self.name), row: r.0 });
        }
        self.fwd[l.idx()].push(r);
        self.rev[r.idx()].push(l);
        self.pairs += 1;
        self.invalidate_csr();
        Ok(())
    }

    /// Remove a link, if present.
    pub fn unlink(&mut self, l: RowId, r: RowId) -> bool {
        let Some(f) = self.fwd.get_mut(l.idx()) else { return false };
        let Some(pos) = f.iter().position(|x| *x == r) else { return false };
        f.swap_remove(pos);
        let rv = &mut self.rev[r.idx()];
        if let Some(pos) = rv.iter().position(|x| *x == l) {
            rv.swap_remove(pos);
        }
        self.pairs -= 1;
        self.invalidate_csr();
        true
    }

    /// Update a left row in place (links preserved).
    pub fn update_left(&mut self, l: RowId, row: Row) -> StorageResult<Row> {
        self.left.update(l, row)
    }

    /// Update a right row in place (links preserved).
    pub fn update_right(&mut self, r: RowId, row: Row) -> StorageResult<Row> {
        self.right.update(r, row)
    }

    /// Delete a left row, dropping all of its links.
    pub fn delete_left(&mut self, l: RowId) -> StorageResult<Row> {
        let row = self.left.delete(l)?;
        for r in std::mem::take(&mut self.fwd[l.idx()]) {
            let rv = &mut self.rev[r.idx()];
            if let Some(pos) = rv.iter().position(|x| *x == l) {
                rv.swap_remove(pos);
                self.pairs -= 1;
            }
        }
        self.invalidate_csr();
        Ok(row)
    }

    /// Delete a right row, dropping all of its links.
    pub fn delete_right(&mut self, r: RowId) -> StorageResult<Row> {
        let row = self.right.delete(r)?;
        for l in std::mem::take(&mut self.rev[r.idx()]) {
            let fv = &mut self.fwd[l.idx()];
            if let Some(pos) = fv.iter().position(|x| *x == r) {
                fv.swap_remove(pos);
                self.pairs -= 1;
            }
        }
        self.invalidate_csr();
        Ok(row)
    }

    /// Restore a previously deleted left row into its exact slot
    /// (transaction rollback). Links are NOT restored — re-link explicitly.
    pub(crate) fn restore_left(&mut self, l: RowId, row: Row) -> StorageResult<()> {
        self.left.restore(l, row)?;
        if self.fwd.len() <= l.idx() {
            self.fwd.resize_with(l.idx() + 1, Vec::new);
        }
        self.invalidate_csr();
        Ok(())
    }

    /// Restore a previously deleted right row into its exact slot.
    pub(crate) fn restore_right(&mut self, r: RowId, row: Row) -> StorageResult<()> {
        self.right.restore(r, row)?;
        if self.rev.len() <= r.idx() {
            self.rev.resize_with(r.idx() + 1, Vec::new);
        }
        self.invalidate_csr();
        Ok(())
    }

    /// Place a left row at an exact slot (WAL redo), growing as needed.
    pub(crate) fn place_left(&mut self, l: RowId, row: Row) -> StorageResult<()> {
        self.left.place_at(l, row)?;
        if self.fwd.len() <= l.idx() {
            self.fwd.resize_with(l.idx() + 1, Vec::new);
        }
        self.invalidate_csr();
        Ok(())
    }

    /// Place a right row at an exact slot (WAL redo), growing as needed.
    pub(crate) fn place_right(&mut self, r: RowId, row: Row) -> StorageResult<()> {
        self.right.place_at(r, row)?;
        if self.rev.len() <= r.idx() {
            self.rev.resize_with(r.idx() + 1, Vec::new);
        }
        self.invalidate_csr();
        Ok(())
    }

    /// Recompute both member free lists after WAL redo.
    pub(crate) fn rebuild_free(&mut self) {
        self.left.rebuild_free();
        self.right.rebuild_free();
    }

    /// Rebind both member tables to another buffer pool (catalog install).
    pub(crate) fn bind_pool(&mut self, pool: &Arc<crate::buffer_pool::BufferPool>) {
        self.left.bind_pool(pool);
        self.right.bind_pool(pool);
    }

    /// One eviction pass over both member tables (see [`Table::reclaim_pages`]).
    pub(crate) fn reclaim_pages(&mut self, force: bool) -> StorageResult<usize> {
        Ok(self.left.reclaim_pages(force)? + self.right.reclaim_pages(force)?)
    }

    /// Remove every row and every link from both members. The CSR views
    /// must be invalidated here just like on any other adjacency mutation:
    /// a cached view describes the pre-truncate slot universe, and serving
    /// it afterwards would resurrect the join.
    pub fn truncate(&mut self) {
        self.left.truncate();
        self.right.truncate();
        self.fwd.clear();
        self.rev.clear();
        self.pairs = 0;
        self.invalidate_csr();
    }

    /// Dump every stored `(left, right)` link pair (checkpoint support).
    pub(crate) fn link_pairs(&self) -> Vec<(RowId, RowId)> {
        let mut out = Vec::with_capacity(self.pairs);
        for (l, rs) in self.fwd.iter().enumerate() {
            for &r in rs {
                out.push((RowId(l as u64), r));
            }
        }
        out
    }

    /// Rebuild a factorized table from checkpointed members and link pairs.
    pub(crate) fn from_parts(
        name: impl Into<String>,
        left: Table,
        right: Table,
        links: Vec<(RowId, RowId)>,
    ) -> StorageResult<FactorizedTable> {
        let mut ft = FactorizedTable {
            name: name.into(),
            fwd: vec![Vec::new(); left.slot_count()],
            rev: vec![Vec::new(); right.slot_count()],
            left,
            right,
            pairs: 0,
            csr: Mutex::new(None),
            content_epoch: 0,
        };
        for (l, r) in links {
            ft.link(l, r)?;
        }
        Ok(ft)
    }

    /// Right neighbours of a left row.
    pub fn neighbours_right(&self, l: RowId) -> &[RowId] {
        self.fwd.get(l.idx()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Left neighbours of a right row.
    pub fn neighbours_left(&self, r: RowId) -> &[RowId] {
        self.rev.get(r.idx()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Stream the stored join as concatenated `left_row ++ right_row` pairs
    /// by following the physical pointers — no hash table is built and no
    /// key comparison happens. Borrows the structure: rows are assembled
    /// lazily, one pair per step, so a pulling executor can stop early
    /// (e.g. under LIMIT) without enumerating the whole join.
    pub fn iter_join(&self) -> impl Iterator<Item = Row> + '_ {
        self.iter_join_slots(0..self.left.slot_count())
    }

    /// Stream the stored join restricted to left rows in the given slot
    /// range (a morsel). Together with [`Table::slot_count`] this lets a
    /// morsel-parallel executor partition join enumeration by left slots.
    pub fn iter_join_slots(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = Row> + '_ {
        JoinSlots::new(self, None, range)
    }

    /// Stream the stored join over a prebuilt forward CSR view, restricted
    /// to left rows in `range`. Produces exactly the pairs of
    /// [`FactorizedTable::iter_join_slots`] in exactly the same order —
    /// neighbour order is preserved by [`Csr::build`] — but the inner loop
    /// walks a contiguous slice of one flat neighbour array instead of a
    /// per-slot heap `Vec`. Callers obtain `csr` once via
    /// [`FactorizedTable::csr_forward`] and reuse it across morsels.
    pub fn iter_join_slots_csr<'a>(
        &'a self,
        csr: &'a Csr,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = Row> + 'a {
        JoinSlots::new(self, Some(csr), range)
    }

    /// Enumerate the full join result: each pair as `left_row ++ right_row`.
    /// Materializing wrapper around [`FactorizedTable::iter_join`].
    pub fn enumerate_join(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.pairs);
        out.extend(self.iter_join());
        out
    }

    /// Total join cardinality — O(1), the headline win of factorized
    /// storage for COUNT(*) over a join.
    pub fn count_join(&self) -> u64 {
        self.pairs as u64
    }

    /// Approximate bytes of the factorized representation (rows stored once
    /// plus pointer lists). Compare with
    /// `denormalized_bytes` to see the compression the paper expects when
    /// "the join is almost one-to-one".
    pub fn approx_bytes(&self) -> usize {
        let left: usize =
            self.left.scan().map(|(_, r)| r.iter().map(Value::approx_size).sum::<usize>()).sum();
        let right: usize =
            self.right.scan().map(|(_, r)| r.iter().map(Value::approx_size).sum::<usize>()).sum();
        left + right + self.pairs * 2 * std::mem::size_of::<RowId>()
    }

    /// Gather statistics for the structure: `(left, right, join)`. The two
    /// member sides are ordinary single-pass table scans; the join entry is
    /// computed by streaming the stored join through the pointer lists (one
    /// pass over the pairs, nothing materialized), so its `row_count` is the
    /// join cardinality and its columns span `left ++ right`.
    pub fn compute_stats(&self) -> (TableStats, TableStats, TableStats) {
        let left = self.left.compute_stats();
        let right = self.right.compute_stats();
        let arity = self.left.schema().arity() + self.right.schema().arity();
        let join = TableStats::compute(self.iter_join(), arity);
        (left, right, join)
    }

    /// Approximate bytes a denormalized join table would need.
    pub fn denormalized_bytes(&self) -> usize {
        let mut total = 0usize;
        for (l, lrow) in self.left.scan() {
            let lsz: usize = lrow.iter().map(Value::approx_size).sum();
            for &r in self.neighbours_right(l) {
                let rsz: usize =
                    self.right.get(r).expect("live").iter().map(Value::approx_size).sum();
                total += lsz + rsz;
            }
        }
        total
    }
}

/// Pin-based join enumeration: the engine of [`FactorizedTable::iter_join_slots`]
/// and [`FactorizedTable::iter_join_slots_csr`]. Pins the left morsel's pages
/// once up front and re-pins one right page at a time as the pointer chase
/// crosses page boundaries, so enumerating a join larger than the frame
/// budget keeps at most the morsel's left pages plus one right page pinned.
/// Produces pairs in exactly pointer-list order (CSR preserves it), matching
/// the pre-paging row-at-a-time expansion bit for bit.
struct JoinSlots<'a> {
    ft: &'a FactorizedTable,
    csr: Option<&'a Csr>,
    left: crate::pages::SlotPin,
    cursor: usize,
    end: usize,
    /// Index into the current left slot's neighbour list.
    neigh: usize,
    /// Pin of the page holding the most recent right row — pointer chases
    /// have strong page locality, so one cached pin absorbs most accesses.
    right: Option<crate::pages::SlotPin>,
}

impl<'a> JoinSlots<'a> {
    fn new(ft: &'a FactorizedTable, csr: Option<&'a Csr>, range: std::ops::Range<usize>) -> Self {
        let left = ft.left.pin_slots(range);
        let r = left.range();
        JoinSlots { ft, csr, left, cursor: r.start, end: r.end, neigh: 0, right: None }
    }

    fn right_row(&mut self, r: RowId) -> &Row {
        let idx = r.idx();
        let stale = match &self.right {
            Some(pin) => !pin.range().contains(&idx),
            None => true,
        };
        if stale {
            let pr = self.ft.right.page_rows();
            let start = idx / pr * pr;
            self.right = Some(self.ft.right.pin_slots(start..start + pr));
        }
        self.right.as_ref().expect("just pinned").get(idx).expect("linked right row is live")
    }
}

impl Iterator for JoinSlots<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            if self.cursor >= self.end {
                return None;
            }
            let l = self.cursor;
            let ns_len = match self.csr {
                Some(c) => c.neighbours_of(l).len(),
                None => self.ft.neighbours_right(RowId(l as u64)).len(),
            };
            if self.left.get(l).is_none() || self.neigh >= ns_len {
                self.cursor += 1;
                self.neigh = 0;
                continue;
            }
            let r = match self.csr {
                Some(c) => c.neighbours_of(l)[self.neigh],
                None => self.ft.neighbours_right(RowId(l as u64))[self.neigh],
            };
            self.neigh += 1;
            let mut row = {
                let lrow = self.left.get(l).expect("checked live");
                let mut row = Vec::with_capacity(lrow.len() + self.ft.right.schema().arity());
                row.extend_from_slice(lrow);
                row
            };
            row.extend_from_slice(self.right_row(r));
            return Some(row);
        }
    }
}

/// Counts lazy CSR (re)builds — one per direction per rebuild, so a stable
/// read-mostly workload should show this flatline after warm-up. Handle
/// interned once per process (same pattern as the WAL metrics).
fn m_csr_rebuilds() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_csr_rebuilds_total",
            "Lazy CSR adjacency rebuilds (per direction) in factorized tables",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn ft() -> FactorizedTable {
        let left = TableSchema::new(
            "l",
            vec![Column::not_null("lid", DataType::Int), Column::new("lv", DataType::Text)],
            vec![0],
        );
        let right = TableSchema::new(
            "r",
            vec![Column::not_null("rid", DataType::Int), Column::new("rv", DataType::Int)],
            vec![0],
        );
        FactorizedTable::new("f", left, right)
    }

    #[test]
    fn build_and_enumerate() {
        let mut f = ft();
        let l1 = f.insert_left(vec![Value::Int(1), Value::str("a")]).unwrap();
        let l2 = f.insert_left(vec![Value::Int(2), Value::str("b")]).unwrap();
        let r1 = f.insert_right(vec![Value::Int(10), Value::Int(100)]).unwrap();
        let r2 = f.insert_right(vec![Value::Int(20), Value::Int(200)]).unwrap();
        f.link(l1, r1).unwrap();
        f.link(l1, r2).unwrap();
        f.link(l2, r2).unwrap();

        let join = f.enumerate_join();
        assert_eq!(join.len(), 3);
        assert_eq!(f.count_join(), 3);
        assert!(join.iter().any(|r| r[0] == Value::Int(2) && r[2] == Value::Int(20)));
    }

    #[test]
    fn iter_join_streams_same_pairs_as_enumerate() {
        let mut f = ft();
        for i in 0..6 {
            let l = f.insert_left(vec![Value::Int(i), Value::str("x")]).unwrap();
            let r = f.insert_right(vec![Value::Int(100 + i), Value::Int(i)]).unwrap();
            f.link(l, r).unwrap();
            if i > 0 {
                f.link(l, RowId(0)).unwrap(); // shared right row
            }
        }
        let eager = f.enumerate_join();
        let lazy: Vec<Row> = f.iter_join().collect();
        assert_eq!(eager, lazy);
        // Slot-range morsels cover the join exactly once, in order.
        let mut pieced = Vec::new();
        for start in (0..f.left().slot_count()).step_by(2) {
            pieced.extend(f.iter_join_slots(start..start + 2));
        }
        assert_eq!(pieced, eager);
        // Early termination: taking 2 pairs does not walk the whole join.
        assert_eq!(f.iter_join().take(2).count(), 2);
    }

    #[test]
    fn csr_expansion_is_bit_identical_to_row_path() {
        let mut f = ft();
        for i in 0..8 {
            let l = f.insert_left(vec![Value::Int(i), Value::str("x")]).unwrap();
            let r = f.insert_right(vec![Value::Int(100 + i), Value::Int(i)]).unwrap();
            f.link(l, r).unwrap();
            if i > 0 {
                f.link(l, RowId(0)).unwrap();
            }
        }
        // Churn so the slot universe has a tombstone and a recycled slot.
        f.delete_left(RowId(3)).unwrap();
        f.insert_left(vec![Value::Int(50), Value::str("y")]).unwrap();
        f.link(RowId(3), RowId(5)).unwrap();

        let csr = f.csr_forward();
        let row_path: Vec<Row> = f.iter_join().collect();
        let csr_path: Vec<Row> = f.iter_join_slots_csr(&csr, 0..f.left().slot_count()).collect();
        assert_eq!(csr_path, row_path, "same pairs, same order");
        assert_eq!(csr.edge_count(), f.pair_count());
        // Morsel-ranged CSR expansion pieces the join together identically.
        let mut pieced = Vec::new();
        for start in (0..f.left().slot_count()).step_by(3) {
            pieced.extend(f.iter_join_slots_csr(&csr, start..start + 3));
        }
        assert_eq!(pieced, row_path);
        // Per-slot neighbour slices match the pointer lists exactly.
        for slot in 0..f.left().slot_count() {
            assert_eq!(csr.neighbours_of(slot), f.neighbours_right(RowId(slot as u64)));
        }
        assert!(csr.neighbours_of(10_000).is_empty(), "out of range reads as empty");
    }

    #[test]
    fn csr_cache_rebuilds_lazily_after_mutation() {
        let mut f = ft();
        let l = f.insert_left(vec![Value::Int(1), Value::Null]).unwrap();
        let r = f.insert_right(vec![Value::Int(10), Value::Null]).unwrap();
        f.link(l, r).unwrap();

        let before = m_csr_rebuilds().get();
        let a = f.csr_forward();
        let b = f.csr_forward();
        // `ptr_eq` proves the second traversal reused the cached build; the
        // counter check is `>=` because other tests share the global metric.
        assert!(Arc::ptr_eq(&a, &b), "second traversal reuses the cached build");
        assert!(m_csr_rebuilds().get() > before, "first traversal rebuilt");

        // A clone keeps the warm cache; mutating the clone invalidates only
        // the clone's cache.
        let mut f2 = f.clone();
        assert!(Arc::ptr_eq(&f2.csr_forward(), &a));
        f2.unlink(l, r);
        assert_eq!(f2.csr_forward().edge_count(), 0, "clone sees its own mutation");
        assert!(Arc::ptr_eq(&f.csr_forward(), &a), "original cache untouched");

        // In-place member updates do not invalidate (links unchanged) ...
        f.update_left(l, vec![Value::Int(1), Value::str("nine")]).unwrap();
        assert!(Arc::ptr_eq(&f.csr_forward(), &a));
        // ... but an adjacency mutation does.
        f.link(l, r).unwrap();
        assert_eq!(f.csr_forward().edge_count(), 2);
    }

    #[test]
    fn truncate_invalidates_csr_views() {
        let mut f = ft();
        for i in 0..4 {
            let l = f.insert_left(vec![Value::Int(i), Value::str("x")]).unwrap();
            let r = f.insert_right(vec![Value::Int(100 + i), Value::Int(i)]).unwrap();
            f.link(l, r).unwrap();
        }
        let warm_fwd = f.csr_forward();
        assert_eq!(warm_fwd.edge_count(), 4);

        f.truncate();
        let after = f.csr_forward();
        assert!(!Arc::ptr_eq(&warm_fwd, &after), "truncate dropped the cached forward view");
        assert_eq!(after.edge_count(), 0);
        assert_eq!(f.iter_join_slots_csr(&after, 0..16).count(), 0, "no resurrected pairs");

        // Repopulating reuses the slot universe from zero; the fresh CSR
        // expansion is bit-identical to the row path.
        for i in 0..3 {
            let l = f.insert_left(vec![Value::Int(50 + i), Value::str("y")]).unwrap();
            let r = f.insert_right(vec![Value::Int(200 + i), Value::Int(i)]).unwrap();
            f.link(l, r).unwrap();
        }
        let csr = f.csr_forward();
        let row_path: Vec<Row> = f.iter_join().collect();
        let csr_path: Vec<Row> = f.iter_join_slots_csr(&csr, 0..f.left().slot_count()).collect();
        assert_eq!(csr_path, row_path);
        assert_eq!(csr.edge_count(), 3);
    }

    #[test]
    fn rollback_invalidates_csr_views() {
        use crate::catalog::Catalog;
        use crate::txn::Transaction;

        let mut c = Catalog::new();
        c.create_factorized("f", ft()).unwrap();
        let (l0, r0, r1) = {
            let f = c.factorized_mut("f").unwrap();
            let l0 = f.insert_left(vec![Value::Int(1), Value::str("a")]).unwrap();
            let r0 = f.insert_right(vec![Value::Int(10), Value::Int(0)]).unwrap();
            let r1 = f.insert_right(vec![Value::Int(20), Value::Int(1)]).unwrap();
            f.link(l0, r0).unwrap();
            (l0, r0, r1)
        };
        let warm = c.factorized("f").unwrap().csr_forward();
        assert_eq!(warm.edge_count(), 1);

        // A transaction links, inserts, unlinks — then rolls back. The undo
        // replays through the same adjacency mutators, so the cached CSR
        // must not survive into the restored state.
        let mut txn = Transaction::new();
        txn.fact_link(&mut c, "f", l0, r1).unwrap();
        txn.fact_insert(&mut c, "f", crate::wal::FactSide::Left, vec![Value::Int(2), Value::str("b")])
            .unwrap();
        txn.fact_unlink(&mut c, "f", l0, r0).unwrap();
        txn.rollback(&mut c).unwrap();

        let f = c.factorized("f").unwrap();
        let csr = f.csr_forward();
        assert!(!Arc::ptr_eq(&warm, &csr) || csr.edge_count() == 1, "no stale view after undo");
        let row_path: Vec<Row> = f.iter_join().collect();
        let csr_path: Vec<Row> = f.iter_join_slots_csr(&csr, 0..f.left().slot_count()).collect();
        assert_eq!(csr_path, row_path, "CSR expansion bit-identical to the row path after undo");
        assert_eq!(csr.edge_count(), 1, "exactly the pre-transaction pair");
        assert_eq!(f.neighbours_right(l0), vec![r0]);
    }

    #[test]
    fn unlink_and_delete_maintain_pairs() {
        let mut f = ft();
        let l1 = f.insert_left(vec![Value::Int(1), Value::Null]).unwrap();
        let r1 = f.insert_right(vec![Value::Int(10), Value::Null]).unwrap();
        let r2 = f.insert_right(vec![Value::Int(20), Value::Null]).unwrap();
        f.link(l1, r1).unwrap();
        f.link(l1, r2).unwrap();
        assert!(f.unlink(l1, r1));
        assert!(!f.unlink(l1, r1), "double unlink is a no-op");
        assert_eq!(f.count_join(), 1);
        f.delete_right(r2).unwrap();
        assert_eq!(f.count_join(), 0);
        assert!(f.neighbours_right(l1).is_empty());
    }

    #[test]
    fn delete_left_cascades_links() {
        let mut f = ft();
        let l1 = f.insert_left(vec![Value::Int(1), Value::Null]).unwrap();
        let r1 = f.insert_right(vec![Value::Int(10), Value::Null]).unwrap();
        f.link(l1, r1).unwrap();
        f.delete_left(l1).unwrap();
        assert_eq!(f.count_join(), 0);
        assert!(f.neighbours_left(r1).is_empty());
    }

    #[test]
    fn factorized_smaller_than_denormalized_on_shared_rows() {
        let mut f = ft();
        // One wide right row shared by many left rows: classic factorization win.
        let r = f
            .insert_right(vec![Value::Int(1), Value::Int(0)])
            .unwrap();
        for i in 0..100 {
            let l = f.insert_left(vec![Value::Int(i), Value::str("payload-payload-payload")]).unwrap();
            f.link(l, r).unwrap();
        }
        // Every denormalized pair repeats the left payload AND the right row.
        assert!(f.approx_bytes() < f.denormalized_bytes() + 100 * 24);
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    #[test]
    fn member_updates_preserve_links() {
        let left = TableSchema::new(
            "l",
            vec![Column::not_null("lid", DataType::Int), Column::new("lv", DataType::Int)],
            vec![0],
        );
        let right = TableSchema::new(
            "r",
            vec![Column::not_null("rid", DataType::Int)],
            vec![0],
        );
        let mut f = FactorizedTable::new("f", left, right);
        let l = f.insert_left(vec![Value::Int(1), Value::Int(10)]).unwrap();
        let r = f.insert_right(vec![Value::Int(2)]).unwrap();
        f.link(l, r).unwrap();
        f.update_left(l, vec![Value::Int(1), Value::Int(99)]).unwrap();
        assert_eq!(f.count_join(), 1);
        let join = f.enumerate_join();
        assert_eq!(join[0][1], Value::Int(99));
        // PK change through update keeps links too.
        f.update_right(r, vec![Value::Int(7)]).unwrap();
        assert_eq!(f.right().lookup_pk(&Value::Int(7)).unwrap().0, r);
        assert_eq!(f.enumerate_join()[0][2], Value::Int(7));
    }

    /// Regression test (Int→Float canonicalization audit): every factorized
    /// member ingest path — `insert_*`, `update_*`, and the WAL-redo
    /// `place_*` — must store `Value::Int` payloads bound for Float columns
    /// as canonical `Value::Float`, exactly like plain-table ingest. All
    /// three delegate to the member [`Table`]'s canonicalizing entry points;
    /// this pins that contract so a future "optimized" direct-slot path
    /// can't silently regress it.
    #[test]
    fn member_ingest_canonicalizes_int_to_float() {
        let is_float = |v: &Value, want: f64| matches!(v, Value::Float(f) if *f == want);
        let left = TableSchema::new(
            "l",
            vec![Column::not_null("lid", DataType::Int), Column::new("w", DataType::Float)],
            vec![0],
        );
        let right = TableSchema::new(
            "r",
            vec![Column::not_null("rid", DataType::Int), Column::new("x", DataType::Float)],
            vec![0],
        );
        let mut f = FactorizedTable::new("f", left, right);

        // insert path
        let l = f.insert_left(vec![Value::Int(1), Value::Int(5)]).unwrap();
        let r = f.insert_right(vec![Value::Int(2), Value::Int(6)]).unwrap();
        assert!(is_float(&f.left().get(l).unwrap()[1], 5.0), "insert_left");
        assert!(is_float(&f.right().get(r).unwrap()[1], 6.0), "insert_right");

        // update path
        f.update_left(l, vec![Value::Int(1), Value::Int(7)]).unwrap();
        f.update_right(r, vec![Value::Int(2), Value::Int(8)]).unwrap();
        assert!(is_float(&f.left().get(l).unwrap()[1], 7.0), "update_left");
        assert!(is_float(&f.right().get(r).unwrap()[1], 8.0), "update_right");

        // WAL-redo placement path (exact-slot placement used by recovery):
        // a logged row may carry Int payloads, so placement must
        // canonicalize just like live ingest did.
        f.place_left(RowId(9), vec![Value::Int(3), Value::Int(9)]).unwrap();
        f.place_right(RowId(9), vec![Value::Int(4), Value::Int(10)]).unwrap();
        assert!(is_float(&f.left().get(RowId(9)).unwrap()[1], 9.0), "place_left");
        assert!(is_float(&f.right().get(RowId(9)).unwrap()[1], 10.0), "place_right");
    }
}
