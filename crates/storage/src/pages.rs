//! Fixed-size paged row storage.
//!
//! The row view of a [`crate::table::Table`] — the redundant full-`Row`
//! copies that back point reads, `Other`-typed cells (arrays/structs with
//! no typed column vector), residual predicates, and snapshot encoding —
//! dominates a table's memory footprint. This module splits that vector of
//! slots into fixed-capacity **pages** so the [`crate::buffer_pool`] can
//! evict cold ones: each page is a `Vec<Option<Row>>` of `page_rows` slots
//! behind an `Arc`, and each page slot in the [`RowStore`] is either
//! *resident* (payload in memory), *spilled* (payload serialized to the
//! pool's spill file, held by a refcounted extent), or both (clean
//! resident page with a still-valid spilled copy — eviction is then free).
//!
//! ## Pin protocol
//!
//! Readers come in two shapes:
//!
//! * **Borrowing reads** (`get`, `scan_slots`, index probes) return `&Row`
//!   tied to `&Table`. They fault pages in through a `OnceLock`: set-once
//!   under `&self`, cleared only under `&mut self` at the pool's reclaim
//!   choke points — so a borrowed row can never be deallocated while the
//!   borrow lives, without any lock on the read path. A fault-in installs
//!   the page even when the pool is over budget.
//! * **Transient page pins** (`page_pins`, `unsaved_pages`: snapshot
//!   encode, free-list rebuild, delta checkpoints) clone one page `Arc` at
//!   a time. When the pool is over budget the decoded page is *not*
//!   installed — the pin is the only owner and the memory returns when
//!   the caller drops it.
//!
//! The executor's scans read the column vectors, not these pages, except
//! through borrowing reads in two places: residual (non-vectorizable)
//! predicates and array/struct columns, which have no typed vector. Those
//! reads install every page they touch, and a read-only query reaches no
//! reclaim choke point (reclaim runs after commit, rollback, checkpoint,
//! bulk load and recovery), so such a scan grows residency past the frame
//! budget until the next write. Scan memory is therefore not hard-bounded;
//! ROADMAP item 5 tracks the fix.
//!
//! Writers fault the page in, then mutate through `Arc::make_mut`: in
//! place when unshared, copy-on-write when a snapshot or pin still holds
//! the old version — the same COW discipline the catalog uses for whole
//! tables (DESIGN.md §12).
//!
//! ## Spill codec
//!
//! A spilled page is column-chunk shaped: a slot-presence bitmap, then for
//! each schema column the chunk of that column's values across the page's
//! occupied slots, encoded with [`erbium_model::codec`] (exact float-bit
//! round-trip, arrays/structs included). Decoding reassembles the rows.

use crate::buffer_pool::{BufferPool, Extent, PAGE_SIZE};
use crate::cow::cow_mut;
use crate::error::StorageResult;
use crate::row::Row;
use crate::schema::TableSchema;
use crate::value::{DataType, Value};
use erbium_model::codec::{get_value, put_u32, put_value, CodecResult, Cursor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// One page worth of row slots.
pub(crate) type PageData = Vec<Option<Row>>;

/// Rows per page for a table of this schema: pick the largest power of two
/// whose estimated payload fits in [`PAGE_SIZE`], clamped to `[16, 4096]`.
/// A power of two keeps slot→(page, offset) a shift+mask on the scan path.
pub(crate) fn page_rows_for(schema: &TableSchema) -> usize {
    let mut est = 48usize; // Vec<Value> header + allocator slack
    for col in &schema.columns {
        est += match &col.dtype {
            DataType::Bool | DataType::Int | DataType::Float => 32,
            DataType::Text => 64,
            _ => 160, // arrays / structs: nested heap payloads
        };
    }
    let fit = (PAGE_SIZE / est).max(1);
    let pow = if fit.is_power_of_two() { fit } else { fit.next_power_of_two() / 2 };
    pow.clamp(16, 4096)
}

/// Serialize one page: `[n_slots u32][presence bitmap][col 0 chunk]...`.
fn encode_page(page: &PageData, arity: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAGE_SIZE / 2);
    put_u32(&mut buf, page.len() as u32);
    let mut bitmap = vec![0u8; page.len().div_ceil(8)];
    for (i, slot) in page.iter().enumerate() {
        if slot.is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&bitmap);
    for c in 0..arity {
        for slot in page.iter().flatten() {
            put_value(&mut buf, slot.get(c).unwrap_or(&Value::Null));
        }
    }
    buf
}

/// Decode a page serialized by [`encode_page`]. `None` on malformed bytes
/// (callers treat that as an invariant violation: the spill file is
/// process-local transient state, not untrusted input).
fn decode_page(bytes: &[u8], arity: usize) -> Option<PageData> {
    fn decode(bytes: &[u8], arity: usize) -> CodecResult<PageData> {
        let mut c = Cursor::new(bytes);
        let n = c.u32()? as usize;
        let bitmap = c.bytes(n.div_ceil(8))?;
        let present = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
        let occupied = (0..n).filter(|&i| present(i)).count();
        let mut rows: Vec<Row> = (0..occupied).map(|_| Vec::with_capacity(arity)).collect();
        for _ in 0..arity {
            for row in &mut rows {
                row.push(get_value(&mut c)?);
            }
        }
        c.finish()?;
        let mut rows = rows.into_iter();
        Ok((0..n).map(|i| if present(i) { rows.next() } else { None }).collect())
    }
    decode(bytes, arity).ok()
}

/// One page's bookkeeping inside a [`RowStore`]. See the module docs for
/// the resident/spilled state machine.
#[derive(Debug)]
struct PageSlot {
    /// Resident payload. Set-once under `&self` (fault-in), taken only
    /// under `&mut self` (eviction) — the invariant that keeps `&Row`
    /// borrows sound without a lock.
    data: OnceLock<Arc<PageData>>,
    /// Valid serialized copy in the spill file, if any.
    extent: Option<Arc<Extent>>,
    /// Resident payload differs from `extent` (or there is no extent).
    dirty: bool,
    /// Pool clock value at the last mutation; gates write-back.
    stamp: u64,
    /// Second-chance bit for the clock sweep, set on every read hit.
    hot: AtomicBool,
    /// Changed since the last checkpoint: set with `dirty` by every write,
    /// but left alone by spill write-back, so it survives eviction. Delta
    /// checkpoints carry exactly these pages. Cleared through `&self` once
    /// the checkpoint is on disk: a snapshot sharing this page slot shares
    /// its content too, so the mark is true of both. Only the writer reads
    /// or writes it and it publishes no data, so `Relaxed` suffices.
    unsaved: AtomicBool,
}

impl Clone for PageSlot {
    fn clone(&self) -> Self {
        let data = OnceLock::new();
        if let Some(d) = self.data.get() {
            let _ = data.set(d.clone());
        }
        PageSlot {
            data,
            extent: self.extent.clone(),
            dirty: self.dirty,
            stamp: self.stamp,
            hot: AtomicBool::new(self.hot.load(Ordering::Relaxed)),
            unsaved: AtomicBool::new(self.unsaved.load(Ordering::Relaxed)),
        }
    }
}

impl PageSlot {
    fn fresh(cap: usize) -> PageSlot {
        let data = OnceLock::new();
        let _ = data.set(Arc::new(Vec::with_capacity(cap)));
        PageSlot {
            data,
            extent: None,
            dirty: true,
            stamp: 0,
            hot: AtomicBool::new(true),
            unsaved: AtomicBool::new(true),
        }
    }

    /// Record a write: the resident payload now differs from any spilled
    /// copy and from the last checkpoint.
    fn note_write(&mut self, stamp: u64) {
        self.dirty = true;
        *self.unsaved.get_mut() = true;
        self.stamp = stamp;
        self.extent = None; // content diverges from any spilled copy
        self.hot.store(true, Ordering::Relaxed);
    }
}

/// The paged slot vector backing a table's row view. Replaces the old
/// `Vec<Option<Row>>` field; all indices are table slot indices.
pub(crate) struct RowStore {
    pages: Vec<PageSlot>,
    pool: Arc<BufferPool>,
    /// log2 of rows per page (shift+mask addressing).
    shift: u32,
    len: usize,
    arity: usize,
}

impl std::fmt::Debug for RowStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowStore")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("page_rows", &(1usize << self.shift))
            .finish()
    }
}

impl Clone for RowStore {
    fn clone(&self) -> Self {
        let pages: Vec<PageSlot> = self.pages.to_vec();
        for p in &pages {
            if p.data.get().is_some() {
                self.pool.note_resident();
            }
        }
        RowStore {
            pages,
            pool: self.pool.clone(),
            shift: self.shift,
            len: self.len,
            arity: self.arity,
        }
    }
}

impl Drop for RowStore {
    fn drop(&mut self) {
        for p in &self.pages {
            if p.data.get().is_some() {
                self.pool.note_dropped();
            }
        }
    }
}

impl RowStore {
    pub(crate) fn new(arity: usize, page_rows: usize, pool: Arc<BufferPool>) -> RowStore {
        debug_assert!(page_rows.is_power_of_two());
        RowStore { pages: Vec::new(), pool, shift: page_rows.trailing_zeros(), len: 0, arity }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn page_rows(&self) -> usize {
        1usize << self.shift
    }

    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Rebind to another pool (catalog install / recovery wiring). Moves
    /// the residency accounting; spilled extents keep reading from the
    /// pool that wrote them (they hold their own handle).
    pub(crate) fn rebind(&mut self, pool: &Arc<BufferPool>) {
        if Arc::ptr_eq(&self.pool, pool) {
            return;
        }
        let resident = self.pages.iter().filter(|p| p.data.get().is_some()).count();
        for _ in 0..resident {
            self.pool.note_dropped();
            pool.note_resident();
        }
        self.pool = pool.clone();
    }

    /// Fault page `pidx` in (if needed) and return its resident payload.
    /// The returned borrow lives as long as `&self`: eviction requires
    /// `&mut self`, so it cannot be invalidated underneath the caller.
    ///
    /// Panics if the spill file fails to read or decode — the spill file
    /// is process-local cache state, so that is memory corruption, not an
    /// I/O condition the caller can handle (durable state is never here).
    fn resident(&self, pidx: usize) -> &Arc<PageData> {
        let slot = &self.pages[pidx];
        if let Some(d) = slot.data.get() {
            slot.hot.store(true, Ordering::Relaxed);
            return d;
        }
        slot.data.get_or_init(|| {
            self.pool.note_miss();
            self.pool.note_resident();
            Arc::new(self.decode_extent(slot))
        })
    }

    /// [`RowStore::resident`] plus hit/miss accounting: a hit when the
    /// page was already in memory, a miss (counted inside the fault-in)
    /// otherwise.
    fn resident_counted(&self, pidx: usize) -> &Arc<PageData> {
        if self.pages[pidx].data.get().is_some() {
            self.pool.note_hit();
        }
        self.resident(pidx)
    }

    fn decode_extent(&self, slot: &PageSlot) -> PageData {
        let extent =
            slot.extent.as_ref().expect("evicted page must have a spill extent");
        let bytes = extent.read().expect("buffer pool spill file unreadable");
        decode_page(&bytes, self.arity).expect("buffer pool spill frame corrupted")
    }

    /// The row at slot `i`, faulting its page in. `None` for empty slots
    /// *and* out-of-range indices (mirrors the old `Vec::get` contract).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&Row> {
        if i >= self.len {
            return None;
        }
        let page = self.resident_counted(i >> self.shift);
        page.get(i & (self.page_rows() - 1)).and_then(|s| s.as_ref())
    }

    /// Mutable access to the page holding slot `i`, copy-on-write when the
    /// page is shared with a snapshot or pin. Marks the page dirty and
    /// stamps it with the pool's write clock.
    fn page_mut(&mut self, pidx: usize) -> &mut PageData {
        self.resident(pidx);
        let stamp = self.pool.write_stamp();
        let slot = &mut self.pages[pidx];
        slot.note_write(stamp);
        cow_mut(slot.data.get_mut().expect("faulted in above"))
    }

    /// Overwrite slot `i`. Panics if out of range (same as `vec[i] = v`).
    pub(crate) fn set(&mut self, i: usize, v: Option<Row>) {
        assert!(i < self.len, "slot {i} out of range ({} slots)", self.len);
        let mask = self.page_rows() - 1;
        self.page_mut(i >> self.shift)[i & mask] = v;
    }

    /// Take the row out of slot `i`, leaving a tombstone.
    pub(crate) fn take(&mut self, i: usize) -> Option<Row> {
        if i >= self.len {
            return None;
        }
        let mask = self.page_rows() - 1;
        self.page_mut(i >> self.shift)[i & mask].take()
    }

    /// Append a slot. Opportunistically self-reclaims at page boundaries
    /// when the pool is over budget, so bulk loads and recovery replay
    /// stay bounded without waiting for the next catalog choke point.
    pub(crate) fn push(&mut self, v: Option<Row>) {
        let page_rows = self.page_rows();
        if self.len == self.pages.len() << self.shift {
            if self.pool.over_budget() {
                let _ = self.reclaim(false);
            }
            self.pages.push(PageSlot::fresh(page_rows));
            self.pool.note_resident();
        }
        let pidx = self.len >> self.shift;
        // The partially-filled tail page may itself have been evicted at a
        // choke point between pushes — fault it back in before appending.
        self.resident(pidx);
        let stamp = self.pool.write_stamp();
        let slot = &mut self.pages[pidx];
        slot.note_write(stamp);
        cow_mut(slot.data.get_mut().expect("faulted in above")).push(v);
        self.len += 1;
    }

    /// Grow with empty slots up to `n` (used by WAL-replay `place_at`).
    pub(crate) fn resize_none(&mut self, n: usize) {
        while self.len < n {
            self.push(None);
        }
    }

    /// Drop all pages (truncate). Extents return their spill frames.
    pub(crate) fn clear(&mut self) {
        for p in &self.pages {
            if p.data.get().is_some() {
                self.pool.note_dropped();
            }
        }
        self.pages.clear();
        self.len = 0;
    }

    /// Iterate occupied slots in `start..end` (clamped), faulting pages in
    /// one at a time. Equivalent to the old slice `iter().filter_map()`.
    pub(crate) fn iter_range(
        &self,
        start: usize,
        end: usize,
    ) -> impl Iterator<Item = (usize, &Row)> + '_ {
        let end = end.min(self.len);
        let start = start.min(end);
        SlotIter { store: self, i: start, end, page: None, page_first: 0 }
    }

    /// Clone page `pidx`'s `Arc`. Over budget, an evicted page is decoded
    /// transiently and not installed: the caller holds the only copy.
    fn pin_page(&self, pidx: usize) -> Arc<PageData> {
        let slot = &self.pages[pidx];
        if let Some(d) = slot.data.get() {
            slot.hot.store(true, Ordering::Relaxed);
            self.pool.note_hit();
            return d.clone();
        }
        if self.pool.over_budget() {
            // Transient decode: hand the only copy to the caller, never
            // install it — the pool stays at its current residency.
            self.pool.note_miss();
            return Arc::new(self.decode_extent(slot));
        }
        self.resident(pidx).clone()
    }

    /// One clock-sweep pass: evict cold resident pages (write dirty ones
    /// back first, if the WAL barrier allows) until the pool is back under
    /// budget or the pass completes. With `force`, hot bits are ignored —
    /// the caller already gave every page its second chance. Returns pages
    /// evicted. Spill I/O errors abort the pass (reclaim is best-effort;
    /// durable state never lives in the spill file).
    pub(crate) fn reclaim(&mut self, force: bool) -> StorageResult<usize> {
        if !self.pool.is_bounded() {
            return Ok(0);
        }
        let mut evicted = 0usize;
        let pool = self.pool.clone();
        for pidx in 0..self.pages.len() {
            if !pool.over_budget() {
                break;
            }
            let slot = &mut self.pages[pidx];
            let Some(data) = slot.data.get() else { continue };
            if slot.hot.swap(false, Ordering::Relaxed) && !force {
                continue; // second chance
            }
            if slot.dirty {
                if !pool.writeback_allowed(slot.stamp) {
                    continue; // dirtied by the still-open transaction
                }
                let bytes = encode_page(data, self.arity);
                slot.extent = Some(pool.spill(&bytes)?);
                slot.dirty = false;
            }
            debug_assert!(slot.extent.is_some(), "clean page must have an extent");
            slot.data.take();
            pool.note_dropped();
            pool.note_eviction();
            evicted += 1;
        }
        Ok(evicted)
    }

    /// Transient pins of every page, in slot order, with each page's first
    /// slot index. Streaming consumers (snapshot encode, free-list
    /// rebuild) use this to walk all slots without forcing residency.
    pub(crate) fn page_pins(&self) -> impl Iterator<Item = (usize, Arc<PageData>)> + '_ {
        (0..self.pages.len()).map(move |p| (p << self.shift, self.pin_page(p)))
    }

    /// Pages written since the last [`RowStore::mark_saved`], as transient
    /// pins tagged with the first slot index each covers (the delta
    /// checkpoint's payload).
    pub(crate) fn unsaved_pages(&self) -> impl Iterator<Item = (usize, Arc<PageData>)> + '_ {
        (0..self.pages.len())
            .filter(|&p| self.pages[p].unsaved.load(Ordering::Relaxed))
            .map(move |p| (p << self.shift, self.pin_page(p)))
    }

    /// How many pages [`RowStore::unsaved_pages`] would yield.
    pub(crate) fn unsaved_page_count(&self) -> usize {
        self.pages.iter().filter(|p| p.unsaved.load(Ordering::Relaxed)).count()
    }

    /// Every page is now on disk as of a checkpoint.
    pub(crate) fn mark_saved(&self) {
        for p in &self.pages {
            p.unsaved.store(false, Ordering::Relaxed);
        }
    }

    /// Pages of `self` whose resident payload is not the very allocation
    /// of `other`'s matching page (test support: copy-on-write sharing).
    #[cfg(test)]
    pub(crate) fn unshared_pages(&self, other: &RowStore) -> usize {
        let same = self
            .pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| match (a.data.get(), b.data.get()) {
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                _ => false,
            })
            .count();
        self.pages.len().max(other.pages.len()) - same
    }

    /// Materialize the full slot vector (test support).
    #[cfg(test)]
    pub(crate) fn slots_vec(&self) -> Vec<Option<Row>> {
        let mut out = Vec::with_capacity(self.len);
        for (_, page) in self.page_pins() {
            out.extend(page.iter().cloned());
        }
        out
    }
}

/// Borrowing iterator over occupied slots; faults pages in lazily, one
/// hit/miss count per page transition (not per row).
struct SlotIter<'a> {
    store: &'a RowStore,
    i: usize,
    end: usize,
    page: Option<&'a PageData>,
    page_first: usize,
}

impl<'a> Iterator for SlotIter<'a> {
    type Item = (usize, &'a Row);

    fn next(&mut self) -> Option<(usize, &'a Row)> {
        let mask = self.store.page_rows() - 1;
        while self.i < self.end {
            let pidx = self.i >> self.store.shift;
            let first = pidx << self.store.shift;
            if self.page.is_none() || self.page_first != first {
                self.page = Some(self.store.resident_counted(pidx).as_ref());
                self.page_first = first;
            }
            let i = self.i;
            self.i += 1;
            if let Some(row) = self.page.and_then(|p| p.get(i & mask)).and_then(|s| s.as_ref())
            {
                return Some((i, row));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn store(page_rows: usize, pool: Arc<BufferPool>) -> RowStore {
        RowStore::new(2, page_rows, pool)
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str(format!("r{i}"))]
    }

    #[test]
    fn page_codec_round_trips_exactly() {
        let page: PageData = vec![
            Some(vec![Value::Int(1), Value::Float(f64::NAN)]),
            None,
            Some(vec![
                Value::Array(vec![Value::str("x"), Value::Null]),
                Value::str("hello"),
            ]),
            None,
        ];
        let bytes = encode_page(&page, 2);
        let back = decode_page(&bytes, 2).unwrap();
        assert_eq!(back.len(), 4);
        assert!(back[1].is_none() && back[3].is_none());
        assert_eq!(back[0].as_ref().unwrap()[0], Value::Int(1));
        // NaN round-trips by bit pattern, not by ==.
        match (&page[0].as_ref().unwrap()[1], &back[0].as_ref().unwrap()[1]) {
            (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("expected floats, got {other:?}"),
        }
        assert_eq!(page[2], back[2]);

        // Malformed spill bytes decode to `None`, never a panic: every
        // strict prefix, and a column of 100,000 nested array tags. A byte
        // flip may still decode (to a different page).
        for cut in 0..bytes.len() {
            assert!(decode_page(&bytes[..cut], 2).is_none(), "prefix {cut}");
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            let _ = decode_page(&flipped, 2);
        }
        let mut deep = vec![1, 0, 0, 0, 1]; // one slot, present
        for _ in 0..100_000 {
            deep.push(5); // array tag
            put_u32(&mut deep, 1);
        }
        deep.push(0);
        assert!(decode_page(&deep, 1).is_none());
    }

    #[test]
    fn page_rows_is_power_of_two_and_clamped() {
        let narrow = TableSchema::new(
            "n",
            vec![Column::not_null("a", DataType::Int)],
            vec![0],
        );
        let wide = TableSchema::new(
            "w",
            (0..40)
                .map(|i| Column::new(format!("c{i}"), DataType::Array(Box::new(DataType::Text))))
                .collect(),
            vec![0],
        );
        for s in [&narrow, &wide] {
            let pr = page_rows_for(s);
            assert!(pr.is_power_of_two());
            assert!((16..=4096).contains(&pr));
        }
        assert!(page_rows_for(&narrow) > page_rows_for(&wide));
    }

    #[test]
    fn eviction_spills_and_faults_back_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "erbium-pages-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = BufferPool::bounded(2, dir.join("pages.erb"));
        let mut s = store(16, pool.clone());
        for i in 0..100 {
            s.push(if i % 7 == 3 { None } else { Some(row(i)) });
        }
        // Everything is committed as far as the pool is concerned.
        pool.note_txn_end();
        let expect = s.slots_vec();
        let evicted = s.reclaim(true).unwrap();
        assert!(evicted > 0, "tiny budget must evict");
        assert!(!pool.over_budget());
        assert_eq!(s.slots_vec(), expect, "spill round-trip changed content");
        let st = pool.stats();
        assert!(st.dirty_writebacks > 0 && st.evictions > 0 && st.misses > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dirty_pages_above_the_barrier_are_never_written_back() {
        let dir = std::env::temp_dir().join(format!(
            "erbium-pages-barrier-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = BufferPool::bounded(1, dir.join("pages.erb"));
        let mut s = store(16, pool.clone());
        pool.note_txn_start(); // open transaction: stamps above barrier
        for i in 0..64 {
            s.push(Some(row(i)));
        }
        assert_eq!(s.reclaim(true).unwrap(), 0, "uncommitted pages must not spill");
        assert_eq!(pool.stats().dirty_writebacks, 0);
        pool.note_txn_end(); // commit published
        assert!(s.reclaim(true).unwrap() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_share_extents_and_account_residency() {
        let dir = std::env::temp_dir().join(format!(
            "erbium-pages-clone-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = BufferPool::bounded(2, dir.join("pages.erb"));
        let mut s = store(16, pool.clone());
        for i in 0..64 {
            s.push(Some(row(i)));
        }
        pool.note_txn_end();
        s.reclaim(true).unwrap();
        let resident_before = pool.stats().resident;
        let snap = s.clone(); // shares spilled extents, clones resident Arcs
        assert_eq!(snap.slots_vec(), s.slots_vec());
        drop(snap);
        assert_eq!(pool.stats().resident, resident_before);
        // Mutating the original must not disturb what a clone reads.
        let snap = s.clone();
        let before = snap.slots_vec();
        s.set(3, Some(row(999)));
        s.take(5);
        assert_eq!(snap.slots_vec(), before, "snapshot saw a later write");
        assert_eq!(s.get(3).unwrap()[0], Value::Int(999));
        std::fs::remove_dir_all(&dir).ok();
    }
}
