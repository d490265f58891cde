//! Checkpoint snapshots and crash recovery.
//!
//! A snapshot is a full, self-contained image of one [`Catalog`]: every
//! table (schema, secondary-index specs, and the raw slot vector —
//! tombstones included, because [`crate::row::RowId`]s in the WAL suffix
//! and in row-id link tables are slot positions), and the metadata area
//! (which is where the upper layers keep the E/R schema, the installed
//! mapping, and the version log — so those ride along for free). Gathered
//! statistics ride along too: an optional trailing section carries the
//! [`CatalogStats`] registry, so a recovered database keeps its cost-based
//! optimizer passes armed instead of silently degrading to the no-stats
//! no-op paths. The section is emitted only when the registry is
//! non-empty, which keeps stat-less snapshots byte-identical to the
//! original `ERBSNAP1` layout (backward- and forward-compatible decode:
//! old files simply have no trailing section).
//!
//! ## On-disk format
//!
//! ```text
//! [magic "ERBSNAP1": 8 bytes] [body_len: u32 LE] [crc32(body): u32 LE] [body]
//! ```
//!
//! The body is written with the same [`erbium_model::codec`] as the WAL.
//! Unlike the WAL — where a torn tail is expected and tolerated — any
//! framing/CRC/decode failure in a snapshot is a hard
//! [`StorageError::Corrupt`] (the `From<CodecError>` impl below is the one
//! place that mapping lives): the file is written atomically (tmp + fsync +
//! rename), so a damaged snapshot means real corruption, not a crash
//! artifact.
//!
//! ## Incremental (delta) checkpoints
//!
//! Writing the whole catalog on every checkpoint is wasteful when only a
//! few pages changed since the last one. [`write_checkpoint`] therefore
//! consults the catalog's dirty tracking and, when the base snapshot is
//! still representative, emits an `ERBSNAP3` **page delta** file
//! (`snapshot.delta.<seq>.erb`) instead, framed like the base:
//!
//! ```text
//! [seq u64] [base_crc u32] [next_txn u64]
//! [tables u32] per dirty table:
//!     [header: schema JSON, index specs] [slot_count u32]
//!     [pages u32] per row page written since the previous checkpoint:
//!         [first slot u32] [slots u32] [slot]*      (the base's slot encoding)
//! [factorized u32]                                (always 0, see below)
//! [metadata map] [stats flag u8] [stats JSON, if the flag is 1]
//! ```
//!
//! Every row page carries a mark that each write sets and only a
//! checkpoint clears (spilling the page to the buffer pool's file leaves it
//! alone), so a delta holds exactly the pages the cycle touched. The slot
//! count makes growth and truncation explicit. Each page entry names the
//! slot range it covers, so reading a delta does not depend on the page
//! size the writer chose (a tuning heuristic, free to change between
//! releases): a chain written under one page size and extended under
//! another still recovers slot for slot. The older table-granular
//! `ERBSNAP2` delta (the same layout with each dirty table's slots in full
//! after its header, and no page list) is still read, as a delta in which
//! every table carries all of its pages; only `ERBSNAP3` is written.
//!
//! Compaction back to a full snapshot happens when the chain grows past
//! [`MAX_DELTA_CHAIN`], when the catalog's shape changed (DDL), or when
//! more than half the catalog is dirty anyway: more than half of its
//! tables and more than half of its row pages. A cycle that touches most
//! tables but few pages of each (M1 spreads one logical write over six
//! tables) therefore stays a delta. A full snapshot
//! deletes the delta files *after* the base rename; a crash in between
//! leaves stale deltas behind, which is why every delta records the CRC of
//! the base body it was computed against (`base_crc`). Deltas whose
//! `base_crc` does not match the current base are ignored at recovery and
//! deleted at the next checkpoint — content addressing, not trust in
//! deletion order. Every checkpoint first surveys the chain, checking each
//! member's magic, length, CRC and trailing bytes through one fixed buffer
//! (the same [`read_frame`] recovery reads each member with, keeping only
//! the header).
//!
//! ## Recovery protocol
//!
//! [`Catalog::recover`] = read the latest snapshot (or start empty), fold
//! the valid delta chain into one overlay — one delta file at a time, each
//! read once, in sequence order: for each table the newest header and slot
//! count and the newest copy of every slot a delta carried — then decode
//! the base with the overlay's slot ranges laid over its slots, so each
//! table, with its
//! indexes, column vectors, dictionaries and free list, is built exactly
//! once. Then redo the committed suffix of the WAL, placing rows at the
//! exact slots the log recorded, and finally rebuild the free lists. WAL
//! groups whose transaction id predates the checkpoint chain are already
//! absorbed by it and are skipped — that makes the crash window between
//! the checkpoint rename and the WAL truncation safe. The combination is
//! exactly the committed prefix of history: rolled-back transactions never
//! reached the log, and a torn tail loses only the in-flight group.
//!
//! ## The retired factorized section
//!
//! Both the base and the delta keep the count field of the factorized
//! structures an older storage kind wrote there, always as 0, so every
//! catalog without such a structure has the bytes it always had. A
//! non-zero count is a directory written by an older version: reading it
//! fails with an error naming the structure. Old directories are refused,
//! not converted.

use crate::buffer_pool::BufferPool;
use crate::catalog::Catalog;
use crate::error::{StorageError, StorageResult};
use crate::index::IndexKind;
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::stats::CatalogStats;
use crate::table::Table;
use crate::wal::{scan_wal, WalRecord};
use erbium_model::codec::{
    crc32_update, frame_header, get_row, put_row, put_str, put_u32, put_u64, CodecError, Cursor,
};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the checkpoint snapshot inside a database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.erb";
/// File name of the write-ahead log inside a database directory.
pub const WAL_FILE: &str = "wal.erb";
/// Maximum number of chained delta checkpoints before [`write_checkpoint`]
/// compacts back to a full snapshot. Bounds recovery work (each delta is a
/// file read folded into the overlay) and disk amplification.
pub const MAX_DELTA_CHAIN: usize = 8;

const MAGIC: &[u8; 8] = b"ERBSNAP1";
/// Table-granular delta: each dirty table in full. Read, no longer written.
const MAGIC2: &[u8; 8] = b"ERBSNAP2";
/// Page-granular delta: only the row pages written since the last checkpoint.
const MAGIC3: &[u8; 8] = b"ERBSNAP3";
/// The delta magics, indexed by [`read_frame`]'s match: 0 is `ERBSNAP2`.
const DELTA_MAGICS: [&[u8; 8]; 2] = [MAGIC2, MAGIC3];
const DELTA_TMP: &str = "snapshot.delta.tmp";

fn delta_file_name(seq: u64) -> String {
    format!("snapshot.delta.{seq}.erb")
}

/// Parse `snapshot.delta.<seq>.erb` back into `<seq>`.
fn parse_delta_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snapshot.delta.")?;
    let digits = rest.strip_suffix(".erb")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every delta file in `dir`, unsorted. Temp files are skipped: a crash
/// mid-write leaves only `snapshot.delta.tmp`, never a half-written delta
/// under a real name.
fn list_deltas(dir: &Path) -> StorageResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| io_err(&format!("read dir {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", e))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_delta_name) {
            out.push((seq, entry.path()));
        }
    }
    Ok(out)
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{ctx}: {e}"))
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> StorageError {
        corrupt(format!("checkpoint: {e}"))
    }
}

// ---- encoding --------------------------------------------------------------

/// Everything of a table but its slots: schema and secondary-index specs.
fn put_table_header(buf: &mut Vec<u8>, t: &Table) {
    let schema_json = serde_json::to_string(t.schema()).expect("schema serializes");
    put_str(buf, &schema_json);
    let indexes = t.indexes();
    put_u32(buf, indexes.len() as u32);
    for idx in indexes {
        put_str(buf, &idx.name);
        put_u32(buf, idx.columns.len() as u32);
        for &c in &idx.columns {
            put_u32(buf, c as u32);
        }
        buf.push(match idx.kind() {
            IndexKind::Hash => 0,
            IndexKind::BTree => 1,
        });
    }
}

fn put_table(buf: &mut Vec<u8>, t: &Table) {
    put_table_header(buf, t);
    put_slots(buf, t);
}

/// One slot: a flag byte, then the row if there is one.
fn put_slot(buf: &mut Vec<u8>, slot: &Option<Row>) {
    match slot {
        None => buf.push(0),
        Some(row) => {
            buf.push(1);
            put_row(buf, row);
        }
    }
}

/// Encode the slot vector page by page. Byte-identical to encoding the
/// materialized `Vec<Option<Row>>` (pages concatenate to exactly the slot
/// vector), but evicted pages are decoded transiently one at a time, so
/// checkpointing a table never pulls its whole row store resident.
fn put_slots(buf: &mut Vec<u8>, t: &Table) {
    put_u32(buf, t.slot_count() as u32);
    for (_, page) in t.page_pins() {
        for slot in page.iter() {
            put_slot(buf, slot);
        }
    }
}

/// One page-delta table entry: the header, the slot count, then every row
/// page written since the last checkpoint as its first slot index and its
/// counted slots. Returns the number of pages written.
fn put_table_pages(buf: &mut Vec<u8>, t: &Table) -> usize {
    put_table_header(buf, t);
    put_u32(buf, t.slot_count() as u32);
    let pages = t.unsaved_page_count();
    put_u32(buf, pages as u32);
    for (first, page) in t.unsaved_pages() {
        put_u32(buf, first as u32);
        put_u32(buf, page.len() as u32);
        for slot in page.iter() {
            put_slot(buf, slot);
        }
    }
    pages
}

/// The metadata area (E/R schema, mapping, version log all live here),
/// sorted for deterministic bytes. Deltas carry it wholesale too: it is
/// tiny relative to table data and per-key dirty tracking is not worth the
/// bookkeeping.
fn put_meta(buf: &mut Vec<u8>, cat: &Catalog) {
    let mut meta: Vec<(&String, &serde_json::Value)> = cat.meta_entries().collect();
    meta.sort_by_key(|(k, _)| k.as_str());
    put_u32(buf, meta.len() as u32);
    for (k, v) in meta {
        put_str(buf, k);
        put_str(buf, &v.to_string());
    }
}

fn put_stats(buf: &mut Vec<u8>, stats: &CatalogStats) {
    put_str(buf, &serde_json::to_string(stats).expect("catalog stats serialize"));
}

/// Serialize a whole catalog (plus the WAL's next transaction id) into the
/// snapshot body.
fn encode_body(cat: &Catalog, next_txn: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    put_u64(&mut buf, next_txn);

    // Tables, sorted for deterministic bytes.
    let mut tables: Vec<(&String, &Table)> = cat.tables_iter().collect();
    tables.sort_by_key(|(n, _)| n.as_str());
    put_u32(&mut buf, tables.len() as u32);
    for (_, t) in tables {
        put_table(&mut buf, t);
    }

    put_u32(&mut buf, 0); // the retired factorized section (module docs)
    put_meta(&mut buf, cat);

    // Optional trailing section: the statistics registry. Only emitted when
    // non-empty so a stat-less snapshot stays byte-identical to the
    // pre-stats format (and old readers that stop at the meta section would
    // reject only files that actually carry stats).
    if !cat.stats().is_empty() {
        put_stats(&mut buf, cat.stats());
    }
    buf
}

// ---- decoding --------------------------------------------------------------

/// A decoded [`put_table_header`].
struct TableHeader {
    schema: TableSchema,
    indexes: Vec<(String, Vec<usize>, IndexKind)>,
}

fn get_table_header(c: &mut Cursor<'_>) -> StorageResult<TableHeader> {
    let schema: TableSchema = serde_json::from_str(c.str()?)
        .map_err(|e| corrupt(format!("snapshot: bad table schema: {e}")))?;
    let n_indexes = c.count(9)?; // name length + column count + kind byte
    let mut indexes = Vec::with_capacity(n_indexes);
    for _ in 0..n_indexes {
        let name = c.string()?;
        let n_cols = c.count(4)?;
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            cols.push(c.u32()? as usize);
        }
        let kind = match c.u8()? {
            0 => IndexKind::Hash,
            1 => IndexKind::BTree,
            k => return Err(corrupt(format!("snapshot: unknown index kind {k}"))),
        };
        indexes.push((name, cols, kind));
    }
    Ok(TableHeader { schema, indexes })
}

fn get_slot(c: &mut Cursor<'_>) -> StorageResult<Option<Row>> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_row(c)?)),
        f => Err(corrupt(format!("snapshot: bad slot flag {f}"))),
    }
}

/// What the delta chain says about one table: its newest header and
/// slot count, and the newest copy of every slot some delta carried, as
/// disjoint slot ranges keyed by their first slot. That is all recovery
/// needs: a slot written since the base is in the page the next delta
/// carries, and a slot that exists after a truncation was rewritten after
/// it (truncation drops every page, and a new page is marked), so the
/// newest copy of each slot is its final content.
struct TablePatch {
    header: TableHeader,
    slot_count: usize,
    pages: BTreeMap<usize, Vec<Option<Row>>>,
}

impl TablePatch {
    /// A table the chain never mentions: the base, as it is.
    fn identity(header: TableHeader, slot_count: usize) -> TablePatch {
        TablePatch { header, slot_count, pages: BTreeMap::new() }
    }

    /// Lay the non-empty range `slots`, starting at slot `first`, over
    /// the older ranges: whatever part of them it covers is dropped. Deltas
    /// written under one page size replace whole ranges; a chain extended
    /// under another page size splits them.
    fn lay(&mut self, first: usize, slots: Vec<Option<Row>>) {
        let end = first + slots.len();
        let pages = &mut self.pages;
        if let Some((&start, older)) = pages.range_mut(..first).next_back() {
            if start + older.len() > first {
                let tail = older.split_off(first - start);
                pages.insert(first, tail);
            }
        }
        let covered: Vec<usize> = pages.range(first..end).map(|(&start, _)| start).collect();
        for start in covered {
            let mut older = pages.remove(&start).expect("listed above");
            if start + older.len() > end {
                pages.insert(end, older.split_off(end - start));
            }
        }
        pages.insert(first, slots);
    }
}

/// The valid delta chain folded into one overlay over the base, built one
/// delta file at a time in sequence order.
#[derive(Default)]
struct ChainPatch {
    tables: FxHashMap<String, TablePatch>,
    /// The newest delta's metadata area and statistics registry.
    meta_stats: Option<(FxHashMap<String, serde_json::Value>, CatalogStats)>,
    next_txn: u64,
}

impl ChainPatch {
    /// Fold one delta's entry for a table in: its header and slot count
    /// replace the older ones, its slot ranges replace older copies.
    fn apply_table(
        &mut self,
        header: TableHeader,
        slot_count: usize,
        pages: Vec<(usize, Vec<Option<Row>>)>,
    ) {
        let name = header.schema.name.clone();
        let mut patch = TablePatch::identity(header, slot_count);
        if let Some(older) = self.tables.remove(&name) {
            patch.pages = older.pages;
        }
        for (first, slots) in pages {
            patch.lay(first, slots);
        }
        self.tables.insert(name, patch);
    }
}

/// Build one table exactly once: `base_slots` slots read from `next_base`,
/// with `patch`'s slot ranges laid over them and its slot count applied,
/// streamed slot by slot into the table, so its indexes, column vectors,
/// dictionaries and free list are each built a single time, in slot order.
/// Every slot beyond the base must come from a range.
fn build_table(
    patch: TablePatch,
    base_slots: usize,
    mut next_base: impl FnMut() -> StorageResult<Option<Row>>,
    pool: &Arc<BufferPool>,
) -> StorageResult<Table> {
    let TablePatch { header, slot_count, pages } = patch;
    let name = header.schema.name.clone();
    // Stream slots straight into a pool-bound table: `RowStore::push`
    // reclaims pages at page boundaries when over budget, so decoding a
    // table larger than the frame budget stays bounded.
    let mut t = Table::with_pool(header.schema, pool.clone());
    // The ranges are disjoint and sorted, and every slot is visited in
    // order, so each range in reach is entered exactly at its first slot.
    let mut ranges = pages.into_iter().peekable();
    let mut range: Option<(usize, std::vec::IntoIter<Option<Row>>)> = None;
    for i in 0..base_slots.max(slot_count) {
        let base = if i < base_slots { next_base()? } else { None };
        if i >= slot_count {
            continue;
        }
        if range.as_ref().is_some_and(|(end, _)| i == *end) {
            range = None;
        }
        if let Some((first, slots)) = ranges.next_if(|(first, _)| *first == i) {
            range = Some((first + slots.len(), slots.into_iter()));
        }
        let slot = match &mut range {
            Some((_, slots)) => slots.next().flatten(),
            None if i < base_slots => base,
            None => return Err(corrupt(format!("delta: slot {i} of '{name}' is in no page"))),
        };
        t.load_slot(slot).map_err(|e| corrupt(format!("snapshot: table rebuild failed: {e}")))?;
    }
    t.rebuild_free();
    for (name, cols, kind) in header.indexes {
        t.create_index(name, cols, kind)
            .map_err(|e| corrupt(format!("snapshot: index rebuild failed: {e}")))?;
    }
    Ok(t)
}

/// A table in the full-slots encoding, with the chain's patch for it (if
/// `patches` has one) laid over.
fn get_table(
    c: &mut Cursor<'_>,
    pool: &Arc<BufferPool>,
    patches: &mut FxHashMap<String, TablePatch>,
) -> StorageResult<Table> {
    let header = get_table_header(c)?;
    let n = c.count(1)?;
    let patch = match patches.remove(&header.schema.name) {
        Some(patch) => patch,
        None => TablePatch::identity(header, n),
    };
    build_table(patch, n, || get_slot(c), pool)
}

/// The retired factorized section: a count of 0, or a refusal naming the
/// first structure an older version wrote (module docs).
fn no_factorized(c: &mut Cursor<'_>) -> StorageResult<()> {
    if c.u32()? == 0 {
        return Ok(());
    }
    let name = c.string()?;
    Err(corrupt(format!(
        "snapshot holds factorized structure '{name}', a storage kind this version no longer \
         reads; co-located pairs are now plain member tables plus a row-id link table"
    )))
}

fn get_meta(c: &mut Cursor<'_>) -> StorageResult<FxHashMap<String, serde_json::Value>> {
    let n_meta = c.count(8)?; // two length prefixes
    let mut meta = FxHashMap::default();
    for _ in 0..n_meta {
        let k = c.string()?;
        let v: serde_json::Value = serde_json::from_str(c.str()?)
            .map_err(|e| corrupt(format!("snapshot: bad meta JSON under '{k}': {e}")))?;
        meta.insert(k, v);
    }
    Ok(meta)
}

fn get_stats(c: &mut Cursor<'_>) -> StorageResult<CatalogStats> {
    serde_json::from_str(c.str()?).map_err(|e| corrupt(format!("snapshot: bad stats JSON: {e}")))
}

/// Decode a base snapshot body with the delta chain's overlay laid over it.
fn decode_body(
    body: &[u8],
    pool: &Arc<BufferPool>,
    mut chain: ChainPatch,
) -> StorageResult<(Catalog, u64)> {
    let mut c = Cursor::new(body);
    let next_txn = c.u64()?.max(chain.next_txn);
    let mut cat = Catalog::with_pool(pool.clone());

    for _ in 0..c.count(1)? {
        let t = get_table(&mut c, pool, &mut chain.tables)?;
        cat.create_table(t).map_err(|e| corrupt(format!("snapshot: duplicate table: {e}")))?;
    }
    no_factorized(&mut c)?;
    // Deltas carry only tables that exist in their base: a shape change
    // forces a full snapshot.
    if let Some(name) = chain.tables.keys().next() {
        return Err(corrupt(format!("delta: '{name}' is not in the base snapshot")));
    }
    cat.replace_meta(get_meta(&mut c)?);

    // Optional trailing section: the statistics registry (absent in
    // pre-stats snapshots and in snapshots taken before any ANALYZE).
    if !c.is_done() {
        cat.set_stats(get_stats(&mut c)?);
    }
    c.finish()?;
    if let Some((meta, stats)) = chain.meta_stats {
        cat.replace_meta(meta);
        cat.set_stats(stats);
    }
    Ok((cat, next_txn))
}

// ---- file I/O --------------------------------------------------------------

/// Frame `body` under `magic` and write it to `dir/final_name` atomically:
/// temp file, fsync, rename, best-effort directory fsync. The 16-byte head
/// and the body go out as two writes, so the body is never copied.
fn write_frame_atomic(
    dir: &Path,
    tmp_name: &str,
    final_name: &str,
    magic: &[u8; 8],
    body: &[u8],
) -> StorageResult<()> {
    let mut head = [0u8; 16];
    head[..8].copy_from_slice(magic);
    head[8..].copy_from_slice(&frame_header(body));

    let final_path = dir.join(final_name);
    let tmp_path = dir.join(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp_path)
            .map_err(|e| io_err(&format!("create {}", tmp_path.display()), e))?;
        f.write_all(&head)
            .and_then(|_| f.write_all(body))
            .map_err(|e| io_err("snapshot write", e))?;
        f.sync_all().map_err(|e| io_err("snapshot fsync", e))?;
    }
    std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err("snapshot rename", e))?;
    // Persist the rename itself (best effort — not all platforms allow
    // fsyncing a directory handle).
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Fill `buf` from `f` until it is full or the file ends; bytes read.
fn read_up_to(f: &mut std::fs::File, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match f.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Bytes [`read_frame`] reads and hashes at a time.
const READ_CHUNK: usize = 64 * 1024;

/// Read a framed file whose magic is one of `magics`, checking the magic,
/// the length, the CRC and that nothing trails the body, in that order and
/// with the errors [`Cursor::frame`] gives. The body streams through the
/// CRC in [`READ_CHUNK`] pieces; only its first `keep` bytes are kept
/// (`usize::MAX`: all of them), so checking a file costs one buffer, not a
/// copy of it. Returns the index of the magic found, the kept bytes and the
/// body's CRC (the CRC doubles as the content address deltas use to pin
/// their base).
fn read_frame(
    path: &Path,
    magics: &[&[u8; 8]],
    keep: usize,
) -> StorageResult<(usize, Vec<u8>, u32)> {
    let read_err = |e| io_err(&format!("read {}", path.display()), e);
    let mut f = std::fs::File::open(path).map_err(read_err)?;
    let mut head = [0u8; 16];
    let got = read_up_to(&mut f, &mut head).map_err(read_err)?;
    if got < 8 {
        return Err(CodecError::Truncated.into());
    }
    let which = magics
        .iter()
        .position(|m| m[..] == head[..8])
        .ok_or_else(|| corrupt("snapshot: bad magic"))?;
    if got < 16 {
        return Err(CodecError::Truncated.into());
    }
    let len = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
    // The file's size caps the allocation: a damaged length must not
    // reserve gigabytes before the short read exposes it.
    let size = f.metadata().map_err(read_err)?.len().saturating_sub(16);
    let mut kept = Vec::with_capacity(keep.min(len).min(size as usize));
    let mut spill = Vec::new();
    let (mut left, mut state) = (len, 0u32);
    while left > 0 {
        let want = left.min(READ_CHUNK);
        let at = kept.len();
        // Kept bytes are read straight into place; the rest pass through
        // one reused buffer.
        let into_kept = want <= keep - at;
        let chunk = if into_kept {
            kept.resize(at + want, 0);
            &mut kept[at..]
        } else {
            spill.resize(want, 0);
            &mut spill[..]
        };
        if read_up_to(&mut f, chunk).map_err(read_err)? < want {
            return Err(CodecError::Truncated.into());
        }
        state = crc32_update(state, chunk);
        if !into_kept {
            kept.extend_from_slice(&spill[..keep - at]);
        }
        left -= want;
    }
    if state != crc {
        return Err(CodecError::Checksum.into());
    }
    if read_up_to(&mut f, &mut [0u8; 1]).map_err(read_err)? != 0 {
        return Err(CodecError::TrailingBytes.into());
    }
    Ok((which, kept, crc))
}

/// Read just the stored body CRC of the base snapshot — the content address
/// a new delta records — without decoding (or re-hashing) the body.
fn base_body_crc(path: &Path) -> StorageResult<u32> {
    let mut f = std::fs::File::open(path)
        .map_err(|e| io_err(&format!("open {}", path.display()), e))?;
    let mut header = [0u8; 16];
    f.read_exact(&mut header).map_err(|e| io_err("snapshot header read", e))?;
    if &header[..8] != MAGIC {
        return Err(corrupt("snapshot: bad magic"));
    }
    let crc: [u8; 4] = header[12..16].try_into().map_err(|_| corrupt("snapshot: short header"))?;
    Ok(u32::from_le_bytes(crc))
}

/// Write a full checkpoint snapshot of `cat` to `dir/`[`SNAPSHOT_FILE`]
/// atomically: the image lands in a temp file first, is fsynced, and then
/// renamed over the previous snapshot, so a crash during checkpointing
/// leaves either the old or the new snapshot — never a hybrid.
pub fn write_snapshot(cat: &Catalog, next_txn: u64, dir: &Path) -> StorageResult<()> {
    use erbium_obs::{Counter, Histogram, Registry};
    use std::sync::{Arc, OnceLock};
    static CHECKPOINTS: OnceLock<Arc<Counter>> = OnceLock::new();
    static CHECKPOINT_SECONDS: OnceLock<Arc<Histogram>> = OnceLock::new();
    let t0 = std::time::Instant::now();
    let _span = erbium_obs::span("checkpoint");

    let body = encode_body(cat, next_txn);
    write_frame_atomic(dir, &format!("{SNAPSHOT_FILE}.tmp"), SNAPSHOT_FILE, MAGIC, &body)?;
    CHECKPOINTS
        .get_or_init(|| {
            Registry::global()
                .counter("erbium_checkpoints_total", "Checkpoint snapshots written")
        })
        .inc();
    CHECKPOINT_SECONDS
        .get_or_init(|| {
            Registry::global().histogram(
                "erbium_checkpoint_seconds",
                "Wall-clock duration of checkpoint snapshot writes",
            )
        })
        .observe_duration(t0.elapsed());
    Ok(())
}

/// Load a snapshot file. Any malformation is [`StorageError::Corrupt`].
pub fn load_snapshot(path: &Path) -> StorageResult<(Catalog, u64)> {
    load_snapshot_pooled(path, &BufferPool::unbounded())
}

/// [`load_snapshot`] with the recovered tables bound to `pool`.
pub fn load_snapshot_pooled(path: &Path, pool: &Arc<BufferPool>) -> StorageResult<(Catalog, u64)> {
    let (_, body, _) = read_frame(path, &[MAGIC], usize::MAX)?;
    decode_body(&body, pool, ChainPatch::default())
}

// ---- delta checkpoints -----------------------------------------------------

/// Encode an `ERBSNAP3` page delta of the named dirty tables. Returns the
/// body and the number of row pages in it.
fn encode_delta_body(
    cat: &Catalog,
    seq: u64,
    base_crc: u32,
    next_txn: u64,
    tables: &[String],
) -> StorageResult<(Vec<u8>, usize)> {
    let mut buf = Vec::with_capacity(1024);
    put_u64(&mut buf, seq);
    put_u32(&mut buf, base_crc);
    put_u64(&mut buf, next_txn);

    put_u32(&mut buf, tables.len() as u32);
    let mut pages = 0;
    for name in tables {
        pages += put_table_pages(&mut buf, cat.table(name)?);
    }

    put_u32(&mut buf, 0); // the retired factorized section (module docs)
    put_meta(&mut buf, cat);
    if cat.stats().is_empty() {
        buf.push(0);
    } else {
        buf.push(1);
        put_stats(&mut buf, cat.stats());
    }
    Ok((buf, pages))
}

/// The identifying header every delta body starts with: sequence number,
/// base CRC, next transaction id.
type DeltaHeader = (u64, u32, u64);

/// Decode a [`DeltaHeader`].
fn get_delta_header(c: &mut Cursor<'_>) -> StorageResult<DeltaHeader> {
    Ok((c.u64()?, c.u32()?, c.u64()?))
}

/// Bytes of [`get_delta_header`].
const DELTA_HEADER_LEN: usize = 20;

/// Decode one delta body — `ERBSNAP3` when `paged`, else the whole-table
/// `ERBSNAP2` — and fold it into `chain`. Returns the delta's header.
fn apply_delta_body(
    chain: &mut ChainPatch,
    body: &[u8],
    paged: bool,
) -> StorageResult<DeltaHeader> {
    let mut c = Cursor::new(body);
    let head = get_delta_header(&mut c)?;

    let get_slots = |c: &mut Cursor<'_>, n: usize| -> StorageResult<Vec<Option<Row>>> {
        (0..n).map(|_| get_slot(c)).collect()
    };
    for _ in 0..c.count(1)? {
        let header = get_table_header(&mut c)?;
        let mut pages: Vec<(usize, Vec<Option<Row>>)> = Vec::new();
        let slot_count = if paged {
            let slot_count = c.u32()? as usize;
            for _ in 0..c.count(8)? {
                let first = c.u32()? as usize;
                let n = c.count(1)?;
                if n == 0 || first + n > slot_count {
                    return Err(corrupt(format!(
                        "delta: page at slot {first} of '{}' holds {n} of its {slot_count} slots",
                        header.schema.name
                    )));
                }
                pages.push((first, get_slots(&mut c, n)?));
            }
            slot_count
        } else {
            // The whole slot vector: one range over every slot.
            let n = c.count(1)?;
            if n > 0 {
                pages.push((0, get_slots(&mut c, n)?));
            }
            n
        };
        chain.apply_table(header, slot_count, pages);
    }
    no_factorized(&mut c)?;
    let meta = get_meta(&mut c)?;
    let stats = match c.u8()? {
        0 => CatalogStats::default(),
        1 => get_stats(&mut c)?,
        f => return Err(corrupt(format!("delta: bad stats flag {f}"))),
    };
    c.finish()?;
    chain.meta_stats = Some((meta, stats));
    chain.next_txn = chain.next_txn.max(head.2);
    Ok(head)
}

/// The delta files in a directory, split by the base they were written
/// against.
struct Chain {
    /// Deltas of the current base, sorted by sequence number.
    live: Vec<(u64, PathBuf)>,
    /// Survivors of a crash between a full snapshot and their deletion.
    stale: Vec<PathBuf>,
}

/// Survey the delta files in `dir` against the base whose body CRC is
/// `base_crc` (`None`: no base, so every delta is stale). Each file's frame
/// is checked in full, keeping only the header ([`read_delta`]).
fn survey_chain(dir: &Path, base_crc: Option<u32>) -> StorageResult<Chain> {
    let mut chain = Chain { live: Vec::new(), stale: Vec::new() };
    for (file_seq, path) in list_deltas(dir)? {
        let (_, _, (seq, crc, _)) = read_delta(&path, file_seq, DELTA_HEADER_LEN)?;
        if Some(crc) == base_crc {
            chain.live.push((seq, path));
        } else {
            chain.stale.push(path);
        }
    }
    chain.live.sort_by_key(|(seq, _)| *seq);
    Ok(chain)
}

/// Read delta file `path`, named for sequence number `file_seq`, keeping the
/// first `keep` bytes of its body ([`read_frame`]). Returns the index of its
/// magic in [`DELTA_MAGICS`], the kept bytes and its header. An unreadable
/// file is real corruption and surfaces, as does a header that disagrees
/// with the file's name.
fn read_delta(
    path: &Path,
    file_seq: u64,
    keep: usize,
) -> StorageResult<(usize, Vec<u8>, DeltaHeader)> {
    let (which, body, _) = read_frame(path, &DELTA_MAGICS, keep)?;
    let head = get_delta_header(&mut Cursor::new(&body))?;
    if head.0 != file_seq {
        return Err(corrupt(format!("delta: file {} claims seq {}", path.display(), head.0)));
    }
    Ok((which, body, head))
}

/// What [`write_checkpoint`] decided to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A full `ERBSNAP1` snapshot; any existing delta chain was compacted
    /// away.
    Full,
    /// An `ERBSNAP3` page delta carrying only the dirty subset of the
    /// catalog.
    Delta {
        /// Tables with an entry in the delta (their written pages).
        tables: usize,
    },
}

/// Write a checkpoint of `cat`, choosing between a full snapshot and an
/// incremental delta based on the catalog's dirty tracking.
///
/// Full snapshots are forced when there is no base yet, when the catalog's
/// shape changed (DDL — cheaper to restate everything than to version
/// drops), when the delta chain reached [`MAX_DELTA_CHAIN`], or when more
/// than half the catalog is dirty, in structures and in row pages (see the
/// module docs): the delta would approach the full image in size while
/// still costing a chain read at recovery. Otherwise a delta is written — even
/// with zero dirty tables it carries the authoritative
/// `next_txn`/metadata/stats, which is what makes the subsequent WAL
/// truncation safe.
///
/// Clears the catalog's dirty tracking, page marks included, on success.
pub fn write_checkpoint(
    cat: &mut Catalog,
    next_txn: u64,
    dir: &Path,
) -> StorageResult<CheckpointKind> {
    use erbium_obs::{Counter, Registry};
    use std::sync::{Arc, OnceLock};
    static DELTA_TABLES: OnceLock<Arc<Counter>> = OnceLock::new();
    static DELTA_PAGES: OnceLock<Arc<Counter>> = OnceLock::new();

    let base_path = dir.join(SNAPSHOT_FILE);
    let dirty_tables = cat.dirty_table_names();

    // Survey the existing chain. Stale deltas (wrong base, e.g. survivors
    // of a crash between a full-snapshot rename and their deletion) are
    // removed here; unreadable ones are real corruption and surface.
    let base_crc = if base_path.exists() { Some(base_body_crc(&base_path)?) } else { None };
    let chain = survey_chain(dir, base_crc)?;
    for path in &chain.stale {
        let _ = std::fs::remove_file(path);
    }

    // Most of the catalog is dirty when most of its tables are and most of
    // its row pages are.
    let dirty = dirty_tables.len();
    let total = cat.table_names().len();
    let mut total_pages = 0;
    for (_, t) in cat.tables_iter() {
        total_pages += t.page_count();
    }
    let mut dirty_pages = 0;
    for name in &dirty_tables {
        dirty_pages += cat.table(name)?.unsaved_page_count();
    }
    let force_full = base_crc.is_none()
        || cat.structural_dirty()
        || chain.live.len() >= MAX_DELTA_CHAIN
        || (dirty * 2 > total && dirty_pages * 2 > total_pages);
    if force_full {
        write_snapshot(cat, next_txn, dir)?;
        // Delete the now-absorbed chain *after* the base rename: a crash in
        // between leaves stale deltas, which the `base_crc` check ignores.
        for (_, path) in &chain.live {
            let _ = std::fs::remove_file(path);
        }
        cat.mark_checkpointed();
        return Ok(CheckpointKind::Full);
    }

    let _span = erbium_obs::span("checkpoint_delta");
    let base_crc = base_crc.expect("checked above");
    let seq = chain.live.last().map_or(0, |(seq, _)| *seq) + 1;
    let (body, pages) = encode_delta_body(cat, seq, base_crc, next_txn, &dirty_tables)?;
    write_frame_atomic(dir, DELTA_TMP, &delta_file_name(seq), MAGIC3, &body)?;
    DELTA_TABLES
        .get_or_init(|| {
            Registry::global().counter(
                "erbium_checkpoint_delta_tables",
                "Tables written into delta checkpoints",
            )
        })
        .add(dirty as u64);
    DELTA_PAGES
        .get_or_init(|| {
            Registry::global().counter(
                "erbium_checkpoint_delta_pages_total",
                "Row pages written into delta checkpoints",
            )
        })
        .add(pages as u64);
    cat.mark_checkpointed();
    Ok(CheckpointKind::Delta { tables: dirty })
}

// ---- recovery --------------------------------------------------------------

/// The result of [`Catalog::recover`].
#[derive(Debug)]
pub struct Recovered {
    /// The reconstructed catalog: snapshot state plus the committed WAL
    /// suffix.
    pub catalog: Catalog,
    /// One past the highest transaction id ever assigned — seed for the
    /// reopened [`crate::wal::Wal`].
    pub next_txn: u64,
    /// Number of committed WAL groups redone on top of the snapshot.
    pub replayed_groups: usize,
    /// True if the WAL ended in a torn/corrupt tail (the in-flight group
    /// was discarded — expected after a crash, worth logging upstream).
    pub torn_tail: bool,
}

fn redo(cat: &mut Catalog, rec: WalRecord) -> StorageResult<()> {
    match rec {
        WalRecord::Begin { .. } | WalRecord::Commit { .. } | WalRecord::Abort { .. } => {}
        WalRecord::Insert { table, rid, row } => {
            cat.table_mut(&table)?.place_at(RowId(rid), row)?;
        }
        WalRecord::BulkInsert { table, first, rows } => {
            let t = cat.table_mut(&table)?;
            for (i, row) in rows.into_iter().enumerate() {
                // A WAL-supplied `first` near u64::MAX must surface as
                // corruption, not an addition overflow panic.
                let rid = first
                    .checked_add(i as u64)
                    .ok_or_else(|| corrupt("WAL: bulk insert row id overflows"))?;
                t.place_at(RowId(rid), row)?;
            }
        }
        WalRecord::Update { table, rid, row } => {
            cat.table_mut(&table)?.update(RowId(rid), row)?;
        }
        WalRecord::Delete { table, rid } => {
            cat.table_mut(&table)?.delete(RowId(rid))?;
        }
        WalRecord::CreateTable { schema_json } => {
            let schema: TableSchema = serde_json::from_str(&schema_json)
                .map_err(|e| corrupt(format!("WAL: bad CreateTable schema: {e}")))?;
            cat.create_table(Table::new(schema))?;
        }
    }
    Ok(())
}

impl Catalog {
    /// Reconstruct the catalog stored in `dir`: load `dir/snapshot.erb`
    /// when present (a missing snapshot means "start empty" — a fresh
    /// database or one that has never checkpointed) with the valid delta
    /// chain laid over it, then redo every *committed* group in
    /// `dir/wal.erb` whose transaction id is not already absorbed by the
    /// chain. Rows are placed at the exact slots the log recorded; free
    /// lists are rebuilt afterwards.
    ///
    /// A torn or corrupt WAL tail is tolerated (that is what a crash looks
    /// like); a corrupt snapshot or delta is not, because both are written
    /// atomically. Deltas recorded against a *different* base (stale
    /// survivors of a full-snapshot compaction crash) are silently ignored.
    pub fn recover(dir: &Path) -> StorageResult<Recovered> {
        Catalog::recover_with(dir, BufferPool::unbounded())
    }

    /// [`Catalog::recover`] with the rebuilt tables bound to `pool`:
    /// snapshot decoding streams slots page by page (reclaiming as it
    /// goes), and WAL redo reclaims between groups, so recovery of a
    /// catalog larger than the frame budget stays within it. The delta
    /// chain's overlay is the exception: it is held decoded, outside the
    /// pool, until the base is decoded — at most one copy of each distinct
    /// page the chain carries, and one delta file's bytes at a time.
    pub fn recover_with(dir: &Path, pool: Arc<BufferPool>) -> StorageResult<Recovered> {
        use erbium_obs::{Counter, Registry};
        use std::sync::OnceLock;
        static RECOVERIES: OnceLock<Arc<Counter>> = OnceLock::new();
        static REPLAYED: OnceLock<Arc<Counter>> = OnceLock::new();
        static STATS_RESTORED: OnceLock<Arc<Counter>> = OnceLock::new();
        let _span = erbium_obs::span("recover");

        let snap_path = dir.join(SNAPSHOT_FILE);
        let (mut cat, mut next_txn) = if snap_path.exists() {
            let (_, body, base_crc) = read_frame(&snap_path, &[MAGIC], usize::MAX)?;
            // Fold the deltas recorded against *this* base into one
            // overlay, oldest first, reading each file once and holding
            // one at a time.
            let mut deltas = list_deltas(dir)?;
            deltas.sort_by_key(|(seq, _)| *seq);
            let mut patch = ChainPatch::default();
            let mut expected = 1;
            for (file_seq, path) in deltas {
                let (which, delta, (seq, crc, _)) = read_delta(&path, file_seq, usize::MAX)?;
                if crc != base_crc {
                    continue; // stale: written against an older base
                }
                if seq != expected {
                    return Err(corrupt(format!(
                        "delta: chain not contiguous (expected seq {expected}, found {seq})"
                    )));
                }
                expected += 1;
                apply_delta_body(&mut patch, &delta, which == 1)?;
            }
            decode_body(&body, &pool, patch)?
        } else {
            (Catalog::with_pool(pool.clone()), 1)
        };
        // The in-memory state now equals the on-disk checkpoint chain, so
        // dirty tracking restarts clean; the WAL redo below re-marks
        // exactly the tables and pages the suffix touches (they *are*
        // newer than the chain, and the next delta checkpoint must carry
        // them).
        let chain_txn = next_txn;
        cat.mark_checkpointed();
        // Count restored stats entries now: the WAL redo below may mark
        // some of them stale (that is the re-derived-staleness contract),
        // but they were restored from the checkpoint chain either way.
        let stats_restored = cat.stats().len();
        let scan = scan_wal(&dir.join(WAL_FILE))?;
        next_txn = next_txn.max(scan.next_txn);
        let mut replayed_groups = 0usize;
        for (txn_id, group) in scan.committed {
            // Groups the checkpoint chain already absorbed (a crash can
            // land between the checkpoint rename and the WAL truncation)
            // must not be redone: their rows are in the chain, and placing
            // them again would collide with occupied slots.
            if txn_id < chain_txn {
                continue;
            }
            replayed_groups += 1;
            for rec in group {
                redo(&mut cat, rec)?;
            }
            // Every redone group is committed state, so its pages can spill
            // immediately; without this the redo suffix would accumulate
            // resident pages past the frame budget.
            if pool.over_budget() {
                cat.reclaim_pages();
            }
        }
        for t in cat.tables_iter_mut() {
            t.rebuild_free();
        }
        RECOVERIES
            .get_or_init(|| {
                Registry::global()
                    .counter("erbium_recoveries_total", "Catalog recoveries performed")
            })
            .inc();
        REPLAYED
            .get_or_init(|| {
                Registry::global().counter(
                    "erbium_recovery_replayed_groups_total",
                    "Committed WAL groups redone during recovery",
                )
            })
            .add(replayed_groups as u64);
        STATS_RESTORED
            .get_or_init(|| {
                Registry::global().counter(
                    "erbium_recovery_stats_restored_total",
                    "Statistics entries restored from checkpoint snapshots during recovery",
                )
            })
            .add(stats_restored as u64);
        Ok(Recovered { catalog: cat, next_txn, replayed_groups, torn_tail: scan.torn_tail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::txn::Transaction;
    use crate::value::{DataType, Value};
    use crate::wal::{SyncPolicy, Wal};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        p.push(format!("erbium-snap-test-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "people",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("score", DataType::Float),
                Column::new("tags", DataType::Array(Box::new(DataType::Text))),
            ],
            vec![0],
        ));
        t.create_index("by_name", vec![1], IndexKind::Hash).unwrap();
        let r0 = t
            .insert(vec![
                Value::Int(1),
                Value::str("ada"),
                Value::Int(5), // canonicalizes to Float(5.0)
                Value::Array(vec![Value::str("x"), Value::str("y")]),
            ])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::str("bob"), Value::Float(2.5), Value::Null]).unwrap();
        t.delete(r0).unwrap(); // leave a tombstone so slot layout matters
        t.insert(vec![Value::Int(3), Value::str("eve"), Value::Null, Value::Null]).unwrap();
        cat.create_table(t).unwrap();

        // A row-id link table: `(l, r)` slot pairs, a hash index on each.
        let mut f = Table::new(TableSchema::new(
            "f",
            vec![Column::not_null("l", DataType::Int), Column::not_null("r", DataType::Int)],
            vec![],
        ));
        f.create_index("f_l", vec![0], IndexKind::Hash).unwrap();
        f.create_index("f_r", vec![1], IndexKind::Hash).unwrap();
        for (l, r) in [(0, 0), (0, 1), (1, 1)] {
            f.insert(vec![Value::Int(l), Value::Int(r)]).unwrap();
        }
        cat.create_table(f).unwrap();

        let doc: serde_json::Value =
            serde_json::from_str(r#"{"preset": "m3", "v": 2}"#).unwrap();
        cat.put_meta("mapping", doc);
        cat
    }

    fn assert_catalogs_equal(a: &Catalog, b: &Catalog) {
        assert_eq!(a.table_names(), b.table_names());
        for name in a.table_names() {
            let (ta, tb) = (a.table(&name).unwrap(), b.table(&name).unwrap());
            assert_eq!(ta.schema(), tb.schema(), "schema of '{name}'");
            assert_eq!(ta.slots_vec(), tb.slots_vec(), "slots of '{name}'");
            let mut ia: Vec<_> =
                ta.indexes().iter().map(|i| (i.name.clone(), i.columns.clone(), i.kind())).collect();
            let mut ib: Vec<_> =
                tb.indexes().iter().map(|i| (i.name.clone(), i.columns.clone(), i.kind())).collect();
            ia.sort();
            ib.sort();
            assert_eq!(ia, ib, "indexes of '{name}'");
        }
        let mut ma: Vec<_> = a.meta_entries().map(|(k, v)| (k.clone(), v.clone())).collect();
        let mut mb: Vec<_> = b.meta_entries().map(|(k, v)| (k.clone(), v.clone())).collect();
        ma.sort_by(|x, y| x.0.cmp(&y.0));
        mb.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(ma, mb, "metadata");
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let dir = temp_dir("roundtrip");
        let cat = sample_catalog();
        write_snapshot(&cat, 17, &dir).unwrap();
        let (back, next_txn) = load_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(next_txn, 17);
        assert_catalogs_equal(&cat, &back);
        // Indexes answer queries after the rebuild.
        let t = back.table("people").unwrap();
        assert_eq!(t.index_lookup(&[1], &Value::str("bob")).unwrap().len(), 1);
        assert!(t.lookup_pk(&Value::Int(3)).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_roundtrip_preserves_stats() {
        let dir = temp_dir("stats-roundtrip");
        let mut cat = sample_catalog();
        assert_eq!(cat.analyze(), 2, "people + f");
        write_snapshot(&cat, 9, &dir).unwrap();
        let (back, _) = load_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(back.stats(), cat.stats(), "stats registry survives the snapshot");
        assert!(!back.stats().is_empty());
        assert!(!back.stats().is_stale("people"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_less_snapshot_keeps_legacy_byte_layout() {
        // A catalog that never ran ANALYZE must produce a snapshot with no
        // trailing stats section — i.e. exactly the pre-stats `ERBSNAP1`
        // bytes. That makes old files (which *are* such snapshots) decode
        // under the new reader, proving backward compatibility.
        let cat = sample_catalog();
        assert!(cat.stats().is_empty());
        let body = encode_body(&cat, 3);
        let (back, next_txn) = decode_body(&body, &BufferPool::unbounded(), ChainPatch::default()).unwrap();
        assert_eq!(next_txn, 3);
        assert!(back.stats().is_empty(), "no stats section, no stats");
        assert_catalogs_equal(&cat, &back);
        // And the new encoder appends bytes only when stats exist.
        let mut with_stats = sample_catalog();
        with_stats.analyze();
        assert!(encode_body(&with_stats, 3).len() > body.len());
    }

    #[test]
    fn recover_restores_stats_and_rederives_staleness() {
        let dir = temp_dir("stats-recover");
        let mut cat = sample_catalog();
        cat.analyze();
        let n_stats = cat.stats().len();
        write_snapshot(&cat, 5, &dir).unwrap();

        // Post-checkpoint traffic touches only `people`; `f` stays
        // untouched.
        let mut wal = Wal::open(dir.join(WAL_FILE), SyncPolicy::Always, 5).unwrap();
        Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            txn.insert(
                cat,
                "people",
                vec![Value::Int(7), Value::str("gil"), Value::Null, Value::Null],
            )?;
            Ok(())
        })
        .unwrap();

        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.replayed_groups, 1);
        let stats = rec.catalog.stats();
        assert!(!stats.is_empty(), "recovery must not silently drop stats");
        assert_eq!(stats.len(), n_stats);
        // WAL-redone tables re-derive staleness; untouched entries stay fresh.
        assert!(stats.is_stale("people"), "redone table is stale");
        assert!(!stats.is_stale("f"), "untouched table stays fresh");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_hard_error() {
        let dir = temp_dir("corrupt");
        write_snapshot(&sample_catalog(), 1, &dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_snapshot(&path), Err(StorageError::Corrupt(_))));
        // Truncation is also corruption.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(load_snapshot(&path), Err(StorageError::Corrupt(_))));
        std::fs::write(&path, b"ERBSNAPX").unwrap();
        assert!(matches!(load_snapshot(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_replays_committed_wal_over_snapshot() {
        let dir = temp_dir("recover");
        let mut cat = sample_catalog();
        write_snapshot(&cat, 5, &dir).unwrap();

        // Post-snapshot traffic through logged transactions.
        let mut wal = Wal::open(dir.join(WAL_FILE), SyncPolicy::Always, 5).unwrap();
        Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            txn.insert(
                cat,
                "people",
                vec![Value::Int(4), Value::str("dan"), Value::Int(9), Value::Null],
            )?;
            let (rid, _) = cat.table("people").unwrap().lookup_pk(&Value::Int(2)).unwrap();
            txn.update(
                cat,
                "people",
                rid,
                vec![Value::Int(2), Value::str("bob2"), Value::Float(2.5), Value::Null],
            )?;
            Ok(())
        })
        .unwrap();
        Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            txn.insert(cat, "f", vec![Value::Int(1), Value::Int(0)])?;
            let (rid, _) = cat.table("people").unwrap().lookup_pk(&Value::Int(3)).unwrap();
            txn.delete(cat, "people", rid)?;
            Ok(())
        })
        .unwrap();
        // A rolled-back transaction must leave no trace on disk.
        let _ = Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            txn.insert(cat, "people", vec![Value::Int(99), Value::Null, Value::Null, Value::Null])?;
            Err::<(), _>(StorageError::Internal("deliberate".into()))
        });

        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.replayed_groups, 2);
        assert!(!rec.torn_tail);
        assert!(rec.next_txn >= 7);
        assert_catalogs_equal(&cat, &rec.catalog);
        // Live-data sanity on the recovered side.
        let t = rec.catalog.table("people").unwrap();
        assert!(t.lookup_pk(&Value::Int(99)).is_none(), "aborted txn invisible");
        assert_eq!(t.lookup_pk(&Value::Int(2)).unwrap().1[1], Value::str("bob2"));
        assert!(matches!(
            t.lookup_pk(&Value::Int(4)).unwrap().1[2],
            Value::Float(f) if f == 9.0
        ), "redo reproduces canonicalized state");
        assert_eq!(rec.catalog.table("f").unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_without_snapshot_replays_from_empty() {
        let dir = temp_dir("nosnap");
        let mut cat = Catalog::new();
        let mut wal = Wal::open(dir.join(WAL_FILE), SyncPolicy::Always, 1).unwrap();
        Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            txn.create_table(
                cat,
                Table::new(TableSchema::new(
                    "t",
                    vec![Column::not_null("id", DataType::Int)],
                    vec![0],
                )),
            )?;
            txn.insert(cat, "t", vec![Value::Int(1)])?;
            txn.insert(cat, "t", vec![Value::Int(2)])?;
            Ok(())
        })
        .unwrap();
        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.catalog.table("t").unwrap().len(), 2);
        assert_eq!(rec.replayed_groups, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_free_list_recycles_slots() {
        let dir = temp_dir("freelist");
        let mut cat = Catalog::new();
        cat.create_table(Table::new(TableSchema::new(
            "t",
            vec![Column::not_null("id", DataType::Int)],
            vec![0],
        )))
        .unwrap();
        let mut wal = Wal::open(dir.join(WAL_FILE), SyncPolicy::Always, 1).unwrap();
        write_snapshot(&cat, 1, &dir).unwrap();
        Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            let r1 = txn.insert(cat, "t", vec![Value::Int(1)])?;
            txn.insert(cat, "t", vec![Value::Int(2)])?;
            txn.delete(cat, "t", r1)?;
            Ok(())
        })
        .unwrap();
        let rec = Catalog::recover(&dir).unwrap();
        let mut cat2 = rec.catalog;
        let rid = cat2.table_mut("t").unwrap().insert(vec![Value::Int(3)]).unwrap();
        assert_eq!(rid, RowId(0), "tombstoned slot recycled after recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_checkpoint_roundtrip_and_chain() {
        let dir = temp_dir("delta-roundtrip");
        let mut cat = sample_catalog();
        cat.analyze();
        // Fresh catalog: shape is new, so the first checkpoint is full.
        assert_eq!(write_checkpoint(&mut cat, 5, &dir).unwrap(), CheckpointKind::Full);

        // Touch only `people` (1 of 2 tables) → delta carrying it alone.
        cat.table_mut("people")
            .unwrap()
            .insert(vec![Value::Int(7), Value::str("gil"), Value::Null, Value::Null])
            .unwrap();
        assert_eq!(
            write_checkpoint(&mut cat, 6, &dir).unwrap(),
            CheckpointKind::Delta { tables: 1 }
        );
        assert!(dir.join("snapshot.delta.1.erb").exists());

        // Touch only the link table → second delta in the chain.
        cat.table_mut("f").unwrap().insert(vec![Value::Int(1), Value::Int(0)]).unwrap();
        let kind = write_checkpoint(&mut cat, 7, &dir).unwrap();
        assert_eq!(kind, CheckpointKind::Delta { tables: 1 });
        assert!(dir.join("snapshot.delta.2.erb").exists());

        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.next_txn, 7);
        assert_eq!(rec.replayed_groups, 0);
        assert_catalogs_equal(&cat, &rec.catalog);
        assert_eq!(rec.catalog.stats(), cat.stats(), "stats ride along in deltas");
        assert!(
            rec.catalog.dirty_table_names().is_empty(),
            "recovered state equals the chain — nothing dirty"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_on_ddl_dirty_fraction_and_chain_length() {
        let dir = temp_dir("delta-compaction");
        let mut cat = sample_catalog();
        assert_eq!(write_checkpoint(&mut cat, 1, &dir).unwrap(), CheckpointKind::Full);

        // DDL forces a full snapshot even with a tiny dirty set.
        cat.create_table(Table::new(TableSchema::new(
            "extra",
            vec![Column::not_null("id", DataType::Int)],
            vec![0],
        )))
        .unwrap();
        assert_eq!(write_checkpoint(&mut cat, 2, &dir).unwrap(), CheckpointKind::Full);

        // Most of the catalog dirty (2 of 3) → delta would approach a full
        // image, so compaction wins.
        cat.table_mut("people").unwrap().delete(RowId(1)).unwrap();
        cat.table_mut("extra").unwrap().insert(vec![Value::Int(1)]).unwrap();
        assert_eq!(write_checkpoint(&mut cat, 3, &dir).unwrap(), CheckpointKind::Full);

        // Chain growth is bounded: after MAX_DELTA_CHAIN deltas the next
        // checkpoint compacts and deletes the chain.
        for i in 0..MAX_DELTA_CHAIN as u64 {
            cat.table_mut("extra").unwrap().insert(vec![Value::Int(100 + i as i64)]).unwrap();
            assert_eq!(
                write_checkpoint(&mut cat, 4 + i, &dir).unwrap(),
                CheckpointKind::Delta { tables: 1 },
                "delta #{i}"
            );
        }
        assert!(dir.join(delta_file_name(MAX_DELTA_CHAIN as u64)).exists());
        cat.table_mut("extra").unwrap().insert(vec![Value::Int(999)]).unwrap();
        assert_eq!(
            write_checkpoint(&mut cat, 42, &dir).unwrap(),
            CheckpointKind::Full,
            "chain at MAX_DELTA_CHAIN compacts"
        );
        assert!(list_deltas(&dir).unwrap().is_empty(), "compaction deletes the chain");
        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.next_txn, 42);
        assert_catalogs_equal(&cat, &rec.catalog);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_deltas_are_ignored_and_cleaned() {
        let dir = temp_dir("delta-stale");
        let mut cat = sample_catalog();
        assert_eq!(write_checkpoint(&mut cat, 1, &dir).unwrap(), CheckpointKind::Full);
        cat.table_mut("people")
            .unwrap()
            .insert(vec![Value::Int(7), Value::str("gil"), Value::Null, Value::Null])
            .unwrap();
        assert!(matches!(
            write_checkpoint(&mut cat, 2, &dir).unwrap(),
            CheckpointKind::Delta { .. }
        ));

        // Simulate a compaction crash: the new base snapshot is renamed
        // into place, but the process dies before the old delta is deleted.
        cat.table_mut("people")
            .unwrap()
            .insert(vec![Value::Int(8), Value::str("hal"), Value::Null, Value::Null])
            .unwrap();
        write_snapshot(&cat, 3, &dir).unwrap();
        assert!(dir.join("snapshot.delta.1.erb").exists(), "stale delta survived the crash");

        // Recovery must ignore the stale delta: its base_crc names the old
        // base body, not the one on disk.
        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.next_txn, 3);
        assert_catalogs_equal(&cat, &rec.catalog);

        // The next checkpoint garbage-collects it and starts a new chain.
        let mut cat2 = rec.catalog;
        cat2.table_mut("people")
            .unwrap()
            .insert(vec![Value::Int(9), Value::str("ivy"), Value::Null, Value::Null])
            .unwrap();
        assert!(matches!(
            write_checkpoint(&mut cat2, 4, &dir).unwrap(),
            CheckpointKind::Delta { tables: 1, .. }
        ));
        let deltas = list_deltas(&dir).unwrap();
        assert_eq!(deltas.len(), 1, "stale delta collected, fresh chain of one");
        assert_eq!(deltas[0].0, 1, "new chain restarts at seq 1");
        let rec2 = Catalog::recover(&dir).unwrap();
        assert_catalogs_equal(&cat2, &rec2.catalog);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_skips_wal_groups_absorbed_by_checkpoint_chain() {
        let dir = temp_dir("absorbed-groups");
        let mut cat = sample_catalog();
        assert_eq!(write_checkpoint(&mut cat, 1, &dir).unwrap(), CheckpointKind::Full);
        let mut wal = Wal::open(dir.join(WAL_FILE), SyncPolicy::Always, 1).unwrap();
        for (id, name) in [(50, "nat"), (51, "ola")] {
            Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
                txn.insert(
                    cat,
                    "people",
                    vec![Value::Int(id), Value::str(name), Value::Null, Value::Null],
                )?;
                Ok(())
            })
            .unwrap();
        }
        // Checkpoint absorbs both groups, but the process "crashes" before
        // the WAL truncation — the groups are still on disk.
        assert!(matches!(
            write_checkpoint(&mut cat, wal.next_txn_id(), &dir).unwrap(),
            CheckpointKind::Delta { .. }
        ));
        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.replayed_groups, 0, "absorbed groups must not be redone");
        assert_catalogs_equal(&cat, &rec.catalog);

        // A group committed after the checkpoint still replays.
        Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            txn.insert(cat, "people", vec![Value::Int(52), Value::str("pam"), Value::Null, Value::Null])?;
            Ok(())
        })
        .unwrap();
        let rec2 = Catalog::recover(&dir).unwrap();
        assert_eq!(rec2.replayed_groups, 1);
        assert!(rec2.catalog.table("people").unwrap().lookup_pk(&Value::Int(52)).is_some());
        assert_catalogs_equal(&cat, &rec2.catalog);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_insert_record_replays_at_exact_slots() {
        let dir = temp_dir("bulk-replay");
        let mut cat = sample_catalog();
        write_snapshot(&cat, 5, &dir).unwrap();
        let mut wal = Wal::open(dir.join(WAL_FILE), SyncPolicy::Always, 5).unwrap();
        Transaction::run_with(&mut cat, Some(&mut wal), |txn, cat| {
            // Tombstone a low slot first: the batch must still land at the
            // tail, and the hole must survive replay.
            let (rid, _) = cat.table("people").unwrap().lookup_pk(&Value::Int(3)).unwrap();
            txn.delete(cat, "people", rid)?;
            let rows: Vec<_> = (10..20)
                .map(|i| vec![Value::Int(i), Value::str(format!("u{i}")), Value::Int(i), Value::Null])
                .collect();
            let (first, n) = txn.bulk_insert(cat, "people", rows)?;
            assert_eq!((first, n), (RowId(2), 10), "batch lands at the tail");
            Ok(())
        })
        .unwrap();
        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.replayed_groups, 1);
        assert_catalogs_equal(&cat, &rec.catalog);
        let t = rec.catalog.table("people").unwrap();
        assert!(matches!(
            t.lookup_pk(&Value::Int(12)).unwrap().1[2],
            Value::Float(f) if f == 12.0
        ), "replayed rows are the canonicalized ones");
        // The pre-existing tombstone at slot 0 is still free after replay.
        let mut cat2 = rec.catalog;
        let rid = cat2
            .table_mut("people")
            .unwrap()
            .insert(vec![Value::Int(99), Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(rid, RowId(0), "free list rebuilt around the bulk rows");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn golden_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![Column::not_null("id", DataType::Int), Column::new("name", DataType::Text)],
            vec![0],
        ));
        t.create_index("by_name", vec![1], IndexKind::BTree).unwrap();
        let r0 = t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.delete(r0).unwrap();
        cat.create_table(t).unwrap();
        cat.put_meta("k", serde_json::from_str(r#"{"v": 1}"#).unwrap());
        cat
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// `ERBSNAP1`, table-granular `ERBSNAP2` and `ERBSNAP3` page-delta
    /// bodies of [`golden_catalog`] (`seq` 2, `base_crc` 0xDEADBEEF,
    /// `next_txn` 11; `t` dirty). The base and page delta were generated by
    /// the last version that could still write factorized structures, so
    /// a catalog without one kept its bytes when they were retired; the
    /// `ERBSNAP2` body, which nothing writes any more, is that version's
    /// pinned body with the factorized structure cut out.
    fn golden_bodies() -> [String; 3] {
        let snap1 = [
            "090000000000000001000000860000007b22636f6c756d6e73223a5b7b226474797065223a22496e74222c226e616d65",
            "223a226964222c226e756c6c61626c65223a66616c73657d2c7b226474797065223a2254657874222c226e616d65223a",
            "226e616d65222c226e756c6c61626c65223a747275657d5d2c226e616d65223a2274222c227072696d6172795f6b6579",
            "223a5b305d7d010000000700000062795f6e616d65010000000100000001020000000001020000000202000000000000",
            "00000000000001000000010000006b070000007b2276223a317d",
        ]
        .concat();
        let snap2 = [
            "0200000000000000efbeadde0b0000000000000001000000860000007b22636f6c756d6e73223a5b7b22647479706522",
            "3a22496e74222c226e616d65223a226964222c226e756c6c61626c65223a66616c73657d2c7b226474797065223a2254",
            "657874222c226e616d65223a226e616d65222c226e756c6c61626c65223a747275657d5d2c226e616d65223a2274222c",
            "227072696d6172795f6b6579223a5b305d7d010000000700000062795f6e616d65010000000100000001020000000001",
            "02000000020200000000000000000000000001000000010000006b070000007b2276223a317d00",
        ]
        .concat();
        let snap3 = [
            "0200000000000000efbeadde0b0000000000000001000000860000007b22636f6c756d6e73223a5b7b22647479706522",
            "3a22496e74222c226e616d65223a226964222c226e756c6c61626c65223a66616c73657d2c7b226474797065223a2254",
            "657874222c226e616d65223a226e616d65222c226e756c6c61626c65223a747275657d5d2c226e616d65223a2274222c",
            "227072696d6172795f6b6579223a5b305d7d010000000700000062795f6e616d65010000000100000001020000000100",
            "00000000000002000000000102000000020200000000000000000000000001000000010000006b070000007b2276223a",
            "317d00",
        ]
        .concat();
        [snap1, snap2, snap3]
    }

    /// The bodies of [`golden_bodies`] when the catalog also held the
    /// factorized structure `f` (members `l` and `r`, one link), pinned
    /// before that storage kind was retired. Refusal inputs now.
    fn retired_bodies() -> [String; 3] {
        let snap1 = [
            "090000000000000001000000860000007b22636f6c756d6e73223a5b7b226474797065223a22496e74222c226e616d65",
            "223a226964222c226e756c6c61626c65223a66616c73657d2c7b226474797065223a2254657874222c226e616d65223a",
            "226e616d65222c226e756c6c61626c65223a747275657d5d2c226e616d65223a2274222c227072696d6172795f6b6579",
            "223a5b305d7d010000000700000062795f6e616d65010000000100000001020000000001020000000202000000000000",
            "0000010000000100000066580000007b22636f6c756d6e73223a5b7b226474797065223a22496e74222c226e616d6522",
            "3a226c6964222c226e756c6c61626c65223a66616c73657d5d2c226e616d65223a226c222c227072696d6172795f6b65",
            "79223a5b305d7d00000000010000000101000000020100000000000000580000007b22636f6c756d6e73223a5b7b2264",
            "74797065223a22496e74222c226e616d65223a22726964222c226e756c6c61626c65223a66616c73657d5d2c226e616d",
            "65223a2272222c227072696d6172795f6b6579223a5b305d7d00000000010000000101000000020a0000000000000001",
            "0000000000000000000000000000000000000001000000010000006b070000007b2276223a317d",
        ]
        .concat();
        let snap2 = [
            "0200000000000000efbeadde0b0000000000000001000000860000007b22636f6c756d6e73223a5b7b22647479706522",
            "3a22496e74222c226e616d65223a226964222c226e756c6c61626c65223a66616c73657d2c7b226474797065223a2254",
            "657874222c226e616d65223a226e616d65222c226e756c6c61626c65223a747275657d5d2c226e616d65223a2274222c",
            "227072696d6172795f6b6579223a5b305d7d010000000700000062795f6e616d65010000000100000001020000000001",
            "0200000002020000000000000000010000000100000066580000007b22636f6c756d6e73223a5b7b226474797065223a",
            "22496e74222c226e616d65223a226c6964222c226e756c6c61626c65223a66616c73657d5d2c226e616d65223a226c22",
            "2c227072696d6172795f6b6579223a5b305d7d00000000010000000101000000020100000000000000580000007b2263",
            "6f6c756d6e73223a5b7b226474797065223a22496e74222c226e616d65223a22726964222c226e756c6c61626c65223a",
            "66616c73657d5d2c226e616d65223a2272222c227072696d6172795f6b6579223a5b305d7d0000000001000000010100",
            "0000020a00000000000000010000000000000000000000000000000000000001000000010000006b070000007b227622",
            "3a317d00",
        ]
        .concat();
        let snap3 = [
            "0200000000000000efbeadde0b0000000000000001000000860000007b22636f6c756d6e73223a5b7b22647479706522",
            "3a22496e74222c226e616d65223a226964222c226e756c6c61626c65223a66616c73657d2c7b226474797065223a2254",
            "657874222c226e616d65223a226e616d65222c226e756c6c61626c65223a747275657d5d2c226e616d65223a2274222c",
            "227072696d6172795f6b6579223a5b305d7d010000000700000062795f6e616d65010000000100000001020000000100",
            "0000000000000200000000010200000002020000000000000000010000000100000066580000007b22636f6c756d6e73",
            "223a5b7b226474797065223a22496e74222c226e616d65223a226c6964222c226e756c6c61626c65223a66616c73657d",
            "5d2c226e616d65223a226c222c227072696d6172795f6b6579223a5b305d7d0000000001000000010100000002010000",
            "0000000000580000007b22636f6c756d6e73223a5b7b226474797065223a22496e74222c226e616d65223a2272696422",
            "2c226e756c6c61626c65223a66616c73657d5d2c226e616d65223a2272222c227072696d6172795f6b6579223a5b305d",
            "7d00000000010000000101000000020a0000000000000001000000000000000000000000000000000000000100000001",
            "0000006b070000007b2276223a317d00",
        ]
        .concat();
        [snap1, snap2, snap3]
    }

    /// Every body the checkpointer writes or still reads is pinned: the base
    /// and the page delta byte for byte, the retired `ERBSNAP2` delta by
    /// decoding it.
    #[test]
    fn golden_bodies_pin_the_checkpoint_format() {
        let [snap1, snap2, snap3] = golden_bodies();
        let mut cat = golden_catalog();
        let pool = BufferPool::unbounded();

        let body = encode_body(&cat, 9);
        assert_eq!(hex(&body), snap1);
        let (back, next_txn) = decode_body(&body, &pool, ChainPatch::default()).unwrap();
        assert_eq!(next_txn, 9);
        assert_catalogs_equal(&cat, &back);

        // ERBSNAP2 still decodes, as a delta in which `t` carries all its
        // pages.
        let mut chain = ChainPatch::default();
        let head = apply_delta_body(&mut chain, &unhex(&snap2), false).unwrap();
        assert_eq!(head, (2, 0xDEAD_BEEF, 11));
        assert_eq!(chain.tables.len(), 1);
        let t = &chain.tables["t"];
        assert_eq!((t.slot_count, t.pages.len()), (2, 1));
        assert_eq!(t.pages[&0], cat.table("t").unwrap().slots_vec());
        let (meta, stats) = chain.meta_stats.as_ref().unwrap();
        assert_eq!(meta.len(), 1);
        assert!(stats.is_empty());

        // The page delta: every page is unsaved, so `t` carries its one page
        // (first slot 0, both slots) after its slot count.
        let tables = ["t".to_string()];
        let (delta, pages) = encode_delta_body(&cat, 2, 0xDEAD_BEEF, 11, &tables).unwrap();
        assert_eq!(hex(&delta), snap3);
        assert_eq!(pages, 1);
        let mut paged = ChainPatch::default();
        assert_eq!(apply_delta_body(&mut paged, &delta, true).unwrap(), head);
        assert_eq!(paged.tables["t"].pages, chain.tables["t"].pages, "same slots either way");

        // With statistics: ERBSNAP1 appends the stats string, a delta sets
        // its flag byte and appends the same string.
        cat.analyze();
        let mut stats = Vec::new();
        put_str(&mut stats, &serde_json::to_string(cat.stats()).unwrap());
        assert_eq!(hex(&encode_body(&cat, 9)), format!("{snap1}{}", hex(&stats)));
        let (empty_delta, _) = encode_delta_body(&cat, 2, 0xDEAD_BEEF, 11, &[]).unwrap();
        assert_eq!(
            hex(&empty_delta),
            format!("0200000000000000efbeadde0b00000000000000000000000000000001000000010000006b070000007b2276223a317d01{}", hex(&stats))
        );
    }

    /// A base or a delta that holds a factorized structure is refused with
    /// an error naming it, whether decoded directly or met by recovery.
    #[test]
    fn factorized_sections_are_refused_by_name() {
        let [snap1, snap2, snap3] = retired_bodies().map(|h| unhex(&h));
        let named = |r: StorageResult<()>| match r {
            Err(StorageError::Corrupt(msg)) => msg.contains("factorized structure 'f'"),
            _ => false,
        };
        let pool = BufferPool::unbounded();
        assert!(named(decode_body(&snap1, &pool, ChainPatch::default()).map(drop)));
        assert!(named(apply_delta_body(&mut ChainPatch::default(), &snap2, false).map(drop)));
        assert!(named(apply_delta_body(&mut ChainPatch::default(), &snap3, true).map(drop)));

        // (a) A base holding `f`.
        let dir = temp_dir("retired-base");
        write_frame_atomic(&dir, "snapshot.erb.tmp", SNAPSHOT_FILE, MAGIC, &snap1).unwrap();
        assert!(named(Catalog::recover(&dir).map(drop)));
        std::fs::remove_dir_all(&dir).ok();

        // (b) A delta holding `f`, chained onto a base without one.
        let dir = temp_dir("retired-delta");
        write_snapshot(&golden_catalog(), 3, &dir).unwrap();
        let base_crc = base_body_crc(&dir.join(SNAPSHOT_FILE)).unwrap();
        for (magic, mut body) in [(MAGIC3, snap3), (MAGIC2, snap2)] {
            body[..8].copy_from_slice(&1u64.to_le_bytes());
            body[8..12].copy_from_slice(&base_crc.to_le_bytes());
            write_frame_atomic(&dir, DELTA_TMP, &delta_file_name(1), magic, &body).unwrap();
            assert!(named(Catalog::recover(&dir).map(drop)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A chain whose delta is the golden `ERBSNAP2` body (renumbered onto a
    /// real base) recovers to the catalog the body describes.
    #[test]
    fn table_granular_delta_chain_still_recovers() {
        let dir = temp_dir("snap2-chain");
        // A second table the delta does not mention, so that touching `t`
        // alone later dirties half the catalog, not all of it.
        let with_u = |mut cat: Catalog| {
            cat.create_table(Table::new(churn_schema("u"))).unwrap();
            cat
        };
        // The base: an older `t` (an extra row, another tombstone).
        let mut old = with_u(golden_catalog());
        old.table_mut("t").unwrap().insert(vec![Value::Int(5), Value::str("e")]).unwrap();
        old.table_mut("t").unwrap().insert(vec![Value::Int(6), Value::Null]).unwrap();
        old.table_mut("t").unwrap().delete(RowId(1)).unwrap();
        old.put_meta("k", serde_json::from_str(r#"{"v": 0}"#).unwrap());
        write_snapshot(&old, 3, &dir).unwrap();
        let base_crc = base_body_crc(&dir.join(SNAPSHOT_FILE)).unwrap();

        let [_, snap2, _] = golden_bodies();
        let mut body = unhex(&snap2);
        body[..8].copy_from_slice(&1u64.to_le_bytes());
        body[8..12].copy_from_slice(&base_crc.to_le_bytes());
        write_frame_atomic(&dir, DELTA_TMP, &delta_file_name(1), MAGIC2, &body).unwrap();

        let rec = Catalog::recover(&dir).unwrap();
        assert_eq!(rec.next_txn, 11);
        assert_catalogs_equal(&with_u(golden_catalog()), &rec.catalog);
        assert_eq!(rec.catalog.table("t").unwrap().free_slots(), vec![0]);

        // The next checkpoint extends the old chain with a page delta.
        let mut cat = rec.catalog;
        cat.table_mut("t").unwrap().insert(vec![Value::Int(7), Value::str("g")]).unwrap();
        assert_eq!(
            write_checkpoint(&mut cat, 12, &dir).unwrap(),
            CheckpointKind::Delta { tables: 1 }
        );
        assert!(dir.join(delta_file_name(2)).exists());
        let rec = Catalog::recover(&dir).unwrap();
        assert_catalogs_equal(&cat, &rec.catalog);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every strict prefix of a body is an error, a byte flip is an error or
    /// a catalog, and 100,000 nested array tags are an error — none panic.
    #[test]
    fn malformed_bodies_error_without_panicking() {
        let cat = golden_catalog();
        let pool = BufferPool::unbounded();
        let body = encode_body(&cat, 9);
        let (delta, _) = encode_delta_body(&cat, 1, 7, 9, &["t".to_string()]).unwrap();
        let [_, snap2, _] = golden_bodies();
        let legacy = unhex(&snap2);
        let apply =
            |bytes: &[u8], paged: bool| apply_delta_body(&mut ChainPatch::default(), bytes, paged);
        for cut in 0..body.len() {
            assert!(matches!(
                decode_body(&body[..cut], &pool, ChainPatch::default()),
                Err(StorageError::Corrupt(_))
            ));
        }
        for (bytes, paged) in [(&delta, true), (&legacy, false)] {
            for cut in 0..bytes.len() {
                assert!(matches!(apply(&bytes[..cut], paged), Err(StorageError::Corrupt(_))));
            }
        }
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 0xFF;
            let _ = decode_body(&flipped, &pool, ChainPatch::default());
        }
        for (bytes, paged) in [(&delta, true), (&legacy, false)] {
            for i in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0xFF;
                // A flipped delta that still decodes must not panic when it
                // is laid over the base either.
                let mut chain = ChainPatch::default();
                if apply_delta_body(&mut chain, &flipped, paged).is_ok() {
                    let _ = decode_body(&body, &pool, chain);
                }
            }
        }

        // One table whose single slot holds a 100,000-deep array.
        let schema = TableSchema::new("d", vec![Column::new("v", DataType::Int.array_of())], vec![]);
        let mut deep = Vec::new();
        put_u64(&mut deep, 1);
        put_u32(&mut deep, 1);
        put_str(&mut deep, &serde_json::to_string(&schema).unwrap());
        put_u32(&mut deep, 0); // no indexes
        put_u32(&mut deep, 1); // one slot
        deep.push(1);
        put_u32(&mut deep, 1); // one column
        for _ in 0..100_000 {
            deep.push(5); // array tag
            put_u32(&mut deep, 1);
        }
        deep.push(0);
        assert!(matches!(
            decode_body(&deep, &pool, ChainPatch::default()),
            Err(StorageError::Corrupt(_))
        ));
    }

    /// `id` key, `v` under a hash index, `s` nullable text.
    fn churn_schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                Column::not_null("id", DataType::Int),
                Column::not_null("v", DataType::Int),
                Column::new("s", DataType::Text),
            ],
            vec![0],
        )
    }

    fn churn_row(id: i64, v: i64) -> Row {
        let s = if v % 3 == 0 { Value::Null } else { Value::str(format!("s{v}")) };
        vec![Value::Int(id), Value::Int(v), s]
    }

    /// Tables equal down to slot positions and free lists, and every
    /// index answers alike.
    fn assert_tables_equal(live: &Catalog, back: &Catalog) {
        assert_catalogs_equal(live, back);
        for name in live.table_names() {
            let (a, b) = (live.table(&name).unwrap(), back.table(&name).unwrap());
            assert_eq!(a.free_slots(), b.free_slots(), "free list of '{name}'");
            assert_eq!(a.len(), b.len(), "live rows of '{name}'");
            for (rid, row) in a.scan() {
                assert_eq!(b.lookup_pk(&row[0]).map(|(r, _)| r), Some(rid), "pk of '{name}'");
            }
            for v in 0..7 {
                let key = Value::Int(v);
                let mut x: Vec<_> = a.index_lookup(&[1], &key).unwrap_or_default();
                let mut y: Vec<_> = b.index_lookup(&[1], &key).unwrap_or_default();
                x.sort_by_key(|(r, _)| *r);
                y.sort_by_key(|(r, _)| *r);
                assert_eq!(x, y, "index on v of '{name}'");
            }
        }
    }

    /// One row updated in a table of 2k or 20k rows: the delta holds that
    /// row's page and nothing more, so its size does not grow with the table.
    #[test]
    fn page_delta_of_one_update_is_independent_of_table_size() {
        const BOUND: u64 = 16 * 1024;
        let pages_written =
            erbium_obs::Registry::global().counter("erbium_checkpoint_delta_pages_total", "");
        for rows in [2_000i64, 20_000] {
            let dir = temp_dir(&format!("page-delta-{rows}"));
            let mut cat = Catalog::new();
            let mut t = Table::new(churn_schema("t"));
            t.bulk_append((0..rows).map(|i| churn_row(i, i % 7)).collect()).unwrap();
            cat.create_table(t).unwrap();
            assert_eq!(write_checkpoint(&mut cat, 1, &dir).unwrap(), CheckpointKind::Full);
            let full = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
            assert!(full > 2 * BOUND, "{rows} rows: the table itself is {full} bytes");

            let (rid, _) = cat.table("t").unwrap().lookup_pk(&Value::Int(rows / 2)).unwrap();
            cat.table_mut("t").unwrap().update(rid, churn_row(rows / 2, 99)).unwrap();
            assert_eq!(cat.table("t").unwrap().unsaved_page_count(), 1);
            let before = pages_written.get();
            assert_eq!(
                write_checkpoint(&mut cat, 2, &dir).unwrap(),
                CheckpointKind::Delta { tables: 1 }
            );
            assert!(pages_written.get() > before, "the page counter ticks");
            let delta = std::fs::metadata(dir.join(delta_file_name(1))).unwrap().len() - 16;
            assert!(delta < BOUND, "{rows} rows: one-row delta body is {delta} bytes");
            assert_eq!(cat.table("t").unwrap().unsaved_page_count(), 0, "checkpoint clears marks");

            let rec = Catalog::recover(&dir).unwrap();
            assert_tables_equal(&cat, &rec.catalog);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// An `ERBSNAP3` body by hand: one entry for `t` with the given slot
    /// count and slot ranges, the retired factorized count, empty metadata, no
    /// statistics.
    fn hand_delta(
        seq: u64,
        base_crc: u32,
        t: &Table,
        slot_count: usize,
        ranges: &[(usize, Vec<Option<Row>>)],
    ) -> Vec<u8> {
        let mut b = Vec::new();
        put_u64(&mut b, seq);
        put_u32(&mut b, base_crc);
        put_u64(&mut b, 1);
        put_u32(&mut b, 1);
        put_table_header(&mut b, t);
        put_u32(&mut b, slot_count as u32);
        put_u32(&mut b, ranges.len() as u32);
        for (first, slots) in ranges {
            put_u32(&mut b, *first as u32);
            put_u32(&mut b, slots.len() as u32);
            for slot in slots {
                put_slot(&mut b, slot);
            }
        }
        put_u32(&mut b, 0); // the retired factorized section
        put_u32(&mut b, 0); // metadata entries
        b.push(0); // no statistics
        b
    }

    /// A page entry states the slots it covers. The writer records each
    /// page of a multi-page table at its first slot, and recovery places
    /// slots without consulting the page size: deltas whose ranges follow
    /// two other page sizes lay over a multi-page base slot for slot, the
    /// newest copy of each slot winning, and a later truncation holds.
    #[test]
    fn page_entries_place_slots_by_their_first_slot() {
        let dir = temp_dir("slot-ranges");
        let page_rows = crate::pages::page_rows_for(&churn_schema("t"));
        let n = 2 * page_rows + 5;
        let mut cat = Catalog::new();
        let mut t = Table::new(churn_schema("t"));
        t.bulk_append((0..n as i64).map(|i| churn_row(i, i % 7)).collect()).unwrap();
        cat.create_table(t).unwrap();
        assert_eq!(write_checkpoint(&mut cat, 1, &dir).unwrap(), CheckpointKind::Full);
        let base_crc = base_body_crc(&dir.join(SNAPSHOT_FILE)).unwrap();

        // The writer: one row updated on the third page.
        let rid = 2 * page_rows + 3;
        cat.table_mut("t").unwrap().update(RowId(rid as u64), churn_row(rid as i64, 6)).unwrap();
        let tables = ["t".to_string()];
        let (body, pages) = encode_delta_body(&cat, 1, base_crc, 2, &tables).unwrap();
        assert_eq!(pages, 1);
        let mut chain = ChainPatch::default();
        apply_delta_body(&mut chain, &body, true).unwrap();
        let written: Vec<(usize, usize)> =
            chain.tables["t"].pages.iter().map(|(&first, slots)| (first, slots.len())).collect();
        assert_eq!(written, vec![(2 * page_rows, 5)]);

        // The reader: hand-made deltas in 6- and 4-slot pages, one range
        // straddling this build's page boundary, checked against a model in
        // which the newest copy of each slot wins.
        let t = cat.table("t").unwrap().clone();
        let mut model = Table::new(churn_schema("t"));
        model.bulk_append((0..n as i64).map(|i| churn_row(i, i % 7)).collect()).unwrap();
        let mut model = model.slots_vec();
        let range = |first: usize, len: usize, v: i64| -> (usize, Vec<Option<Row>>) {
            (first, (first..first + len).map(|i| Some(churn_row(i as i64, v))).collect())
        };
        let mut tombstoned = range(4, 4, 2);
        tombstoned.1[1] = None;
        let deltas = [
            (n, vec![range(0, 6, 1), range(6, 6, 1), range(page_rows - 3, 6, 1)]),
            (n + 3, vec![tombstoned, range(n, 3, 2)]),
            (2, vec![range(0, 2, 3)]),
        ];
        for (i, (slot_count, ranges)) in deltas.into_iter().enumerate() {
            let seq = i as u64 + 1;
            let body = hand_delta(seq, base_crc, &t, slot_count, &ranges);
            write_frame_atomic(&dir, DELTA_TMP, &delta_file_name(seq), MAGIC3, &body).unwrap();
            for (first, slots) in ranges {
                if model.len() < first + slots.len() {
                    model.resize(first + slots.len(), None);
                }
                for (k, slot) in slots.into_iter().enumerate() {
                    model[first + k] = slot;
                }
            }
            model.resize(slot_count, None);

            let rec = Catalog::recover(&dir).unwrap();
            let back = rec.catalog.table("t").unwrap();
            assert_eq!(back.slots_vec(), model, "after delta {seq}");
            let free: Vec<u64> = (0..model.len() as u64).filter(|&i| model[i as usize].is_none()).collect();
            assert_eq!(back.free_slots(), free, "after delta {seq}");
            for (i, slot) in model.iter().enumerate() {
                if let Some(row) = slot {
                    assert_eq!(back.lookup_pk(&row[0]).map(|(r, _)| r), Some(RowId(i as u64)));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Random inserts, updates, deletes, bulk appends and the odd truncate
    /// across page boundaries, checkpointed every few steps under a 2-frame
    /// pool, so dirty pages spill between checkpoints: after every
    /// checkpoint, recovery equals the live catalog.
    #[test]
    fn page_deltas_recover_random_churn_under_a_two_frame_pool() {
        let dir = temp_dir("page-churn");
        let pool = BufferPool::bounded(2, dir.join("pages.erb"));
        let mut cat = Catalog::with_pool(pool.clone());
        for name in ["t", "u"] {
            let mut t = Table::new(churn_schema(name));
            t.create_index("by_v", vec![1], IndexKind::Hash).unwrap();
            t.bulk_append((0..600).map(|i| churn_row(i, i % 7)).collect()).unwrap();
            cat.create_table(t).unwrap();
        }
        let mut live: Vec<Vec<RowId>> =
            vec![(0..600).map(RowId).collect(), (0..600).map(RowId).collect()];
        let mut next_id = 600i64;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let (mut deltas, mut fulls) = (0, 0);
        for step in 1..=240u64 {
            let which = (rand(4) == 0) as usize; // `u` gets a quarter
            let name = ["t", "u"][which];
            let rids = &mut live[which];
            let t = cat.table_mut(name).unwrap();
            match rand(100) {
                0 => {
                    t.truncate();
                    rids.clear();
                }
                1..=30 => {
                    rids.push(t.insert(churn_row(next_id, next_id % 7)).unwrap());
                    next_id += 1;
                }
                31..=55 if !rids.is_empty() => {
                    let rid = rids[rand(rids.len() as u64) as usize];
                    let id = t.get(rid).unwrap()[0].clone();
                    let Value::Int(id) = id else { unreachable!() };
                    t.update(rid, churn_row(id, rand(7) as i64)).unwrap();
                }
                56..=85 if !rids.is_empty() => {
                    let at = rand(rids.len() as u64) as usize;
                    t.delete(rids.swap_remove(at)).unwrap();
                }
                _ => {
                    let n = 1 + rand(300) as i64;
                    let rows = (next_id..next_id + n).map(|i| churn_row(i, i % 7)).collect();
                    let (first, n) = t.bulk_append(rows).unwrap();
                    rids.extend((first..first + n as u64).map(RowId));
                    next_id += n as i64;
                }
            }
            cat.reclaim_pages();
            if step % 6 == 0 {
                match write_checkpoint(&mut cat, step, &dir).unwrap() {
                    CheckpointKind::Full => fulls += 1,
                    CheckpointKind::Delta { .. } => deltas += 1,
                }
                let recovery_pool = BufferPool::bounded(2, dir.join("recovery-pages.erb"));
                let rec = Catalog::recover_with(&dir, recovery_pool).unwrap();
                assert_eq!(rec.next_txn, step);
                assert_tables_equal(&cat, &rec.catalog);
            }
        }
        let st = pool.stats();
        assert!(st.dirty_writebacks > 0 && st.evictions > 0 && st.misses > 0, "{st:?}");
        assert!(deltas >= 2 * MAX_DELTA_CHAIN, "{deltas} deltas, {fulls} full snapshots");
        assert!(fulls >= 2, "{deltas} deltas, {fulls} full snapshots");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The chain survey streams each delta through a fixed buffer, yet a
    /// truncated, extended or damaged member fails `write_checkpoint` with
    /// the error the codec's whole-buffer frame check gives, writes nothing,
    /// and fails recovery with the same error.
    #[test]
    fn damaged_chain_member_fails_checkpoint_and_recovery_alike() {
        let dir = temp_dir("survey");
        let mut cat = sample_catalog();
        assert_eq!(write_checkpoint(&mut cat, 1, &dir).unwrap(), CheckpointKind::Full);
        cat.table_mut("people")
            .unwrap()
            .insert(vec![Value::Int(7), Value::str("gil"), Value::Null, Value::Null])
            .unwrap();
        assert!(matches!(write_checkpoint(&mut cat, 2, &dir).unwrap(), CheckpointKind::Delta { .. }));
        let path = dir.join(delta_file_name(1));
        let good = std::fs::read(&path).unwrap();
        // What checking the whole file in memory gives.
        let in_memory = |bytes: &[u8]| -> StorageResult<()> {
            let mut c = Cursor::new(bytes);
            let magic = c.bytes(8)?;
            if !DELTA_MAGICS.iter().any(|m| m[..] == *magic) {
                return Err(corrupt("snapshot: bad magic"));
            }
            c.frame()?;
            Ok(c.finish()?)
        };

        let flip = |at: usize| {
            let mut b = good.clone();
            b[at] ^= 0x40;
            b
        };
        assert!(good.len() < 16 + 0x4000, "the length flip below must overshoot");
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("truncated", good[..good.len() - 1].to_vec(), "checkpoint: truncated input"),
            ("extended", [&good[..], &[0]].concat(), "checkpoint: trailing bytes"),
            ("body flip", flip(good.len() / 2), "checkpoint: crc mismatch"),
            ("magic flip", flip(3), "snapshot: bad magic"),
            ("length flip", flip(9), "checkpoint: truncated input"),
            ("crc flip", flip(13), "checkpoint: crc mismatch"),
            ("head only", good[..16].to_vec(), "checkpoint: truncated input"),
            ("half head", good[..10].to_vec(), "checkpoint: truncated input"),
            ("magic only", good[..8].to_vec(), "checkpoint: truncated input"),
            ("short magic", good[..5].to_vec(), "checkpoint: truncated input"),
        ];
        cat.table_mut("people").unwrap().delete(RowId(0)).unwrap();
        for (what, bytes, want) in cases {
            let want = StorageError::Corrupt(want.into());
            assert_eq!(in_memory(&bytes).unwrap_err(), want, "{what}");
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(write_checkpoint(&mut cat, 3, &dir).unwrap_err(), want, "{what}");
            assert!(!dir.join(delta_file_name(2)).exists(), "{what}: nothing written");
            assert_eq!(cat.dirty_table_names(), vec!["people".to_string()], "{what}");
            assert_eq!(Catalog::recover(&dir).unwrap_err(), want, "{what}: recovery");
        }
        std::fs::write(&path, &good).unwrap();
        assert!(matches!(write_checkpoint(&mut cat, 3, &dir).unwrap(), CheckpointKind::Delta { .. }));
        assert_catalogs_equal(&cat, &Catalog::recover(&dir).unwrap().catalog);
        std::fs::remove_dir_all(&dir).ok();
    }
}
