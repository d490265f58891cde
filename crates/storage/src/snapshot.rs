//! Checkpoint snapshots and crash recovery.
//!
//! A snapshot is a full, self-contained image of one [`Catalog`]: every
//! plain table (schema, secondary-index specs, and the raw slot vector —
//! tombstones included, because [`crate::row::RowId`]s in the WAL suffix
//! and in factorized pointer lists are slot positions), every factorized
//! structure (both members plus the link pairs), and the metadata area
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
//! few tables changed since the last one. [`write_checkpoint`] therefore
//! consults the catalog's dirty tracking and, when the base snapshot is
//! still representative, emits an `ERBSNAP2` **delta** file
//! (`snapshot.delta.<seq>.erb`) instead: the full serialized state of just
//! the dirty tables/factorized structures, plus the (tiny) metadata map and
//! stats registry wholesale. Deltas chain: recovery applies the base
//! snapshot, then each delta in sequence order, then the WAL suffix.
//!
//! Compaction back to a full snapshot happens when the chain grows past
//! [`MAX_DELTA_CHAIN`], when the catalog's shape changed (DDL), or when
//! most of the catalog is dirty anyway. A full snapshot deletes the delta
//! files *after* the base rename; a crash in between leaves stale deltas
//! behind, which is why every delta records the CRC of the base body it
//! was computed against (`base_crc`). Deltas whose `base_crc` does not
//! match the current base are ignored at recovery and deleted at the next
//! checkpoint — content addressing, not trust in deletion order.
//!
//! ## Recovery protocol
//!
//! [`Catalog::recover`] = load the latest snapshot (or start empty), apply
//! the valid delta chain on top, then redo the committed suffix of the WAL,
//! placing rows at the exact slots the log recorded, and finally rebuild
//! the free lists. WAL groups whose transaction id predates the checkpoint
//! chain are already absorbed by it and are skipped — that makes the
//! crash window between the checkpoint rename and the WAL truncation safe.
//! The combination is exactly the committed prefix of history: rolled-back
//! transactions never reached the log, and a torn tail loses only the
//! in-flight group.

use crate::buffer_pool::BufferPool;
use crate::catalog::Catalog;
use crate::error::{StorageError, StorageResult};
use crate::factorized::FactorizedTable;
use crate::index::IndexKind;
use crate::row::RowId;
use crate::schema::TableSchema;
use crate::stats::CatalogStats;
use crate::table::Table;
use crate::wal::{scan_wal, FactSide, WalRecord};
use erbium_model::codec::{
    frame_header, get_row, put_row, put_str, put_u32, put_u64, CodecError, Cursor,
};
use rustc_hash::FxHashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the checkpoint snapshot inside a database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.erb";
/// File name of the write-ahead log inside a database directory.
pub const WAL_FILE: &str = "wal.erb";
/// Maximum number of chained delta checkpoints before [`write_checkpoint`]
/// compacts back to a full snapshot. Bounds recovery work (each delta is a
/// file read + wholesale table installs) and disk amplification.
pub const MAX_DELTA_CHAIN: usize = 8;

const MAGIC: &[u8; 8] = b"ERBSNAP1";
const MAGIC2: &[u8; 8] = b"ERBSNAP2";
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

fn put_table(buf: &mut Vec<u8>, t: &Table) {
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
    put_slots(buf, t);
}

/// Encode the slot vector page by page. Byte-identical to encoding the
/// materialized `Vec<Option<Row>>` (pages concatenate to exactly the slot
/// vector), but evicted pages are decoded transiently one at a time, so
/// checkpointing a table never pulls its whole row store resident.
fn put_slots(buf: &mut Vec<u8>, t: &Table) {
    put_u32(buf, t.slot_count() as u32);
    for (_, page) in t.page_pins() {
        for slot in page.iter() {
            match slot {
                None => buf.push(0),
                Some(row) => {
                    buf.push(1);
                    put_row(buf, row);
                }
            }
        }
    }
}

/// One factorized structure: name, both member tables, the link pairs.
fn put_fact(buf: &mut Vec<u8>, name: &str, ft: &FactorizedTable) {
    put_str(buf, name);
    put_table(buf, ft.left());
    put_table(buf, ft.right());
    let pairs = ft.link_pairs();
    put_u32(buf, pairs.len() as u32);
    for (l, r) in pairs {
        put_u64(buf, l.0);
        put_u64(buf, r.0);
    }
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

    // Plain tables, sorted for deterministic bytes.
    let mut tables: Vec<(&String, &Table)> = cat.tables_iter().collect();
    tables.sort_by_key(|(n, _)| n.as_str());
    put_u32(&mut buf, tables.len() as u32);
    for (_, t) in tables {
        put_table(&mut buf, t);
    }

    let mut facts: Vec<(&String, &FactorizedTable)> = cat.factorized_iter().collect();
    facts.sort_by_key(|(n, _)| n.as_str());
    put_u32(&mut buf, facts.len() as u32);
    for (name, ft) in facts {
        put_fact(&mut buf, name, ft);
    }

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

fn get_table(c: &mut Cursor<'_>, pool: &Arc<BufferPool>) -> StorageResult<Table> {
    let schema: TableSchema = serde_json::from_str(c.str()?)
        .map_err(|e| corrupt(format!("snapshot: bad table schema: {e}")))?;
    let n_indexes = c.count(9)?; // name length + column count + kind byte
    let mut specs = Vec::with_capacity(n_indexes);
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
        specs.push((name, cols, kind));
    }
    // Stream slots straight into a pool-bound table: `RowStore::push`
    // reclaims pages at page boundaries when over budget, so decoding a
    // table larger than the frame budget stays bounded.
    let n = c.count(1)?;
    let mut t = Table::with_pool(schema, pool.clone());
    for _ in 0..n {
        let slot = match c.u8()? {
            0 => None,
            1 => Some(get_row(c)?),
            f => return Err(corrupt(format!("snapshot: bad slot flag {f}"))),
        };
        t.load_slot(slot).map_err(|e| corrupt(format!("snapshot: table rebuild failed: {e}")))?;
    }
    t.rebuild_free();
    for (name, cols, kind) in specs {
        t.create_index(name, cols, kind)
            .map_err(|e| corrupt(format!("snapshot: index rebuild failed: {e}")))?;
    }
    Ok(t)
}

fn get_fact(
    c: &mut Cursor<'_>,
    pool: &Arc<BufferPool>,
) -> StorageResult<(String, FactorizedTable)> {
    let name = c.string()?;
    let left = get_table(c, pool)?;
    let right = get_table(c, pool)?;
    let n_pairs = c.count(16)?;
    let mut links = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        links.push((RowId(c.u64()?), RowId(c.u64()?)));
    }
    let ft = FactorizedTable::from_parts(&name, left, right, links)
        .map_err(|e| corrupt(format!("snapshot: factorized rebuild failed: {e}")))?;
    Ok((name, ft))
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

fn decode_body(body: &[u8], pool: &Arc<BufferPool>) -> StorageResult<(Catalog, u64)> {
    let mut c = Cursor::new(body);
    let next_txn = c.u64()?;
    let mut cat = Catalog::with_pool(pool.clone());

    for _ in 0..c.count(1)? {
        let t = get_table(&mut c, pool)?;
        cat.create_table(t).map_err(|e| corrupt(format!("snapshot: duplicate table: {e}")))?;
    }
    for _ in 0..c.count(1)? {
        let (name, ft) = get_fact(&mut c, pool)?;
        cat.create_factorized(name, ft)
            .map_err(|e| corrupt(format!("snapshot: duplicate factorized: {e}")))?;
    }
    cat.replace_meta(get_meta(&mut c)?);

    // Optional trailing section: the statistics registry (absent in
    // pre-stats snapshots and in snapshots taken before any ANALYZE).
    if !c.is_done() {
        cat.set_stats(get_stats(&mut c)?);
    }
    c.finish()?;
    Ok((cat, next_txn))
}

// ---- file I/O --------------------------------------------------------------

/// Frame `body` under `magic` and write it to `dir/final_name` atomically:
/// temp file, fsync, rename, best-effort directory fsync.
fn write_frame_atomic(
    dir: &Path,
    tmp_name: &str,
    final_name: &str,
    magic: &[u8; 8],
    body: &[u8],
) -> StorageResult<()> {
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(magic);
    out.extend_from_slice(&frame_header(body));
    out.extend_from_slice(body);

    let final_path = dir.join(final_name);
    let tmp_path = dir.join(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp_path)
            .map_err(|e| io_err(&format!("create {}", tmp_path.display()), e))?;
        f.write_all(&out).map_err(|e| io_err("snapshot write", e))?;
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

/// Read and CRC-verify a framed file, returning the body and its CRC (the
/// CRC doubles as the content address deltas use to pin their base).
fn read_frame(path: &Path, magic: &[u8; 8]) -> StorageResult<(Vec<u8>, u32)> {
    let mut bytes =
        std::fs::read(path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
    let mut c = Cursor::new(&bytes);
    if c.bytes(magic.len())? != magic {
        return Err(corrupt("snapshot: bad magic"));
    }
    c.frame()?;
    c.finish()?;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("frame verified above"));
    bytes.drain(..16);
    Ok((bytes, crc))
}

/// Read just the stored body CRC of the base snapshot — the content address
/// a new delta records — without decoding (or re-hashing) the body.
fn base_body_crc(path: &Path) -> StorageResult<u32> {
    use std::io::Read;
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
    let (body, _) = read_frame(path, MAGIC)?;
    decode_body(&body, pool)
}

// ---- delta checkpoints -----------------------------------------------------

/// A decoded `ERBSNAP2` delta file: the full serialized state of every
/// table/structure that was dirty at checkpoint time, applied wholesale on
/// top of the base (or the previous delta) during recovery.
struct Delta {
    seq: u64,
    base_crc: u32,
    next_txn: u64,
    tables: Vec<Table>,
    facts: Vec<(String, FactorizedTable)>,
    meta: FxHashMap<String, serde_json::Value>,
    stats: Option<CatalogStats>,
}

fn encode_delta_body(
    cat: &Catalog,
    seq: u64,
    base_crc: u32,
    next_txn: u64,
    tables: &[String],
    facts: &[String],
) -> StorageResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(1024);
    put_u64(&mut buf, seq);
    put_u32(&mut buf, base_crc);
    put_u64(&mut buf, next_txn);

    put_u32(&mut buf, tables.len() as u32);
    for name in tables {
        put_table(&mut buf, cat.table(name)?);
    }

    put_u32(&mut buf, facts.len() as u32);
    for name in facts {
        put_fact(&mut buf, name, cat.factorized(name)?);
    }

    put_meta(&mut buf, cat);
    if cat.stats().is_empty() {
        buf.push(0);
    } else {
        buf.push(1);
        put_stats(&mut buf, cat.stats());
    }
    Ok(buf)
}

/// The identifying header every delta body starts with.
fn get_delta_header(c: &mut Cursor<'_>) -> StorageResult<(u64, u32, u64)> {
    Ok((c.u64()?, c.u32()?, c.u64()?))
}

fn decode_delta_body(body: &[u8], pool: &Arc<BufferPool>) -> StorageResult<Delta> {
    let mut c = Cursor::new(body);
    let (seq, base_crc, next_txn) = get_delta_header(&mut c)?;

    let n_tables = c.count(1)?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push(get_table(&mut c, pool)?);
    }
    let n_facts = c.count(1)?;
    let mut facts = Vec::with_capacity(n_facts);
    for _ in 0..n_facts {
        facts.push(get_fact(&mut c, pool)?);
    }
    let meta = get_meta(&mut c)?;
    let stats = match c.u8()? {
        0 => None,
        1 => Some(get_stats(&mut c)?),
        f => return Err(corrupt(format!("delta: bad stats flag {f}"))),
    };
    c.finish()?;
    Ok(Delta { seq, base_crc, next_txn, tables, facts, meta, stats })
}

fn load_delta(path: &Path, pool: &Arc<BufferPool>) -> StorageResult<Delta> {
    let (body, _) = read_frame(path, MAGIC2)?;
    decode_delta_body(&body, pool)
}

/// Just the identifying header of a delta file (frame still CRC-verified):
/// enough for the checkpointer to tell live chain members from stale ones.
fn delta_header(path: &Path) -> StorageResult<(u64, u32, u64)> {
    let (body, _) = read_frame(path, MAGIC2)?;
    get_delta_header(&mut Cursor::new(&body))
}

/// What [`write_checkpoint`] decided to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A full `ERBSNAP1` snapshot; any existing delta chain was compacted
    /// away.
    Full,
    /// An `ERBSNAP2` delta carrying only the dirty subset of the catalog.
    Delta {
        /// Plain tables serialized into the delta.
        tables: usize,
        /// Factorized structures serialized into the delta.
        factorized: usize,
    },
}

/// Write a checkpoint of `cat`, choosing between a full snapshot and an
/// incremental delta based on the catalog's dirty tracking.
///
/// Full snapshots are forced when there is no base yet, when the catalog's
/// shape changed (DDL — cheaper to restate everything than to version
/// drops), when the delta chain reached [`MAX_DELTA_CHAIN`], or when more
/// than half the catalog is dirty (the delta would approach the full image
/// in size while still costing a chain read at recovery). Otherwise a delta
/// is written — even with zero dirty tables it carries the authoritative
/// `next_txn`/metadata/stats, which is what makes the subsequent WAL
/// truncation safe.
///
/// Clears the catalog's dirty tracking on success.
pub fn write_checkpoint(
    cat: &mut Catalog,
    next_txn: u64,
    dir: &Path,
) -> StorageResult<CheckpointKind> {
    use erbium_obs::{Counter, Registry};
    use std::sync::{Arc, OnceLock};
    static DELTA_TABLES: OnceLock<Arc<Counter>> = OnceLock::new();

    let base_path = dir.join(SNAPSHOT_FILE);
    let dirty_tables = cat.dirty_table_names();
    let dirty_facts = cat.dirty_factorized_names();
    let dirty = dirty_tables.len() + dirty_facts.len();
    let total = cat.table_names().len() + cat.factorized_names().len();

    // Survey the existing chain. Stale deltas (wrong base, e.g. survivors
    // of a crash between a full-snapshot rename and their deletion) are
    // removed here; unreadable ones are real corruption and surface.
    let base_crc = if base_path.exists() { Some(base_body_crc(&base_path)?) } else { None };
    let mut chain_len = 0usize;
    let mut max_seq = 0u64;
    let mut stale: Vec<PathBuf> = Vec::new();
    let deltas = list_deltas(dir)?;
    for (file_seq, path) in &deltas {
        let (seq, crc, _) = delta_header(path)?;
        if seq != *file_seq {
            return Err(corrupt(format!(
                "delta: file {} claims seq {seq}",
                path.display()
            )));
        }
        if Some(crc) == base_crc {
            chain_len += 1;
            max_seq = max_seq.max(seq);
        } else {
            stale.push(path.clone());
        }
    }
    for path in &stale {
        let _ = std::fs::remove_file(path);
    }

    let force_full = base_crc.is_none()
        || cat.structural_dirty()
        || chain_len >= MAX_DELTA_CHAIN
        || dirty * 2 > total;
    if force_full {
        write_snapshot(cat, next_txn, dir)?;
        // Delete the now-absorbed chain *after* the base rename: a crash in
        // between leaves stale deltas, which the `base_crc` check ignores.
        for (_, path) in &deltas {
            let _ = std::fs::remove_file(path);
        }
        cat.mark_checkpointed();
        return Ok(CheckpointKind::Full);
    }

    let _span = erbium_obs::span("checkpoint_delta");
    let base_crc = base_crc.expect("checked above");
    let body =
        encode_delta_body(cat, max_seq + 1, base_crc, next_txn, &dirty_tables, &dirty_facts)?;
    write_frame_atomic(dir, DELTA_TMP, &delta_file_name(max_seq + 1), MAGIC2, &body)?;
    DELTA_TABLES
        .get_or_init(|| {
            Registry::global().counter(
                "erbium_checkpoint_delta_tables",
                "Tables and factorized structures written into delta checkpoints",
            )
        })
        .add(dirty as u64);
    cat.mark_checkpointed();
    Ok(CheckpointKind::Delta { tables: dirty_tables.len(), factorized: dirty_facts.len() })
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
        WalRecord::FactInsert { name, side, rid, row } => {
            let ft = cat.factorized_mut(&name)?;
            match side {
                FactSide::Left => ft.place_left(RowId(rid), row)?,
                FactSide::Right => ft.place_right(RowId(rid), row)?,
            }
        }
        WalRecord::FactUpdate { name, side, rid, row } => {
            let ft = cat.factorized_mut(&name)?;
            match side {
                FactSide::Left => ft.update_left(RowId(rid), row)?,
                FactSide::Right => ft.update_right(RowId(rid), row)?,
            };
        }
        WalRecord::FactDelete { name, side, rid } => {
            let ft = cat.factorized_mut(&name)?;
            match side {
                FactSide::Left => ft.delete_left(RowId(rid))?,
                FactSide::Right => ft.delete_right(RowId(rid))?,
            };
        }
        WalRecord::FactLink { name, l, r } => {
            cat.factorized_mut(&name)?.link(RowId(l), RowId(r))?;
        }
        WalRecord::FactUnlink { name, l, r } => {
            cat.factorized_mut(&name)?.unlink(RowId(l), RowId(r));
        }
    }
    Ok(())
}

impl Catalog {
    /// Reconstruct the catalog stored in `dir`: load `dir/snapshot.erb`
    /// when present (a missing snapshot means "start empty" — a fresh
    /// database or one that has never checkpointed), apply the valid delta
    /// chain in sequence order, then redo every *committed* group in
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
    /// snapshot and delta decoding stream slots page by page (reclaiming as
    /// they go), and WAL redo reclaims between groups, so recovery of a
    /// catalog larger than the frame budget stays within it.
    pub fn recover_with(dir: &Path, pool: Arc<BufferPool>) -> StorageResult<Recovered> {
        use erbium_obs::{Counter, Registry};
        use std::sync::OnceLock;
        static RECOVERIES: OnceLock<Arc<Counter>> = OnceLock::new();
        static REPLAYED: OnceLock<Arc<Counter>> = OnceLock::new();
        static STATS_RESTORED: OnceLock<Arc<Counter>> = OnceLock::new();
        let _span = erbium_obs::span("recover");

        let snap_path = dir.join(SNAPSHOT_FILE);
        let (mut cat, mut next_txn) = if snap_path.exists() {
            let (body, base_crc) = read_frame(&snap_path, MAGIC)?;
            let (mut cat, mut chain_txn) = decode_body(&body, &pool)?;

            // Chain the deltas recorded against *this* base, newest last.
            let mut chain: Vec<Delta> = Vec::new();
            for (file_seq, path) in list_deltas(dir)? {
                let d = load_delta(&path, &pool)?;
                if d.seq != file_seq {
                    return Err(corrupt(format!(
                        "delta: file {} claims seq {}",
                        path.display(),
                        d.seq
                    )));
                }
                if d.base_crc == base_crc {
                    chain.push(d);
                }
            }
            chain.sort_by_key(|d| d.seq);
            for (i, d) in chain.iter().enumerate() {
                if d.seq != i as u64 + 1 {
                    return Err(corrupt(format!(
                        "delta: chain not contiguous (expected seq {}, found {})",
                        i + 1,
                        d.seq
                    )));
                }
            }
            for d in chain {
                for t in d.tables {
                    cat.install_table_version(t);
                }
                for (name, ft) in d.facts {
                    cat.install_factorized_version(name, ft);
                }
                cat.replace_meta(d.meta);
                cat.set_stats(d.stats.unwrap_or_default());
                chain_txn = chain_txn.max(d.next_txn);
            }
            (cat, chain_txn)
        } else {
            (Catalog::with_pool(pool.clone()), 1)
        };
        // The in-memory state now equals the on-disk checkpoint chain, so
        // dirty tracking restarts clean; the WAL redo below re-marks
        // exactly the tables the suffix touches (they *are* newer than the
        // chain, and the next delta checkpoint must carry them).
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
        for ft in cat.factorized_iter_mut() {
            ft.rebuild_free();
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
        let mut ft = FactorizedTable::new("f", left, right);
        let l0 = ft.insert_left(vec![Value::Int(1), Value::str("a")]).unwrap();
        let l1 = ft.insert_left(vec![Value::Int(2), Value::str("b")]).unwrap();
        let r0 = ft.insert_right(vec![Value::Int(10), Value::Int(100)]).unwrap();
        let r1 = ft.insert_right(vec![Value::Int(20), Value::Int(200)]).unwrap();
        ft.link(l0, r0).unwrap();
        ft.link(l0, r1).unwrap();
        ft.link(l1, r1).unwrap();
        cat.create_factorized("f", ft).unwrap();

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
        assert_eq!(a.factorized_names(), b.factorized_names());
        for name in a.factorized_names() {
            let (fa, fb) = (a.factorized(&name).unwrap(), b.factorized(&name).unwrap());
            assert_eq!(fa.left().slots_vec(), fb.left().slots_vec());
            assert_eq!(fa.right().slots_vec(), fb.right().slots_vec());
            let mut la = fa.link_pairs();
            let mut lb = fb.link_pairs();
            la.sort();
            lb.sort();
            assert_eq!(la, lb, "links of '{name}'");
            assert_eq!(fa.pair_count(), fb.pair_count());
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
        let written = cat.analyze();
        assert!(written >= 4, "people + f + f#left + f#right");
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
        let (back, next_txn) = decode_body(&body, &BufferPool::unbounded()).unwrap();
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

        // Post-checkpoint traffic touches only `people`; the factorized
        // structure `f` stays untouched.
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
        assert!(!stats.is_stale("f"), "untouched structure stays fresh");
        assert!(!stats.is_stale("f#left"));
        assert!(!stats.is_stale("f#right"));
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
            let l2 = txn.fact_insert(cat, "f", FactSide::Left, vec![Value::Int(3), Value::str("c")])?;
            txn.fact_link(cat, "f", l2, RowId(0))?;
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
        assert_eq!(rec.catalog.factorized("f").unwrap().pair_count(), 4);
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

        // Touch only `people` (1 of 2 structures) → delta carrying it alone.
        cat.table_mut("people")
            .unwrap()
            .insert(vec![Value::Int(7), Value::str("gil"), Value::Null, Value::Null])
            .unwrap();
        assert_eq!(
            write_checkpoint(&mut cat, 6, &dir).unwrap(),
            CheckpointKind::Delta { tables: 1, factorized: 0 }
        );
        assert!(dir.join("snapshot.delta.1.erb").exists());

        // Touch only the factorized structure → second delta in the chain.
        let l = cat.factorized_mut("f").unwrap().insert_left(vec![Value::Int(9), Value::str("z")]).unwrap();
        cat.factorized_mut("f").unwrap().link(l, RowId(0)).unwrap();
        assert_eq!(
            write_checkpoint(&mut cat, 7, &dir).unwrap(),
            CheckpointKind::Delta { tables: 0, factorized: 1 }
        );
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
                CheckpointKind::Delta { tables: 1, factorized: 0 },
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
        let mut ft = FactorizedTable::new(
            "f",
            TableSchema::new("l", vec![Column::not_null("lid", DataType::Int)], vec![0]),
            TableSchema::new("r", vec![Column::not_null("rid", DataType::Int)], vec![0]),
        );
        let l = ft.insert_left(vec![Value::Int(1)]).unwrap();
        let r = ft.insert_right(vec![Value::Int(10)]).unwrap();
        ft.link(l, r).unwrap();
        cat.create_factorized("f", ft).unwrap();
        cat.put_meta("k", serde_json::from_str(r#"{"v": 1}"#).unwrap());
        cat
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Minimal `ERBSNAP1` and `ERBSNAP2` bodies, bytes generated at the
    /// commit before the codec moved to `erbium_model::codec` and the
    /// factorized/metadata sections were folded into `put_fact`/`put_meta`:
    /// the checkpoint format is pinned.
    #[test]
    fn golden_bodies_pin_the_checkpoint_format() {
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
        let mut cat = golden_catalog();
        let pool = BufferPool::unbounded();

        let body = encode_body(&cat, 9);
        assert_eq!(hex(&body), snap1);
        let (back, next_txn) = decode_body(&body, &pool).unwrap();
        assert_eq!(next_txn, 9);
        assert_catalogs_equal(&cat, &back);

        let tables = ["t".to_string()];
        let facts = ["f".to_string()];
        let delta = encode_delta_body(&cat, 2, 0xDEAD_BEEF, 11, &tables, &facts).unwrap();
        assert_eq!(hex(&delta), snap2);
        let d = decode_delta_body(&delta, &pool).unwrap();
        assert_eq!((d.seq, d.base_crc, d.next_txn), (2, 0xDEAD_BEEF, 11));
        assert_eq!((d.tables.len(), d.facts.len(), d.meta.len()), (1, 1, 1));
        assert!(d.stats.is_none());

        // With statistics: ERBSNAP1 appends the stats string, ERBSNAP2 sets
        // its flag byte and appends the same string.
        cat.analyze();
        let mut stats = Vec::new();
        put_str(&mut stats, &serde_json::to_string(cat.stats()).unwrap());
        assert_eq!(hex(&encode_body(&cat, 9)), format!("{snap1}{}", hex(&stats)));
        let empty_delta = encode_delta_body(&cat, 2, 0xDEAD_BEEF, 11, &[], &[]).unwrap();
        assert_eq!(
            hex(&empty_delta),
            format!("0200000000000000efbeadde0b00000000000000000000000000000001000000010000006b070000007b2276223a317d01{}", hex(&stats))
        );
    }

    /// Every strict prefix of a body is an error, a byte flip is an error or
    /// a catalog, and 100,000 nested array tags are an error — none panic.
    #[test]
    fn malformed_bodies_error_without_panicking() {
        let cat = golden_catalog();
        let pool = BufferPool::unbounded();
        let body = encode_body(&cat, 9);
        let tables = ["t".to_string()];
        let delta = encode_delta_body(&cat, 1, 7, 9, &tables, &["f".to_string()]).unwrap();
        for cut in 0..body.len() {
            assert!(matches!(decode_body(&body[..cut], &pool), Err(StorageError::Corrupt(_))));
        }
        for cut in 0..delta.len() {
            assert!(matches!(
                decode_delta_body(&delta[..cut], &pool),
                Err(StorageError::Corrupt(_))
            ));
        }
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 0xFF;
            let _ = decode_body(&flipped, &pool);
        }
        for i in 0..delta.len() {
            let mut flipped = delta.clone();
            flipped[i] ^= 0xFF;
            let _ = decode_delta_body(&flipped, &pool);
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
        assert!(matches!(decode_body(&deep, &pool), Err(StorageError::Corrupt(_))));
    }
}
