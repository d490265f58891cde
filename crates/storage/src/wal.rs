//! Write-ahead log of physical row operations.
//!
//! The paper's prototype inherits durability from PostgreSQL; this module is
//! the from-scratch substitute. Every logical E/R CRUD operation lowers to a
//! *group* of physical row operations (the multi-table-update OLTP challenge
//! the paper calls out), and the group must hit the disk atomically. The log
//! therefore brackets each group with [`WalRecord::Begin`] /
//! [`WalRecord::Commit`] markers; recovery redoes only groups whose commit
//! marker survived, so a crash mid-group loses the whole group and never a
//! part of it.
//!
//! ## On-disk format
//!
//! The file is a sequence of self-delimiting frames:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The payload is a tag byte followed by a record-specific binary body (see
//! [`WalRecord::encode`]), written with the shared [`erbium_model::codec`]
//! (exact `Float` bit patterns, bounds-checked and depth-capped decoding).
//!
//! A torn tail — short header, short payload, or CRC mismatch — terminates
//! the scan *cleanly*: everything before the tear is usable, the tear itself
//! is treated as the end of the log. This is what makes crash recovery a
//! total function of the file contents.
//!
//! Tags 8–12 are retired: they held the records of the factorized storage
//! kind, which co-location no longer uses (a co-located pair is now two
//! member tables plus a row-id link table, logged with the plain records).
//! A CRC-valid frame carrying one of them fails the scan with an error that
//! names the record. It must not read as a torn tail, which would silently
//! drop the committed groups after it.
//!
//! ## Sync policy
//!
//! [`SyncPolicy`] trades commit latency for durability window, exactly like
//! `synchronous_commit` in PostgreSQL: `Always` fsyncs every commit,
//! `EveryN(n)` fsyncs every n-th commit, `Never` leaves flushing to the OS.
//! Data *written* but not fsynced survives process crashes (the page cache
//! holds it) but not power loss.

use crate::error::{StorageError, StorageResult};
use crate::row::Row;
pub use erbium_model::codec::crc32;
use erbium_model::codec::{
    frame_header, get_row, put_row, put_str, put_u32, put_u64, CodecError, CodecResult, Cursor,
};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// When the log fsyncs to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync on every commit — full durability, slowest.
    Always,
    /// fsync every n-th commit — bounded loss window of n-1 commits.
    EveryN(u32),
    /// Never fsync explicitly — the OS decides; fastest.
    Never,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::EveryN(32)
    }
}

// ---- records ---------------------------------------------------------------

/// One physical operation (or group marker) in the log.
///
/// Rows are logged *post-canonicalization* (the representation the table
/// actually stored), so redo can bypass validation and reproduce bit-exact
/// state.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Start of a logical operation group.
    Begin { txn: u64 },
    /// The group committed; recovery redoes it.
    Commit { txn: u64 },
    /// The group aborted; recovery skips it. (The default commit-time
    /// logging never emits this — rolled-back groups are simply not
    /// written — but the recovery scanner honours it for completeness.)
    Abort { txn: u64 },
    /// A row landed in `table` at slot `rid`.
    Insert { table: String, rid: u64, row: Row },
    /// The row at slot `rid` of `table` was replaced with `row`.
    Update { table: String, rid: u64, row: Row },
    /// The row at slot `rid` of `table` was deleted.
    Delete { table: String, rid: u64 },
    /// A plain table was created (schema as catalog-meta JSON).
    CreateTable { schema_json: String },
    /// A contiguous batch of rows landed at the tail of `table`, occupying
    /// slots `first .. first + rows.len()`. The compact bulk-ingest record:
    /// one frame describes the whole batch (the table name and slot base are
    /// stored once), instead of one `Insert` frame per row.
    BulkInsert { table: String, first: u64, rows: Vec<Row> },
}

const R_BEGIN: u8 = 1;
const R_COMMIT: u8 = 2;
const R_ABORT: u8 = 3;
const R_INSERT: u8 = 4;
const R_UPDATE: u8 = 5;
const R_DELETE: u8 = 6;
const R_CREATE_TABLE: u8 = 7;
const R_BULK_INSERT: u8 = 13;
/// The retired factorized-structure records and their tags (module docs).
const RETIRED: [(u8, &str); 5] = [
    (8, "FactInsert"),
    (9, "FactUpdate"),
    (10, "FactDelete"),
    (11, "FactLink"),
    (12, "FactUnlink"),
];

impl WalRecord {
    /// Serialize the record payload (no framing).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { txn } => {
                buf.push(R_BEGIN);
                put_u64(buf, *txn);
            }
            WalRecord::Commit { txn } => {
                buf.push(R_COMMIT);
                put_u64(buf, *txn);
            }
            WalRecord::Abort { txn } => {
                buf.push(R_ABORT);
                put_u64(buf, *txn);
            }
            WalRecord::Insert { table, rid, row } => {
                buf.push(R_INSERT);
                put_str(buf, table);
                put_u64(buf, *rid);
                put_row(buf, row);
            }
            WalRecord::Update { table, rid, row } => {
                buf.push(R_UPDATE);
                put_str(buf, table);
                put_u64(buf, *rid);
                put_row(buf, row);
            }
            WalRecord::Delete { table, rid } => {
                buf.push(R_DELETE);
                put_str(buf, table);
                put_u64(buf, *rid);
            }
            WalRecord::CreateTable { schema_json } => {
                buf.push(R_CREATE_TABLE);
                put_str(buf, schema_json);
            }
            WalRecord::BulkInsert { table, first, rows } => {
                buf.push(R_BULK_INSERT);
                put_str(buf, table);
                put_u64(buf, *first);
                put_u32(buf, rows.len() as u32);
                for row in rows {
                    put_row(buf, row);
                }
            }
        }
    }

    /// Decode one record payload; any malformation is an error (which the
    /// scanner treats as a torn tail), never a panic.
    pub fn decode(payload: &[u8]) -> CodecResult<WalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            R_BEGIN => WalRecord::Begin { txn: c.u64()? },
            R_COMMIT => WalRecord::Commit { txn: c.u64()? },
            R_ABORT => WalRecord::Abort { txn: c.u64()? },
            R_INSERT => {
                WalRecord::Insert { table: c.string()?, rid: c.u64()?, row: get_row(&mut c)? }
            }
            R_UPDATE => {
                WalRecord::Update { table: c.string()?, rid: c.u64()?, row: get_row(&mut c)? }
            }
            R_DELETE => WalRecord::Delete { table: c.string()?, rid: c.u64()? },
            R_CREATE_TABLE => WalRecord::CreateTable { schema_json: c.string()? },
            R_BULK_INSERT => {
                let table = c.string()?;
                let first = c.u64()?;
                let n = c.count(4)?; // a row is at least its u32 length
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(get_row(&mut c)?);
                }
                WalRecord::BulkInsert { table, first, rows }
            }
            tag => return Err(CodecError::BadTag { what: "WAL record", tag }),
        };
        c.finish()?; // trailing garbage inside a frame
        Ok(rec)
    }
}

/// Frame one record into `out`: `[len][crc][payload]`. The payload is
/// encoded directly into `out` — the 8-byte header is reserved up front and
/// backpatched once the length and CRC are known — so framing allocates
/// nothing beyond `out`'s own growth, which is what lets [`Wal`] reuse one
/// encode buffer across commit groups.
pub fn frame_record(out: &mut Vec<u8>, rec: &WalRecord) {
    let header = out.len();
    out.extend_from_slice(&[0u8; 8]);
    rec.encode(out);
    let framing = frame_header(&out[header + 8..]);
    out[header..header + 8].copy_from_slice(&framing);
}

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{ctx}: {e}"))
}

// ---- metrics ---------------------------------------------------------------
//
// Handles are interned once per process and cached in statics, so the append
// path pays a handful of relaxed atomic ops per commit group.

fn m_wal_bytes() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .counter("erbium_wal_bytes_total", "Bytes appended to the write-ahead log")
    })
}

fn m_wal_commit_groups() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .counter("erbium_wal_commit_groups_total", "Commit groups appended to the WAL")
    })
}

fn m_wal_fsync_seconds() -> &'static erbium_obs::Histogram {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Histogram>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .histogram("erbium_wal_fsync_seconds", "Latency of WAL fsync calls")
    })
}

// ---- the log writer --------------------------------------------------------

/// Append-side handle on the write-ahead log.
///
/// Single-writer by construction (the `Database` facade serializes writers),
/// so no internal locking. Each committed group is assembled in memory and
/// written with one `write_all`, so a crash inside the write tears at most
/// the tail of one group — which recovery discards wholesale.
///
/// The file handle and the appended-byte counter are shared (`Arc`) so a
/// [`crate::group_commit::GroupCommitter`] can fsync on behalf of several
/// queued committers without holding the writer lock: appends stay
/// serialized by the writer, durability is driven by whoever is elected
/// group leader (see [`Wal::sync_handle`]).
#[derive(Debug)]
pub struct Wal {
    file: Arc<File>,
    path: PathBuf,
    policy: SyncPolicy,
    unsynced_commits: u32,
    next_txn: u64,
    /// Reusable group-encode buffer: cleared (capacity kept) at the start of
    /// every append, so a steady-state writer frames groups with zero
    /// allocations instead of building a fresh `Vec` per group.
    encode_buf: Vec<u8>,
    /// Total bytes ever appended — a monotonic LSN. Deliberately *not*
    /// reset by [`Wal::truncate`]: group commit compares LSNs to decide
    /// which committers an fsync covered, and monotonicity is what makes
    /// `durable_lsn >= my_lsn` a one-way gate.
    appended_lsn: Arc<std::sync::atomic::AtomicU64>,
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending. `next_txn`
    /// seeds the transaction-id counter — recovery passes the highest id it
    /// saw plus one.
    pub fn open(path: impl Into<PathBuf>, policy: SyncPolicy, next_txn: u64) -> StorageResult<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&format!("open WAL {}", path.display()), e))?;
        Ok(Wal {
            file: Arc::new(file),
            path,
            policy,
            unsynced_commits: 0,
            next_txn,
            encode_buf: Vec::new(),
            appended_lsn: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }

    /// Capacity of the reusable group-encode buffer. Exposed so the WAL
    /// bench can assert that appending many similarly-sized groups does not
    /// keep allocating: after warm-up the capacity must hold steady.
    pub fn encode_buf_capacity(&self) -> usize {
        self.encode_buf.capacity()
    }

    /// Shared handles for a group committer: the log file (for fsync from
    /// outside the writer lock) and the appended-LSN counter (to observe
    /// how far appends have progressed). See `crate::group_commit`.
    pub fn sync_handle(&self) -> (Arc<File>, Arc<std::sync::atomic::AtomicU64>) {
        (Arc::clone(&self.file), Arc::clone(&self.appended_lsn))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The next transaction id this log will assign.
    pub fn next_txn_id(&self) -> u64 {
        self.next_txn
    }

    /// Append one committed group: `Begin`, the operations, `Commit` — a
    /// single buffered write, then flush/fsync per [`SyncPolicy`]. Returns
    /// the assigned transaction id. Empty groups are not written.
    pub fn commit_group(&mut self, records: &[WalRecord]) -> StorageResult<u64> {
        let txn = self.append_records(records)?;
        if records.is_empty() {
            return Ok(txn);
        }
        match self.policy {
            SyncPolicy::Always => {
                self.fsync()?;
            }
            SyncPolicy::EveryN(n) => {
                self.unsynced_commits += 1;
                if self.unsynced_commits >= n.max(1) {
                    self.fsync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(txn)
    }

    /// Append one committed group *without* applying the sync policy,
    /// returning the assigned transaction id and the log's appended LSN
    /// after the write. The caller owns durability: group commit parks the
    /// committer on its LSN and lets the elected leader fsync one batch on
    /// behalf of everyone queued behind it (see `crate::group_commit`).
    pub fn append_group(&mut self, records: &[WalRecord]) -> StorageResult<(u64, u64)> {
        let txn = self.append_records(records)?;
        Ok((txn, self.appended_lsn.load(std::sync::atomic::Ordering::Acquire)))
    }

    /// Frame and write one `Begin … ops … Commit` group in a single
    /// `write_all`, advancing the appended LSN. Empty groups write nothing
    /// but still consume a transaction id.
    fn append_records(&mut self, records: &[WalRecord]) -> StorageResult<u64> {
        let txn = self.next_txn;
        self.next_txn += 1;
        if records.is_empty() {
            return Ok(txn);
        }
        let buf = &mut self.encode_buf;
        buf.clear();
        frame_record(buf, &WalRecord::Begin { txn });
        for r in records {
            frame_record(buf, r);
        }
        frame_record(buf, &WalRecord::Commit { txn });
        let _span = erbium_obs::span("wal_append");
        (&*self.file).write_all(buf).map_err(|e| io_err("WAL append", e))?;
        self.appended_lsn.fetch_add(buf.len() as u64, std::sync::atomic::Ordering::AcqRel);
        m_wal_bytes().add(buf.len() as u64);
        m_wal_commit_groups().inc();
        Ok(txn)
    }

    /// The instrumented fsync every path funnels through: times the call
    /// into the `erbium_wal_fsync_seconds` histogram, emits a `wal_fsync`
    /// span, and resets the unsynced-commit debt.
    fn fsync(&mut self) -> StorageResult<()> {
        let _span = erbium_obs::span("wal_fsync");
        let t0 = std::time::Instant::now();
        let r = self.file.sync_data().map_err(|e| io_err("WAL fsync", e));
        m_wal_fsync_seconds().observe_duration(t0.elapsed());
        self.unsynced_commits = 0;
        r
    }

    /// Force an fsync regardless of policy (checkpoint prologue — committed
    /// groups must be durable before the snapshot that absorbs them is
    /// allowed to truncate the log).
    pub fn sync(&mut self) -> StorageResult<()> {
        self.fsync()
    }

    /// Discard the log contents (after a successful checkpoint has absorbed
    /// them into the snapshot).
    pub fn truncate(&mut self) -> StorageResult<()> {
        self.file.set_len(0).map_err(|e| io_err("WAL truncate", e))?;
        self.fsync()
    }
}

impl Drop for Wal {
    /// [`SyncPolicy::EveryN`] batches fsyncs, so up to `n - 1` committed
    /// groups can sit in the OS page cache between syncs. On a clean
    /// shutdown those groups must not be lost: flush the debt here.
    /// Best-effort by necessity — `Drop` cannot report errors, and a failed
    /// fsync at this point is indistinguishable from the crash the policy
    /// already tolerates.
    fn drop(&mut self) {
        if self.unsynced_commits > 0 {
            let _ = self.fsync();
        }
    }
}

// ---- the log reader --------------------------------------------------------

/// Everything recovery needs from one scan of the log.
#[derive(Debug, Default)]
pub struct WalScan {
    /// `(txn_id, operations)` of each *committed* group, in commit order.
    /// The id lets recovery skip groups a checkpoint chain has already
    /// absorbed (every snapshot/delta records the `next_txn` it covers, so
    /// `txn_id < chain_next_txn` means "already in the chain").
    pub committed: Vec<(u64, Vec<WalRecord>)>,
    /// One past the highest transaction id seen (committed or not).
    pub next_txn: u64,
    /// Total frames decoded before the scan stopped.
    pub frames: usize,
    /// True if the scan stopped at a torn/corrupt tail (as opposed to a
    /// clean end-of-file).
    pub torn_tail: bool,
}

/// Scan the log at `path`, returning the committed groups. Missing file is
/// an empty log. Torn or corrupt tails terminate the scan cleanly; an open
/// group without its `Commit` marker is discarded.
pub fn scan_wal(path: &Path) -> StorageResult<WalScan> {
    let mut scan = WalScan { next_txn: 1, ..WalScan::default() };
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes).map_err(|e| io_err("WAL read", e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(io_err(&format!("open WAL {}", path.display()), e)),
    }
    let mut frames = Cursor::new(&bytes);
    let mut open: Option<(u64, Vec<WalRecord>)> = None;
    while !frames.is_done() {
        // Short header, short payload, CRC mismatch and undecodable payload
        // all end the log here: the one place a `CodecError` becomes a torn
        // tail. A retired record is no tear: it is committed data this
        // version cannot read, so the scan fails.
        let Ok(payload) = frames.frame() else {
            scan.torn_tail = true;
            break;
        };
        if let Some((tag, name)) = RETIRED.iter().find(|(tag, _)| payload.first() == Some(tag)) {
            return Err(StorageError::Corrupt(format!(
                "WAL frame {} is a {name} record (tag {tag}) of the retired factorized \
                 storage kind, which this version does not read",
                scan.frames
            )));
        }
        let Ok(rec) = WalRecord::decode(payload) else {
            scan.torn_tail = true;
            break;
        };
        scan.frames += 1;
        match rec {
            // `saturating_add`: a crafted frame carrying txn == u64::MAX
            // must not panic the recovery scan with an addition overflow.
            WalRecord::Begin { txn } => {
                scan.next_txn = scan.next_txn.max(txn.saturating_add(1));
                open = Some((txn, Vec::new()));
            }
            WalRecord::Commit { txn } => {
                scan.next_txn = scan.next_txn.max(txn.saturating_add(1));
                if let Some((id, ops)) = open.take() {
                    if id == txn {
                        scan.committed.push((id, ops));
                    }
                }
            }
            WalRecord::Abort { txn } => {
                scan.next_txn = scan.next_txn.max(txn.saturating_add(1));
                open = None;
            }
            op => {
                if let Some((_, ops)) = &mut open {
                    ops.push(op);
                }
                // Operations outside a group (cannot happen with our writer)
                // are ignored rather than trusted.
            }
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                table: "t".into(),
                rid: 0,
                row: vec![
                    Value::Int(1),
                    Value::Float(f64::NAN),
                    Value::str("héllo"),
                    Value::Array(vec![Value::Bool(true), Value::Null]),
                    Value::Struct(vec![Value::Int(-5), Value::Float(2.5)]),
                ],
            },
            WalRecord::Update { table: "t".into(), rid: 0, row: vec![Value::Int(2)] },
            WalRecord::Delete { table: "t".into(), rid: 0 },
            WalRecord::CreateTable { schema_json: "{\"name\":\"x\"}".into() },
            WalRecord::BulkInsert {
                table: "t".into(),
                first: 42,
                rows: vec![
                    vec![Value::Int(1), Value::str("a")],
                    vec![Value::Int(2), Value::Float(f64::NEG_INFINITY)],
                    vec![],
                ],
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let back = WalRecord::decode(&buf).expect("decodes");
            // NaN-containing rows: compare via Debug (Value::PartialEq uses
            // total order, so direct equality also holds — check both).
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_tags() {
        let mut buf = Vec::new();
        WalRecord::Begin { txn: 1 }.encode(&mut buf);
        buf.push(0xAA);
        assert_eq!(WalRecord::decode(&buf), Err(CodecError::TrailingBytes));
        assert!(WalRecord::decode(&[0xFF, 0, 0]).is_err());
        assert!(WalRecord::decode(&[]).is_err());
    }

    /// One frame per record tag, bytes generated at the commit before the
    /// codec moved to `erbium_model::codec`: the on-disk format is pinned.
    #[test]
    fn golden_frames_pin_the_wal_format() {
        let recs = [
            WalRecord::Begin { txn: 1 },
            WalRecord::Commit { txn: 1 },
            WalRecord::Abort { txn: 2 },
            WalRecord::Insert {
                table: "t".into(),
                rid: 3,
                row: vec![
                    Value::Int(-7),
                    Value::Float(1.5),
                    Value::str("hé"),
                    Value::Bool(true),
                    Value::Null,
                    Value::Array(vec![Value::Int(1), Value::Null]),
                    Value::Struct(vec![Value::str("a"), Value::Float(f64::NAN)]),
                ],
            },
            WalRecord::Update { table: "t".into(), rid: 3, row: vec![Value::Int(2)] },
            WalRecord::Delete { table: "t".into(), rid: 3 },
            WalRecord::CreateTable { schema_json: "{\"name\":\"x\"}".into() },
            WalRecord::BulkInsert {
                table: "t".into(),
                first: 42,
                rows: vec![vec![Value::Int(1), Value::str("a")], vec![]],
            },
        ];
        let golden = [
            "090000007300d83d010100000000000000",
            "09000000b63c5504020100000000000000",
            "09000000162fa19d030200000000000000",
            "520000000475a1af04010000007403000000000000000700000002f9ffffffffffffff03000000000000f83f040300000068c3a9010100050200000002010000000000000000060200000004010000006103000000000000f87f",
            "1b000000f898768f050100000074030000000000000001000000020200000000000000",
            "0e000000ce7e2fd70601000000740300000000000000",
            "11000000382b0bab070c0000007b226e616d65223a2278227d",
            "290000007b9249e10d01000000742a00000000000000020000000200000002010000000000000004010000006100000000",
        ];
        assert_eq!(recs.len(), golden.len());
        for (rec, hex) in recs.iter().zip(golden) {
            let mut frame = Vec::new();
            frame_record(&mut frame, rec);
            let got: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{rec:?}");
            assert_eq!(&WalRecord::decode(Cursor::new(&frame).frame().unwrap()).unwrap(), rec);
        }
    }

    /// The frames of the five retired factorized-structure records (tags
    /// 8–12), as `golden_frames_pin_the_wal_format` pinned them before the
    /// records were retired.
    pub(crate) const RETIRED_FRAMES: [(&str, &str); 5] = [
        ("FactInsert", "1c000000331feae208010000006600040000000000000001000000020700000000000000"),
        ("FactUpdate", "14000000e51c0ffd0901000000660105000000000000000100000000"),
        ("FactDelete", "0f0000004ae560750a0100000066000400000000000000"),
        ("FactLink", "16000000d4cf548f0b010000006601000000000000000200000000000000"),
        ("FactUnlink", "1600000094f18dea0c010000006601000000000000000200000000000000"),
    ];

    pub(crate) fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn group(txn: u64, ops: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        frame_record(&mut out, &WalRecord::Begin { txn });
        for op in ops {
            frame_record(&mut out, op);
        }
        frame_record(&mut out, &WalRecord::Commit { txn });
        out
    }

    /// A retired record inside a committed group fails the scan with an
    /// error naming it; it is never read as a torn tail that would drop the
    /// committed group after it.
    #[test]
    fn retired_factorized_records_fail_the_scan() {
        let insert = WalRecord::Insert { table: "t".into(), rid: 0, row: vec![Value::Int(1)] };
        for (name, frame) in RETIRED_FRAMES {
            let payload = Cursor::new(&unhex(frame)).frame().unwrap().to_vec();
            assert!(matches!(WalRecord::decode(&payload), Err(CodecError::BadTag { .. })));
            let mut file = group(1, std::slice::from_ref(&insert));
            file.extend(&group(2, &[]));
            let at = file.len() - 17; // before group 2's Commit frame
            file.splice(at..at, unhex(frame));
            file.extend(&group(3, std::slice::from_ref(&insert)));
            let path = temp_path("retired");
            std::fs::write(&path, &file).unwrap();
            match scan_wal(&path) {
                Err(StorageError::Corrupt(msg)) => assert!(msg.contains(name), "{msg}"),
                other => panic!("{name}: expected a refusal, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// The tails a crash leaves — a short header, a short payload, a CRC
    /// mismatch, a zero-filled run (which frames as a CRC-valid empty
    /// payload: `crc32([]) == 0`) — still end the log cleanly after the
    /// committed prefix.
    #[test]
    fn crash_tails_still_truncate() {
        let insert = WalRecord::Insert { table: "t".into(), rid: 0, row: vec![Value::Int(1)] };
        let good = group(1, std::slice::from_ref(&insert));
        let mut crc_bad = Vec::new();
        frame_record(&mut crc_bad, &insert);
        crc_bad[4] ^= 0xFF;
        let (_, link) = RETIRED_FRAMES[3];
        let tails: [Vec<u8>; 5] = [
            vec![0x10, 0x00],
            unhex(link)[..12].to_vec(),
            crc_bad,
            vec![0u8; 64],
            vec![0u8; 3],
        ];
        for tail in tails {
            let path = temp_path("tails");
            let mut file = good.clone();
            file.extend(&tail);
            std::fs::write(&path, &file).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert!(scan.torn_tail, "{tail:?}");
            assert_eq!(scan.committed.len(), 1, "{tail:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// A CRC-valid frame of 100,000 nested array tags must end the scan as
    /// a torn tail, not overflow the recovery stack.
    #[test]
    fn deeply_nested_frame_is_a_torn_tail() {
        let mut payload = vec![R_INSERT];
        put_str(&mut payload, "t");
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 1);
        for _ in 0..100_000 {
            payload.push(5); // array tag
            put_u32(&mut payload, 1);
        }
        payload.push(0);
        assert_eq!(WalRecord::decode(&payload), Err(CodecError::TooDeep));
        let path = temp_path("deep");
        let mut file = frame_header(&payload).to_vec();
        file.extend_from_slice(&payload);
        std::fs::write(&path, &file).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.torn_tail && scan.committed.is_empty());
        std::fs::remove_file(&path).ok();
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        p.push(format!("erbium-wal-test-{tag}-{}-{nanos}", std::process::id()));
        p
    }

    #[test]
    fn commit_groups_scan_back() {
        let path = temp_path("roundtrip");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
            let id1 = wal
                .commit_group(&[WalRecord::Insert {
                    table: "t".into(),
                    rid: 0,
                    row: vec![Value::Int(1)],
                }])
                .unwrap();
            let id2 = wal.commit_group(&[WalRecord::Delete { table: "t".into(), rid: 0 }]).unwrap();
            assert_eq!((id1, id2), (1, 2));
            // Empty groups write nothing but still consume an id.
            assert_eq!(wal.commit_group(&[]).unwrap(), 3);
        }
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.committed.len(), 2);
        assert_eq!(scan.next_txn, 3);
        assert!(!scan.torn_tail);
        assert_eq!(scan.committed[0].0, 1, "groups carry their transaction ids");
        assert_eq!(scan.committed[1].0, 2);
        assert_eq!(scan.committed[0].1.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_reuses_encode_buffer() {
        let path = temp_path("buf-reuse");
        let mut wal = Wal::open(&path, SyncPolicy::Never, 1).unwrap();
        let group = [WalRecord::Insert {
            table: "t".into(),
            rid: 7,
            row: vec![Value::Int(1), Value::str("steady-state payload")],
        }];
        wal.append_group(&group).unwrap();
        let warm = wal.encode_buf_capacity();
        assert!(warm > 0);
        for _ in 0..1000 {
            wal.append_group(&group).unwrap();
        }
        assert_eq!(
            wal.encode_buf_capacity(),
            warm,
            "equal-sized groups must not grow the encode buffer after warm-up"
        );
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.committed.len(), 1001);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_keeps_committed_prefix() {
        let path = temp_path("torn");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never, 1).unwrap();
            wal.commit_group(&[WalRecord::Insert {
                table: "t".into(),
                rid: 0,
                row: vec![Value::Int(1)],
            }])
            .unwrap();
            wal.commit_group(&[WalRecord::Insert {
                table: "t".into(),
                rid: 1,
                row: vec![Value::Int(2)],
            }])
            .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Truncate at every byte boundary: committed count is monotone and
        // never panics; at full length both groups survive.
        let mut max_seen = 0;
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert!(scan.committed.len() >= max_seen.min(scan.committed.len()));
            max_seen = max_seen.max(scan.committed.len());
            assert!(scan.committed.len() <= 2);
        }
        std::fs::write(&path, &full).unwrap();
        assert_eq!(scan_wal(&path).unwrap().committed.len(), 2);
        // Corrupt a byte in the middle: scan stops there, prefix survives.
        let mut corrupted = full.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xFF;
        std::fs::write(&path, &corrupted).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.committed.len() <= 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_flushes_unsynced_everyn_commits() {
        let path = temp_path("drop-everyn");
        let fsyncs_before = m_wal_fsync_seconds().count();
        {
            let mut wal = Wal::open(&path, SyncPolicy::EveryN(100), 1).unwrap();
            // Two commits, well below the batch threshold: without the Drop
            // flush these would sit in the page cache with no fsync at all.
            for rid in 0..2 {
                wal.commit_group(&[WalRecord::Insert {
                    table: "t".into(),
                    rid,
                    row: vec![Value::Int(rid as i64)],
                }])
                .unwrap();
            }
        } // <- clean shutdown: Drop must flush the fsync debt
        let fsyncs_after = m_wal_fsync_seconds().count();
        assert!(
            fsyncs_after > fsyncs_before,
            "Wal::drop must fsync pending EveryN commits ({fsyncs_before} -> {fsyncs_after})"
        );
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.committed.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_log() {
        let scan = scan_wal(Path::new("/nonexistent/erbium-definitely-missing.wal")).unwrap();
        assert!(scan.committed.is_empty());
        assert_eq!(scan.next_txn, 1);
    }

    #[test]
    fn truncate_resets_log() {
        let path = temp_path("truncate");
        let mut wal = Wal::open(&path, SyncPolicy::EveryN(2), 5).unwrap();
        wal.commit_group(&[WalRecord::Delete { table: "t".into(), rid: 0 }]).unwrap();
        wal.truncate().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.committed.is_empty());
        assert_eq!(wal.next_txn_id(), 6);
        std::fs::remove_file(&path).ok();
    }
}
