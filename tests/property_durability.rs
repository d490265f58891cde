//! Crash-recovery fault injection: for a sequence of committed CRUD
//! transactions against a durable database, truncating (or corrupting) the
//! WAL at *every* byte offset and reopening must always recover a
//! committed-prefix state — never a torn write, never a panic — and the
//! recovered database must still satisfy the mapping invariants, across all
//! six preset mappings of the paper's Section 6.

use erbiumdb::core::Database;
use erbiumdb::mapping::{validate::validate, CoFormat, Mapping};
use erbiumdb::model::ErSchema;
use erbiumdb::storage::Value;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

/// The Figure-4 experiment schema, expressed as ERQL DDL (matching
/// `erbium_model::fixtures::experiment`): a 5-set hierarchy, two weak
/// entity sets, and three relationships including the M6 co-location
/// target `r2_s1`.
const EXPERIMENT_DDL: &str = "
    CREATE ENTITY R (r_id int KEY, r_a text, r_b int,
        r_mv1 int MULTIVALUED, r_mv2 int MULTIVALUED,
        r_mv3 text MULTIVALUED) PARTIAL DISJOINT;
    CREATE ENTITY R1 EXTENDS R (r1_a int NULLABLE, r1_b text NULLABLE) PARTIAL DISJOINT;
    CREATE ENTITY R2 EXTENDS R (r2_a int NULLABLE, r2_b text NULLABLE) PARTIAL DISJOINT;
    CREATE ENTITY R3 EXTENDS R1 (r3_a int NULLABLE);
    CREATE ENTITY R4 EXTENDS R2 (r4_a text NULLABLE);
    CREATE ENTITY S (s_id int KEY, s_a text, s_b int);
    CREATE RELATIONSHIP s_s1 FROM S1 MANY TOTAL TO S ONE;
    CREATE RELATIONSHIP s_s2 FROM S2 MANY TOTAL TO S ONE;
    CREATE WEAK ENTITY S1 OWNED BY S VIA s_s1
        (s1_no int KEY, s1_a int NULLABLE, s1_b text NULLABLE);
    CREATE WEAK ENTITY S2 OWNED BY S VIA s_s2 (s2_no int KEY, s2_a text NULLABLE);
    CREATE RELATIONSHIP r_s FROM R MANY TO S ONE;
    CREATE RELATIONSHIP r2_s1 FROM R2 MANY TO S1 MANY;
    CREATE RELATIONSHIP r1_r3 FROM R1 ROLE src MANY TO R3 ROLE dst MANY;
";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("erbium-dur-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Content fingerprint of the catalog: every table's live rows (with their
/// row ids; factorized members and link tables are tables too), in a
/// canonical order. Statistics and free lists are deliberately excluded —
/// they are not part of the durable state contract.
fn fingerprint(db: &Database) -> String {
    use std::fmt::Write as _;
    let cat = db.catalog();
    let mut out = String::new();
    let mut names = cat.table_names();
    names.sort();
    for name in names {
        let t = cat.table(&name).unwrap();
        let mut rows: Vec<String> =
            t.scan().map(|(rid, r)| format!("{}:{r:?}", rid.0)).collect();
        rows.sort();
        writeln!(out, "T {name} {rows:?}").unwrap();
    }
    out
}

/// One logical operation; indices are resolved against the shadow state so
/// generated sequences are always applicable (or skipped).
#[derive(Debug, Clone)]
enum Op {
    InsertS { b: i64 },
    InsertS1 { owner: usize, a: i64 },
    InsertR2 { b: i64, mv: Vec<i64> },
    LinkR2S1 { r2: usize, s1: usize },
    UpdateS { which: usize, b: i64 },
    DeleteR2 { which: usize },
    UnlinkR2S1 { which: usize },
}

/// Tracks which keys exist so ops can be validated before they are issued.
#[derive(Default)]
struct Shadow {
    s_ids: Vec<i64>,
    s1_keys: Vec<(i64, i64)>, // (owner s_id, s1_no)
    r2_ids: Vec<i64>,
    links: Vec<(i64, (i64, i64))>,
    next_s: i64,
    next_s1: i64,
    next_r: i64,
}

/// Apply one op as one committed transaction. Returns `false` when the op
/// is inapplicable in the current state (nothing touches the database).
fn apply(db: &mut Database, sh: &mut Shadow, op: &Op) -> bool {
    match op {
        Op::InsertS { b } => {
            let id = sh.next_s;
            sh.next_s += 1;
            db.insert(
                "S",
                &[
                    ("s_id", Value::Int(id)),
                    ("s_a", Value::str(format!("s{id}"))),
                    ("s_b", Value::Int(*b)),
                ],
            )
            .unwrap();
            sh.s_ids.push(id);
            true
        }
        Op::InsertS1 { owner, a } => {
            if sh.s_ids.is_empty() {
                return false;
            }
            let owner = sh.s_ids[owner % sh.s_ids.len()];
            let no = sh.next_s1;
            sh.next_s1 += 1;
            // Weak entities carry their owner's key as part of the data
            // (the identifying relationship is implied).
            db.insert(
                "S1",
                &[
                    ("s_id", Value::Int(owner)),
                    ("s1_no", Value::Int(no)),
                    ("s1_a", Value::Int(*a)),
                ],
            )
            .unwrap();
            sh.s1_keys.push((owner, no));
            true
        }
        Op::InsertR2 { b, mv } => {
            let id = sh.next_r;
            sh.next_r += 1;
            db.insert(
                "R2",
                &[
                    ("r_id", Value::Int(id)),
                    ("r_a", Value::str(format!("r{id}"))),
                    ("r_b", Value::Int(*b)),
                    ("r_mv1", Value::Array(mv.iter().map(|v| Value::Int(*v)).collect())),
                    ("r_mv2", Value::Array(vec![])),
                    ("r_mv3", Value::Array(vec![])),
                ],
            )
            .unwrap();
            sh.r2_ids.push(id);
            true
        }
        Op::LinkR2S1 { r2, s1 } => {
            if sh.r2_ids.is_empty() || sh.s1_keys.is_empty() {
                return false;
            }
            let r = sh.r2_ids[r2 % sh.r2_ids.len()];
            let sk = sh.s1_keys[s1 % sh.s1_keys.len()];
            if sh.links.contains(&(r, sk)) {
                return false;
            }
            db.link("r2_s1", &[Value::Int(r)], &[Value::Int(sk.0), Value::Int(sk.1)], &[])
                .unwrap();
            sh.links.push((r, sk));
            true
        }
        Op::UpdateS { which, b } => {
            if sh.s_ids.is_empty() {
                return false;
            }
            let id = sh.s_ids[which % sh.s_ids.len()];
            db.update_entity("S", &[Value::Int(id)], &[("s_b", Value::Int(*b))]).unwrap();
            true
        }
        Op::DeleteR2 { which } => {
            if sh.r2_ids.is_empty() {
                return false;
            }
            let id = sh.r2_ids.remove(which % sh.r2_ids.len());
            db.delete_entity("R2", &[Value::Int(id)]).unwrap();
            sh.links.retain(|(r, _)| *r != id);
            true
        }
        Op::UnlinkR2S1 { which } => {
            if sh.links.is_empty() {
                return false;
            }
            let (r, sk) = sh.links.remove(which % sh.links.len());
            db.unlink("r2_s1", &[Value::Int(r)], &[Value::Int(sk.0), Value::Int(sk.1)])
                .unwrap();
            true
        }
    }
}

/// Build a durable database under `mapping_of(schema)`, commit `ops` (one
/// transaction each), then crash at every WAL byte offset and verify the
/// recovered state is exactly one of the committed-prefix fingerprints.
fn crash_at_every_offset(ops: &[Op], mapping_of: &dyn Fn(&ErSchema) -> Mapping, tag: &str) {
    let dir = tmpdir(tag);
    let mut db = Database::open(&dir).unwrap();
    db.execute(EXPERIMENT_DDL).unwrap();
    let mapping = mapping_of(&db.schema().clone());
    db.install(mapping).unwrap();

    let mut prefixes = vec![fingerprint(&db)];
    let mut sh = Shadow::default();
    for op in ops {
        if apply(&mut db, &mut sh, op) {
            prefixes.push(fingerprint(&db));
        }
    }
    drop(db);

    let wal = fs::read(dir.join("wal.erb")).unwrap();
    let crash_dir = tmpdir(&format!("{tag}-crash"));
    fs::copy(dir.join("snapshot.erb"), crash_dir.join("snapshot.erb")).unwrap();
    for cut in 0..=wal.len() {
        fs::write(crash_dir.join("wal.erb"), &wal[..cut]).unwrap();
        let rdb = Database::open(&crash_dir)
            .unwrap_or_else(|e| panic!("[{tag}] open after cut at {cut}: {e}"));
        let fp = fingerprint(&rdb);
        assert!(
            prefixes.contains(&fp),
            "[{tag}] cut at byte {cut}/{}: recovered state is not a committed prefix",
            wal.len(),
        );
        validate(rdb.schema(), rdb.mapping().expect("mapping survives recovery"))
            .unwrap_or_else(|e| panic!("[{tag}] cut at {cut}: mapping invariants broken: {e}"));
        if cut == wal.len() {
            assert_eq!(fp, *prefixes.last().unwrap(), "[{tag}] full WAL = final state");
        }
    }
    // Single-byte corruption anywhere in the log must likewise yield a
    // committed prefix (the CRC catches the damage), never a panic.
    for flip in (0..wal.len()).step_by(7) {
        let mut bytes = wal.clone();
        bytes[flip] ^= 0x40;
        fs::write(crash_dir.join("wal.erb"), &bytes).unwrap();
        let rdb = Database::open(&crash_dir)
            .unwrap_or_else(|e| panic!("[{tag}] open after flip at {flip}: {e}"));
        assert!(
            prefixes.contains(&fingerprint(&rdb)),
            "[{tag}] flip at byte {flip}: recovered state is not a committed prefix",
        );
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&crash_dir).ok();
}

/// A fixed sequence exercising every op kind (including factorized link /
/// unlink and a cascading delete).
fn mixed_ops() -> Vec<Op> {
    vec![
        Op::InsertS { b: 10 },
        Op::InsertS1 { owner: 0, a: 1 },
        Op::InsertR2 { b: 20, mv: vec![7, 8] },
        Op::InsertR2 { b: 21, mv: vec![] },
        Op::LinkR2S1 { r2: 0, s1: 0 },
        Op::LinkR2S1 { r2: 1, s1: 0 },
        Op::UpdateS { which: 0, b: 99 },
        Op::UnlinkR2S1 { which: 0 },
        Op::DeleteR2 { which: 0 },
    ]
}

/// Deterministic sweep: all six Section-6 preset mappings (plus the
/// factorized M6 variant) survive crash-at-every-offset recovery.
#[test]
fn crash_recovery_prefix_consistent_across_m1_to_m6() {
    use erbiumdb::mapping::presets::paper;
    type MapFn = Box<dyn Fn(&ErSchema) -> Mapping>;
    let mappings: Vec<(&str, MapFn)> = vec![
        ("m1", Box::new(paper::m1)),
        ("m2", Box::new(paper::m2)),
        ("m3", Box::new(paper::m3)),
        ("m4", Box::new(paper::m4)),
        ("m5", Box::new(|s| paper::m5(s).unwrap())),
        ("m6d", Box::new(|s| paper::m6(s, CoFormat::Denormalized).unwrap())),
        ("m6f", Box::new(|s| paper::m6(s, CoFormat::Factorized).unwrap())),
    ];
    let ops = mixed_ops();
    for (tag, mk) in &mappings {
        crash_at_every_offset(&ops, mk.as_ref(), tag);
    }
}

/// Aborted transactions never reach the log: a rolled-back multi-op group
/// is invisible after reopen, while the committed groups around it survive.
#[test]
fn aborted_transaction_is_invisible_after_restart() {
    let dir = tmpdir("abort");
    let mut db = Database::open(&dir).unwrap();
    db.execute(EXPERIMENT_DDL).unwrap();
    db.install_default().unwrap();
    db.insert("S", &[("s_id", Value::Int(1)), ("s_a", Value::str("keep")), ("s_b", Value::Int(0))])
        .unwrap();
    let err = db.transaction(|tx| {
        tx.insert(
            "S",
            &[("s_id", Value::Int(2)), ("s_a", Value::str("phantom")), ("s_b", Value::Int(0))],
        )?;
        Err::<(), _>(erbiumdb::core::DbError::Parse("abort".into()))
    });
    assert!(err.is_err());
    db.insert("S", &[("s_id", Value::Int(3)), ("s_a", Value::str("keep2")), ("s_b", Value::Int(0))])
        .unwrap();
    drop(db);

    let db = Database::open(&dir).unwrap();
    assert!(db.get("S", &[Value::Int(1)]).unwrap().is_some());
    assert!(db.get("S", &[Value::Int(2)]).unwrap().is_none(), "aborted insert resurrected");
    assert!(db.get("S", &[Value::Int(3)]).unwrap().is_some());
    fs::remove_dir_all(&dir).ok();
}

/// Checkpoint truncates the log and recovery proceeds from the snapshot;
/// groups committed after the checkpoint replay on top of it.
#[test]
fn checkpoint_then_wal_suffix_recovers() {
    let dir = tmpdir("ckpt");
    let mut db = Database::open(&dir).unwrap();
    db.execute(EXPERIMENT_DDL).unwrap();
    db.install_default().unwrap();
    let mut sh = Shadow::default();
    for op in mixed_ops().iter().take(5) {
        apply(&mut db, &mut sh, op);
    }
    db.checkpoint().unwrap();
    assert_eq!(fs::metadata(dir.join("wal.erb")).unwrap().len(), 0, "checkpoint truncates");
    for op in mixed_ops().iter().skip(5) {
        apply(&mut db, &mut sh, op);
    }
    let expect = fingerprint(&db);
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(fingerprint(&db), expect);
    // The reopened database stays writable and queryable.
    let mut db = db;
    db.insert("S", &[("s_id", Value::Int(900)), ("s_a", Value::str("post")), ("s_b", Value::Int(1))])
        .unwrap();
    assert_eq!(db.query("SELECT s.s_id FROM S s WHERE s.s_id = 900").unwrap().rows.len(), 1);
    fs::remove_dir_all(&dir).ok();
}

/// Crash-at-every-byte across a base+delta checkpoint
/// chain. The durable prefix is the base snapshot plus two delta files;
/// the WAL carries only the post-chain suffix. Recovery must (a) be
/// prefix-consistent for every WAL cut and every single-byte WAL flip on
/// top of the chain, and (b) ignore a torn `snapshot.delta.tmp` at every
/// byte — the crash window of the checkpoint writer is entirely inside
/// the tmp file, since the final delta only appears via atomic rename.
#[test]
fn crash_at_every_byte_across_base_delta_chains() {
    let dir = tmpdir("chain");
    let mut db = Database::open(&dir).unwrap();
    db.execute(EXPERIMENT_DDL).unwrap();
    db.install_default().unwrap(); // structural → full base snapshot
    let mut sh = Shadow::default();
    let ops = mixed_ops();
    for op in &ops[..3] {
        apply(&mut db, &mut sh, op);
    }
    db.checkpoint().unwrap(); // delta 1
    for op in &ops[3..6] {
        apply(&mut db, &mut sh, op);
    }
    db.checkpoint().unwrap(); // delta 2
    let mut prefixes = vec![fingerprint(&db)];
    for op in &ops[6..] {
        if apply(&mut db, &mut sh, op) {
            prefixes.push(fingerprint(&db));
        }
    }
    drop(db);
    assert!(dir.join("snapshot.delta.1.erb").exists(), "chain was actually built");
    assert!(dir.join("snapshot.delta.2.erb").exists(), "chain was actually built");

    let wal = fs::read(dir.join("wal.erb")).unwrap();
    assert!(!wal.is_empty(), "suffix ops are in the WAL, not the chain");
    let crash_dir = tmpdir("chain-crash");
    for f in ["snapshot.erb", "snapshot.delta.1.erb", "snapshot.delta.2.erb"] {
        fs::copy(dir.join(f), crash_dir.join(f)).unwrap();
    }
    for cut in 0..=wal.len() {
        fs::write(crash_dir.join("wal.erb"), &wal[..cut]).unwrap();
        let rdb = Database::open(&crash_dir)
            .unwrap_or_else(|e| panic!("open after cut at {cut}: {e}"));
        let fp = fingerprint(&rdb);
        assert!(
            prefixes.contains(&fp),
            "cut at byte {cut}/{}: chained recovery is not a committed prefix",
            wal.len(),
        );
        if cut == wal.len() {
            assert_eq!(fp, *prefixes.last().unwrap(), "full WAL = final state");
        }
    }
    for flip in (0..wal.len()).step_by(7) {
        let mut bytes = wal.clone();
        bytes[flip] ^= 0x40;
        fs::write(crash_dir.join("wal.erb"), &bytes).unwrap();
        let rdb = Database::open(&crash_dir)
            .unwrap_or_else(|e| panic!("open after flip at {flip}: {e}"));
        assert!(
            prefixes.contains(&fingerprint(&rdb)),
            "flip at byte {flip}: chained recovery is not a committed prefix",
        );
    }

    // Crash mid-checkpoint: the writer dies with the next delta partially
    // written to its tmp file. Whatever length the tmp reached, recovery
    // ignores it and the full-WAL state is intact.
    fs::write(crash_dir.join("wal.erb"), &wal).unwrap();
    let delta_bytes = fs::read(dir.join("snapshot.delta.2.erb")).unwrap();
    for cut in (0..=delta_bytes.len()).step_by(3).chain([delta_bytes.len()]) {
        fs::write(crash_dir.join("snapshot.delta.tmp"), &delta_bytes[..cut]).unwrap();
        let rdb = Database::open(&crash_dir)
            .unwrap_or_else(|e| panic!("open with torn delta tmp at {cut}: {e}"));
        assert_eq!(
            fingerprint(&rdb),
            *prefixes.last().unwrap(),
            "torn tmp at byte {cut}/{} must not affect recovery",
            delta_bytes.len(),
        );
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&crash_dir).ok();
}

/// Corruption never panics: flipping a byte at *every* position of the
/// base snapshot, a delta checkpoint, and the WAL must leave recovery
/// either succeeding (flip in a slack region — the result must then be a
/// committed prefix) or failing with a recovery error. Decode paths that
/// `unwrap`/`expect` on attacker-shaped bytes show up here as unwinds, so
/// each reopen runs under `catch_unwind`.
#[test]
fn byte_flip_corruption_never_panics_recovery() {
    let dir = tmpdir("flip");
    let mut db = Database::open(&dir).unwrap();
    db.execute(EXPERIMENT_DDL).unwrap();
    db.install_default().unwrap(); // structural → full base snapshot
    let mut sh = Shadow::default();
    let ops = mixed_ops();
    let mut prefixes = vec![fingerprint(&db)];
    for op in &ops[..3] {
        if apply(&mut db, &mut sh, op) {
            prefixes.push(fingerprint(&db));
        }
    }
    db.checkpoint().unwrap(); // delta 1
    for op in &ops[3..6] {
        if apply(&mut db, &mut sh, op) {
            prefixes.push(fingerprint(&db));
        }
    }
    drop(db);

    let files = ["snapshot.erb", "snapshot.delta.1.erb", "wal.erb"];
    let crash_dir = tmpdir("flip-crash");
    for f in files {
        fs::copy(dir.join(f), crash_dir.join(f)).unwrap();
    }
    for f in files {
        let orig = fs::read(dir.join(f)).unwrap();
        assert!(!orig.is_empty(), "[{f}] fixture file is non-trivial");
        for flip in 0..orig.len() {
            let mut bytes = orig.clone();
            bytes[flip] ^= 0x40;
            fs::write(crash_dir.join(f), &bytes).unwrap();
            let opened = std::panic::catch_unwind(|| Database::open(&crash_dir))
                .unwrap_or_else(|_| {
                    panic!("[{f}] flip at byte {flip}/{} panicked recovery", orig.len())
                });
            if let Ok(rdb) = opened {
                assert!(
                    prefixes.contains(&fingerprint(&rdb)),
                    "[{f}] flip at byte {flip}: recovered state is not a committed prefix",
                );
            }
        }
        fs::write(crash_dir.join(f), &orig).unwrap();
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&crash_dir).ok();
}

/// Crash-at-every-byte under a tiny buffer-pool budget. A bulk load spans
/// more row pages than the two-frame budget, so the workload itself evicts
/// and writes back dirty pages; every recovery likewise streams base +
/// WAL redo through the bounded pool. The recovered state must be exactly
/// a committed prefix — bit-identical to what an unbounded pool recovers.
#[test]
fn crash_at_every_byte_with_tiny_frame_budget() {
    use erbiumdb::core::{BulkEntity, DurabilityOptions};
    let opts = DurabilityOptions { buffer_pool_frames: Some(2), ..Default::default() };
    let dir = tmpdir("pool");
    let mut db = Database::open_with(&dir, opts.clone()).unwrap();
    db.execute(EXPERIMENT_DDL).unwrap();
    db.install_default().unwrap();
    // Three pages of S rows (256 rows/page for this schema) in one bulk
    // group: past the budget, so the load must spill mid-workload.
    let batch: Vec<BulkEntity> = (1000..1640)
        .map(|i| {
            BulkEntity::new(&[
                ("s_id", Value::Int(i)),
                ("s_a", Value::str(format!("bulk{i}"))),
                ("s_b", Value::Int(i % 7)),
            ])
        })
        .collect();
    db.copy_from("S", &batch).unwrap();
    let stats = db.buffer_pool_stats();
    assert!(stats.evictions > 0, "the bulk load overflowed the two-frame budget: {stats:?}");
    assert!(stats.dirty_writebacks > 0, "cold dirty pages were written back: {stats:?}");
    db.checkpoint().unwrap();

    // A short WAL suffix of row ops on top of the checkpoint.
    let mut sh = Shadow::default();
    let mut prefixes = vec![fingerprint(&db)];
    for op in mixed_ops().iter().take(6) {
        if apply(&mut db, &mut sh, op) {
            prefixes.push(fingerprint(&db));
        }
    }
    drop(db);

    let wal = fs::read(dir.join("wal.erb")).unwrap();
    assert!(!wal.is_empty(), "suffix ops are in the WAL");
    let crash_dir = tmpdir("pool-crash");
    for entry in fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        let s = name.to_string_lossy().to_string();
        if s.starts_with("snapshot") {
            fs::copy(dir.join(&s), crash_dir.join(&s)).unwrap();
        }
    }
    for cut in 0..=wal.len() {
        fs::write(crash_dir.join("wal.erb"), &wal[..cut]).unwrap();
        let rdb = Database::open_with(&crash_dir, opts.clone())
            .unwrap_or_else(|e| panic!("bounded open after cut at {cut}: {e}"));
        let fp = fingerprint(&rdb);
        assert!(
            prefixes.contains(&fp),
            "cut at byte {cut}/{}: bounded recovery is not a committed prefix",
            wal.len(),
        );
        if cut == wal.len() {
            assert_eq!(fp, *prefixes.last().unwrap(), "full WAL = final state");
            // Bounded and unbounded recovery agree bit-for-bit.
            let unbounded = Database::open(&crash_dir).unwrap();
            assert_eq!(fingerprint(&unbounded), fp, "frame budget must not change recovery");
        }
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&crash_dir).ok();
}

/// Clean shutdown under `SyncPolicy::EveryN`: commits still below the sync
/// threshold are flushed by the WAL's `Drop` handler, so dropping the
/// database loses nothing. The fsync itself is asserted through the
/// observability histogram — on a healthy filesystem the file *contents*
/// cannot distinguish a buffered write from a synced one, but the fsync
/// count can.
#[test]
fn clean_shutdown_under_everyn_flushes_the_tail() {
    use erbiumdb::core::DurabilityOptions;
    use erbiumdb::storage::SyncPolicy;
    let fsyncs = || {
        erbiumdb::core::obs::Registry::global()
            .histogram("erbium_wal_fsync_seconds", "")
            .count()
    };
    let opts = DurabilityOptions { sync: SyncPolicy::EveryN(1000), ..Default::default() };
    let dir = tmpdir("everyn");
    let mut db = Database::open_with(&dir, opts.clone()).unwrap();
    db.execute(EXPERIMENT_DDL).unwrap();
    db.install_default().unwrap();
    let mut sh = Shadow::default();
    for op in mixed_ops() {
        apply(&mut db, &mut sh, &op);
    }
    let expect = fingerprint(&db);
    let before = fsyncs();
    drop(db); // fewer than 1000 commits ⇒ the tail is unsynced until Drop
    assert!(fsyncs() > before, "Drop must fsync the unsynced EveryN tail");

    let db = Database::open_with(&dir, opts).unwrap();
    assert_eq!(fingerprint(&db), expect, "clean EveryN shutdown loses nothing");
    fs::remove_dir_all(&dir).ok();
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..7, 0usize..8, 0usize..8, 0i64..100, prop::collection::vec(0i64..20, 0..3)).prop_map(
        |(kind, i, j, n, mv)| match kind {
            0 => Op::InsertS { b: n },
            1 => Op::InsertS1 { owner: i, a: n },
            2 => Op::InsertR2 { b: n, mv },
            3 => Op::LinkR2S1 { r2: i, s1: j },
            4 => Op::UpdateS { which: i, b: n },
            5 => Op::DeleteR2 { which: i },
            _ => Op::UnlinkR2S1 { which: i },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Random op sequences: recovery is prefix-consistent at every WAL
    /// offset under both the fully normalized mapping and the factorized
    /// co-location (the two structurally extreme presets).
    #[test]
    fn random_ops_crash_recovery_is_prefix_consistent(
        ops in prop::collection::vec(op_strategy(), 1..10),
        fact in any::<bool>(),
    ) {
        use erbiumdb::mapping::presets::paper;
        if fact {
            crash_at_every_offset(
                &ops,
                &|s: &ErSchema| paper::m6(s, CoFormat::Factorized).unwrap(),
                "prop-m6f",
            );
        } else {
            crash_at_every_offset(&ops, &|s: &ErSchema| paper::m1(s), "prop-m1");
        }
    }
}

// ---- WAL group commit (PR-7) -----------------------------------------------

/// Build a shared, durable database under `SyncPolicy::Always` with a
/// group-commit dally window, ready for concurrent committers.
fn shared_always_db(dir: &std::path::Path) -> erbiumdb::core::SharedDatabase {
    use erbiumdb::core::DurabilityOptions;
    use erbiumdb::storage::SyncPolicy;
    let opts = DurabilityOptions {
        sync: SyncPolicy::Always,
        group_commit_window: std::time::Duration::from_millis(25),
        ..Default::default()
    };
    let mut db = Database::open_with(dir, opts).unwrap();
    db.execute("CREATE ENTITY acct (id int KEY, batch int, score int)").unwrap();
    db.install_default().unwrap();
    db.into_shared()
}

/// One committed group per batch: two rows, all-or-nothing.
fn commit_batch(db: &erbiumdb::core::SharedDatabase, b: i64) {
    db.transaction(|tx| {
        tx.insert(
            "acct",
            &[("id", Value::Int(2 * b)), ("batch", Value::Int(b)), ("score", Value::Int(50))],
        )?;
        tx.insert(
            "acct",
            &[("id", Value::Int(2 * b + 1)), ("batch", Value::Int(b)), ("score", Value::Int(50))],
        )
    })
    .unwrap();
}

/// K concurrent small transactions under group commit must share fsyncs:
/// strictly fewer than K fsyncs for K commits (measured through the same
/// `erbium_wal_fsync_seconds` histogram the per-commit path ticks), while
/// every commit still reaches disk.
#[test]
fn k_concurrent_commits_take_fewer_than_k_fsyncs() {
    const K: i64 = 8;
    let fsyncs = || {
        erbiumdb::core::obs::Registry::global()
            .histogram("erbium_wal_fsync_seconds", "")
            .count()
    };
    let dir = tmpdir("group-fsync");
    let db = shared_always_db(&dir);
    let before = fsyncs();
    std::thread::scope(|s| {
        for b in 0..K {
            let db = db.clone();
            s.spawn(move || commit_batch(&db, b));
        }
    });
    let spent = fsyncs() - before;
    assert!(spent >= 1, "commits must fsync");
    assert!(spent < K as u64, "{K} concurrent commits took {spent} fsyncs — no batching");
    let (batches, commits) = db.group_commit_stats().expect("group commit active");
    assert_eq!(commits, K as u64);
    assert!(batches < commits, "batches={batches} commits={commits}");
    // Nothing was traded away for the batching: all K groups are durable.
    drop(db);
    let rdb = Database::open(&dir).unwrap();
    let rows = rdb.query("SELECT a.batch, COUNT(*) AS n FROM acct a GROUP BY a.batch").unwrap();
    assert_eq!(rows.rows.len(), K as usize);
    fs::remove_dir_all(&dir).ok();
}

/// Crash-at-every-byte over a WAL written by concurrent group-committed
/// transactions: recovery must always see whole commit groups — for every
/// batch either both rows or neither, never one — and the full WAL must
/// recover every batch.
#[test]
fn crash_mid_group_loses_or_keeps_whole_groups() {
    const K: i64 = 6;
    let dir = tmpdir("group-crash");
    let db = shared_always_db(&dir);
    std::thread::scope(|s| {
        for b in 0..K {
            let db = db.clone();
            s.spawn(move || commit_batch(&db, b));
        }
    });
    drop(db);

    let wal = fs::read(dir.join("wal.erb")).unwrap();
    let crash_dir = tmpdir("group-crash-cut");
    fs::copy(dir.join("snapshot.erb"), crash_dir.join("snapshot.erb")).unwrap();
    for cut in 0..=wal.len() {
        fs::write(crash_dir.join("wal.erb"), &wal[..cut]).unwrap();
        let rdb = Database::open(&crash_dir)
            .unwrap_or_else(|e| panic!("open after cut at {cut}: {e}"));
        let rows = rdb
            .query("SELECT a.batch, COUNT(*) AS n FROM acct a GROUP BY a.batch")
            .unwrap()
            .rows;
        for row in &rows {
            assert_eq!(
                row[1],
                Value::Int(2),
                "cut at byte {cut}/{}: batch {:?} recovered torn (a partial commit group)",
                wal.len(),
                row[0],
            );
        }
        if cut == wal.len() {
            assert_eq!(rows.len(), K as usize, "full WAL recovers all {K} groups");
        }
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&crash_dir).ok();
}

/// Retired WAL tags 8–12 once logged factorized co-location. A committed
/// group holding one of those records makes `Database::open` fail with an
/// error naming it, and the log stays whole: the record is never cut off
/// as a torn tail, which would drop the committed group after it.
#[test]
fn retired_factorized_wal_records_fail_open() {
    use erbiumdb::storage::wal::frame_record;
    use erbiumdb::storage::{WalRecord, WAL_FILE};
    // The frames as the WAL format pinned them before the tags retired.
    let retired = [
        ("FactInsert", "1c000000331feae208010000006600040000000000000001000000020700000000000000"),
        ("FactUpdate", "14000000e51c0ffd0901000000660105000000000000000100000000"),
        ("FactDelete", "0f0000004ae560750a0100000066000400000000000000"),
        ("FactLink", "16000000d4cf548f0b010000006601000000000000000200000000000000"),
        ("FactUnlink", "1600000094f18dea0c010000006601000000000000000200000000000000"),
    ];
    let unhex = |s: &str| -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    };
    for (name, frame) in retired {
        let dir = tmpdir(&format!("retired-{name}"));
        let mut log = Vec::new();
        for (txn, retired_frame) in [(1, Some(frame)), (2, None)] {
            frame_record(&mut log, &WalRecord::Begin { txn });
            log.extend(retired_frame.map(unhex).unwrap_or_default());
            frame_record(&mut log, &WalRecord::Commit { txn });
        }
        fs::write(dir.join(WAL_FILE), &log).unwrap();
        let err = Database::open(&dir).err().expect("a retired record fails open");
        assert!(err.to_string().contains(name), "{name}: {err}");
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), log, "{name}: the log stays whole");
        fs::remove_dir_all(&dir).ok();
    }
}

/// One `link` on a checkpointed M6f database dirties the link table alone,
/// and the next checkpoint is a delta of that one table's written page:
/// under one size-independent bound at 200 and at 4,000 pairs, while the
/// whole link table at 4,000 pairs is several pages past it.
#[test]
fn m6f_link_checkpoints_as_a_link_table_page_delta() {
    use erbiumdb::core::BulkEntity;
    use erbiumdb::mapping::presets::paper;
    use erbiumdb::storage::CheckpointKind;
    const BOUND: u64 = 32 * 1024;
    for n in [200i64, 4000] {
        let dir = tmpdir(&format!("m6f-delta-{n}"));
        let mut db = Database::open(&dir).unwrap();
        db.execute(EXPERIMENT_DDL).unwrap();
        let schema = db.schema().clone();
        db.install(paper::m6(&schema, CoFormat::Factorized).unwrap()).unwrap();
        let batch = |f: &dyn Fn(i64) -> Vec<(&'static str, Value)>| -> Vec<BulkEntity> {
            (0..n).map(|i| BulkEntity::new(&f(i))).collect()
        };
        db.copy_from("S", &batch(&|i| {
            vec![("s_id", Value::Int(i)), ("s_a", Value::str("s")), ("s_b", Value::Int(i))]
        }))
        .unwrap();
        db.copy_from("S1", &batch(&|i| vec![("s_id", Value::Int(i)), ("s1_no", Value::Int(0))]))
            .unwrap();
        let no_values = || Value::Array(vec![]);
        db.copy_from("R2", &batch(&|i| {
            vec![
                ("r_id", Value::Int(i)),
                ("r_a", Value::str("r")),
                ("r_b", Value::Int(i)),
                ("r_mv1", no_values()),
                ("r_mv2", no_values()),
                ("r_mv3", no_values()),
            ]
        }))
        .unwrap();
        db.transaction(|tx| {
            for i in 1..n {
                tx.link("r2_s1", &[Value::Int(i)], &[Value::Int(i), Value::Int(0)], &[])?;
            }
            Ok(())
        })
        .unwrap();
        db.checkpoint().unwrap();
        let whole = db.catalog().table("r2_s1__co").unwrap().page_count();

        db.link("r2_s1", &[Value::Int(0)], &[Value::Int(0), Value::Int(0)], &[]).unwrap();
        assert_eq!(db.catalog().dirty_table_names(), vec!["r2_s1__co".to_string()]);
        assert_eq!(db.checkpoint().unwrap(), Some(CheckpointKind::Delta { tables: 1 }));
        let newest = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().contains("snapshot.delta."))
            .max_by_key(|p| fs::metadata(p).unwrap().modified().unwrap())
            .expect("a delta file");
        let bytes = fs::metadata(&newest).unwrap().len();
        assert!(bytes < BOUND, "n={n}: the delta holds {bytes} bytes");
        if n == 4000 {
            assert!(whole >= 4, "the link table spans {whole} pages");
        }
        drop(db);
        let db = Database::open(&dir).unwrap();
        let pairs = db.query("SELECT r.r_id, w.s1_no FROM R2 r JOIN S1 w VIA r2_s1").unwrap();
        assert_eq!(pairs.rows.len(), n as usize, "every link survives the delta chain");
        fs::remove_dir_all(&dir).ok();
    }
}
