//! Bulk-ingest fast path: `Database::copy_from`, the `COPY ... FROM`
//! script statement, plan-cache generation semantics around bulk loads,
//! and incremental checkpoint kinds after bulk mutation.
//!
//! Metric assertions use deltas on the process-global registry, serialized
//! through a file-local mutex (tests in this binary share the process).

use erbium_core::{BulkEntity, CheckpointKind, Database, DbError};
use erbium_storage::Value;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const DDL: &str = "
    CREATE ENTITY person (id int KEY, name text, score int);
    CREATE ENTITY mentor EXTENDS person (rank text NULLABLE);
    CREATE RELATIONSHIP guides FROM person MANY TO mentor ONE;
";

fn installed() -> Database {
    let mut db = Database::new();
    db.execute(DDL).unwrap();
    db.install_default().unwrap();
    db
}

fn person(i: i64) -> BulkEntity {
    BulkEntity::new(&[
        ("id", Value::Int(i)),
        ("name", Value::str(format!("p{i}"))),
        ("score", Value::Int(i % 10)),
    ])
}

fn count(db: &Database) -> i64 {
    db.query("SELECT COUNT(*) FROM person p").unwrap().rows[0][0].as_int().unwrap()
}

#[test]
fn copy_from_loads_a_batch_and_rejects_duplicates_atomically() {
    let mut db = installed();
    let batch: Vec<BulkEntity> = (0..100).map(person).collect();
    assert_eq!(db.copy_from("person", &batch).unwrap(), 100);
    assert_eq!(count(&db), 100);

    // A duplicate anywhere in the batch (here: against existing rows)
    // rolls the whole batch back.
    let bad: Vec<BulkEntity> = vec![person(500), person(42)];
    assert!(matches!(db.copy_from("person", &bad).unwrap_err(), DbError::Storage(_)));
    assert_eq!(count(&db), 100, "failed batch left nothing behind");

    // An in-batch duplicate is caught too, before any row lands.
    let bad: Vec<BulkEntity> = vec![person(600), person(600)];
    assert!(db.copy_from("person", &bad).is_err());
    assert_eq!(count(&db), 100);

    assert_eq!(db.copy_from("person", &[]).unwrap(), 0, "empty batch is a no-op");
}

#[test]
fn copy_statement_loads_through_the_script_path() {
    let mut db = installed();
    db.execute(
        "COPY person (id, name, score) FROM VALUES \
         (1, 'ada', 10), (2, 'alan', -5), (3, 'grace', 7);
         SELECT p.name FROM person p",
    )
    .unwrap();
    assert_eq!(count(&db), 3);
    let rows = db
        .query("SELECT p.name FROM person p WHERE p.score < 0")
        .unwrap()
        .rows;
    assert_eq!(rows, vec![vec![Value::str("alan")]]);
}

#[test]
fn bulk_load_invalidates_the_plan_cache_exactly_once() {
    let _g = lock();
    let mut db = installed();
    let batch: Vec<BulkEntity> = (0..50).map(person).collect();
    db.copy_from("person", &batch).unwrap();
    assert!(db.analyze() > 0);

    // Warm the cache and confirm it serves hits.
    let sql = "SELECT p.name FROM person p WHERE p.score = 3";
    db.query(sql).unwrap();
    let warm = db.plan_cache_stats();
    db.query(sql).unwrap();
    assert!(db.plan_cache_stats().hits > warm.hits, "plan cache serves the repeat");

    // One bulk batch refreshes the stats of the touched table and bumps
    // the generation exactly once — not once per row or per table pass.
    let before = db.plan_cache_stats().invalidations;
    let batch: Vec<BulkEntity> = (1000..1500).map(person).collect();
    db.copy_from("person", &batch).unwrap();
    assert_eq!(db.plan_cache_stats().invalidations, before + 1);

    // The refreshed stats are live: estimates reflect the new extent
    // without an intervening ANALYZE.
    let explain = db.explain("SELECT p.name FROM person p").unwrap();
    assert!(explain.contains("[est=550"), "bulk refresh visible in estimates:\n{explain}");
}

#[test]
fn bulk_load_without_analyzed_stats_leaves_the_plan_cache_alone() {
    let _g = lock();
    let mut db = installed();
    let sql = "SELECT p.name FROM person p";
    db.query(sql).unwrap();
    let before = db.plan_cache_stats().invalidations;
    let batch: Vec<BulkEntity> = (0..50).map(person).collect();
    db.copy_from("person", &batch).unwrap();
    assert_eq!(
        db.plan_cache_stats().invalidations,
        before,
        "no stats to refresh → cached plans stay valid (no-stats-until-ANALYZE)"
    );
    let explain = db.explain(sql).unwrap();
    assert!(!explain.contains("[est="), "stats did not appear out of thin air");
}

#[test]
fn fallback_bulk_paths_refresh_stats_and_bump_generation_once() {
    let _g = lock();
    let mut db = Database::new();
    db.execute(
        "CREATE ENTITY course (cid int KEY, title text);
         CREATE RELATIONSHIP sec_of FROM section MANY TOTAL TO course ONE;
         CREATE WEAK ENTITY section OWNED BY course VIA sec_of (sec_no int KEY, room text NULLABLE);
         CREATE ENTITY student (sid int KEY, sname text);
         CREATE ENTITY dorm (did int KEY, dname text);
         CREATE RELATIONSHIP lives_in FROM student MANY TO dorm MANY;",
    )
    .unwrap();
    // Mixed-home mapping: sections fold into course rows (per-instance
    // read-modify-write) and students co-locate with dorms in one
    // denormalized table — both route copy_from through the per-instance
    // fallback rather than the batched path.
    let mapping = {
        use erbium_core::mapping::{presets, CoFormat};
        let m = presets::normalized(db.schema());
        let m = presets::fold_weak(m, db.schema(), "section").unwrap();
        presets::colocate(m, db.schema(), "lives_in", CoFormat::Denormalized).unwrap()
    };
    db.install(mapping).unwrap();

    let courses: Vec<BulkEntity> = (0..8)
        .map(|i| BulkEntity::new(&[("cid", Value::Int(i)), ("title", Value::str(format!("c{i}")))]))
        .collect();
    db.copy_from("course", &courses).unwrap();
    assert!(db.analyze() > 0);
    db.query("SELECT c.title FROM course c").unwrap();

    // Folded-weak fallback: the batch rewrites course rows in place. One
    // batch must refresh the owner table's stats and bump the plan-cache
    // generation exactly once — not zero times (the old bug: the fallback
    // reported no touched tables) and not once per instance.
    let sections: Vec<BulkEntity> = (0..20)
        .map(|i| {
            BulkEntity::new(&[
                ("cid", Value::Int(i % 8)),
                ("sec_no", Value::Int(i)),
                ("room", Value::str(format!("r{i}"))),
            ])
        })
        .collect();
    let before = db.plan_cache_stats().invalidations;
    db.copy_from("section", &sections).unwrap();
    assert_eq!(
        db.plan_cache_stats().invalidations,
        before + 1,
        "folded-weak fallback bumps the generation exactly once per batch"
    );

    // Co-located fallback: rows land in the denormalized table, so the
    // refreshed statistics are live without another ANALYZE.
    let students: Vec<BulkEntity> = (0..40)
        .map(|i| BulkEntity::new(&[("sid", Value::Int(i)), ("sname", Value::str(format!("s{i}")))]))
        .collect();
    let before = db.plan_cache_stats().invalidations;
    db.copy_from("student", &students).unwrap();
    assert_eq!(
        db.plan_cache_stats().invalidations,
        before + 1,
        "co-located fallback bumps the generation exactly once per batch"
    );
    let co = erbium_core::mapping::presets::co_table("lives_in");
    let stats = db.catalog().table_stats(&co).expect("co-located table was analyzed");
    assert_eq!(stats.row_count, 40, "fallback refresh is live in the stats");
}

#[test]
fn ingest_rows_counter_counts_bulk_loaded_instances() {
    let _g = lock();
    let c = erbium_core::obs::Registry::global().counter("erbium_ingest_rows_total", "");
    let before = c.get();
    let mut db = installed();
    let batch: Vec<BulkEntity> = (0..37).map(person).collect();
    db.copy_from("person", &batch).unwrap();
    assert!(c.get() >= before + 37, "counter advanced by at least the batch size");
}

#[test]
fn checkpoints_after_bulk_loads_are_deltas_and_recovery_chains_them() {
    let dir = std::env::temp_dir()
        .join(format!("erbium-bulk-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir).unwrap();
    db.execute(DDL).unwrap();
    db.install_default().unwrap(); // structural → full base snapshot

    let batch: Vec<BulkEntity> = (0..40).map(person).collect();
    db.copy_from("person", &batch).unwrap();
    assert_eq!(
        db.checkpoint().unwrap(),
        Some(CheckpointKind::Delta { tables: 1 }),
        "bulk load dirties one table → one-table delta"
    );
    // Nothing changed since: the next checkpoint is an empty delta (it
    // still carries the authoritative txn horizon, making WAL truncation
    // safe), not a full rewrite.
    assert_eq!(
        db.checkpoint().unwrap(),
        Some(CheckpointKind::Delta { tables: 0 })
    );
    let batch: Vec<BulkEntity> = (40..70).map(person).collect();
    db.copy_from("person", &batch).unwrap();
    drop(db); // un-checkpointed suffix stays in the WAL

    // Recovery chains base + deltas + WAL suffix.
    let db = Database::open(&dir).unwrap();
    assert_eq!(count(&db), 70);
    std::fs::remove_dir_all(&dir).ok();
}
