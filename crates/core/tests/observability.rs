//! End-to-end observability tests: tracing spans across the query
//! lifecycle, the Prometheus-text metrics export, the slow-query log, and
//! — the headline regression — optimizer statistics surviving a durable
//! checkpoint/recovery cycle.
//!
//! The metrics registry and tracer are process-wide singletons, so every
//! test (a) serializes on a shared mutex and (b) asserts on counter
//! *deltas*, never absolute values.

use erbium_core::engine::ExecContext;
use erbium_core::{obs, BulkEntity, CheckpointKind, Database, ObservabilityOptions};
use erbium_storage::Value;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests that flip global tracer state or assert counter deltas.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("erbium-obs-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

const DDL: &str = "
    CREATE ENTITY person (id int KEY, name text, score int);
    CREATE ENTITY mentor EXTENDS person (rank text NULLABLE);
    CREATE RELATIONSHIP guides FROM person MANY TO mentor ONE;
";

fn populate(db: &mut Database, n: i64) {
    db.execute(DDL).unwrap();
    db.install_default().unwrap();
    for i in 0..n {
        db.insert(
            "person",
            &[
                ("id", Value::Int(i)),
                ("name", Value::str(format!("p{i}"))),
                ("score", Value::Int(i % 10)),
            ],
        )
        .unwrap();
    }
}

/// Fetch a registered counter by name (the registry hands back the existing
/// instance; the help string only matters on first registration).
fn counter(name: &'static str) -> std::sync::Arc<obs::Counter> {
    obs::Registry::global().counter(name, "")
}

// ---- headline regression: stats survive checkpoint + recovery --------------

/// The PR-4 bug: `ANALYZE` → `checkpoint()` → reopen silently dropped
/// `CatalogStats`, so every cost-based pass disabled itself after a restart
/// (and nothing reported it). Now stats ride in the snapshot: after reopen
/// EXPLAIN still annotates `[est=N]`, the CBO-applied counter still ticks,
/// and `stats_missing` stays flat.
#[test]
fn optimizer_stats_survive_checkpoint_and_reopen() {
    let _g = lock();
    let dir = tmpdir("stats");
    let mut db = Database::open(&dir).unwrap();
    populate(&mut db, 60);
    assert!(db.analyze() > 0, "analyze gathers stats");
    let restored_before = counter("erbium_recovery_stats_restored_total").get();
    db.checkpoint().unwrap();
    drop(db);

    let db = Database::open(&dir).unwrap();
    assert!(
        counter("erbium_recovery_stats_restored_total").get() > restored_before,
        "recovery restored gathered statistics from the snapshot"
    );

    // Cost-based planning still works after the restart: EXPLAIN carries
    // row estimates, and planning exercises the CBO branch without a
    // single stats_missing event. Counters are read before the EXPLAIN —
    // the query() below reuses its cached plan rather than re-optimizing.
    let missing_before = counter("erbium_optimizer_stats_missing_total").get();
    let cbo_before = counter("erbium_optimizer_cbo_applied_total").get();
    let explain = db.explain("SELECT p.name FROM person p WHERE p.score = 3").unwrap();
    assert!(explain.contains("[est="), "estimates survive reopen:\n{explain}");
    let rows = db.query("SELECT p.name FROM person p WHERE p.score = 3").unwrap().rows;
    assert_eq!(rows.len(), 6);
    assert_eq!(
        counter("erbium_optimizer_stats_missing_total").get(),
        missing_before,
        "no stats_missing events after recovery"
    );
    assert!(
        counter("erbium_optimizer_cbo_applied_total").get() > cbo_before,
        "cost-based passes fired after recovery"
    );

    // PR-9 extension: the same guarantee holds across a base+delta chain.
    // A bulk load dirties only `person`, so the next checkpoint writes an
    // delta instead of a full snapshot; recovery then chains
    // base + delta, and the (bulk-refreshed) statistics still ride along.
    let mut db = db;
    let batch: Vec<BulkEntity> = (60..90)
        .map(|i| {
            BulkEntity::new(&[
                ("id", Value::Int(i)),
                ("name", Value::str(format!("p{i}"))),
                ("score", Value::Int(i % 10)),
            ])
        })
        .collect();
    db.copy_from("person", &batch).unwrap();
    let delta_before = counter("erbium_checkpoint_delta_tables").get();
    let kind = db.checkpoint().unwrap();
    assert_eq!(
        kind,
        Some(CheckpointKind::Delta { tables: 1 }),
        "only the bulk-loaded table goes into the delta"
    );
    assert_eq!(counter("erbium_checkpoint_delta_tables").get(), delta_before + 1);
    drop(db);

    let db = Database::open(&dir).unwrap();
    let missing_before = counter("erbium_optimizer_stats_missing_total").get();
    let explain = db.explain("SELECT p.name FROM person p WHERE p.score = 3").unwrap();
    assert!(explain.contains("[est="), "estimates survive base+delta recovery:\n{explain}");
    let rows = db.query("SELECT p.name FROM person p WHERE p.score = 3").unwrap().rows;
    assert_eq!(rows.len(), 9, "60 + 30 bulk rows, score uniform mod 10");
    assert_eq!(
        counter("erbium_optimizer_stats_missing_total").get(),
        missing_before,
        "no stats_missing events after base+delta recovery"
    );
    fs::remove_dir_all(&dir).ok();
}

/// `stats_missing` is the alarm for statistics lost in recovery, so it must
/// only count plans of the database itself. The advisor optimizes every
/// workload query under every candidate cover on a phantom catalog; those
/// catalogs carry synthesized statistics, so asking for advice on a live,
/// never-ANALYZEd database leaves the counter flat while the cost-based
/// passes run on every candidate.
#[test]
fn advise_does_not_trip_the_stats_missing_alarm() {
    let _g = lock();
    let mut db = Database::new();
    populate(&mut db, 30);
    let wl = erbium_core::advisor::Workload::new()
        .query("SELECT p.name FROM person p WHERE p.score = 3")
        .unwrap()
        .query("SELECT m.name, m.rank FROM mentor m")
        .unwrap();
    let missing_before = counter("erbium_optimizer_stats_missing_total").get();
    let cbo_before = counter("erbium_optimizer_cbo_applied_total").get();
    let rec = db.advise(&wl).unwrap();
    assert!(rec.candidates_evaluated > 1, "the search costed several candidates");
    assert_eq!(
        counter("erbium_optimizer_stats_missing_total").get(),
        missing_before,
        "advice is not a stats-loss event"
    );
    assert!(counter("erbium_optimizer_cbo_applied_total").get() > cbo_before);
}

// ---- tracing ---------------------------------------------------------------

#[test]
fn tracing_spans_cover_the_query_lifecycle() {
    let _g = lock();
    let dir = tmpdir("trace");
    let trace_file = dir.join("trace.jsonl");
    let mut db = Database::new();
    populate(&mut db, 20);

    db.configure_observability(ObservabilityOptions {
        tracing: true,
        trace_file: Some(trace_file.clone()),
        ..Default::default()
    })
    .unwrap();
    obs::Tracer::global().clear();
    db.query("SELECT p.name FROM person p WHERE p.score = 1").unwrap();
    // Tear down global tracing before asserting so a failure can't leak
    // an enabled tracer into other tests.
    db.configure_observability(ObservabilityOptions::default()).unwrap();

    let spans = obs::Tracer::global().recent_spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    for expected in ["query", "parse", "plan", "optimize", "execute"] {
        assert!(names.contains(&expected), "missing span {expected:?} in {names:?}");
    }
    // Every lifecycle span carries the same query id as the enclosing
    // "query" span — that is what makes the JSONL stream groupable.
    let qid = spans.iter().find(|s| s.name == "query").unwrap().query_id;
    assert!(qid > 0);
    for s in spans.iter().filter(|s| ["parse", "plan", "optimize", "execute"].contains(&s.name)) {
        assert_eq!(s.query_id, qid, "span {} not correlated", s.name);
    }
    // The "query" span records the submitted SQL as its detail.
    let q = spans.iter().find(|s| s.name == "query").unwrap();
    assert!(q.detail.as_deref().unwrap_or("").contains("SELECT p.name"));

    // And the same records landed in the JSONL sink, one object per line.
    let text = fs::read_to_string(&trace_file).unwrap();
    assert!(text.lines().count() >= 5, "jsonl lines:\n{text}");
    assert!(text.contains(r#""span":"query""#) && text.contains(r#""span":"execute""#));
    assert!(text.contains(&format!(r#""qid":{qid}"#)));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_tracing_records_nothing() {
    let _g = lock();
    let db = {
        let mut db = Database::new();
        populate(&mut db, 5);
        db
    };
    db.configure_observability(ObservabilityOptions::default()).unwrap();
    obs::Tracer::global().clear();
    db.query("SELECT p.name FROM person p").unwrap();
    assert!(obs::Tracer::global().recent_spans().is_empty());
}

// ---- metrics export --------------------------------------------------------

#[test]
fn metrics_text_exports_engine_wal_and_pool_families() {
    let _g = lock();
    let dir = tmpdir("metrics");
    let mut db = Database::open(&dir).unwrap();
    populate(&mut db, 300);
    db.analyze();
    // A bulk batch plus a second checkpoint: `install_default` already
    // wrote the full base snapshot, so this one is an incremental delta —
    // both the ingest and the delta-checkpoint counters tick.
    db.copy_from(
        "person",
        &[BulkEntity::new(&[
            ("id", Value::Int(9000)),
            ("name", Value::str("bulk")),
            ("score", Value::Int(0)),
        ])],
    )
    .unwrap();
    db.checkpoint().unwrap();
    // Force morsel-parallel execution so the pool metrics tick.
    let ctx = ExecContext::new().with_threads(2).with_morsel_size(32);
    db.query_with("SELECT p.name FROM person p WHERE p.score < 9", &ctx).unwrap();

    let text = db.metrics_text();
    let expected = [
        // engine / query lifecycle
        "erbium_queries_total",
        "erbium_query_seconds",
        "erbium_rows_scanned_total",
        "erbium_rows_emitted_total",
        "erbium_optimizer_cbo_applied_total",
        "erbium_optimizer_stats_missing_total",
        // WAL / checkpoint / recovery
        "erbium_wal_bytes_total",
        "erbium_wal_fsync_seconds",
        "erbium_checkpoints_total",
        "erbium_checkpoint_delta_tables",
        "erbium_recoveries_total",
        // bulk ingest
        "erbium_ingest_rows_total",
        // buffer pool (registered eagerly at pool construction)
        "erbium_bufferpool_hits_total",
        "erbium_bufferpool_misses_total",
        "erbium_bufferpool_evictions_total",
        "erbium_bufferpool_dirty_writebacks_total",
        // worker pool
        "erbium_pool_waves_total",
        "erbium_pool_jobs_total",
        "erbium_pool_workers",
    ];
    for name in expected {
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "metric {name} missing from export:\n{text}"
        );
    }
    assert!(expected.len() >= 10, "export spans at least ten distinct metrics");
    // Histograms render cumulative buckets plus sum/count.
    assert!(text.contains("erbium_query_seconds_bucket{le="));
    assert!(text.contains("erbium_query_seconds_count"));
    fs::remove_dir_all(&dir).ok();
}

// ---- slow-query log --------------------------------------------------------

#[test]
fn slow_query_log_captures_plan_digest_metrics_and_q_error() {
    let _g = lock();
    let mut db = Database::new();
    populate(&mut db, 50);
    db.analyze();

    // Threshold zero → every query is "slow": useful for workload capture.
    db.configure_observability(ObservabilityOptions {
        slow_query_threshold: Some(Duration::ZERO),
        ..Default::default()
    })
    .unwrap();
    let slow_before = counter("erbium_slow_queries_total").get();
    db.query("SELECT p.name FROM person p WHERE p.score = 2").unwrap();
    db.query("SELECT p.name FROM person p WHERE p.score = 2").unwrap();
    db.query("SELECT p.name FROM person p").unwrap();

    let records = db.slow_queries();
    assert_eq!(records.len(), 3);
    assert_eq!(counter("erbium_slow_queries_total").get(), slow_before + 3);
    let r = &records[0];
    assert!(r.sql.contains("p.score = 2"));
    assert!(r.query_id > 0);
    // Same plan ⇒ same digest (the grouping key for workload analysis);
    // a structurally different plan digests differently.
    assert_eq!(records[0].plan_digest, records[1].plan_digest);
    assert_ne!(records[0].plan_digest, records[2].plan_digest);
    // The metrics tree is populated and annotated against ANALYZE stats,
    // so a worst-case q-error is derivable.
    assert!(r.metrics.rows_out > 0 || !r.metrics.children.is_empty());
    let q = r.max_q_error.expect("stats were gathered, q-error must exist");
    assert!(q >= 1.0 && q.is_finite(), "q-error={q}");

    // Disabling capture stops recording (existing records are retained).
    db.configure_observability(ObservabilityOptions::default()).unwrap();
    db.query("SELECT p.name FROM person p").unwrap();
    assert_eq!(db.slow_queries().len(), 3);
}

#[test]
fn explain_is_excluded_from_query_counters() {
    let _g = lock();
    let mut db = Database::new();
    populate(&mut db, 10);
    let before = counter("erbium_queries_total").get();
    db.query("EXPLAIN SELECT p.name FROM person p").unwrap();
    assert_eq!(counter("erbium_queries_total").get(), before);
    db.query("SELECT p.name FROM person p").unwrap();
    assert_eq!(counter("erbium_queries_total").get(), before + 1);
}
