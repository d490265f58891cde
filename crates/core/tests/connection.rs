//! The transport-independent [`Connection`] API on the embedded handles:
//! prepared `?`-templates through the plan cache (hit-rate and
//! zero-reparse guarantees), strict parameter arity, session-scoped
//! `set_option` isolation, and transactions/snapshots written once against
//! the trait and run against both `Database` and `SharedDatabase`.

use erbium_core::{Connection, Database, DbError, ReadSession, Rows};
use erbium_storage::Value;
use std::sync::Mutex;

/// Serializes tests that flip the process-wide tracer.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

const DDL: &str = "
    CREATE ENTITY person (id int KEY, name text, score int);
    CREATE ENTITY mentor EXTENDS person (rank text NULLABLE);
    CREATE RELATIONSHIP guides FROM person MANY TO mentor ONE;
";

fn seeded() -> Database {
    let mut db = Database::new();
    db.execute(DDL).unwrap();
    db.install_default().unwrap();
    for i in 0..50 {
        db.insert(
            "person",
            &[
                ("id", Value::Int(i)),
                ("name", Value::str(format!("p{i}"))),
                ("score", Value::Int(i * 10)),
            ],
        )
        .unwrap();
    }
    db
}

/// The whole point of the trait: one workload source, any transport. This
/// function is written purely against `Connection` and is run below
/// against both embedded handles (the server smoke binary runs the same
/// shape against `RemoteClient`).
fn workload<C: Connection>(conn: &mut C) {
    conn.transaction(|tx| {
        tx.insert(
            "person",
            &[("id", Value::Int(1000)), ("name", Value::str("tx")), ("score", Value::Int(7))],
        )
    })
    .unwrap();

    let rows = conn.query("SELECT p.name FROM person p WHERE p.id = 1000").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::str("tx")]]);

    let rows = conn
        .query_params("SELECT p.name FROM person p WHERE p.id = ?", &[Value::Int(1000)])
        .unwrap();
    assert_eq!(rows.rows, vec![vec![Value::str("tx")]]);

    let stmt = conn.prepare("SELECT p.score FROM person p WHERE p.id = ?").unwrap();
    let a = conn.execute_prepared(&stmt, &[Value::Int(3)]).unwrap();
    let b = conn.execute_prepared(&stmt, &[Value::Int(4)]).unwrap();
    assert_eq!(a.rows, vec![vec![Value::Int(30)]]);
    assert_eq!(b.rows, vec![vec![Value::Int(40)]]);

    // A snapshot pins state: a write committed after it is invisible to
    // it but visible to a fresh query on the connection.
    let mut snap = conn.snapshot().unwrap();
    conn.transaction(|tx| tx.delete_entity("person", &[Value::Int(1000)])).unwrap();
    let pinned = snap.query("SELECT p.name FROM person p WHERE p.id = 1000").unwrap();
    assert_eq!(pinned.rows.len(), 1);
    let live = conn.query("SELECT p.name FROM person p WHERE p.id = 1000").unwrap();
    assert_eq!(live.rows.len(), 0);

    conn.set_option("threads", "1").unwrap();
    conn.set_option("batch_size", "64").unwrap();
    let rows: Rows = conn.query("SELECT COUNT(*) FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
}

#[test]
fn workload_runs_against_database() {
    workload(&mut seeded());
}

#[test]
fn workload_runs_against_shared_database() {
    workload(&mut seeded().into_shared());
}

#[test]
fn prepared_template_caches_once() {
    let mut db = seeded();
    let before = db.cache_stats().unwrap();

    // `prepare` plans the template (one miss, seeding the cache); every
    // execute after that — whatever the bound values — must hit.
    let stmt = db.prepare("SELECT p.name FROM person p WHERE p.score > ?").unwrap();
    const N: u64 = 10;
    for i in 0..N {
        db.execute_prepared(&stmt, &[Value::Int(i as i64 * 50)]).unwrap();
    }

    let after = db.cache_stats().unwrap();
    assert_eq!(after.misses - before.misses, 1, "template must plan exactly once");
    assert_eq!(after.hits - before.hits, N, "every execute must be a cache hit");
}

#[test]
fn query_params_reuses_template_plan() {
    let mut db = seeded();
    let before = db.cache_stats().unwrap();
    // Same effect without explicit prepare: the `?`-text is the cache key,
    // so repeated query_params of one template replan nothing.
    for i in 0..5 {
        let rows = db
            .query_params("SELECT p.name FROM person p WHERE p.id = ?", &[Value::Int(i)])
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str(format!("p{i}"))]]);
    }
    let after = db.cache_stats().unwrap();
    assert_eq!(after.misses - before.misses, 1);
    assert_eq!(after.hits - before.hits, 4);
}

#[test]
fn prepared_executes_never_reparse() {
    let _g = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = seeded();
    // A template text no other test sends: the tracer is process-wide and
    // other tests in this binary run queries concurrently, so only spans of
    // this text's query ids are counted.
    const SQL: &str = "SELECT nr.name FROM person nr WHERE nr.id = ?";
    let stmt = db.prepare(SQL).unwrap();

    let tracer = erbium_core::obs::Tracer::global();
    tracer.set_enabled(true);
    tracer.clear();
    for i in 0..8 {
        db.execute_prepared(&stmt, &[Value::Int(i)]).unwrap();
    }
    let spans = tracer.recent_spans();
    tracer.set_enabled(false);

    let ours: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "query" && s.detail.as_deref() == Some(SQL))
        .map(|s| s.query_id)
        .collect();
    assert_eq!(ours.len(), 8, "one query id per execute");
    let names: Vec<&str> =
        spans.iter().filter(|s| ours.contains(&s.query_id)).map(|s| s.name).collect();
    assert!(
        !names.contains(&"parse") && !names.contains(&"plan"),
        "prepared execution must skip parse and plan entirely, saw spans: {names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| **n == "execute").count(),
        8,
        "each execute must still record an execute span"
    );
}

#[test]
fn param_arity_is_strict_both_directions() {
    let db = seeded();
    // Too few values for the template.
    let err = db
        .query_params("SELECT p.name FROM person p WHERE p.id = ? AND p.score = ?", &[
            Value::Int(1),
        ])
        .unwrap_err();
    assert!(matches!(err, DbError::Engine(_)), "got {err:?}");
    assert!(err.to_string().contains("expects 2 parameter(s), got 1"), "{err}");

    // Values supplied to a parameterless statement.
    let err = db
        .query_params("SELECT p.name FROM person p WHERE p.id = 1", &[Value::Int(1)])
        .unwrap_err();
    assert!(err.to_string().contains("expects 0 parameter(s), got 1"), "{err}");

    // Executing a `?`-template with no values at all is the same arity
    // error, not an execution-time surprise.
    let err = db.query("SELECT p.name FROM person p WHERE p.id = ?").unwrap_err();
    assert!(err.to_string().contains("expects 1 parameter(s), got 0"), "{err}");
}

#[test]
fn bound_params_match_literal_results() {
    let db = seeded();
    let lit = db.query("SELECT p.name, p.score FROM person p WHERE p.score > 400").unwrap();
    let bound = db
        .query_params("SELECT p.name, p.score FROM person p WHERE p.score > ?", &[Value::Int(
            400,
        )])
        .unwrap();
    assert_eq!(lit.rows, bound.rows);
    assert!(!lit.rows.is_empty());
}

#[test]
fn set_option_is_session_scoped() {
    let shared = seeded().into_shared();

    // Two sessions over the same database: a clone of the handle.
    let mut a = shared.clone();
    let mut b = shared.clone();

    a.set_option("threads", "1").unwrap();
    a.set_option("batch_size", "7").unwrap();

    // Session B and a third, later session still see the defaults: the
    // override lives in A's handle, not in any shared or global state.
    let defaults = erbium_core::engine::ExecContext::default();
    let mut c = shared.clone();
    for conn in [&mut b, &mut c] {
        let rows = conn.query("SELECT COUNT(*) FROM person p").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
    }
    assert_eq!(erbium_core::engine::ExecContext::default().threads, defaults.threads);

    // A's own reads run with its overrides and still give the same answer
    // (parallelism never changes results).
    let rows = a.query("SELECT COUNT(*) FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);

    // Unknown keys and malformed values are rejected.
    assert!(a.set_option("wal_voodoo", "1").is_err());
    assert!(a.set_option("threads", "zero").is_err());
    assert!(a.set_option("threads", "0").is_err());
}

#[test]
fn prepare_rejects_bad_sql_eagerly() {
    let mut db = seeded();
    let err = db.prepare("SELECT FROM WHERE").unwrap_err();
    assert!(matches!(err, DbError::Parse(_)), "got {err:?}");
    let err = db.prepare("SELECT x.nope FROM person x WHERE x.id = ?").unwrap_err();
    assert!(matches!(err, DbError::Mapping(_)), "got {err:?}");
}
