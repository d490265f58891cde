//! Required-column narrowing and cross-side join keys on the paper's
//! unnest experiments, under all seven preset mappings.
//!
//! Under M2, E2 and E4 scan only the columns of `R` they read, so the
//! unread arrays are never copied through the unnests. Under the mappings
//! with side tables, E4's `UNNEST(r_mv1) = UNNEST(r_mv2)` is a second key
//! of the join on the owner key, not a filter above it. Each answer equals
//! M2's on a fixture whose arrays hold NULL, NaN, 0.0 and -0.0, and 3
//! against 3.0.

use erbium_core::{Database, Value};
use erbium_datagen::{populate_experiment, ExperimentConfig};
use erbium_mapping::presets::paper;
use erbium_mapping::{CoFormat, Lowering, Mapping};
use erbium_model::{fixtures, AttrType, ErSchema, ScalarType};
use erbium_storage::Catalog;

const E2: &str = "SELECT UNNEST(r.r_mv1) FROM R r";
const E4: &str = "SELECT r.r_id, UNNEST(r.r_mv1) AS v FROM R r \
                  WHERE UNNEST(r.r_mv1) = UNNEST(r.r_mv2)";

/// The experiment schema with float-valued `r_mv1` and `r_mv2`, so NaN and
/// signed zeros can be stored.
fn schema() -> ErSchema {
    let mut s = fixtures::experiment();
    let r = s.entity_mut("R").expect("experiment schema has R");
    for a in r.attributes.iter_mut().filter(|a| a.name == "r_mv1" || a.name == "r_mv2") {
        a.ty = AttrType::Scalar(ScalarType::Float);
    }
    s
}

fn mappings(s: &ErSchema) -> Vec<(&'static str, Mapping)> {
    vec![
        ("M1", paper::m1(s)),
        ("M2", paper::m2(s)),
        ("M3", paper::m3(s)),
        ("M4", paper::m4(s)),
        ("M5", paper::m5(s).unwrap()),
        ("M6d", paper::m6(s, CoFormat::Denormalized).unwrap()),
        ("M6f", paper::m6(s, CoFormat::Factorized).unwrap()),
    ]
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Float(x)).collect())
}

/// The tiny experiment instance under `m`, with the edge values written
/// into three `R` instances.
fn database(s: &ErSchema, m: &Mapping) -> Database {
    let lw = Lowering::build(s, m).unwrap();
    let mut cat = Catalog::new();
    lw.install(&mut cat).unwrap();
    populate_experiment(&mut cat, &lw, &ExperimentConfig::tiny()).unwrap();
    let mut db = Database::from_parts(cat, lw);
    let (nan, null) = (Value::Float(f64::NAN), Value::Null);
    let edge: [(i64, Value, Value); 3] = [
        (
            1,
            Value::Array(vec![null.clone(), nan.clone(), Value::Float(-0.0), Value::Int(3)]),
            Value::Array(vec![nan, Value::Float(0.0), Value::Float(3.0), null]),
        ),
        (2, floats(&[0.0, -0.0]), floats(&[-0.0, 5.0])),
        (3, Value::Array(vec![Value::Null]), Value::Array(vec![Value::Null])),
    ];
    for (id, mv1, mv2) in edge {
        db.update_entity("R", &[Value::Int(id)], &[("r_mv1", mv1), ("r_mv2", mv2)]).unwrap();
    }
    db
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

#[test]
fn m2_unnests_scan_only_the_arrays_they_read() {
    let s = schema();
    let db = database(&s, &paper::m2(&s));
    let e2 = db.explain(E2).unwrap();
    assert!(e2.contains("Scan R [cols=r_mv1]\n"), "{e2}");
    let e4 = db.explain(E4).unwrap();
    assert!(e4.contains("Scan R [cols=r_id,r_mv1,r_mv2]\n"), "{e4}");
}

#[test]
fn side_table_e4_joins_on_owner_and_value() {
    let s = schema();
    for (name, m) in mappings(&s) {
        if matches!(name, "M2" | "M3" | "M6d") {
            continue; // no side tables for r_mv1 and r_mv2 to join
        }
        let plan = database(&s, &m).explain(E4).unwrap();
        assert!(!plan.contains("Filter"), "{name}: a filter is left:\n{plan}");
        let two_keys = plan.lines().map(str::trim_start).any(|l| {
            l.starts_with("Join Inner on [#") && l.split(" = ").all(|k| k.matches('#').count() == 2)
        });
        assert!(two_keys, "{name}: no two-key join:\n{plan}");
    }
}

#[test]
fn e2_and_e4_answers_match_m2_on_edge_values() {
    let s = schema();
    let answers = |db: &Database, q: &str| sorted(db.query(q).unwrap().rows);
    let m2 = database(&s, &paper::m2(&s));
    let (e2, e4) = (answers(&m2, E2), answers(&m2, E4));
    // NaN equals NaN and 3 equals 3.0; 0.0 and -0.0 differ; NULL never
    // matches.
    let edge: Vec<&Vec<Value>> = e4.iter().filter(|r| matches!(r[0], Value::Int(1..=3))).collect();
    let want = [
        vec![Value::Int(1), Value::Float(3.0)],
        vec![Value::Int(1), Value::Float(f64::NAN)],
        vec![Value::Int(2), Value::Float(-0.0)],
    ];
    assert_eq!(edge, want.iter().collect::<Vec<_>>(), "{e4:?}");
    for (name, m) in mappings(&s) {
        let db = database(&s, &m);
        assert_eq!(answers(&db, E2), e2, "E2 under {name}");
        assert_eq!(answers(&db, E4), e4, "E4 under {name}");
    }
}
