//! A prepared `?` template answers exactly like the same text with the
//! value inlined, under every paper mapping, and its cached plan keeps the
//! index access path the literal text gets: a key lookup stays an
//! `IndexLookup`, and a comparison on a BTree-indexed column stays an
//! `IndexRange`, with NULL handled when the value is bound.

use erbium_core::{Database, Value};
use erbium_datagen::{populate_experiment, ExperimentConfig};
use erbium_engine::{bind_params, execute_streaming, ExecContext};
use erbium_mapping::presets::paper;
use erbium_mapping::{CoFormat, Lowering, Mapping};
use erbium_model::fixtures;
use erbium_storage::{Catalog, IndexKind, Row};

/// Templates, each with the access path its cached plan must keep, and
/// whether its plan reads no table by scanning. A subclass read still joins
/// its root by scanning it under the normalized mapping, and a key read's
/// leaves must read exactly the rows they emit. `r1_a` is NULL on every
/// non-R1 row of a merged hierarchy table.
const TEMPLATES: &[(&str, &str, bool)] = &[
    ("SELECT r.r_a, r.r_b FROM R r WHERE r.r_id = ?", "IndexLookup", true),
    ("SELECT s.s_a, s.s_b FROM S s WHERE s.s_id = ?", "IndexLookup", true),
    ("SELECT x.r1_a FROM R1 x WHERE x.r_id = ?", "IndexLookup", false),
    ("SELECT r.r_id FROM R r WHERE r.r_b < ?", "IndexRange", true),
    ("SELECT r.r_id FROM R r WHERE ? <= r.r_b", "IndexRange", true),
    ("SELECT x.r_id FROM R1 x WHERE x.r1_a < ?", "IndexRange", false),
];

fn mappings() -> Vec<Mapping> {
    let s = fixtures::experiment();
    vec![
        paper::m1(&s),
        paper::m2(&s),
        paper::m3(&s),
        paper::m4(&s),
        paper::m5(&s).unwrap(),
        paper::m6(&s, CoFormat::Denormalized).unwrap(),
        paper::m6(&s, CoFormat::Factorized).unwrap(),
    ]
}

/// The tiny experiment instance under `m`, with a BTree index on every
/// `r_b` and `r1_a` column when `btree` is set.
fn database(m: &Mapping, btree: bool) -> Database {
    let lw = Lowering::build(&fixtures::experiment(), m).unwrap();
    let mut cat = Catalog::new();
    lw.install(&mut cat).unwrap();
    if btree {
        for name in cat.table_names() {
            let t = cat.table_mut(&name).unwrap();
            for col in ["r_b", "r1_a"] {
                if let Some(i) = t.schema().column_index(col) {
                    t.create_index(format!("{name}_{col}_bt"), vec![i], IndexKind::BTree)
                        .unwrap();
                }
            }
        }
    }
    populate_experiment(&mut cat, &lw, &ExperimentConfig::tiny()).unwrap();
    Database::from_parts(cat, lw)
}

/// The SQL spelling of a bound value, for the inlined twin of a template.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Float(x) => format!("{x:.1}"),
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Int, an integral Float (equal to the Int under the Int/Float contract),
/// a Str, NULL, and a key no row has.
fn bound_values() -> Vec<Value> {
    vec![Value::Int(7), Value::Float(7.0), Value::str("7"), Value::Null, Value::Int(999_999)]
}

#[test]
fn prepared_templates_keep_their_index_and_answer_like_literals() {
    for m in mappings() {
        // `plain` has only the mapping's own (hash) indexes, so its range
        // answers come from scans: the oracle for the indexed database.
        let plain = database(&m, false);
        let db = database(&m, true);
        for &(tpl, path, scan_free) in TEMPLATES {
            let template = db.plan(tpl).unwrap();
            let explain = template.explain();
            assert!(explain.contains(path), "{} {tpl}:\n{explain}", m.name);
            assert!(!scan_free || !explain.contains("Scan"), "{} {tpl}:\n{explain}", m.name);
            for v in bound_values() {
                let text = tpl.replace('?', &literal(&v));
                let want = sorted(plain.query(&text).unwrap().rows);
                let lit = sorted(db.query(&text).unwrap().rows);
                let prep = sorted(db.query_params(tpl, std::slice::from_ref(&v)).unwrap().rows);
                assert_eq!(lit, want, "{} {text}", m.name);
                assert_eq!(prep, want, "{} {tpl} bound to {v:?}", m.name);
                if scan_free && v == Value::Int(7) {
                    assert!(!want.is_empty(), "{} {text} selects nothing", m.name);
                }

                if scan_free && path == "IndexLookup" {
                    // Every leaf reads exactly the rows it emits: no scan.
                    let bound = bind_params(&template, std::slice::from_ref(&v)).unwrap();
                    let mut stream =
                        execute_streaming(&bound, db.catalog(), &ExecContext::default()).unwrap();
                    stream.drain().unwrap();
                    let metrics = stream.metrics();
                    for l in metrics.leaves() {
                        let tree = metrics.render();
                        assert_eq!(l.rows_in, l.rows_out, "{} {tpl} {v:?}:\n{tree}", m.name);
                    }
                }
            }
        }
    }
}
