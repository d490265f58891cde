//! Parallel-execution invariance: the streaming executor guarantees
//! **bit-identical** results regardless of thread count, morsel size or
//! batch size (see `DESIGN.md` §9 — morsel-ordered reassembly,
//! chunk-ordered aggregate merges over fixed chunk boundaries), and its
//! vectorized scans — the one kernel every join build and aggregate
//! drains — agree with the plan's row-store twin, `row_store_twin` (§11 —
//! the kernels reproduce slot visit order and `Value::cmp` semantics
//! exactly). This sweep pins both across every parallel operator family on
//! the paper's mappings M1–M6:
//!
//! * scan + fused Filter/Project chains,
//! * hash-join build and morsel-partitioned probe,
//! * partial aggregation with and without GROUP BY (COUNT/SUM/AVG/MIN/MAX,
//!   group-order-sensitive single and multiple keys),
//! * LIMIT early-exit above a parallel scan,
//! * cancellation mid-wave,
//!
//! plus a many-threads stress test hammering one `Database` from
//! concurrent `query_with` callers.

use erbium_datagen::{experiment_database, ExperimentConfig};
use erbiumdb::core::Database;
use erbiumdb::engine::{execute_streaming, EngineError, ExecContext, Plan, PlanKind};
use erbiumdb::mapping::presets::paper;
use erbiumdb::mapping::CoFormat;
use erbiumdb::model::fixtures;
use erbiumdb::storage::{Catalog, Value};

/// The row-store twin of `plan`: every `Scan { table, filters, projection }`
/// leaf becomes `Values` holding the rows `Table::scan` yields (the row
/// pages, not the column mirror), one `Filter` per pushed-down filter in
/// order, then a `Project` of the `projection` columns. Other leaves stay.
/// The twin runs no vector kernel or fused chain — both need a `Scan`
/// leaf — so it is the row-at-a-time answer the vectorized plan must
/// reproduce bit for bit.
fn row_store_twin(plan: &Plan, cat: &Catalog) -> Plan {
    let mut twin = plan.clone();
    twin_leaves(&mut twin, cat);
    twin
}

fn twin_leaves(plan: &mut Plan, cat: &Catalog) {
    match &mut plan.kind {
        PlanKind::Scan { table, filters, projection } => {
            let t = cat.table(table).unwrap();
            let rows = t.scan().map(|(_, row)| row.clone()).collect();
            let mut twin = Plan::values(Plan::scan(cat, table).unwrap().fields, rows);
            for f in filters.iter() {
                twin = twin.filter(f.clone());
            }
            if let Some(cols) = projection {
                twin = twin.project_columns(cols);
            }
            *plan = twin;
        }
        PlanKind::Fetch { input, .. }
        | PlanKind::Filter { input, .. }
        | PlanKind::Project { input, .. }
        | PlanKind::Aggregate { input, .. }
        | PlanKind::Unnest { input, .. }
        | PlanKind::Sort { input, .. }
        | PlanKind::Limit { input, .. }
        | PlanKind::Distinct { input } => twin_leaves(input, cat),
        PlanKind::Join { left, right, .. } => {
            twin_leaves(left, cat);
            twin_leaves(right, cat);
        }
        PlanKind::Union { inputs } => inputs.iter_mut().for_each(|p| twin_leaves(p, cat)),
        PlanKind::IndexLookup { .. } | PlanKind::IndexRange { .. } | PlanKind::Values { .. } => {}
    }
}

/// Run `plan`'s row-store twin on one thread.
fn twin_rows(plan: &Plan, cat: &Catalog) -> Vec<Vec<Value>> {
    let ctx = ExecContext::default().with_threads(1);
    execute_streaming(&row_store_twin(plan, cat), cat, &ctx).and_then(|mut qs| qs.drain()).unwrap()
}

fn databases() -> Vec<(String, Database)> {
    let cfg = ExperimentConfig { n_r: 150, mv_avg: 3, seed: 11 };
    let schema = fixtures::experiment();
    let mappings = vec![
        paper::m1(&schema),
        paper::m2(&schema),
        paper::m3(&schema),
        paper::m4(&schema),
        paper::m5(&schema).unwrap(),
        paper::m6(&schema, CoFormat::Denormalized).unwrap(),
        paper::m6(&schema, CoFormat::Factorized).unwrap(),
    ];
    mappings
        .into_iter()
        .map(|m| {
            let name = m.name.clone();
            (name, experiment_database(&m, &cfg).unwrap())
        })
        .collect()
}

/// One query per parallel operator family.
const QUERIES: &[(&str, &str)] = &[
    // Scan with a Filter/Project chain fused into the morsel workers.
    ("fusion", "SELECT r.r_id, r.r_a FROM R r WHERE r.r_b < 10"),
    // Hash-join build + morsel-partitioned probe (E6 class).
    (
        "probe",
        "SELECT r.r_id, s.s_id FROM R r JOIN S s VIA r_s \
         WHERE r.r_b < 10 AND s.s_b < 5",
    ),
    // 3-way join (E5 class): hash joins under every mapping but M3/M4.
    ("join3", "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r"),
    // Grouped partial aggregation: output *order* (first-seen group order)
    // and float AVG must both be invariant; exercises the single-key fast
    // path.
    (
        "agg_group",
        "SELECT r.r_b, COUNT(*) AS n, SUM(r.r_id) AS s, AVG(r.r_id) AS a \
         FROM R r GROUP BY r.r_b",
    ),
    // Global (no GROUP BY) aggregation.
    (
        "agg_global",
        "SELECT COUNT(*) AS n, SUM(r.r_b) AS s, AVG(r.r_b) AS a, \
         MIN(r.r_a) AS lo, MAX(r.r_a) AS hi FROM R r",
    ),
    // Array reassembly + unnest above a parallel scan.
    ("unnest", "SELECT UNNEST(r.r_mv1) FROM R r"),
    // LIMIT early-exit above a parallel scan: which 7 rows come out must
    // not depend on the execution config.
    ("limit", "SELECT r.r_id, r.r_b FROM R r LIMIT 7"),
];

#[test]
fn results_are_bit_identical_across_configs_and_row_store_twin() {
    for (mapping, db) in databases() {
        for &(family, sql) in QUERIES {
            // The reference is the plan's row-store twin run serially: row
            // pages, row-at-a-time operators, one thread. Every
            // configuration of the real plan must reproduce it bit for bit.
            let plan = db.plan(sql).unwrap_or_else(|e| panic!("{mapping}/{family}: {e}"));
            let reference = twin_rows(&plan, db.catalog());
            assert!(!reference.is_empty(), "{mapping}/{family}: fixture should produce rows");
            for threads in [1usize, 2, 4, 8] {
                for morsel in [1usize, 7, 4096] {
                    for batch in [3usize, 1024] {
                        let ctx = ExecContext::default()
                            .with_threads(threads)
                            .with_morsel_size(morsel)
                            .with_batch_size(batch);
                        let rows = db.query_with(sql, &ctx).unwrap().rows;
                        assert_eq!(
                            rows, reference,
                            "{mapping}/{family}: threads={threads} morsel={morsel} \
                             batch={batch} diverged from the row-store twin\n{}",
                            plan.explain()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn limit_early_exit_holds_under_parallel_scan() {
    let cfg = ExperimentConfig { n_r: 500, mv_avg: 2, seed: 3 };
    let db = experiment_database(&paper::m1(&fixtures::experiment()), &cfg).unwrap();
    let ctx = ExecContext::default().with_threads(2).with_morsel_size(16).with_batch_size(16);
    let res = db.query_with("SELECT r.r_id FROM R r LIMIT 5", &ctx).unwrap();
    assert_eq!(res.rows.len(), 5);
    let m = res.metrics.expect("query_with returns metrics");
    let scan = m.leaves()[0];
    assert!(
        scan.rows_in < 500,
        "LIMIT must stop the parallel scan early; examined {} rows\n{}",
        scan.rows_in,
        m.render()
    );
}

#[test]
fn cancellation_mid_wave_surfaces_cancelled() {
    let cfg = ExperimentConfig { n_r: 300, mv_avg: 2, seed: 5 };
    let db = experiment_database(&paper::m1(&fixtures::experiment()), &cfg).unwrap();
    let plan = db.plan("SELECT r.r_id, s.s_id FROM R r JOIN S s VIA r_s").unwrap();
    let ctx = ExecContext::default().with_threads(4).with_morsel_size(8).with_batch_size(1);
    let mut stream =
        erbiumdb::engine::execute_streaming(&plan, db.catalog(), &ctx).unwrap();
    assert!(stream.next_batch().unwrap().is_some(), "first batch should arrive");
    ctx.cancel();
    let err = loop {
        match stream.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("stream completed despite cancellation"),
            Err(e) => break e,
        }
    };
    assert_eq!(err, EngineError::Cancelled);
}

/// Property sweep over **every `Value` variant** the storage layer can
/// hold: the columnar kernels must agree bit-for-bit with the row-store
/// twin on a table that mixes NULLs, booleans, extreme and
/// ordinary integers, adversarial floats (NaN, ±0.0, ±∞ — compared via
/// `f64::total_cmp`), dictionary-encoded strings (duplicates, the empty
/// string), and the fallback `Other` column kinds (arrays, structs).
/// Predicates cover every comparison operator, literal-first mirroring,
/// cross-type rank comparisons, NULL literals, IS [NOT] NULL, residual
/// (non-vectorizable) conjuncts, projection pruning, hash-join builds
/// keyed on each scalar type, and grouped/global aggregation.
#[test]
fn all_value_variants_bit_identical_to_row_store_twin() {
    use erbiumdb::engine::{AggCall, AggFunc, BinOp, Expr, ScalarFunc};
    use erbiumdb::storage::{Column, DataType, Table, TableSchema};

    // Deterministic xorshift so the fixture is reproducible yet messy.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut cat = Catalog::new();
    let mut t = Table::new(TableSchema::new(
        "z",
        vec![
            Column::not_null("id", DataType::Int),
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("b", DataType::Bool),
            Column::new("s", DataType::Text),
            Column::new("a", DataType::Array(Box::new(DataType::Int))),
            Column::new("st", DataType::Struct(vec![("x".into(), DataType::Int)])),
        ],
        vec![0],
    ));
    let floats = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1.5,
        -2.5,
        f64::MIN_POSITIVE,
        f64::EPSILON,
    ];
    let ints = [i64::MIN, i64::MAX, -1, 0, 1, 7, 42];
    let words = ["", "a", "ab", "b", "zig", "zag", "zig"]; // dups exercise the dictionary
    for id in 0..240i64 {
        let r = rng();
        let i = if r % 11 == 0 { Value::Null } else { Value::Int(ints[(r % 7) as usize]) };
        let f = match r % 13 {
            0 => Value::Null,
            // Int into a Float column: ingest canonicalizes to Float,
            // keeping the column vector type-pure.
            1 => Value::Int((r % 5) as i64),
            _ => Value::Float(floats[(r % 10) as usize]),
        };
        let b = match r % 5 {
            0 => Value::Null,
            n => Value::Bool(n % 2 == 0),
        };
        let s = if r % 9 == 0 { Value::Null } else { Value::str(words[(r % 7) as usize]) };
        let a = if r % 6 == 0 {
            Value::Null
        } else {
            Value::Array(vec![Value::Int((r % 3) as i64), Value::Null])
        };
        let st = if r % 8 == 0 {
            Value::Null
        } else {
            Value::Struct(vec![Value::Int((r % 4) as i64)])
        };
        t.insert(vec![Value::Int(id), i, f, b, s, a, st]).unwrap();
    }
    // Deleted slots leave tombstones the live bitmap must skip.
    for slot in [3u64, 77, 201] {
        t.delete(erbiumdb::storage::RowId(slot)).unwrap();
    }
    cat.create_table(t).unwrap();

    let scan = |cat: &Catalog| Plan::scan(cat, "z").unwrap();
    let cmp_ops = [BinOp::Lt, BinOp::Le, BinOp::Eq, BinOp::Ne, BinOp::Ge, BinOp::Gt];
    let mut plans: Vec<(String, Plan)> = Vec::new();
    for op in cmp_ops {
        // Typed comparisons on every vectorizable column, plus the
        // literal-first mirrored form.
        plans.push((format!("i {op:?} 1"), scan(&cat).filter(Expr::binary(op, Expr::col(1), Expr::lit(1i64)))));
        plans.push((format!("1 {op:?} i"), scan(&cat).filter(Expr::binary(op, Expr::lit(1i64), Expr::col(1)))));
        plans.push((format!("f {op:?} 0.0"), scan(&cat).filter(Expr::binary(op, Expr::col(2), Expr::lit(0.0f64)))));
        plans.push((format!("f {op:?} NaN"), scan(&cat).filter(Expr::binary(op, Expr::col(2), Expr::lit(f64::NAN)))));
        plans.push((format!("f {op:?} 2 (int lit)"), scan(&cat).filter(Expr::binary(op, Expr::col(2), Expr::lit(2i64)))));
        plans.push((format!("i {op:?} 1.5 (float lit)"), scan(&cat).filter(Expr::binary(op, Expr::col(1), Expr::lit(1.5f64)))));
        plans.push((format!("s {op:?} 'b'"), scan(&cat).filter(Expr::binary(op, Expr::col(4), Expr::lit(Value::str("b"))))));
        plans.push((format!("b {op:?} true"), scan(&cat).filter(Expr::binary(op, Expr::col(3), Expr::lit(true)))));
        // Cross-type rank comparison (Int column vs Str literal) and a
        // NULL literal (selects nothing).
        plans.push((format!("i {op:?} 'x'"), scan(&cat).filter(Expr::binary(op, Expr::col(1), Expr::lit(Value::str("x"))))));
        plans.push((format!("i {op:?} NULL"), scan(&cat).filter(Expr::binary(op, Expr::col(1), Expr::lit(Value::Null)))));
        // Arrays and structs are `Other` columns: the conjunct stays
        // residual and row-evaluates in selection order.
        plans.push((format!("a {op:?} [1,NULL]"), scan(&cat).filter(Expr::binary(op, Expr::col(5), Expr::lit(Value::Array(vec![Value::Int(1), Value::Null]))))));
        plans.push((format!("st {op:?} {{2}}"), scan(&cat).filter(Expr::binary(op, Expr::col(6), Expr::lit(Value::Struct(vec![Value::Int(2)]))))));
    }
    for c in 1..=6usize {
        plans.push((format!("col{c} IS NULL"), scan(&cat).filter(Expr::IsNull(Box::new(Expr::col(c))))));
        plans.push((format!("col{c} IS NOT NULL"), scan(&cat).filter(Expr::IsNotNull(Box::new(Expr::col(c))))));
    }
    // Vectorizable prefix + residual arithmetic conjunct, then a pruned
    // projection on top.
    plans.push((
        "prefix+residual+prune".into(),
        scan(&cat)
            .filter(Expr::and(
                Expr::binary(BinOp::Ge, Expr::col(1), Expr::lit(0i64)),
                Expr::eq(Expr::binary(BinOp::Mod, Expr::col(0), Expr::lit(3i64)), Expr::lit(1i64)),
            ))
            .project(vec![(Expr::col(4), "s".into()), (Expr::col(2), "f".into())]),
    ));
    plans.push((
        "scalar func over floats".into(),
        scan(&cat).project(vec![(Expr::func(ScalarFunc::Abs, vec![Expr::col(2)]), "af".into())]),
    ));
    // Hash-join build keyed on each scalar type (NULL keys never join):
    // the build drains the scan's gathered rows and hashes them on one
    // `Value` key, which must match the twin's build over row-page rows.
    for (name, key) in [("int", 1usize), ("float", 2), ("bool", 3), ("str", 4), ("array", 5)] {
        plans.push((
            format!("self-join on {name}"),
            scan(&cat).join(scan(&cat), erbiumdb::engine::JoinKind::Inner, vec![Expr::col(key)], vec![Expr::col(key)]),
        ));
    }
    // The same build keyed through a pruned scan: the build side reads
    // only `id` and the key column, so the join key `#1` names table
    // column `key` only through the scan's projection.
    for (name, key) in [("float", 2usize), ("bool", 3), ("str", 4)] {
        let mut pruned = scan(&cat);
        pruned.fields = vec![pruned.fields[0].clone(), pruned.fields[key].clone()];
        pruned.kind =
            PlanKind::Scan { table: "z".into(), filters: vec![], projection: Some(vec![0, key]) };
        plans.push((
            format!("join on {name} through a pruned build side"),
            scan(&cat).join(pruned, erbiumdb::engine::JoinKind::Inner, vec![Expr::col(key)], vec![Expr::col(1)]),
        ));
    }
    // Aggregation: global (unit key), single-key (dict / bool / float /
    // int keys hashed on one `Value`), and multi-key (a `Vec<Value>` key).
    plans.push((
        "global aggs".into(),
        scan(&cat).aggregate(
            vec![],
            vec![
                (AggCall::count_star(), "n".into()),
                (AggCall::new(AggFunc::Sum, Expr::col(2)), "sf".into()),
                (AggCall::new(AggFunc::Avg, Expr::col(1)), "ai".into()),
                (AggCall::new(AggFunc::Min, Expr::col(2)), "lo".into()),
                (AggCall::new(AggFunc::Max, Expr::col(2)), "hi".into()),
            ],
        ),
    ));
    for (name, key) in [("str", 4usize), ("bool", 3), ("float", 2), ("int", 1)] {
        plans.push((
            format!("group by {name}"),
            scan(&cat).aggregate(
                vec![(Expr::col(key), "k".into())],
                vec![(AggCall::count_star(), "n".into()), (AggCall::new(AggFunc::Sum, Expr::col(0)), "s".into())],
            ),
        ));
    }
    plans.push((
        "group by two keys".into(),
        scan(&cat).aggregate(
            vec![(Expr::col(3), "b".into()), (Expr::col(4), "s".into())],
            vec![(AggCall::new(AggFunc::Min, Expr::col(2)), "lo".into())],
        ),
    ));

    for (name, plan) in &plans {
        let reference = twin_rows(plan, &cat);
        for threads in [1usize, 4] {
            for morsel in [7usize, 4096] {
                let ctx = ExecContext::default()
                    .with_threads(threads)
                    .with_morsel_size(morsel)
                    .with_batch_size(64);
                let rows = execute_streaming(plan, &cat, &ctx).unwrap().drain().unwrap();
                // Vec<Value> equality is bit-faithful for floats only via
                // to_bits; compare a rendered form that distinguishes NaN
                // payload sign and -0.0.
                assert_eq!(
                    bits(&rows),
                    bits(&reference),
                    "{name}: threads={threads} morsel={morsel} diverged from the row-store twin"
                );
            }
        }
    }

    /// Render rows with floats expanded to raw bit patterns so NaN vs
    /// NaN and -0.0 vs +0.0 mismatches are caught, not masked.
    fn bits(rows: &[Vec<Value>]) -> Vec<String> {
        fn one(v: &Value, out: &mut String) {
            match v {
                Value::Float(f) => out.push_str(&format!("F:{:016x}", f.to_bits())),
                Value::Array(xs) | Value::Struct(xs) => {
                    out.push('[');
                    for x in xs {
                        one(x, out);
                        out.push(',');
                    }
                    out.push(']');
                }
                other => out.push_str(&format!("{other:?}")),
            }
        }
        rows.iter()
            .map(|r| {
                let mut s = String::new();
                for v in r {
                    one(v, &mut s);
                    s.push('|');
                }
                s
            })
            .collect()
    }
}

/// Many concurrent `query_with` callers against one shared `Database`,
/// each itself requesting parallel execution — the global worker pool is
/// shared by every wave of every query, and nested submission must never
/// deadlock or cross-contaminate results.
#[test]
fn concurrent_parallel_queries_share_the_pool_without_interference() {
    let cfg = ExperimentConfig { n_r: 200, mv_avg: 3, seed: 9 };
    let db = experiment_database(&paper::m1(&fixtures::experiment()), &cfg).unwrap();
    let expected: Vec<Vec<Vec<Value>>> = QUERIES
        .iter()
        .map(|(_, sql)| db.query_with(sql, &ExecContext::default().with_threads(1)).unwrap().rows)
        .collect();
    std::thread::scope(|s| {
        for caller in 0..8usize {
            let db = &db;
            let expected = &expected;
            s.spawn(move || {
                for round in 0..4usize {
                    for (qi, (family, sql)) in QUERIES.iter().enumerate() {
                        let ctx = ExecContext::default()
                            .with_threads(1 + (caller + round) % 8)
                            .with_morsel_size([1, 7, 64, 4096][(caller + qi) % 4]);
                        let rows = db.query_with(sql, &ctx).unwrap().rows;
                        assert_eq!(
                            &rows, &expected[qi],
                            "caller {caller} round {round} family {family} diverged"
                        );
                    }
                }
            });
        }
    });
}

// ---- snapshot isolation ----------------------------------------------------
//
// PR-7: `SharedDatabase` gives every reader a pinned, immutable snapshot
// while one writer commits underneath. Isolation is structural (the writer
// detaches copy-on-write tables instead of mutating shared memory), so the
// invariant to pin is absolute: a snapshot's results never change, no
// matter what commits after it was acquired — and they equal the row-store
// twin run over the pinned catalog.

fn shared_acct_db(batches: i64) -> erbiumdb::core::SharedDatabase {
    let mut db = Database::new();
    db.execute("CREATE ENTITY acct (id int KEY, batch int, score int)").unwrap();
    db.install_default().unwrap();
    let db = db.into_shared();
    for b in 0..batches {
        seed_batch(&db, b);
    }
    db
}

/// One atomic transaction inserting the two accounts of batch `b`, scores
/// summing to 100 — the unit readers must see all-or-nothing.
fn seed_batch(db: &erbiumdb::core::SharedDatabase, b: i64) {
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

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[test]
fn pinned_snapshot_ignores_concurrent_insert_update_delete() {
    let db = shared_acct_db(10);
    const ALL: &str = "SELECT a.id, a.batch, a.score FROM acct a";
    let reference = sorted(db.query(ALL).unwrap().rows);
    let snap = db.snapshot();

    // Writer commits an insert, an update, and a delete after the pin.
    seed_batch(&db, 77);
    db.update_entity("acct", &[Value::Int(0)], &[("score", Value::Int(999))]).unwrap();
    db.delete_entity("acct", &[Value::Int(3)]).unwrap();

    // The pinned snapshot still sees the pre-write state, and so does the
    // row-store twin over the pinned catalog.
    let rows = snap.query(ALL).unwrap().rows;
    assert_eq!(sorted(rows.clone()), reference, "snapshot drifted under concurrent writes");
    let twin = twin_rows(&snap.plan(ALL).unwrap(), snap.catalog());
    assert_eq!(rows, twin, "pinned answer differs from the row-store twin");
    // A fresh snapshot does see all three writes.
    let now = sorted(db.query(ALL).unwrap().rows);
    assert_ne!(now, reference);
    assert_eq!(now.len(), reference.len() + 2 - 1, "insert of 2 and delete of 1 visible");
    assert!(now.iter().any(|r| r[2] == Value::Int(999)), "update visible to new snapshots");
    assert!(snap.epoch() < db.epoch(), "writes advanced the catalog epoch past the pin");
}

/// A pinned snapshot of an M2 database keeps every answer while the writer
/// inserts, updates, deletes, relinks, and deletes and re-inserts one key in
/// a single transaction: primary-key reads, `VIA r_s` joins and
/// dictionary-coded `r_a = '...'` predicates all read the pinned version of
/// the index shards and dictionary chunks the writer detached. A string
/// interned after the pin is absent from the snapshot and found live.
#[test]
fn pinned_snapshot_keeps_keyed_join_and_string_answers_under_writes() {
    let schema = fixtures::experiment();
    let cfg = ExperimentConfig { n_r: 600, mv_avg: 2, seed: 5 };
    let db = experiment_database(&paper::m2(&schema), &cfg).unwrap().into_shared();
    let target = |r: i64| {
        let q = format!("SELECT s.s_id FROM R r JOIN S s VIA r_s WHERE r.r_id = {r}");
        db.query(&q).unwrap().rows[0][0].clone()
    };
    // Keys ≡ 0 (mod 5) are plain `R` instances (no subclass rows).
    let (updated, deleted, reborn, relinked, fresh) = (15i64, 10i64, 20i64, 5i64, 100_000i64);
    let (old_s, new_s) = (target(relinked), Value::Int(7));
    assert_ne!(old_s, new_s);
    let name = |r: i64| {
        ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"][(r % 7) as usize]
    };
    let point =
        |k: i64| format!("SELECT r.r_id, r.r_a, r.r_b, r.r_mv1 FROM R r WHERE r.r_id = {k}");
    let queries = [
        point(updated),
        point(deleted),
        point(reborn),
        format!("SELECT r.r_id, s.s_id FROM R r JOIN S s VIA r_s WHERE r.r_id = {relinked}"),
        point(fresh),
        "SELECT r.r_id, s.s_id FROM R r JOIN S s VIA r_s WHERE r.r_id < 40".to_string(),
        format!("SELECT r.r_id, s.s_a FROM R r JOIN S s VIA r_s WHERE s.s_id = {old_s}"),
        format!("SELECT r.r_id, s.s_a FROM R r JOIN S s VIA r_s WHERE s.s_id = {new_s}"),
        format!("SELECT r.r_id FROM R r WHERE r.r_a = 'r-{}-{updated}'", name(updated)),
        format!("SELECT r.r_id FROM R r WHERE r.r_a = 'r-{}-{reborn}'", name(reborn)),
        "SELECT r.r_id FROM R r WHERE r.r_a = 'interned-after-pin'".to_string(),
        "SELECT r.r_id, r.r_b FROM R r WHERE r.r_b = 77".to_string(),
    ];
    let answers = |read: &dyn Fn(&str) -> Vec<Vec<Value>>| -> Vec<Vec<Vec<Value>>> {
        queries.iter().map(|q| sorted(read(q))).collect()
    };
    let snap = db.snapshot();
    let pinned = answers(&|q| snap.query(q).unwrap().rows);
    assert!(pinned[4].is_empty() && pinned[10].is_empty(), "fresh key and string absent");

    let r = |id: i64, r_a: &str| {
        vec![
            ("r_id", Value::Int(id)),
            ("r_a", Value::str(r_a)),
            ("r_b", Value::Int(77)),
            ("r_mv1", Value::Array(vec![Value::Int(1)])),
            ("r_mv2", Value::Array(vec![])),
            ("r_mv3", Value::Array(vec![Value::str("alpha")])),
        ]
    };
    db.transaction(|tx| {
        tx.insert_linked("R", &r(fresh, "interned-after-pin"), &[("r_s", vec![new_s.clone()])])?;
        let changes = [("r_a", Value::str("renamed")), ("r_b", Value::Int(77))];
        tx.update_entity("R", &[Value::Int(updated)], &changes)?;
        tx.delete_entity("R", &[Value::Int(deleted)])
    })
    .unwrap();
    db.transaction(|tx| {
        tx.unlink("r_s", &[Value::Int(relinked)], std::slice::from_ref(&old_s))?;
        tx.link("r_s", &[Value::Int(relinked)], std::slice::from_ref(&new_s), &[])
    })
    .unwrap();
    db.transaction(|tx| {
        tx.delete_entity("R", &[Value::Int(reborn)])?;
        tx.insert_linked("R", &r(reborn, "reborn"), &[("r_s", vec![new_s.clone()])])
    })
    .unwrap();

    assert_eq!(answers(&|q| snap.query(q).unwrap().rows), pinned, "the snapshot moved");
    let live = answers(&|q| db.query(q).unwrap().rows);
    for (i, (q, (was, now))) in queries.iter().zip(pinned.iter().zip(&live)).enumerate() {
        assert_ne!(was, now, "query {i} should see the writes: {q}");
    }
    assert_eq!(live[10], vec![vec![Value::Int(fresh)]], "the string interned after the pin");
    assert!(live[1].is_empty(), "deleted key gone");
    assert_eq!(live[2][0][1], Value::str("reborn"));
    assert_eq!(target(relinked), new_s);
}

#[test]
fn aborted_transaction_is_never_visible() {
    let db = shared_acct_db(4);
    const ALL: &str = "SELECT a.id, a.batch, a.score FROM acct a";
    let reference = sorted(db.query(ALL).unwrap().rows);
    let err = db
        .transaction(|tx| {
            tx.insert(
                "acct",
                &[("id", Value::Int(900)), ("batch", Value::Int(90)), ("score", Value::Int(1))],
            )?;
            tx.update_entity("acct", &[Value::Int(0)], &[("score", Value::Int(-5))])?;
            Err::<(), _>(erbiumdb::core::DbError::Parse("abort".into()))
        })
        .unwrap_err();
    assert!(matches!(err, erbiumdb::core::DbError::Parse(_)));
    assert_eq!(
        sorted(db.query(ALL).unwrap().rows),
        reference,
        "rolled-back writes leaked into post-abort snapshots"
    );
}

/// Concurrent readers against a continuously committing writer: every
/// snapshot must show only whole transactions (each batch has exactly 2
/// accounts summing to 100, despite the writer moving points between them),
/// the same snapshot must answer identically twice, and the final state
/// must equal the same operations applied serially to a plain `Database`.
#[test]
fn concurrent_readers_see_only_whole_transactions() {
    const SEED_BATCHES: i64 = 8;
    const WRITE_ROUNDS: i64 = 40;
    let db = shared_acct_db(SEED_BATCHES);
    const AGG: &str =
        "SELECT a.batch, COUNT(*) AS n, SUM(a.score) AS s FROM acct a GROUP BY a.batch";

    std::thread::scope(|s| {
        let writer = {
            let db = db.clone();
            s.spawn(move || {
                for round in 0..WRITE_ROUNDS {
                    // Move points between the two accounts of one batch —
                    // atomically, so per-batch SUM stays 100.
                    let b = round % SEED_BATCHES;
                    let d = 1 + round % 7;
                    db.transaction(|tx| {
                        tx.update_entity(
                            "acct",
                            &[Value::Int(2 * b)],
                            &[("score", Value::Int(50 - d))],
                        )?;
                        tx.update_entity(
                            "acct",
                            &[Value::Int(2 * b + 1)],
                            &[("score", Value::Int(50 + d))],
                        )
                    })
                    .unwrap();
                    // And grow the table by one whole batch.
                    seed_batch(&db, SEED_BATCHES + round);
                }
            })
        };
        for reader in 0..4usize {
            let db = db.clone();
            s.spawn(move || {
                for iter in 0..30usize {
                    let snap = db.snapshot();
                    let rows = snap.query(AGG).unwrap().rows;
                    assert!(!rows.is_empty());
                    for row in &rows {
                        assert_eq!(
                            (&row[1], &row[2]),
                            (&Value::Int(2), &Value::Int(100)),
                            "reader {reader} iter {iter} saw a torn batch: {row:?}"
                        );
                    }
                    // Snapshot stability: the same pin answers identically,
                    // and the row-store twin over the pinned catalog agrees.
                    assert_eq!(
                        snap.query(AGG).unwrap().rows,
                        rows,
                        "reader {reader} iter {iter}: snapshot result changed under it"
                    );
                    let twin = twin_rows(&snap.plan(AGG).unwrap(), snap.catalog());
                    assert_eq!(twin, rows, "reader {reader} iter {iter}: differs from the twin");
                }
            });
        }
        writer.join().unwrap();
    });

    // Serial reference: the same operations on a plain single-caller
    // Database produce the same final state.
    let mut serial = Database::new();
    serial.execute("CREATE ENTITY acct (id int KEY, batch int, score int)").unwrap();
    serial.install_default().unwrap();
    let ins = |db: &mut Database, b: i64| {
        db.transaction(|tx| {
            tx.insert(
                "acct",
                &[("id", Value::Int(2 * b)), ("batch", Value::Int(b)), ("score", Value::Int(50))],
            )?;
            tx.insert(
                "acct",
                &[
                    ("id", Value::Int(2 * b + 1)),
                    ("batch", Value::Int(b)),
                    ("score", Value::Int(50)),
                ],
            )
        })
        .unwrap();
    };
    for b in 0..SEED_BATCHES {
        ins(&mut serial, b);
    }
    for round in 0..WRITE_ROUNDS {
        let (b, d) = (round % SEED_BATCHES, 1 + round % 7);
        serial
            .update_entity("acct", &[Value::Int(2 * b)], &[("score", Value::Int(50 - d))])
            .unwrap();
        serial
            .update_entity("acct", &[Value::Int(2 * b + 1)], &[("score", Value::Int(50 + d))])
            .unwrap();
        ins(&mut serial, SEED_BATCHES + round);
    }
    const ALL: &str = "SELECT a.id, a.batch, a.score FROM acct a";
    assert_eq!(
        sorted(db.query(ALL).unwrap().rows),
        sorted(serial.query(ALL).unwrap().rows),
        "concurrent execution diverged from the serial reference"
    );
}
