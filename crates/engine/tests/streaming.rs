//! Integration tests for the pull-based streaming executor, run over the
//! paper's query shapes (Section 6) compiled by the mapping layer.
//!
//! Three properties are checked end-to-end:
//!
//! 1. **Equivalence** — for every (mapping, query) pair, draining the
//!    stream yields the same rows in the same order regardless of batch
//!    size, morsel size, or thread count. The streaming executor is
//!    deterministic by construction (morsel outputs are reassembled in
//!    morsel order), so this is exact equality, not multiset equality.
//! 2. **Early termination** — a `LIMIT k` plan stops pulling from (and
//!    scanning inside) its input as soon as `k` rows are out, visible in
//!    the per-operator metrics.
//! 3. **Metrics shape** — the [`ExecMetrics`] tree returned alongside the
//!    rows mirrors the physical plan the rewriter produced.

use erbium_datagen::{populate_experiment, ExperimentConfig};
use erbium_engine::{execute_streaming, ExecContext, Plan};
use erbium_mapping::presets::paper;
use erbium_mapping::{CoFormat, Lowering, QueryRewriter};
use erbium_model::fixtures;
use erbium_storage::{Catalog, Row};

/// Build a populated experiment instance under one of the paper mappings.
fn setup(mapping_name: &str) -> (Lowering, Catalog) {
    let schema = fixtures::experiment();
    let mapping = match mapping_name {
        "M1" => paper::m1(&schema),
        "M2" => paper::m2(&schema),
        "M3" => paper::m3(&schema),
        "M4" => paper::m4(&schema),
        "M5" => paper::m5(&schema).unwrap(),
        "M6f" => paper::m6(&schema, CoFormat::Factorized).unwrap(),
        other => panic!("unknown mapping {other}"),
    };
    let lw = Lowering::build(&schema, &mapping).unwrap();
    let mut cat = Catalog::new();
    lw.install(&mut cat).unwrap();
    populate_experiment(&mut cat, &lw, &ExperimentConfig::tiny()).unwrap();
    (lw, cat)
}

fn plan_for(lw: &Lowering, cat: &Catalog, sql: &str) -> Plan {
    let stmt = erbium_query::parse_single(sql).unwrap();
    let erbium_query::Statement::Select(sel) = stmt else { panic!("expected SELECT") };
    QueryRewriter::new(lw, cat).rewrite_optimized(&sel).unwrap()
}

fn drain(plan: &Plan, cat: &Catalog, ctx: &ExecContext) -> Vec<Row> {
    execute_streaming(plan, cat, ctx).unwrap().drain().unwrap()
}

/// The paper's experiment queries that are pure SELECTs (no parameters).
const QUERIES: &[(&str, &str)] = &[
    ("E1", "SELECT r.r_id, r.r_mv1, r.r_mv2, r.r_mv3 FROM R r"),
    ("E2", "SELECT UNNEST(r.r_mv1) FROM R r"),
    ("E5", "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r"),
    (
        "E6",
        "SELECT r.r_id, s.s_id FROM R r JOIN S s VIA r_s \
         WHERE r.r_b < 10 AND s.s_b < 5",
    ),
    ("E8", "SELECT w.s_id, w.s1_no, r.r_id, r.r_a FROM S1 w JOIN R2 r VIA r2_s1"),
    ("E9a", "SELECT r.r_id, r.r2_a, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1"),
    ("E9b", "SELECT r.r_id, r.r2_a, r.r2_b FROM R2 r"),
];

const MAPPINGS: &[&str] = &["M1", "M3", "M4", "M5", "M6f"];

#[test]
fn streaming_is_invariant_under_batch_morsel_and_thread_configs() {
    for &mapping in MAPPINGS {
        let (lw, cat) = setup(mapping);
        for &(qid, sql) in QUERIES {
            let plan = plan_for(&lw, &cat, sql);
            let reference = drain(&plan, &cat, &ExecContext::default());
            assert!(
                !reference.is_empty(),
                "{mapping}/{qid}: fixture should produce rows\n{}",
                plan.explain()
            );
            let configs = [
                ExecContext::default().with_batch_size(1),
                ExecContext::default().with_batch_size(7).with_morsel_size(3),
                ExecContext::default().with_threads(1),
                ExecContext::default().with_threads(4),
                ExecContext::default().with_threads(4).with_batch_size(2).with_morsel_size(5),
            ];
            for (i, ctx) in configs.iter().enumerate() {
                let rows = drain(&plan, &cat, ctx);
                assert_eq!(
                    rows, reference,
                    "{mapping}/{qid}: config #{i} diverged from default context\n{}",
                    plan.explain()
                );
            }
        }
    }
}

#[test]
fn batches_never_exceed_batch_size_and_are_nonempty() {
    let (lw, cat) = setup("M1");
    let plan = plan_for(&lw, &cat, QUERIES[0].1);
    let ctx = ExecContext::default().with_batch_size(5);
    let mut stream = execute_streaming(&plan, &cat, &ctx).unwrap();
    let mut total = 0usize;
    while let Some(batch) = stream.next_batch().unwrap() {
        assert!(!batch.is_empty(), "streams must never emit empty batches");
        assert!(batch.len() <= 5, "batch of {} exceeds batch_size", batch.len());
        total += batch.len();
    }
    assert_eq!(total, drain(&plan, &cat, &ExecContext::default()).len());
}

#[test]
fn limit_terminates_upstream_scan_early() {
    let (lw, cat) = setup("M4");
    // E9b under M4 is a plain single-table scan; wrap it in LIMIT 3.
    let plan = plan_for(&lw, &cat, QUERIES[6].1).limit(3);
    // Threads pinned: one scan wave examines up to threads x morsel slots,
    // so the rows_in bound below depends on the thread count.
    let ctx = ExecContext::default().with_batch_size(4).with_morsel_size(4).with_threads(2);
    let mut qs = execute_streaming(&plan, &cat, &ctx).unwrap();
    let rows = qs.drain().unwrap();
    let metrics = qs.metrics();
    assert_eq!(rows.len(), 3);
    let limit = metrics.find("Limit").expect("limit node in metrics");
    assert_eq!(limit.rows_out, 3);
    // Full table is ExperimentConfig::tiny().n_r / 5 = 20 R2 entities; the
    // scan must have examined only the first morsel's worth of slots.
    let scan = metrics.leaves()[0];
    assert!(
        scan.rows_in < 20,
        "scan examined {} rows; LIMIT should have stopped it early\n{}",
        scan.rows_in,
        metrics.render()
    );
}

#[test]
fn metrics_tree_mirrors_rewritten_plan_for_e5_under_m1() {
    let (lw, cat) = setup("M1");
    // E5 under M1 is the paper's 3-way join: two Join nodes, three scans.
    let plan = plan_for(&lw, &cat, QUERIES[2].1);
    let mut qs = execute_streaming(&plan, &cat, &ExecContext::default()).unwrap();
    let rows = qs.drain().unwrap();
    let metrics = qs.metrics();
    assert!(!rows.is_empty());
    fn count_joins(m: &erbium_engine::ExecMetrics) -> usize {
        usize::from(m.name.starts_with("Join"))
            + m.children.iter().map(count_joins).sum::<usize>()
    }
    assert_eq!(count_joins(&metrics), 2, "expected 2 join operators\n{}", metrics.render());
    assert_eq!(metrics.leaves().len(), 3, "expected 3 leaf scans\n{}", metrics.render());
    // Every operator that emitted rows must have recorded batches.
    fn check(m: &erbium_engine::ExecMetrics) {
        if m.rows_out > 0 {
            assert!(m.batches > 0, "{} emitted rows but no batches", m.name);
        }
        m.children.iter().for_each(check);
    }
    check(&metrics);
    // Root emits exactly the result rows.
    assert_eq!(metrics.rows_out as usize, rows.len());
}

/// Regression: `Value::Int` bound to a Float column is canonicalized to
/// `Value::Float` at ingest, so hash-join keys over that column match rows
/// inserted with the literal float form. Before canonicalization, the hash
/// of `Int(2)` differed from `Float(2.0)` and the join silently dropped
/// matches.
#[test]
fn hash_join_matches_int_populated_float_column() {
    use erbium_engine::{Expr, JoinKind};
    use erbium_storage::{Column, DataType, Table, TableSchema, Value};

    let mut cat = Catalog::new();
    let mut readings = Table::new(TableSchema::new(
        "readings",
        vec![Column::not_null("id", DataType::Int), Column::new("score", DataType::Float)],
        vec![0],
    ));
    // Mixed ingest: whole-number scores arrive as Ints, others as Floats.
    readings.insert(vec![Value::Int(1), Value::Int(2)]).unwrap();
    readings.insert(vec![Value::Int(2), Value::Float(2.0)]).unwrap();
    readings.insert(vec![Value::Int(3), Value::Float(3.5)]).unwrap();
    cat.create_table(readings).unwrap();

    let mut thresholds = Table::new(TableSchema::new(
        "thresholds",
        vec![Column::not_null("score", DataType::Float)],
        vec![0],
    ));
    thresholds.insert(vec![Value::Float(2.0)]).unwrap();
    thresholds.insert(vec![Value::Int(3)]).unwrap(); // canonicalized too
    cat.create_table(thresholds).unwrap();

    let plan = Plan::scan(&cat, "readings").unwrap().join(
        Plan::scan(&cat, "thresholds").unwrap(),
        JoinKind::Inner,
        vec![Expr::col(1)],
        vec![Expr::col(0)],
    );
    let mut rows = drain(&plan, &cat, &ExecContext::default());
    rows.sort();
    // Both the Int-ingested and Float-ingested score=2 rows must join.
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Float(2.0), Value::Float(2.0)],
            vec![Value::Int(2), Value::Float(2.0), Value::Float(2.0)],
        ],
        "Int-populated Float column must hash-join against Float literals"
    );
}

#[test]
fn cancellation_mid_stream_stops_execution() {
    let (lw, cat) = setup("M1");
    let plan = plan_for(&lw, &cat, QUERIES[0].1);
    let ctx = ExecContext::default().with_batch_size(1);
    let mut stream = execute_streaming(&plan, &cat, &ctx).unwrap();
    assert!(stream.next_batch().unwrap().is_some(), "first batch should arrive");
    ctx.cancel();
    let err = loop {
        match stream.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("stream completed despite cancellation"),
            Err(e) => break e,
        }
    };
    assert_eq!(err, erbium_engine::EngineError::Cancelled);
}
