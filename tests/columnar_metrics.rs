//! Columnar-execution observability: proves that projection pruning
//! really does keep untouched columns unmaterialized, using the
//! `erbium-obs` counters the vectorized kernels publish.
//!
//! The key assertion is on `engine_columnar_cells_total`: the scan
//! gather increments it by `selected_rows × pruned_arity`, so a query
//! that reads one column of a five-column table must move exactly
//! `rows × 1` cells — not `rows × 5`. No other instrumentation can
//! distinguish "cloned then discarded" from "never touched"; the cell
//! counter can.
//!
//! Counters are process-global, which is why this lives in its own
//! integration-test binary (one process) and in a single `#[test]`:
//! deltas would race against any concurrently running columnar query.

use erbiumdb::core::obs::Registry;
use erbiumdb::engine::{
    execute_streaming, optimizer::optimize, AggCall, AggFunc, ExecContext, ExecMetrics, Expr,
    JoinKind, Plan,
};
use erbiumdb::storage::{Catalog, Column, DataType, Table, TableSchema, Value};

/// Drain `plan` and return its rows with the final metrics tree.
fn run(plan: &Plan, cat: &Catalog, ctx: &ExecContext) -> (Vec<Vec<Value>>, ExecMetrics) {
    let mut qs = execute_streaming(plan, cat, ctx).unwrap();
    let rows = qs.drain().unwrap();
    (rows, qs.metrics())
}

fn counters() -> (u64, u64) {
    let r = Registry::global();
    (
        r.counter("engine_columnar_batches_total", "").get(),
        r.counter("engine_columnar_cells_total", "").get(),
    )
}

#[test]
fn pruned_columns_are_never_materialized() {
    const ROWS: u64 = 1000;
    let mut cat = Catalog::new();
    let mut t = Table::new(TableSchema::new(
        "w",
        vec![
            Column::not_null("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("wide", DataType::Text),
            Column::new("huge", DataType::Text),
        ],
        vec![0],
    ));
    for i in 0..ROWS as i64 {
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 97),
            Value::Int(i * 3),
            Value::str(format!("wide-{i}")),
            Value::str("x".repeat(64)),
        ])
        .unwrap();
    }
    cat.create_table(t).unwrap();

    // SELECT a FROM w WHERE a >= 0 — the optimizer folds the filter into
    // the scan (table column space) and prunes the scan to one column.
    let plan = Plan::scan(&cat, "w")
        .unwrap()
        .filter(Expr::binary(erbiumdb::engine::BinOp::Ge, Expr::col(1), Expr::lit(0i64)))
        .project(vec![(Expr::col(1), "a".into())]);
    let plan = optimize(plan, &cat).unwrap();
    let explain = plan.explain();
    assert!(explain.contains("[cols=a]"), "pruned set surfaced in EXPLAIN:\n{explain}");

    let ctx = ExecContext::default();
    let (b0, c0) = counters();
    let (rows, metrics) = run(&plan, &cat, &ctx);
    let (b1, c1) = counters();

    let want: Vec<Vec<Value>> = (0..ROWS as i64).map(|i| vec![Value::Int(i % 97)]).collect();
    assert_eq!(rows, want, "one pruned column per row, in slot order");
    let scan = metrics.find("Scan w").expect("scan node in metrics tree");
    assert!(scan.columnar, "scan ran on the columnar path:\n{}", metrics.render());
    assert!(b1 > b0, "columnar batch counter must move");
    // The non-materialization proof: exactly rows × 1 cells gathered,
    // although the table is five columns wide.
    assert_eq!(c1 - c0, ROWS, "cells moved = rows × pruned arity (1), not × 5");

    // A multi-key self-join hashes its drained build side on (a, b).
    let join = Plan::scan(&cat, "w").unwrap().join(
        Plan::scan(&cat, "w").unwrap(),
        JoinKind::Inner,
        vec![Expr::col(1), Expr::col(2)],
        vec![Expr::col(1), Expr::col(2)],
    );
    let (joined, _) = run(&join, &cat, &ctx);
    assert_eq!(joined.len(), ROWS as usize, "unique (a,b) pairs self-join 1:1");

    // An aggregate drains the scan below it, which the optimizer prunes to
    // the columns the grouping and aggregates touch: rows × 2 cells here,
    // table arity 5.
    let agg = Plan::scan(&cat, "w").unwrap().aggregate(
        vec![(Expr::col(1), "a".into())],
        vec![(AggCall::new(AggFunc::Sum, Expr::col(2)), "s".into())],
    );
    let agg = optimize(agg, &cat).unwrap();
    let (b0, c0) = counters();
    let (groups, am) = run(&agg, &cat, &ctx);
    let (b1, c1) = counters();
    assert_eq!(groups.len(), 97);
    let agg_scan = &am.find("Aggregate").expect("aggregate node").children[0];
    assert!(agg_scan.name.starts_with("Scan w") && agg_scan.columnar, "{}", am.render());
    assert!(b1 > b0);
    assert_eq!(c1 - c0, ROWS * 2, "aggregate reads only its two input columns");
}
