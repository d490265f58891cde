//! Ablation: full-pipeline morsel parallelism on the persistent worker
//! pool (A-parallel in EXPERIMENTS.md).
//!
//! One axis, 1 vs. N threads, over an E5/E6-class synthetic workload
//! (selective filter → hash join → grouped aggregation, the operators
//! where the paper's factorized-vs-1NF comparisons are decided). Scans
//! (with fused Filter/Project), join build *and probe*, and partial
//! aggregation all ride the shared [`erbium_engine::WorkerPool`]; on a
//! multi-core box the parallel arms should approach linear speedup, while
//! on single-core CI boxes both arms measure the same work plus pool
//! scheduling overhead (results are asserted bit-identical by
//! `tests/parallel_invariance.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use erbium_engine::{execute_streaming, AggCall, AggFunc, ExecContext, Expr, JoinKind, Plan};
use erbium_storage::{Catalog, Column, DataType, Table, TableSchema, Value};
use std::time::Duration;

const N: i64 = 200_000;

fn setup() -> Catalog {
    let mut cat = Catalog::new();
    let mut r = Table::new(TableSchema::new(
        "r",
        vec![
            Column::not_null("id", DataType::Int),
            Column::new("k", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ],
        vec![0],
    ));
    for i in 0..N {
        r.insert(vec![
            Value::Int(i),
            Value::Int(i % 1_000),
            Value::Int(i * 7 % 10_000),
            Value::Int(i % 97),
        ])
        .unwrap();
    }
    cat.create_table(r).unwrap();

    let mut s = Table::new(TableSchema::new(
        "s",
        vec![Column::not_null("k", DataType::Int), Column::new("w", DataType::Int)],
        vec![0],
    ));
    for i in 0..1_000i64 {
        s.insert(vec![Value::Int(i), Value::Int(i * 3)]).unwrap();
    }
    cat.create_table(s).unwrap();
    cat
}

fn drain(plan: &Plan, cat: &Catalog, ctx: &ExecContext) -> usize {
    execute_streaming(plan, cat, ctx).unwrap().drain().unwrap().len()
}

fn bench_parallel(c: &mut Criterion) {
    let cat = setup();
    let mut g = c.benchmark_group("parallel");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));

    // Scan with a Filter + Project chain above it — the fusion target.
    let pipeline = Plan::scan(&cat, "r")
        .unwrap()
        .filter(Expr::binary(erbium_engine::BinOp::Lt, Expr::col(2), Expr::lit(5_000i64)))
        .project(vec![
            (Expr::col(0), "id".into()),
            (
                Expr::binary(erbium_engine::BinOp::Add, Expr::col(2), Expr::col(3)),
                "ab".into(),
            ),
        ]);
    for threads in [1usize, 2, 4] {
        let ctx = ExecContext::default().with_threads(threads);
        g.bench_function(format!("scan_filter_project/t{threads}"), |b| {
            b.iter(|| std::hint::black_box(drain(&pipeline, &cat, &ctx)));
        });
    }

    // E6-class join: selective probe side against a shared build table.
    let join = Plan::scan(&cat, "r")
        .unwrap()
        .filter(Expr::binary(erbium_engine::BinOp::Lt, Expr::col(3), Expr::lit(48i64)))
        .join(
            Plan::scan(&cat, "s").unwrap(),
            JoinKind::Inner,
            vec![Expr::col(1)],
            vec![Expr::col(0)],
        );
    for threads in [1usize, 2, 4] {
        let ctx = ExecContext::default().with_threads(threads);
        g.bench_function(format!("join_probe/t{threads}"), |b| {
            b.iter(|| std::hint::black_box(drain(&join, &cat, &ctx)));
        });
    }

    // E5/E6-class aggregation: grouped partial aggregation above the join.
    let agg = join.clone().aggregate(
        vec![(Expr::col(1), "k".into())],
        vec![
            (AggCall::new(AggFunc::Sum, Expr::col(2)), "total".into()),
            (AggCall::new(AggFunc::Avg, Expr::col(3)), "avg_b".into()),
            (AggCall::count_star(), "n".into()),
        ],
    );
    for threads in [1usize, 2, 4] {
        let ctx = ExecContext::default().with_threads(threads);
        g.bench_function(format!("join_group_agg/t{threads}"), |b| {
            b.iter(|| std::hint::black_box(drain(&agg, &cat, &ctx)));
        });
    }

    // Global (single-group) aggregation — the partial-merge fast path.
    let global = Plan::scan(&cat, "r").unwrap().aggregate(
        vec![],
        vec![
            (AggCall::new(AggFunc::Sum, Expr::col(2)), "total".into()),
            (AggCall::new(AggFunc::Min, Expr::col(3)), "lo".into()),
            (AggCall::count_star(), "n".into()),
        ],
    );
    for threads in [1usize, 4] {
        let ctx = ExecContext::default().with_threads(threads);
        g.bench_function(format!("global_agg/t{threads}"), |b| {
            b.iter(|| std::hint::black_box(drain(&global, &cat, &ctx)));
        });
    }

    g.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
