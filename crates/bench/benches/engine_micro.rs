//! Microbenchmarks of the relational substrate: the operator costs that
//! the paper's mapping trade-offs decompose into (joins vs. unnest vs.
//! index reach vs. following a link table's row ids with `Fetch`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use erbium_engine::{execute, AggCall, AggFunc, Expr, JoinKind, Plan};
use erbium_storage::{Catalog, Column, DataType, Table, TableSchema, Value};

const N: i64 = 50_000;

fn setup() -> Catalog {
    let mut cat = Catalog::new();
    let mut t = Table::new(TableSchema::new(
        "base",
        vec![
            Column::not_null("id", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("v", DataType::Int),
            Column::new("arr", DataType::Int.array_of()),
        ],
        vec![0],
    ));
    for i in 0..N {
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 100),
            Value::Int(i * 7 % 1_000),
            Value::Array(vec![Value::Int(i % 10), Value::Int(i % 13), Value::Int(i % 17)]),
        ])
        .unwrap();
    }
    cat.create_table(t).unwrap();

    let mut side = Table::new(TableSchema::new(
        "side",
        vec![Column::not_null("fk", DataType::Int), Column::new("w", DataType::Int)],
        vec![],
    ));
    for i in 0..N {
        for k in 0..2 {
            side.insert(vec![Value::Int(i), Value::Int(k)]).unwrap();
        }
    }
    cat.create_table(side).unwrap();

    // Row-id links from each base row to the first of its side rows: the
    // stored pointers of a factorized co-location.
    let mut link = Table::new(TableSchema::new(
        "link",
        vec![Column::not_null("l", DataType::Int), Column::not_null("r", DataType::Int)],
        vec![],
    ));
    for i in 0..N {
        link.insert(vec![Value::Int(i), Value::Int(2 * i)]).unwrap();
    }
    cat.create_table(link).unwrap();
    cat
}

fn bench_micro(c: &mut Criterion) {
    let cat = setup();
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));

    g.bench_function("scan_filter", |b| {
        let plan = Plan::scan(&cat, "base")
            .unwrap()
            .filter(Expr::binary(erbium_engine::BinOp::Lt, Expr::col(2), Expr::lit(100i64)));
        b.iter(|| std::hint::black_box(execute(&plan, &cat).unwrap().len()));
    });

    g.bench_function("hash_join", |b| {
        let plan = Plan::scan(&cat, "base").unwrap().join(
            Plan::scan(&cat, "side").unwrap(),
            JoinKind::Inner,
            vec![Expr::col(0)],
            vec![Expr::col(0)],
        );
        b.iter(|| std::hint::black_box(execute(&plan, &cat).unwrap().len()));
    });

    g.bench_function("link_fetch", |b| {
        let plan = Plan::scan(&cat, "link")
            .and_then(|p| p.fetch(&cat, "base", 0, vec![0, 2]))
            .and_then(|p| p.fetch(&cat, "side", 1, vec![0, 1]))
            .unwrap();
        b.iter(|| std::hint::black_box(execute(&plan, &cat).unwrap().len()));
    });

    g.bench_function("unnest", |b| {
        let plan = Plan::scan(&cat, "base").unwrap().unnest(3).unwrap();
        b.iter(|| std::hint::black_box(execute(&plan, &cat).unwrap().len()));
    });

    g.bench_function("group_aggregate", |b| {
        let plan = Plan::scan(&cat, "base").unwrap().aggregate(
            vec![(Expr::col(1), "grp".into())],
            vec![
                (AggCall::new(AggFunc::Sum, Expr::col(2)), "total".into()),
                (AggCall::count_star(), "n".into()),
            ],
        );
        b.iter(|| std::hint::black_box(execute(&plan, &cat).unwrap().len()));
    });

    g.bench_function("array_agg_nest", |b| {
        let plan = Plan::scan(&cat, "side").unwrap().aggregate(
            vec![(Expr::col(0), "fk".into())],
            vec![(AggCall::new(AggFunc::ArrayAgg, Expr::col(1)), "ws".into())],
        );
        b.iter(|| std::hint::black_box(execute(&plan, &cat).unwrap().len()));
    });

    g.bench_function("pk_point_lookup", |b| {
        let plan = Plan::scan(&cat, "base")
            .unwrap()
            .filter(Expr::eq(Expr::col(0), Expr::lit(N / 2)));
        let optimized = erbium_engine::optimizer::optimize(plan, &cat).unwrap();
        b.iter(|| std::hint::black_box(execute(&optimized, &cat).unwrap().len()));
    });

    // Wave-heavy pull pattern: a tiny morsel size forces many waves per
    // drain, so this arm is dominated by per-wave overheads — it is the
    // sentinel for the per-worker batch-buffer reuse in `MorselStream`
    // (buffers keep their capacity across waves instead of a fresh
    // `Vec<Row>` per morsel per pull; see EXPERIMENTS.md A-parallel).
    g.bench_function("morsel_waves", |b| {
        let plan = Plan::scan(&cat, "base")
            .unwrap()
            .filter(Expr::binary(erbium_engine::BinOp::Lt, Expr::col(2), Expr::lit(500i64)));
        let ctx = erbium_engine::ExecContext::default().with_threads(1).with_morsel_size(64);
        b.iter(|| {
            let mut s = erbium_engine::execute_streaming(&plan, &cat, &ctx).unwrap();
            std::hint::black_box(s.drain().unwrap().len())
        });
    });

    g.bench_function("sort_limit", |b| {
        let plan = Plan::scan(&cat, "base")
            .unwrap()
            .sort(vec![erbium_engine::SortKey { expr: Expr::col(2), desc: true }])
            .limit(100);
        b.iter(|| std::hint::black_box(execute(&plan, &cat).unwrap().len()));
    });

    g.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
