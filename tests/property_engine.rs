//! Property tests of the relational substrate: operators agree with naive
//! reference implementations, and the optimizer never changes results.

use erbiumdb::engine::{
    execute, optimizer::optimize, AggCall, AggFunc, BinOp, Expr, JoinKind, Plan,
};
use erbiumdb::storage::{Catalog, Column, DataType, Row, Table, TableSchema, Value};
use proptest::prelude::*;

fn table_from(rows: &[(i64, i64, Option<i64>)], name: &str) -> Table {
    let mut t = Table::new(TableSchema::new(
        name,
        vec![
            Column::not_null("id", DataType::Int),
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ],
        vec![0],
    ));
    for (i, (_, k, v)) in rows.iter().enumerate() {
        t.insert(vec![
            Value::Int(i as i64),
            Value::Int(*k),
            v.map(Value::Int).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    t
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, Option<i64>)>> {
    prop::collection::vec((0i64..20, 0i64..6, prop::option::of(0i64..10)), 0..25)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Hash join ≡ nested-loop reference (NULL keys never match).
    #[test]
    fn join_matches_nested_loop(a in rows_strategy(), b in rows_strategy()) {
        let mut cat = Catalog::new();
        cat.create_table(table_from(&a, "a")).unwrap();
        cat.create_table(table_from(&b, "b")).unwrap();
        let plan = Plan::scan(&cat, "a").unwrap().join(
            Plan::scan(&cat, "b").unwrap(),
            JoinKind::Inner,
            vec![Expr::col(2)],
            vec![Expr::col(2)],
        );
        let got = sorted(execute(&plan, &cat).unwrap());

        let mut expect = Vec::new();
        for (i, (_, ak, av)) in a.iter().enumerate() {
            for (j, (_, bk, bv)) in b.iter().enumerate() {
                if av.is_some() && av == bv {
                    expect.push(vec![
                        Value::Int(i as i64),
                        Value::Int(*ak),
                        Value::Int(av.unwrap()),
                        Value::Int(j as i64),
                        Value::Int(*bk),
                        Value::Int(bv.unwrap()),
                    ]);
                }
            }
        }
        prop_assert_eq!(got, sorted(expect));
    }

    /// LEFT join row count = matches + unmatched-left.
    #[test]
    fn left_join_counts(a in rows_strategy(), b in rows_strategy()) {
        let mut cat = Catalog::new();
        cat.create_table(table_from(&a, "a")).unwrap();
        cat.create_table(table_from(&b, "b")).unwrap();
        let plan = Plan::scan(&cat, "a").unwrap().join(
            Plan::scan(&cat, "b").unwrap(),
            JoinKind::Left,
            vec![Expr::col(2)],
            vec![Expr::col(2)],
        );
        let got = execute(&plan, &cat).unwrap();
        let mut expect = 0usize;
        for (_, _, av) in &a {
            let matches = b.iter().filter(|(_, _, bv)| av.is_some() && av == bv).count();
            expect += matches.max(1);
        }
        prop_assert_eq!(got.len(), expect);
    }

    /// SUM/COUNT grouping agrees with a reference fold.
    #[test]
    fn aggregate_matches_reference(a in rows_strategy()) {
        let mut cat = Catalog::new();
        cat.create_table(table_from(&a, "a")).unwrap();
        let plan = Plan::scan(&cat, "a").unwrap().aggregate(
            vec![(Expr::col(1), "k".into())],
            vec![
                (AggCall::new(AggFunc::Sum, Expr::col(2)), "sum".into()),
                (AggCall::new(AggFunc::Count, Expr::col(2)), "cnt".into()),
            ],
        );
        let got = sorted(execute(&plan, &cat).unwrap());
        let mut map: std::collections::BTreeMap<i64, (Option<i64>, i64)> = Default::default();
        for (_, k, v) in &a {
            let e = map.entry(*k).or_insert((None, 0));
            if let Some(v) = v {
                e.0 = Some(e.0.unwrap_or(0) + v);
                e.1 += 1;
            }
        }
        let expect: Vec<Row> = map
            .into_iter()
            .map(|(k, (s, c))| {
                vec![Value::Int(k), s.map(Value::Int).unwrap_or(Value::Null), Value::Int(c)]
            })
            .collect();
        prop_assert_eq!(got, sorted(expect));
    }

    /// The optimizer (pushdown + folding + index selection) never changes
    /// results, for arbitrary comparison filters over joins.
    #[test]
    fn optimizer_preserves_semantics(
        a in rows_strategy(),
        b in rows_strategy(),
        lit in 0i64..10,
        on_left in any::<bool>(),
        lt in any::<bool>(),
    ) {
        let mut cat = Catalog::new();
        cat.create_table(table_from(&a, "a")).unwrap();
        cat.create_table(table_from(&b, "b")).unwrap();
        let col = if on_left { 1 } else { 4 };
        let op = if lt { BinOp::Lt } else { BinOp::Eq };
        let plan = Plan::scan(&cat, "a")
            .unwrap()
            .join(
                Plan::scan(&cat, "b").unwrap(),
                JoinKind::Inner,
                vec![Expr::col(2)],
                vec![Expr::col(2)],
            )
            .filter(Expr::binary(op, Expr::col(col), Expr::lit(lit)))
            .project_columns(&[0, 3]);
        let plain = sorted(execute(&plan, &cat).unwrap());
        let optimized = sorted(execute(&optimize(plan.clone(), &cat).unwrap(), &cat).unwrap());
        prop_assert_eq!(plain, optimized);
    }

    /// Unnest over arrays built by array_agg recovers the original
    /// multiset per key (nest ∘ unnest identity).
    #[test]
    fn nest_unnest_identity(a in rows_strategy()) {
        let mut cat = Catalog::new();
        cat.create_table(table_from(&a, "a")).unwrap();
        // nest: k -> array_agg(v)
        let nested = Plan::scan(&cat, "a").unwrap().aggregate(
            vec![(Expr::col(1), "k".into())],
            vec![(AggCall::new(AggFunc::ArrayAgg, Expr::col(2)), "vs".into())],
        );
        let unnested = nested.unnest(1).unwrap();
        let got = sorted(execute(&unnested, &cat).unwrap());
        let mut expect: Vec<Row> = a
            .iter()
            .filter_map(|(_, k, v)| v.map(|v| vec![Value::Int(*k), Value::Int(v)]))
            .collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// Index lookups equal filtered scans for point predicates.
    #[test]
    fn index_lookup_equals_scan(a in rows_strategy(), key in 0i64..25) {
        let mut cat = Catalog::new();
        cat.create_table(table_from(&a, "a")).unwrap();
        let plan = Plan::scan(&cat, "a")
            .unwrap()
            .filter(Expr::eq(Expr::col(0), Expr::lit(key)));
        let scanned = sorted(execute(&plan, &cat).unwrap());
        let optimized = sorted(execute(&optimize(plan.clone(), &cat).unwrap(), &cat).unwrap());
        prop_assert_eq!(scanned, optimized);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// The lexer never panics and either tokenizes or reports an error
    /// with a sane offset, for arbitrary input.
    #[test]
    fn lexer_total(input in ".{0,80}") {
        match erbiumdb::query::parser::parse(&input) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.offset <= input.len() + 1),
        }
    }

    /// Storage values have a total order consistent with hashing:
    /// a == b ⇒ hash(a) == hash(b).
    #[test]
    fn value_ord_hash_consistent(x in -5i64..5, y in -5.0f64..5.0) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Value::Int(x);
        let b = Value::Float(y);
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        if a == b {
            prop_assert_eq!(hash(&a), hash(&b));
        }
        // Antisymmetry.
        if a < b {
            prop_assert!(b > a);
        }
    }
}
