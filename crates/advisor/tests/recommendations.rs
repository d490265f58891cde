//! Advisor behaviour on the paper's workload patterns: the recommended
//! design should shift exactly the way Section 6's measurements say it
//! should.

use erbium_advisor::search::{CoChoice, HierarchyChoice};
use erbium_advisor::{Advisor, DesignChoice, LogicalStats, Workload};
use erbium_mapping::presets::paper;
use erbium_mapping::{EntityData, EntityStore, Lowering};
use erbium_model::fixtures;
use erbium_storage::{Catalog, Transaction, Value};

/// Logical stats resembling the paper's experiment instance (scaled down).
fn experiment_stats() -> LogicalStats {
    let mut s = LogicalStats::default();
    let exact: &[(&str, u64)] =
        &[("R", 40_000), ("R1", 15_000), ("R2", 15_000), ("R3", 10_000), ("R4", 10_000)];
    let mut extent = std::collections::HashMap::new();
    extent.insert("R3", 10_000u64);
    extent.insert("R4", 10_000);
    extent.insert("R1", 25_000);
    extent.insert("R2", 25_000);
    extent.insert("R", 90_000);
    for (e, n) in exact {
        s.exact.insert(e.to_string(), *n);
    }
    for (e, n) in &extent {
        s.extent.insert(e.to_string(), *n);
    }
    s.extent.insert("S".into(), 10_000);
    s.exact.insert("S".into(), 10_000);
    s.extent.insert("S1".into(), 20_000);
    s.exact.insert("S1".into(), 20_000);
    s.extent.insert("S2".into(), 5_000);
    s.exact.insert("S2".into(), 5_000);
    for a in ["r_mv1", "r_mv2", "r_mv3"] {
        s.mv_fanout.insert(("R".into(), a.into()), 3.0);
    }
    s.rel_count.insert("r_s".into(), 90_000);
    s.rel_count.insert("r2_s1".into(), 22_000);
    s.rel_count.insert("r1_r3".into(), 8_000);
    s.rel_count.insert("s_s1".into(), 20_000);
    s.rel_count.insert("s_s2".into(), 5_000);
    s
}

fn hierarchy_choice(rec: &erbium_advisor::Recommendation) -> HierarchyChoice {
    rec.choices
        .iter()
        .find_map(|c| match c {
            DesignChoice::Hierarchy(root, choice) if root == "R" => Some(*choice),
            _ => None,
        })
        .expect("hierarchy dimension present")
}

fn mv_inline_count(rec: &erbium_advisor::Recommendation) -> usize {
    rec.choices
        .iter()
        .filter(|c| matches!(c, DesignChoice::MvInline(_, _, true)))
        .count()
}

#[test]
fn array_heavy_workload_inlines_multivalued() {
    // E1/E3-style workload: fetch arrays, point lookups.
    let schema = fixtures::experiment();
    let advisor = Advisor::from_stats(schema, experiment_stats());
    let wl = Workload::new()
        .query("SELECT r.r_id, r.r_mv1, r.r_mv2, r.r_mv3 FROM R r")
        .unwrap()
        .weighted("SELECT r.r_mv1 FROM R r WHERE r.r_id = 42", 100.0)
        .unwrap();
    let rec = advisor.recommend(&wl).unwrap();
    assert!(rec.cost < rec.baseline_cost, "advisor must improve on M1");
    assert!(mv_inline_count(&rec) >= 2, "arrays should be inlined: {:?}", rec.choices);
}

#[test]
fn unnest_scan_workload_keeps_side_tables() {
    // E2-style: full unnested scans favour the normalized side table.
    let schema = fixtures::experiment();
    let advisor = Advisor::from_stats(schema, experiment_stats());
    let wl = Workload::new().query("SELECT UNNEST(r.r_mv1) FROM R r").unwrap();
    let rec = advisor.recommend(&wl).unwrap();
    let inlined = rec
        .choices
        .iter()
        .any(|c| matches!(c, DesignChoice::MvInline(_, a, true) if a == "r_mv1"));
    assert!(!inlined, "side table is the native unnested form: {:?}", rec.choices);
}

#[test]
fn subclass_scan_workload_prefers_disjoint_tables() {
    // E5-style: "all information for the R3 entities" — M4 wins in the
    // paper (no joins, least data scanned).
    let schema = fixtures::experiment();
    let advisor = Advisor::from_stats(schema, experiment_stats());
    let wl = Workload::new()
        .query("SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r")
        .unwrap();
    let rec = advisor.recommend(&wl).unwrap();
    assert_eq!(hierarchy_choice(&rec), HierarchyChoice::Full, "{:?}", rec.choices);
    assert!(rec.cost < rec.baseline_cost);
}

#[test]
fn colocated_join_workload_cost_model_prefers_factorized_over_m1() {
    // E9's direction: for the R2 ⋈ S1 join, factorized co-location must
    // cost less than the fully normalized design (the greedy search may
    // find an even better design via hierarchy splitting, so we check the
    // cost model's ranking of the paper's own M1-vs-M6 comparison).
    let schema = fixtures::experiment();
    let advisor = Advisor::from_stats(schema.clone(), experiment_stats());
    let wl = Workload::new()
        .weighted("SELECT r.r_id, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1", 50.0)
        .unwrap();
    let (m1_cost, _) = advisor.cost_of(&paper::m1(&schema), &wl).unwrap();
    let (m6_cost, _) = advisor
        .cost_of(&paper::m6(&schema, erbium_mapping::CoFormat::Factorized).unwrap(), &wl)
        .unwrap();
    assert!(m6_cost < m1_cost, "m6={m6_cost} must beat m1={m1_cost}");
    // And the search must find something at least as good as M6.
    let rec = advisor.recommend(&wl).unwrap();
    assert!(rec.cost <= m6_cost, "search result {} must match/beat M6 {m6_cost}", rec.cost);
    let _ = CoChoice::Factorized; // keep the variant exercised in this file
}

#[test]
fn mixed_workload_beats_baseline_and_reports_breakdown() {
    let schema = fixtures::experiment();
    let advisor = Advisor::from_stats(schema, experiment_stats());
    let wl = Workload::new()
        .query("SELECT r.r_id, r.r_mv1 FROM R r WHERE r.r_id = 7")
        .unwrap()
        .query("SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r")
        .unwrap()
        .query("SELECT r.r_id, s.s_a FROM R r JOIN S s VIA r_s WHERE s.s_b = 1")
        .unwrap();
    let rec = advisor.recommend(&wl).unwrap();
    assert_eq!(rec.per_query.len(), 3);
    assert!(rec.cost <= rec.baseline_cost);
    assert!(rec.candidates_evaluated > 5);
}

#[test]
fn cost_of_rejects_invalid_and_ranks_known_mappings() {
    let schema = fixtures::experiment();
    let advisor = Advisor::from_stats(schema.clone(), experiment_stats());
    let e1 = Workload::new()
        .query("SELECT r.r_id, r.r_mv1, r.r_mv2, r.r_mv3 FROM R r")
        .unwrap();
    let empty = erbium_mapping::Mapping::new("covers nothing", vec![]);
    assert!(advisor.cost_of(&empty, &e1).is_none(), "an invalid cover has no cost");

    // Every within-query order whose measured direction is clear (E6 is a
    // measured near-tie; on E7 the measured winner is the other one).
    let mapping = |name: &str| match name {
        "M1" => paper::m1(&schema),
        "M2" => paper::m2(&schema),
        "M4" => paper::m4(&schema),
        "M5" => paper::m5(&schema).unwrap(),
        "M6f" => paper::m6(&schema, erbium_mapping::CoFormat::Factorized).unwrap(),
        other => panic!("no mapping {other}"),
    };
    let directions = [
        ("E1", "SELECT r.r_id, r.r_mv1, r.r_mv2, r.r_mv3 FROM R r", "M2", "M1"),
        ("E2", "SELECT UNNEST(r.r_mv1) FROM R r", "M1", "M2"),
        (
            "E4",
            "SELECT r.r_id, UNNEST(r.r_mv1) AS v FROM R r \
             WHERE UNNEST(r.r_mv1) = UNNEST(r.r_mv2)",
            "M1",
            "M2",
        ),
        ("E5", "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r", "M4", "M1"),
        ("E8", "SELECT w.s_id, w.s1_no, r.r_id, r.r_a FROM S1 w JOIN R2 r VIA r2_s1", "M1", "M5"),
        ("E9a", "SELECT r.r_id, r.r2_a, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1", "M6f", "M1"),
    ];
    for (id, sql, cheaper, dearer) in directions {
        let wl = Workload::new().query(sql).unwrap();
        let (c, _) = advisor.cost_of(&mapping(cheaper), &wl).unwrap();
        let (d, _) = advisor.cost_of(&mapping(dearer), &wl).unwrap();
        assert!(c < d, "{id}: {cheaper} must cost less than {dearer}: {c} vs {d}");
    }
}

#[test]
fn stats_gathering_from_live_database() {
    let schema = fixtures::experiment();
    let lw = Lowering::build(&schema, &paper::m1(&schema)).unwrap();
    let mut cat = Catalog::new();
    lw.install(&mut cat).unwrap();
    let store = EntityStore::new(&lw);
    let mut txn = Transaction::new();
    let data = |pairs: &[(&str, Value)]| -> EntityData {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    };
    store
        .insert(
            &mut cat,
            &mut txn,
            "S",
            &data(&[("s_id", Value::Int(1)), ("s_a", Value::str("x")), ("s_b", Value::Int(0))]),
            &[],
        )
        .unwrap();
    for i in 0..6i64 {
        store
            .insert(
                &mut cat,
                &mut txn,
                "R",
                &data(&[
                    ("r_id", Value::Int(i)),
                    ("r_a", Value::str("a")),
                    ("r_b", Value::Int(i)),
                    ("r_mv1", Value::Array(vec![Value::Int(1), Value::Int(2)])),
                    ("r_mv2", Value::Array(vec![])),
                    ("r_mv3", Value::Array(vec![Value::str("t")])),
                ]),
                &[("r_s", vec![Value::Int(1)])],
            )
            .unwrap();
    }
    txn.commit();
    let stats = LogicalStats::gather(&cat, &lw).unwrap();
    assert_eq!(stats.extent.get("R"), Some(&6));
    assert_eq!(stats.rel_count.get("r_s"), Some(&6));
    let f = stats.mv_fanout.get(&("R".to_string(), "r_mv1".to_string())).unwrap();
    assert!((f - 2.0).abs() < 1e-9);
}
