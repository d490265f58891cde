//! Plan-shape tests: the rewriter must compile the same ERQL into the
//! physical shapes the paper reasons about — a 3-way join under the
//! normalized mapping, a `_type` filter under the merged mapping, a
//! 2-relation union under disjoint tables, a link-table scan that fetches
//! both members by row id under M6f, and the direct side-table scan for
//! unnest on M1.

use erbium_engine::{execute_streaming, ExecContext, Plan, PlanKind};
use erbium_mapping::presets::paper;
use erbium_mapping::{CoFormat, Lowering, QueryRewriter};
use erbium_model::fixtures;
use erbium_storage::Catalog;

fn plan_for(mapping_name: &str, sql: &str) -> Plan {
    planned(mapping_name, sql).0
}

/// The optimized plan of `sql` under a mapping, with the (empty) catalog
/// the mapping was installed into.
fn planned(mapping_name: &str, sql: &str) -> (Plan, Catalog) {
    let schema = fixtures::experiment();
    let mapping = match mapping_name {
        "M1" => paper::m1(&schema),
        "M2" => paper::m2(&schema),
        "M3" => paper::m3(&schema),
        "M4" => paper::m4(&schema),
        "M5" => paper::m5(&schema).unwrap(),
        "M6f" => paper::m6(&schema, CoFormat::Factorized).unwrap(),
        other => panic!("unknown {other}"),
    };
    let lw = Lowering::build(&schema, &mapping).unwrap();
    let mut cat = Catalog::new();
    lw.install(&mut cat).unwrap();
    let stmt = erbium_query::parse_single(sql).unwrap();
    let erbium_query::Statement::Select(sel) = stmt else { panic!("expected select") };
    let plan = QueryRewriter::new(&lw, &cat).rewrite_optimized(&sel).unwrap();
    (plan, cat)
}

fn count_nodes(plan: &Plan, pred: &dyn Fn(&PlanKind) -> bool) -> usize {
    let mut n = usize::from(pred(&plan.kind));
    match &plan.kind {
        PlanKind::Filter { input, .. }
        | PlanKind::Project { input, .. }
        | PlanKind::Fetch { input, .. }
        | PlanKind::Aggregate { input, .. }
        | PlanKind::Unnest { input, .. }
        | PlanKind::Sort { input, .. }
        | PlanKind::Limit { input, .. }
        | PlanKind::Distinct { input } => n += count_nodes(input, pred),
        PlanKind::Join { left, right, .. } => {
            n += count_nodes(left, pred) + count_nodes(right, pred);
        }
        PlanKind::Union { inputs } => {
            for i in inputs {
                n += count_nodes(i, pred);
            }
        }
        _ => {}
    }
    n
}

const E5: &str = "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r";

#[test]
fn r3_scan_is_three_way_join_under_m1() {
    let plan = plan_for("M1", E5);
    // R3 delta ⋈ R1 delta ⋈ R root: two join nodes.
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 2, "{}", plan.explain());
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Scan { .. })), 3);
}

#[test]
fn r3_scan_is_type_filter_under_m3() {
    let plan = plan_for("M3", E5);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0, "{}", plan.explain());
    // Single scan with the _type restriction pushed into it.
    let text = plan.explain();
    assert!(text.contains("IN <set of 1>"), "{text}");
}

#[test]
fn r3_scan_is_single_table_under_m4() {
    let plan = plan_for("M4", E5);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Union { .. })), 0, "R3 has no subclasses");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Scan { .. })), 1);
}

#[test]
fn superclass_scan_is_five_way_union_under_m4() {
    // The paper: "M4 requires a 5-relation union".
    let plan = plan_for("M4", "SELECT r.r_id, r.r_a FROM R r");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Union { .. })), 1);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Scan { .. })), 5, "{}", plan.explain());
}

#[test]
fn unnest_on_m1_reads_side_table_directly() {
    // The E2 fast path: no entity table in the plan at all.
    let plan = plan_for("M1", "SELECT UNNEST(r.r_mv1) FROM R r");
    let text = plan.explain();
    assert!(text.contains("Scan R__r_mv1"), "{text}");
    assert!(!text.contains("Scan R\n"), "entity table must not be read: {text}");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0);
}

#[test]
fn unnest_on_m2_uses_unnest_operator() {
    let plan = plan_for("M2", "SELECT UNNEST(r.r_mv1) FROM R r");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Unnest { .. })), 1, "{}", plan.explain());
}

#[test]
fn bare_mv_reference_aggregates_side_table_under_m1() {
    let plan = plan_for("M1", "SELECT r.r_id, r.r_mv1 FROM R r");
    assert!(count_nodes(&plan, &|k| matches!(k, PlanKind::Aggregate { .. })) >= 1, "{}", plan.explain());
    assert!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })) >= 1);
}

#[test]
fn point_lookup_uses_index_under_m2_not_m1() {
    let q = "SELECT r.r_mv1 FROM R r WHERE r.r_id = 7";
    let m2 = plan_for("M2", q);
    assert!(count_nodes(&m2, &|k| matches!(k, PlanKind::IndexLookup { .. })) >= 1, "{}", m2.explain());
    let m1 = plan_for("M1", q);
    // M1 reaches R by index but must scan the side table (no index there).
    assert!(m1.explain().contains("Scan R__r_mv1"), "{}", m1.explain());
}

/// The first node of `plan` (pre-order) satisfying `pred`.
fn find<'p>(plan: &'p Plan, pred: &dyn Fn(&PlanKind) -> bool) -> Option<&'p Plan> {
    if pred(&plan.kind) {
        return Some(plan);
    }
    match &plan.kind {
        PlanKind::Filter { input, .. }
        | PlanKind::Project { input, .. }
        | PlanKind::Fetch { input, .. }
        | PlanKind::Aggregate { input, .. }
        | PlanKind::Unnest { input, .. }
        | PlanKind::Sort { input, .. }
        | PlanKind::Limit { input, .. }
        | PlanKind::Distinct { input } => find(input, pred),
        PlanKind::Join { left, right, .. } => find(left, pred).or_else(|| find(right, pred)),
        PlanKind::Union { inputs } => inputs.iter().find_map(|i| find(i, pred)),
        _ => None,
    }
}

#[test]
fn via_join_follows_pointers_under_m6f() {
    let plan = plan_for("M6f", "SELECT r.r_id, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1");
    let text = plan.explain();
    let fetch = |k: &PlanKind| matches!(k, PlanKind::Fetch { .. });
    assert_eq!(count_nodes(&plan, &fetch), 2, "{text}");
    // Scan link → Fetch left member → Fetch right member: the members are
    // reached by row id, with no hash join between them and the link table.
    let pairs = find(&plan, &fetch).expect("a fetch");
    let top = matches!(&pairs.kind, PlanKind::Fetch { table, .. } if table == "r2_s1__co__r");
    assert!(top, "{text}");
    assert_eq!(count_nodes(pairs, &|k| matches!(k, PlanKind::Join { .. })), 0, "{text}");
    // Of the bound end (R2) only the key the scope joins on is fetched.
    let chain = "Fetch r2_s1__co__l rid=#0 [cols=r_id]\n    Scan r2_s1__co\n";
    assert!(pairs.explain().contains(chain), "{text}");
    assert!(!text.contains("Scan r2_s1__co__r"), "the right member is only fetched: {text}");
}

#[test]
fn co_located_entity_is_a_plain_columnar_scan_under_m6f() {
    // E9b: a single-entity query on a factorized member reads it like any
    // delta-layout table — M1's plan over the member instead of `R2`, its
    // scan columnar (the member's three columns are all E9b reads, so
    // there is nothing to prune, as under M1).
    const E9B: &str = "SELECT r.r_id, r.r2_a, r.r2_b FROM R2 r";
    let (plan, cat) = planned("M6f", E9B);
    let text = plan.explain();
    assert_eq!(text.replace("Scan r2_s1__co__l", "Scan R2"), plan_for("M1", E9B).explain());
    let mut stream = execute_streaming(&plan, &cat, &ExecContext::default()).unwrap();
    stream.drain().unwrap();
    let metrics = stream.metrics().render();
    let scan = metrics.lines().find(|l| l.contains("Scan r2_s1__co__l")).expect("member scan");
    assert!(scan.contains("[columnar]"), "{metrics}");
}

#[test]
fn via_join_uses_join_table_under_m1() {
    let plan = plan_for("M1", "SELECT r.r_id, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1");
    assert!(plan.explain().contains("Scan r2_s1"), "{}", plan.explain());
}

#[test]
fn weak_join_unnests_in_place_under_m5() {
    let plan = plan_for("M5", "SELECT s.s_id, w.s1_a FROM S s JOIN S1 w VIA s_s1");
    // One scan of S, an unnest, no join.
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0, "{}", plan.explain());
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Unnest { .. })), 1);
}

#[test]
fn weak_join_is_plain_join_under_m1() {
    let plan = plan_for("M1", "SELECT s.s_id, w.s1_a FROM S s JOIN S1 w VIA s_s1");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 1);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Unnest { .. })), 0);
}
