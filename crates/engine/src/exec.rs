//! Streaming executor entry points.
//!
//! The executor is pull-based: a plan compiles (via [`crate::stream`]) into
//! a tree of [`RowStream`] operators that exchange small row batches on
//! demand. Pipeline operators (filter, project, join probe, unnest, limit,
//! union) never materialize their input; `Limit` terminates early by simply
//! not pulling. When [`ExecContext::threads`] `> 1`, work is dispatched in
//! morsel waves to the shared persistent [`crate::pool::WorkerPool`] (no
//! per-wave thread spawn): leaf scans *and the Filter/Project chain fused
//! directly above them*, hash-join build and probe sides, and partial
//! aggregation all run in parallel — with deterministic
//! (thread-count-independent, bit-identical) output. See `DESIGN.md` §9 for
//! the determinism argument.
//!
//! There is one execution path: every scan is the vectorized scan, fusion
//! is chosen by plan shape alone, and every other operator (join builds
//! and aggregates included) consumes that scan's row batches, so an
//! [`ExecContext`] carries only sizes, a thread count and the cancellation
//! flag; neither the sizes nor the thread count change a query's answer.
//!
//! Entry points:
//!
//! * [`execute_streaming`] — compile to a [`QueryStream`] handle that the
//!   caller pulls batch-by-batch; exposes live per-operator
//!   [`ExecMetrics`] and cooperative cancellation.
//!   [`QueryStream::drain`] pulls everything that remains and
//!   [`QueryStream::metrics`] snapshots the tree (`EXPLAIN ANALYZE`-style).
//! * [`execute`] — the one convenience: drain the stream to a `Vec<Row>`
//!   under a default context.

use crate::error::EngineResult;
use crate::metrics::{ExecMetrics, OpMetrics};
use crate::plan::Plan;
use crate::stream::{self, BoxedRowStream};
use erbium_storage::{Catalog, Row};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Runtime knobs threaded through every operator of a streaming query.
///
/// Cloning the context shares the cancellation flag: keep a clone, hand the
/// original to [`execute_streaming`], and call [`ExecContext::cancel`] from
/// anywhere to make every operator of the running query error with
/// [`crate::EngineError::Cancelled`] at its next pull.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Target rows per batch. Operators may emit smaller batches, and
    /// expanding operators (join, unnest) may exceed it.
    pub batch_size: usize,
    /// Slot-range granularity handed to scan workers.
    pub morsel_size: usize,
    /// Worker threads for morsel-parallel operators (leaf scans + fused
    /// Filter/Project, hash-join build and probe, partial aggregation).
    /// `1` runs fully inline — no pool dispatch at all. Defaults to
    /// [`default_threads`] (the machine's available parallelism, clamped).
    ///
    /// Changing this never changes query results: every parallel operator
    /// reassembles its output in morsel/chunk order and merges aggregate
    /// partials over fixed, config-independent chunk boundaries, so results
    /// are bit-identical to single-threaded execution (including float
    /// aggregates and `ARRAY_AGG` order).
    pub threads: usize,
    cancel: Arc<AtomicBool>,
}

/// Default worker count: the machine's available parallelism, clamped to
/// `1..=16`. Safe as a *default* because parallel execution is
/// deterministic (see [`ExecContext::threads`]); override per-query with
/// [`ExecContext::with_threads`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 16)
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            batch_size: 1024,
            morsel_size: 4096,
            threads: default_threads(),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl ExecContext {
    pub fn new() -> ExecContext {
        ExecContext::default()
    }

    pub fn with_batch_size(mut self, n: usize) -> ExecContext {
        self.batch_size = n.max(1);
        self
    }

    pub fn with_morsel_size(mut self, n: usize) -> ExecContext {
        self.morsel_size = n.max(1);
        self
    }

    pub fn with_threads(mut self, n: usize) -> ExecContext {
        self.threads = n.max(1);
        self
    }

    /// Request cooperative cancellation of every query sharing this context.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    pub(crate) fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }
}

/// A running query: pull batches, snapshot metrics at any point.
pub struct QueryStream<'a> {
    root: BoxedRowStream<'a>,
    metrics: Arc<OpMetrics>,
}

impl QueryStream<'_> {
    /// Pull the next (non-empty) batch, or `None` when exhausted.
    pub fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        self.root.next_batch()
    }

    /// Pull everything that remains into one vector.
    pub fn drain(&mut self) -> EngineResult<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(batch) = self.next_batch()? {
            out.extend(batch);
        }
        Ok(out)
    }

    /// Snapshot the per-operator metrics tree (valid mid-stream too).
    pub fn metrics(&self) -> ExecMetrics {
        self.metrics.snapshot()
    }
}

/// Compile a plan into a pull-based [`QueryStream`] over the catalog.
pub fn execute_streaming<'a>(
    plan: &'a Plan,
    cat: &'a Catalog,
    ctx: &ExecContext,
) -> EngineResult<QueryStream<'a>> {
    let (root, metrics) = stream::compile(plan, cat, ctx)?;
    Ok(QueryStream { root, metrics })
}

/// Execute a plan against a catalog, returning the result rows: drains
/// [`execute_streaming`] under a default [`ExecContext`].
pub fn execute(plan: &Plan, cat: &Catalog) -> EngineResult<Vec<Row>> {
    execute_streaming(plan, cat, &ExecContext::default())?.drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggCall, AggFunc};
    use crate::error::EngineError;
    use crate::expr::{Expr, ScalarFunc};
    use crate::plan::{JoinKind, PlanKind, SortKey};
    use erbium_storage::{Column, DataType, RowId, Table, TableSchema, Value};

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        let mut dept = Table::new(TableSchema::new(
            "dept",
            vec![Column::not_null("id", DataType::Int), Column::new("name", DataType::Text)],
            vec![0],
        ));
        dept.insert(vec![Value::Int(1), Value::str("cs")]).unwrap();
        dept.insert(vec![Value::Int(2), Value::str("math")]).unwrap();
        dept.insert(vec![Value::Int(3), Value::str("bio")]).unwrap();
        c.create_table(dept).unwrap();

        let mut emp = Table::new(TableSchema::new(
            "emp",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("dept_id", DataType::Int),
                Column::new("salary", DataType::Int),
                Column::new("skills", DataType::Text.array_of()),
            ],
            vec![0],
        ));
        emp.insert(vec![Value::Int(10), Value::Int(1), Value::Int(100), vec!["a", "b"].into()])
            .unwrap();
        emp.insert(vec![Value::Int(11), Value::Int(1), Value::Int(200), vec!["b"].into()]).unwrap();
        emp.insert(vec![Value::Int(12), Value::Int(2), Value::Int(150), Value::Array(vec![])])
            .unwrap();
        emp.insert(vec![Value::Int(13), Value::Null, Value::Int(50), Value::Null]).unwrap();
        c.create_table(emp).unwrap();
        c
    }

    #[test]
    fn scan_and_filter() {
        let c = cat();
        let p = Plan::scan(&c, "emp")
            .unwrap()
            .filter(Expr::binary(crate::expr::BinOp::Gt, Expr::col(2), Expr::lit(120i64)));
        let rows = execute(&p, &c).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn inner_join_skips_null_keys() {
        let c = cat();
        let emp = Plan::scan(&c, "emp").unwrap();
        let dept = Plan::scan(&c, "dept").unwrap();
        let j = emp.join(dept, JoinKind::Inner, vec![Expr::col(1)], vec![Expr::col(0)]);
        let rows = execute(&j, &c).unwrap();
        assert_eq!(rows.len(), 3, "emp 13 has NULL dept_id and must not match");
    }

    #[test]
    fn left_join_null_extends() {
        let c = cat();
        let emp = Plan::scan(&c, "emp").unwrap();
        let dept = Plan::scan(&c, "dept").unwrap();
        let j = emp.join(dept, JoinKind::Left, vec![Expr::col(1)], vec![Expr::col(0)]);
        let rows = execute(&j, &c).unwrap();
        assert_eq!(rows.len(), 4);
        let unmatched = rows.iter().find(|r| r[0] == Value::Int(13)).unwrap();
        assert_eq!(unmatched[4], Value::Null);
        assert_eq!(unmatched[5], Value::Null);
    }

    #[test]
    fn semi_join_emits_left_once() {
        let c = cat();
        let dept = Plan::scan(&c, "dept").unwrap();
        let emp = Plan::scan(&c, "emp").unwrap();
        let j = dept.join(emp, JoinKind::Semi, vec![Expr::col(0)], vec![Expr::col(1)]);
        let rows = execute(&j, &c).unwrap();
        // cs has two employees but appears once; bio has none.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2, "semi join keeps left arity");
    }

    #[test]
    fn aggregate_group_by() {
        let c = cat();
        let emp = Plan::scan(&c, "emp").unwrap();
        let agg = emp.aggregate(
            vec![(Expr::col(1), "dept_id".into())],
            vec![
                (AggCall::new(AggFunc::Sum, Expr::col(2)), "total".into()),
                (AggCall::count_star(), "n".into()),
            ],
        );
        let mut rows = execute(&agg, &c).unwrap();
        rows.sort();
        assert_eq!(rows.len(), 3); // dept 1, 2, NULL
        let cs = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(cs[1], Value::Int(300));
        assert_eq!(cs[2], Value::Int(2));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let c = cat();
        let p = Plan::scan(&c, "emp")
            .unwrap()
            .filter(Expr::eq(Expr::col(0), Expr::lit(-1i64)))
            .aggregate(vec![], vec![(AggCall::count_star(), "n".into())]);
        let rows = execute(&p, &c).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn unnest_expands_and_drops_empty() {
        let c = cat();
        let p = Plan::scan(&c, "emp").unwrap().unnest(3).unwrap();
        let rows = execute(&p, &c).unwrap();
        // emp 10 -> 2 rows, emp 11 -> 1 row, emp 12 empty -> 0, emp 13 null -> 0.
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| matches!(r[3], Value::Str(_))));
    }

    #[test]
    fn nest_via_array_agg_struct_pack() {
        // SELECT dept_id, NEST(id, salary) — lowered to array_agg(struct_pack).
        let c = cat();
        let p = Plan::scan(&c, "emp").unwrap().aggregate(
            vec![(Expr::col(1), "dept_id".into())],
            vec![(
                AggCall::new(
                    AggFunc::ArrayAgg,
                    Expr::func(ScalarFunc::StructPack, vec![Expr::col(0), Expr::col(2)]),
                ),
                "emps".into(),
            )],
        );
        let rows = execute(&p, &c).unwrap();
        let cs = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        match &cs[1] {
            Value::Array(vs) => {
                assert_eq!(vs.len(), 2);
                assert!(vs.contains(&Value::Struct(vec![Value::Int(10), Value::Int(100)])));
            }
            other => panic!("expected array, got {other}"),
        }
    }

    #[test]
    fn sort_limit_distinct() {
        let c = cat();
        let p = Plan::scan(&c, "emp")
            .unwrap()
            .project_columns(&[1])
            .distinct()
            .sort(vec![SortKey { expr: Expr::col(0), desc: false }])
            .limit(2);
        let rows = execute(&p, &c).unwrap();
        // NULL sorts first, then 1.
        assert_eq!(rows, vec![vec![Value::Null], vec![Value::Int(1)]]);
    }

    #[test]
    fn union_all_concatenates() {
        let c = cat();
        let a = Plan::scan(&c, "dept").unwrap();
        let b = Plan::scan(&c, "dept").unwrap();
        let u = Plan::union(vec![a, b]).unwrap();
        assert_eq!(execute(&u, &c).unwrap().len(), 6);
    }

    #[test]
    fn index_lookup_uses_pk() {
        let c = cat();
        let p = Plan {
            kind: PlanKind::IndexLookup {
                table: "emp".into(),
                columns: vec![0],
                keys: vec![Expr::lit(11i64), Expr::lit(12i64)],
                residual: vec![],
            },
            fields: Plan::scan(&c, "emp").unwrap().fields,
        };
        let rows = execute(&p, &c).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn values_plan() {
        let c = Catalog::new();
        let p = Plan::values(
            vec![crate::plan::Field::new("x", DataType::Int)],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        assert_eq!(execute(&p, &c).unwrap().len(), 2);
    }

    // ---- streaming-specific behaviour --------------------------------------

    #[test]
    fn batches_respect_batch_size_and_cover_scan() {
        let c = cat();
        let p = Plan::scan(&c, "emp").unwrap();
        let ctx = ExecContext::new().with_batch_size(2).with_morsel_size(2);
        let mut qs = execute_streaming(&p, &c, &ctx).unwrap();
        let mut sizes = Vec::new();
        let mut total = 0;
        while let Some(b) = qs.next_batch().unwrap() {
            assert!(!b.is_empty(), "streams never emit empty batches");
            sizes.push(b.len());
            total += b.len();
        }
        assert_eq!(total, 4);
        assert!(sizes.iter().all(|&s| s <= 2), "{sizes:?}");
    }

    #[test]
    fn metrics_tree_mirrors_plan_shape() {
        let c = cat();
        let p = Plan::scan(&c, "emp")
            .unwrap()
            .filter(Expr::binary(crate::expr::BinOp::Gt, Expr::col(2), Expr::lit(120i64)))
            .project_columns(&[0]);
        let mut qs = execute_streaming(&p, &c, &ExecContext::default()).unwrap();
        let rows = qs.drain().unwrap();
        let m = qs.metrics();
        assert_eq!(rows.len(), 2);
        assert_eq!(m.name, "Project");
        assert_eq!(m.rows_out, 2);
        let filter = &m.children[0];
        assert_eq!(filter.name, "Filter");
        assert_eq!(filter.rows_out, 2);
        let scan = &filter.children[0];
        assert!(scan.name.starts_with("Scan emp"), "{}", scan.name);
        assert_eq!(scan.rows_in, 4, "scan examined every live row");
        assert_eq!(scan.rows_out, 4, "filter is a separate node here");
        assert_eq!(m.rows_in, 2, "project consumed what filter emitted");
    }

    #[test]
    fn limit_terminates_scan_early() {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "big",
            vec![Column::not_null("id", DataType::Int)],
            vec![0],
        ));
        for i in 0..1000i64 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(t).unwrap();
        let p = Plan::scan(&c, "big").unwrap().limit(3);
        // Threads pinned: one wave examines at most threads x morsel rows,
        // so the examined-row bound below depends on the thread count.
        let ctx = ExecContext::new().with_batch_size(8).with_morsel_size(8).with_threads(2);
        let mut qs = execute_streaming(&p, &c, &ctx).unwrap();
        let rows = qs.drain().unwrap();
        let m = qs.metrics();
        assert_eq!(rows.len(), 3);
        let scan = m.find("Scan big").unwrap();
        assert!(
            scan.rows_out <= 3 + 2 * 8,
            "limit must stop pulling: scan emitted {} rows",
            scan.rows_out
        );
        assert!(scan.rows_in <= 16, "scan examined {} rows", scan.rows_in);
    }

    #[test]
    fn cancellation_surfaces_as_error() {
        let c = cat();
        let p = Plan::scan(&c, "emp").unwrap();
        let ctx = ExecContext::new();
        let mut qs = execute_streaming(&p, &c, &ctx).unwrap();
        ctx.cancel();
        assert_eq!(qs.next_batch(), Err(EngineError::Cancelled));
    }

    /// A panic inside a morsel worker must surface the panic payload, not a
    /// generic "morsel worker panicked" with no diagnosis. `i64::MIN.abs()`
    /// panics with "attempt to negate with overflow" in debug builds only,
    /// so the test is debug-gated; the profile-independent panic plumbing is
    /// covered by `pool::tests::panics_propagate_payload_message`.
    #[cfg(debug_assertions)]
    #[test]
    fn morsel_worker_panic_carries_payload_message() {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "edge",
            vec![Column::not_null("x", DataType::Int)],
            vec![0],
        ));
        for i in 0..8i64 {
            t.insert(vec![Value::Int(if i == 6 { i64::MIN } else { i })]).unwrap();
        }
        c.create_table(t).unwrap();
        // abs(x) >= 0 is fused into the scan's morsel workers; the i64::MIN
        // row makes one worker panic mid-wave.
        let p = Plan::scan(&c, "edge").unwrap().filter(Expr::binary(
            crate::expr::BinOp::Ge,
            Expr::func(ScalarFunc::Abs, vec![Expr::col(0)]),
            Expr::lit(0i64),
        ));
        let ctx = ExecContext::new().with_threads(4).with_morsel_size(2);
        let err = execute_streaming(&p, &c, &ctx).unwrap().drain().unwrap_err();
        let EngineError::Eval(msg) = err else { panic!("expected Eval error, got {err:?}") };
        assert!(msg.contains("panicked"), "not a panic report: {msg}");
        assert!(
            msg.contains("overflow"),
            "panic payload must be preserved for diagnosis, got: {msg}"
        );
    }

    #[test]
    fn fused_chain_reports_parallelism_in_metrics() {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "nums",
            vec![Column::not_null("x", DataType::Int)],
            vec![0],
        ));
        for i in 0..64i64 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(t).unwrap();
        let p = Plan::scan(&c, "nums")
            .unwrap()
            .filter(Expr::binary(crate::expr::BinOp::Lt, Expr::col(0), Expr::lit(32i64)))
            .project(vec![
                (Expr::binary(crate::expr::BinOp::Add, Expr::col(0), Expr::lit(1i64)), "y".into()),
            ]);
        let ctx = ExecContext::new().with_threads(4).with_morsel_size(8);
        let mut qs = execute_streaming(&p, &c, &ctx).unwrap();
        let rows = qs.drain().unwrap();
        let m = qs.metrics();
        let want: Vec<Row> = (1..=32i64).map(|y| vec![Value::Int(y)]).collect();
        assert_eq!(rows, want, "fused chain yields the filtered, projected rows in slot order");
        // Plan shape is preserved: Project -> Filter -> Scan, but the whole
        // chain executed inside the scan's morsel workers.
        assert_eq!(m.name, "Project");
        assert!(m.fused, "top of a fused chain is marked fused\n{}", m.render());
        let filter = &m.children[0];
        assert!(filter.fused, "inner fused node marked\n{}", m.render());
        assert_eq!(filter.rows_out, 32);
        let scan = &filter.children[0];
        assert_eq!(scan.rows_in, 64);
        assert!(scan.waves > 0, "scan should have run pool waves\n{}", m.render());
        // At least the submitting thread participates in every wave; on a
        // multi-core machine pool workers join it (peak is recorded).
        assert!(scan.workers >= 1, "expected participant count\n{}", m.render());
    }

    #[test]
    fn every_node_of_a_vectorized_fused_chain_is_marked_columnar() {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "pairs",
            vec![Column::not_null("x", DataType::Int), Column::new("y", DataType::Int)],
            vec![0],
        ));
        for i in 0..64i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 8)]).unwrap();
        }
        c.create_table(t).unwrap();
        // Project(bare column) -> Filter -> Scan: the filter compiles to a
        // vector predicate and the projection to a column remap, so the
        // chain's top node ran columnar too, not only the nodes below it.
        let p = Plan::scan(&c, "pairs")
            .unwrap()
            .filter(Expr::binary(crate::expr::BinOp::Lt, Expr::col(1), Expr::lit(2i64)))
            .project(vec![(Expr::col(0), "x".into())]);
        let mut qs = execute_streaming(&p, &c, &ExecContext::new()).unwrap();
        assert_eq!(qs.drain().unwrap().len(), 16);
        let text = qs.metrics().render();
        assert_eq!(text.lines().count(), 3, "Project, Filter, Scan:\n{text}");
        for line in text.lines() {
            assert!(line.contains("[fused] [columnar]"), "{line}\n{text}");
        }
    }

    #[test]
    fn parallel_scan_and_join_match_single_threaded() {
        let mut c = Catalog::new();
        let mut l = Table::new(TableSchema::new(
            "l",
            vec![Column::not_null("id", DataType::Int), Column::new("k", DataType::Int)],
            vec![0],
        ));
        let mut r = Table::new(TableSchema::new(
            "r",
            vec![Column::not_null("id", DataType::Int), Column::new("k", DataType::Int)],
            vec![0],
        ));
        for i in 0..500i64 {
            l.insert(vec![Value::Int(i), Value::Int(i % 17)]).unwrap();
            r.insert(vec![Value::Int(i), Value::Int(i % 13)]).unwrap();
        }
        c.create_table(l).unwrap();
        c.create_table(r).unwrap();
        let plan = Plan::scan(&c, "l")
            .unwrap()
            .filter(Expr::binary(crate::expr::BinOp::Lt, Expr::col(1), Expr::lit(9i64)))
            .join(
                Plan::scan(&c, "r").unwrap(),
                JoinKind::Inner,
                vec![Expr::col(1)],
                vec![Expr::col(1)],
            );
        let seq = execute_streaming(&plan, &c, &ExecContext::new().with_threads(1))
            .unwrap()
            .drain()
            .unwrap();
        let par = execute_streaming(
            &plan,
            &c,
            &ExecContext::new().with_threads(4).with_morsel_size(64),
        )
        .unwrap()
        .drain()
        .unwrap();
        assert_eq!(seq, par, "morsel order keeps parallel output deterministic");
    }

    /// The build side's key chains span the chunk boundary of a two-worker
    /// build (every key repeats throughout both halves, with NULL keys in
    /// between), and the output must still list each left row's matches
    /// in build order: the same rows, in the same order, as one thread and
    /// as a nested loop.
    #[test]
    fn join_chains_keep_build_order_across_parallel_build_chunks() {
        let mut c = Catalog::new();
        let table = |name: &str, n: i64, key: fn(i64) -> Value| {
            let cols = vec![
                Column::not_null("id", DataType::Int),
                Column::new("k", DataType::Int),
                Column::new("j", DataType::Int),
            ];
            let mut t = Table::new(TableSchema::new(name, cols, vec![0]));
            for i in 0..n {
                t.insert(vec![Value::Int(i), key(i), Value::Int(i % 2)]).unwrap();
            }
            t
        };
        c.create_table(table("l", 80, |i| Value::Int(i % 5))).unwrap();
        let r_key = |i| if i % 7 == 0 { Value::Null } else { Value::Int(i % 4) };
        c.create_table(table("r", 101, r_key)).unwrap();
        let rows = |name: &str| -> Vec<Vec<Value>> {
            c.table(name).unwrap().scan().map(|(_, row)| row.clone()).collect()
        };
        let (l, r) = (rows("l"), rows("r"));
        for keys in [vec![1], vec![1, 2]] {
            let ks = || keys.iter().map(|&k| Expr::col(k)).collect::<Vec<_>>();
            let key = |row: &[Value]| keys.iter().map(|&k| row[k].clone()).collect::<Vec<_>>();
            for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi] {
                let mut want: Vec<Vec<Value>> = Vec::new();
                for lrow in &l {
                    let lk = key(lrow);
                    let hits: Vec<&Vec<Value>> = r
                        .iter()
                        .filter(|rrow| !lk.iter().any(Value::is_null) && key(rrow) == lk)
                        .collect();
                    match kind {
                        JoinKind::Semi if !hits.is_empty() => want.push(lrow.clone()),
                        JoinKind::Semi => {}
                        JoinKind::Left if hits.is_empty() => {
                            want.push([lrow.clone(), vec![Value::Null; 3]].concat());
                        }
                        _ => want.extend(hits.iter().map(|h| [&lrow[..], &h[..]].concat())),
                    }
                }
                let r = Plan::scan(&c, "r").unwrap();
                let plan = Plan::scan(&c, "l").unwrap().join(r, kind, ks(), ks());
                for threads in [1, 2] {
                    let ctx = ExecContext::new().with_threads(threads).with_morsel_size(16);
                    let got = execute_streaming(&plan, &c, &ctx).unwrap().drain().unwrap();
                    assert_eq!(got, want, "{kind:?} on {keys:?} at {threads} threads");
                }
            }
        }
    }

    /// `Fetch` appends the row in the slot each input row names; a row id
    /// that names no live row (deleted, past the end, negative, NULL) is an
    /// `EngineError`, never a panic or a silently dropped row.
    #[test]
    fn fetch_follows_row_ids_and_rejects_dangling_ones() {
        let mut c = cat();
        let link = |ids: Vec<Value>| {
            let mut t =
                Table::new(TableSchema::new("link", vec![Column::new("d", DataType::Int)], vec![]));
            for id in ids {
                t.insert(vec![id]).unwrap();
            }
            t
        };
        c.create_table(link(vec![Value::Int(2), Value::Int(0)])).unwrap();
        let plan = Plan::scan(&c, "link").unwrap().fetch(&c, "dept", 0, vec![0, 1]).unwrap();
        assert_eq!(plan.explain(), "Fetch dept rid=#0 [cols=id,name]\n  Scan link\n");
        assert_eq!(
            execute(&plan, &c).unwrap(),
            vec![
                vec![Value::Int(2), Value::Int(3), Value::str("bio")],
                vec![Value::Int(0), Value::Int(1), Value::str("cs")],
            ]
        );
        c.table_mut("dept").unwrap().delete(RowId(1)).unwrap();
        for bad in [Value::Int(1), Value::Int(3), Value::Int(-1), Value::Null] {
            c.drop_table("link").unwrap();
            c.create_table(link(vec![Value::Int(0), bad.clone()])).unwrap();
            let plan = Plan::scan(&c, "link").unwrap().fetch(&c, "dept", 0, vec![1]).unwrap();
            let err = execute(&plan, &c).unwrap_err();
            assert!(matches!(err, EngineError::Eval(_)), "{bad}: {err}");
        }
        let dept = || Plan::scan(&c, "dept").unwrap();
        assert!(dept().fetch(&c, "dept", 1, vec![0]).is_err(), "text is no row id");
        assert!(dept().fetch(&c, "dept", 0, vec![2]).is_err(), "dept has no column #2");
    }
}
