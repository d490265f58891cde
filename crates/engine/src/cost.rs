//! Cardinality estimation over ANALYZE-gathered statistics.
//!
//! [`estimate`] walks a [`Plan`] bottom-up and predicts output rows per
//! node from the catalog's [`erbium_storage::CatalogStats`]: leaf scans
//! start from gathered row counts, predicates apply per-column selectivities
//! derived from NDV / min-max / null-fraction, equi-joins divide by the
//! larger key NDV, unnest multiplies by the gathered average array fan-out.
//!
//! The estimator is deliberately *total or nothing*: it returns `None` as
//! soon as any leaf table lacks gathered statistics, and the optimizer's
//! cost-based passes (build-side selection, join reordering, selectivity
//! filter ranking) disable themselves in that case — an un-ANALYZEd
//! database plans exactly as it did before this module existed.
//!
//! The same estimates annotate `EXPLAIN` output and
//! [`crate::metrics::ExecMetrics`] trees (`est=` column), which is what
//! makes estimate-vs-actual q-error visible per operator. [`plan_cost`]
//! turns them into a relative price for a whole plan; it is the only plan
//! cost function in the workspace, and the mapping advisor ranks candidate
//! covers with it over statistics it synthesizes for tables that hold no
//! data.

use crate::expr::{BinOp, Expr};
use crate::metrics::ExecMetrics;
use crate::plan::{JoinKind, Plan, PlanKind};
use erbium_storage::{Catalog, TableStats, Value};

/// Default array fan-out when a column was never analyzed as an array.
pub const DEFAULT_ARRAY_LEN: f64 = 3.0;
/// Selectivity assumed for predicates the estimator cannot decompose.
const DEFAULT_SEL: f64 = 0.25;
/// Default selectivity of one comparison when min/max are unusable.
const DEFAULT_RANGE_SEL: f64 = 0.3;
/// Default equality selectivity without NDV.
const DEFAULT_EQ_SEL: f64 = 0.1;
/// Floor applied to every predicate selectivity so estimates never collapse
/// to an exact zero (which would make all downstream costs indistinguishable).
const SEL_FLOOR: f64 = 1e-4;

/// Derived statistics for one output column of a plan node. `None` entries
/// in [`Estimate::cols`] mean "nothing known" (computed expressions,
/// aggregate outputs, columns of un-analyzed origin).
#[derive(Debug, Clone)]
pub struct ColEst {
    /// Estimated distinct values.
    pub ndv: f64,
    /// Fraction of NULLs.
    pub null_frac: f64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Average element count for array columns (0 when not an array).
    pub avg_array_len: f64,
}

/// Cardinality estimate for one plan node.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Per-output-column statistics, where derivable.
    pub cols: Vec<Option<ColEst>>,
}

impl Estimate {
    fn unknown_cols(rows: f64, arity: usize) -> Estimate {
        Estimate { rows, cols: vec![None; arity] }
    }
}

/// Build per-column estimates from gathered [`TableStats`].
fn leaf_cols(stats: &TableStats) -> Vec<Option<ColEst>> {
    let rc = stats.row_count as f64;
    stats
        .columns
        .iter()
        .map(|c| {
            Some(ColEst {
                ndv: c.ndv as f64,
                null_frac: if rc > 0.0 { c.null_count as f64 / rc } else { 0.0 },
                min: c.min.clone(),
                max: c.max.clone(),
                avg_array_len: c.avg_array_len,
            })
        })
        .collect()
}

/// Leaf estimate for a named table, from the stats registry.
pub fn table_estimate(cat: &Catalog, key: &str) -> Option<Estimate> {
    let stats = cat.table_stats(key)?;
    Some(Estimate { rows: stats.row_count as f64, cols: leaf_cols(stats) })
}

/// Estimate output rows of `plan` against gathered statistics. Returns
/// `None` when any leaf table referenced by the plan lacks statistics.
pub fn estimate(plan: &Plan, cat: &Catalog) -> Option<Estimate> {
    match &plan.kind {
        PlanKind::Scan { table, filters, projection } => {
            let mut est = table_estimate(cat, table)?;
            // Filters read table columns; the node emits the projected ones.
            apply_filters(&mut est, filters);
            if let Some(p) = projection {
                est.cols = p.iter().map(|&c| est.cols.get(c).cloned().flatten()).collect();
            }
            Some(est)
        }
        PlanKind::IndexLookup { table, columns, keys, residual } => {
            let base = table_estimate(cat, table)?;
            let mut sel = 1.0;
            for &c in columns {
                sel *= eq_sel(base.cols.get(c).and_then(|c| c.as_ref()));
            }
            let mut est = Estimate {
                rows: (base.rows * sel * keys.len() as f64).max(0.0),
                cols: base.cols,
            };
            apply_filters(&mut est, residual);
            Some(est)
        }
        PlanKind::IndexRange { table, column, lo, hi, residual } => {
            let base = table_estimate(cat, table)?;
            let ce = base.cols.get(*column).and_then(|c| c.as_ref());
            // A parameter bound is unknown until execution: default range
            // selectivity, as for a non-literal comparison.
            fn lit(b: &Option<(Expr, bool)>) -> Option<Option<&Value>> {
                match b {
                    None => Some(None),
                    Some((Expr::Lit(v), _)) => Some(Some(v)),
                    Some(_) => None,
                }
            }
            let sel = match (lit(lo), lit(hi)) {
                (Some(lo), Some(hi)) => range_bounds_sel(ce, lo, hi),
                _ => DEFAULT_RANGE_SEL,
            };
            let mut est = Estimate { rows: base.rows * sel, cols: base.cols };
            apply_filters(&mut est, residual);
            Some(est)
        }
        // One fetched row per input row: the input's cardinality, with the
        // fetched table's column statistics appended.
        PlanKind::Fetch { input, table, columns, .. } => {
            let mut est = estimate(input, cat)?;
            let fetched = table_estimate(cat, table)?.cols;
            est.cols.extend(columns.iter().map(|&c| fetched.get(c).cloned().flatten()));
            Some(est)
        }
        PlanKind::Filter { input, predicate } => {
            let mut est = estimate(input, cat)?;
            apply_filters(&mut est, std::slice::from_ref(predicate));
            Some(est)
        }
        PlanKind::Project { input, exprs } => {
            let est = estimate(input, cat)?;
            let cols = exprs
                .iter()
                .map(|e| match e {
                    Expr::Col(i) => est.cols.get(*i).cloned().flatten(),
                    _ => None,
                })
                .collect();
            Some(Estimate { rows: est.rows, cols })
        }
        PlanKind::Join { left, right, kind, left_keys, right_keys } => {
            let l = estimate(left, cat)?;
            let r = estimate(right, cat)?;
            Some(join_estimate(&l, &r, *kind, left_keys, right_keys))
        }
        PlanKind::Aggregate { input, group, aggs } => {
            let est = estimate(input, cat)?;
            if group.is_empty() {
                return Some(Estimate::unknown_cols(1.0, aggs.len()));
            }
            // Groups ≈ product of group-key NDVs, capped by input rows.
            let mut groups = 1.0f64;
            for g in group {
                groups *= match g {
                    Expr::Col(i) => est
                        .cols
                        .get(*i)
                        .and_then(|c| c.as_ref())
                        .map(|c| c.ndv.max(1.0))
                        .unwrap_or(10.0),
                    _ => 10.0,
                };
            }
            let rows = groups.min(est.rows).max(est.rows.min(1.0));
            let mut cols: Vec<Option<ColEst>> = group
                .iter()
                .map(|g| match g {
                    Expr::Col(i) => est.cols.get(*i).cloned().flatten(),
                    _ => None,
                })
                .collect();
            cols.extend(std::iter::repeat_with(|| None).take(aggs.len()));
            Some(Estimate { rows, cols })
        }
        PlanKind::Unnest { input, column, keep_empty } => {
            let est = estimate(input, cat)?;
            let fan = est
                .cols
                .get(*column)
                .and_then(|c| c.as_ref())
                .map(|c| if c.avg_array_len > 0.0 { c.avg_array_len } else { DEFAULT_ARRAY_LEN })
                .unwrap_or(DEFAULT_ARRAY_LEN);
            let fan = if *keep_empty { fan.max(1.0) } else { fan };
            let mut cols = est.cols.clone();
            if let Some(c) = cols.get_mut(*column) {
                *c = None; // element-level stats unknown
            }
            Some(Estimate { rows: est.rows * fan, cols })
        }
        PlanKind::Sort { input, .. } => estimate(input, cat),
        PlanKind::Limit { input, limit } => {
            let est = estimate(input, cat)?;
            Some(Estimate { rows: est.rows.min(*limit as f64), cols: est.cols })
        }
        PlanKind::Distinct { input } => {
            let est = estimate(input, cat)?;
            // Distinct over all columns: capped product of NDVs when every
            // column is known, otherwise pass the input estimate through.
            let ndvs: Option<f64> = est
                .cols
                .iter()
                .map(|c| c.as_ref().map(|c| c.ndv.max(1.0)))
                .try_fold(1.0f64, |acc, n| n.map(|n| acc * n));
            let rows = match ndvs {
                Some(n) => n.min(est.rows),
                None => est.rows,
            };
            Some(Estimate { rows, cols: est.cols })
        }
        PlanKind::Union { inputs } => {
            let mut rows = 0.0;
            for i in inputs {
                rows += estimate(i, cat)?.rows;
            }
            Some(Estimate::unknown_cols(rows, plan.fields.len()))
        }
        PlanKind::Values { rows } => {
            Some(Estimate::unknown_cols(rows.len() as f64, plan.fields.len()))
        }
    }
}

/// Combine two side estimates into a join estimate.
fn join_estimate(
    l: &Estimate,
    r: &Estimate,
    kind: JoinKind,
    left_keys: &[Expr],
    right_keys: &[Expr],
) -> Estimate {
    // Classic equi-join formula: |L ⋈ R| = |L|·|R| / Π max(ndv_l, ndv_r),
    // falling back to max(|L|, |R|) as the denominator for opaque keys.
    let mut denom = 1.0f64;
    let mut known = false;
    for (lk, rk) in left_keys.iter().zip(right_keys.iter()) {
        let ln = key_ndv(lk, l);
        let rn = key_ndv(rk, r);
        if let (Some(ln), Some(rn)) = (ln, rn) {
            denom *= ln.max(rn).max(1.0);
            known = true;
        }
    }
    if !known {
        denom = l.rows.max(r.rows).max(1.0);
    }
    let inner = (l.rows * r.rows / denom).max(0.0);
    let (rows, cols) = match kind {
        JoinKind::Inner => {
            let mut cols = l.cols.clone();
            cols.extend(r.cols.iter().cloned());
            (inner, cols)
        }
        JoinKind::Left => {
            let mut cols = l.cols.clone();
            cols.extend(r.cols.iter().cloned());
            (inner.max(l.rows), cols)
        }
        JoinKind::Semi => (inner.min(l.rows), l.cols.clone()),
    };
    Estimate { rows, cols }
}

fn key_ndv(key: &Expr, est: &Estimate) -> Option<f64> {
    match key {
        Expr::Col(i) => est.cols.get(*i).and_then(|c| c.as_ref()).map(|c| c.ndv),
        _ => None,
    }
}

/// Multiply a node estimate by the combined selectivity of `filters`.
fn apply_filters(est: &mut Estimate, filters: &[Expr]) {
    for f in filters {
        let sel = selectivity(f, est);
        est.rows *= sel;
    }
}

/// Estimated fraction of rows satisfying `pred`, given per-column stats.
/// Always in `[SEL_FLOOR, 1.0]`.
pub fn selectivity(pred: &Expr, est: &Estimate) -> f64 {
    raw_selectivity(pred, est).clamp(SEL_FLOOR, 1.0)
}

fn raw_selectivity(pred: &Expr, est: &Estimate) -> f64 {
    match pred {
        Expr::Lit(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Binary { op: BinOp::And, left, right } => {
            raw_selectivity(left, est) * raw_selectivity(right, est)
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let a = raw_selectivity(left, est);
            let b = raw_selectivity(right, est);
            (a + b - a * b).min(1.0)
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            comparison_selectivity(*op, left, right, est)
        }
        Expr::InSet { expr, set } => match &**expr {
            Expr::Col(i) => {
                let ce = est.cols.get(*i).and_then(|c| c.as_ref());
                match ce {
                    Some(c) if c.ndv > 0.0 => {
                        ((set.len() as f64 / c.ndv) * (1.0 - c.null_frac)).min(1.0)
                    }
                    _ => (set.len() as f64 * DEFAULT_EQ_SEL).min(1.0),
                }
            }
            _ => (set.len() as f64 * DEFAULT_EQ_SEL).min(1.0),
        },
        Expr::IsNull(e) => match &**e {
            Expr::Col(i) => est
                .cols
                .get(*i)
                .and_then(|c| c.as_ref())
                .map(|c| c.null_frac)
                .unwrap_or(DEFAULT_EQ_SEL),
            _ => DEFAULT_EQ_SEL,
        },
        Expr::IsNotNull(e) => match &**e {
            Expr::Col(i) => est
                .cols
                .get(*i)
                .and_then(|c| c.as_ref())
                .map(|c| 1.0 - c.null_frac)
                .unwrap_or(1.0 - DEFAULT_EQ_SEL),
            _ => 1.0 - DEFAULT_EQ_SEL,
        },
        Expr::Unary { op: crate::expr::UnOp::Not, expr } => 1.0 - raw_selectivity(expr, est),
        _ => DEFAULT_SEL,
    }
}

fn comparison_selectivity(op: BinOp, left: &Expr, right: &Expr, est: &Estimate) -> f64 {
    // Normalize to Col <op> Lit.
    let (col, lit, op) = match (left, right) {
        (Expr::Col(i), Expr::Lit(v)) => (*i, v, op),
        (Expr::Lit(v), Expr::Col(i)) => {
            let mirrored = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => other,
            };
            (*i, v, mirrored)
        }
        // Col = Col (e.g. self-join residual): 1/max ndv.
        (Expr::Col(a), Expr::Col(b)) if op == BinOp::Eq => {
            let na = est.cols.get(*a).and_then(|c| c.as_ref()).map(|c| c.ndv.max(1.0));
            let nb = est.cols.get(*b).and_then(|c| c.as_ref()).map(|c| c.ndv.max(1.0));
            return match (na, nb) {
                (Some(na), Some(nb)) => 1.0 / na.max(nb),
                _ => DEFAULT_EQ_SEL,
            };
        }
        _ => {
            return if op == BinOp::Eq { DEFAULT_EQ_SEL } else { DEFAULT_RANGE_SEL };
        }
    };
    let ce = est.cols.get(col).and_then(|c| c.as_ref());
    match op {
        BinOp::Eq => eq_sel(ce),
        BinOp::Ne => 1.0 - eq_sel(ce),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let Some(c) = ce else { return DEFAULT_RANGE_SEL };
            let (Some(lo), Some(hi), Some(v)) = (
                c.min.as_ref().and_then(Value::as_float),
                c.max.as_ref().and_then(Value::as_float),
                lit.as_float(),
            ) else {
                return DEFAULT_RANGE_SEL;
            };
            if hi <= lo {
                // Single-valued or empty column: degenerate range.
                return DEFAULT_RANGE_SEL;
            }
            // Uniform linear interpolation within [min, max].
            let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            let frac = match op {
                BinOp::Lt | BinOp::Le => frac,
                _ => 1.0 - frac,
            };
            frac * (1.0 - c.null_frac)
        }
        _ => DEFAULT_SEL,
    }
}

fn eq_sel(ce: Option<&ColEst>) -> f64 {
    match ce {
        Some(c) if c.ndv > 0.0 => (1.0 - c.null_frac) / c.ndv,
        _ => DEFAULT_EQ_SEL,
    }
}

/// Selectivity of an (optionally half-open) `[lo, hi]` range over a column,
/// by linear interpolation inside the gathered min/max. Used for the
/// `IndexRange` plan node with literal bounds.
fn range_bounds_sel(ce: Option<&ColEst>, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
    let Some(c) = ce else { return DEFAULT_RANGE_SEL };
    let (Some(cmin), Some(cmax)) =
        (c.min.as_ref().and_then(Value::as_float), c.max.as_ref().and_then(Value::as_float))
    else {
        return DEFAULT_RANGE_SEL;
    };
    if cmax <= cmin {
        return DEFAULT_RANGE_SEL;
    }
    let width = cmax - cmin;
    let lo_frac = match lo.and_then(Value::as_float) {
        Some(v) => ((v - cmin) / width).clamp(0.0, 1.0),
        None => 0.0,
    };
    let hi_frac = match hi.and_then(Value::as_float) {
        Some(v) => ((v - cmin) / width).clamp(0.0, 1.0),
        None => 1.0,
    };
    ((hi_frac - lo_frac).max(0.0)) * (1.0 - c.null_frac)
}

// ---- plan cost -----------------------------------------------------------------

/// Bytes per attribute value that turn a table's `total_bytes` into a row
/// width (in values) for the scan weight of [`plan_cost`]; statistics
/// synthesized for tables that hold no data use the same convention.
pub const BYTES_PER_VALUE: f64 = 8.0;

/// Relative execution cost of `plan`: unit-free work, roughly the rows each
/// operator touches, with scans weighted by row width. Only the ranking of
/// alternatives is meaningful — the mapping advisor prices one workload
/// under many candidate covers with it.
///
/// Every cardinality comes from [`estimate`], and the function is total or
/// nothing in the same way: `None` as soon as any leaf lacks statistics.
pub fn plan_cost(plan: &Plan, cat: &Catalog) -> Option<f64> {
    let rows = |p: &Plan| estimate(p, cat).map(|e| e.rows);
    let cost = |p: &Plan| plan_cost(p, cat);
    Some(match &plan.kind {
        PlanKind::Scan { table, .. } => {
            let stats = cat.table_stats(table)?;
            stats.row_count as f64 * (1.0 + 0.1 * stats.avg_row_bytes() / BYTES_PER_VALUE)
        }
        PlanKind::IndexLookup { .. } => 2.0 * rows(plan)?,
        PlanKind::IndexRange { table, .. } => {
            rows(plan)? + table_estimate(cat, table)?.rows.max(2.0).log2()
        }
        // One slot probe per row: a live-bit test and an array index, no
        // hashing and no key comparison — half a hash-join probe.
        PlanKind::Fetch { input, .. } => cost(input)? + 0.5 * rows(plan)?,
        PlanKind::Filter { input, .. } | PlanKind::Distinct { input } => {
            cost(input)? + rows(input)?
        }
        PlanKind::Project { input, exprs } => {
            cost(input)? + 0.05 * exprs.len() as f64 * rows(input)?
        }
        PlanKind::Join { left, right, .. } => {
            cost(left)? + cost(right)? + rows(left)? + 1.5 * rows(right)? + 0.5 * rows(plan)?
        }
        PlanKind::Aggregate { input, .. } => cost(input)? + 1.2 * rows(input)?,
        PlanKind::Unnest { input, .. } => cost(input)? + rows(plan)?,
        PlanKind::Sort { input, .. } => {
            let n = rows(input)?.max(2.0);
            cost(input)? + 0.2 * n * n.log2()
        }
        PlanKind::Limit { input, .. } => cost(input)?,
        // Each branch pays a small fixed overhead.
        PlanKind::Union { inputs } => {
            inputs.iter().map(|i| Some(cost(i)? + 0.5)).sum::<Option<f64>>()?
        }
        PlanKind::Values { rows } => rows.len() as f64,
    })
}

// ---- explain / metrics annotation ------------------------------------------

/// Render `plan.explain()` with per-node `est=N` row estimates appended.
/// Falls back to the plain rendering when no statistics are gathered.
pub fn explain_with_estimates(plan: &Plan, cat: &Catalog) -> String {
    if cat.stats().is_empty() {
        return plan.explain();
    }
    plan.explain_annotated(&|node: &Plan| {
        estimate(node, cat).map(|e| format!("est={:.0}", e.rows))
    })
}

/// Attach per-operator row estimates to an executed [`ExecMetrics`] tree.
///
/// The metrics tree is plan-shaped (one node per plan operator, join
/// children ordered `[left, right]`), so the two trees are zipped
/// structurally. Nodes without a derivable estimate keep `est_rows: None`.
pub fn annotate_metrics(metrics: &mut ExecMetrics, plan: &Plan, cat: &Catalog) {
    if cat.stats().is_empty() {
        return;
    }
    zip_annotate(metrics, plan, cat);
}

fn zip_annotate(metrics: &mut ExecMetrics, plan: &Plan, cat: &Catalog) {
    metrics.est_rows = estimate(plan, cat).map(|e| e.rows);
    let children: Vec<&Plan> = match &plan.kind {
        PlanKind::Filter { input, .. }
        | PlanKind::Project { input, .. }
        | PlanKind::Fetch { input, .. }
        | PlanKind::Aggregate { input, .. }
        | PlanKind::Unnest { input, .. }
        | PlanKind::Sort { input, .. }
        | PlanKind::Limit { input, .. }
        | PlanKind::Distinct { input } => vec![input],
        PlanKind::Join { left, right, .. } => vec![left, right],
        PlanKind::Union { inputs } => inputs.iter().collect(),
        _ => vec![],
    };
    for (m, p) in metrics.children.iter_mut().zip(children) {
        zip_annotate(m, p, cat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Field;
    use erbium_storage::{Column, ColumnStats, DataType, Table, TableSchema};

    fn analyzed_cat() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("grp", DataType::Int),
                Column::new("v", DataType::Int),
            ],
            vec![0],
        ));
        for i in 0..1000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i)]).unwrap();
        }
        c.create_table(t).unwrap();
        let mut dim = Table::new(TableSchema::new(
            "dim",
            vec![Column::not_null("k", DataType::Int)],
            vec![0],
        ));
        for i in 0..10i64 {
            dim.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(dim).unwrap();
        c.analyze();
        c
    }

    #[test]
    fn no_stats_means_no_estimate() {
        let mut c = Catalog::new();
        c.create_table(Table::new(TableSchema::new(
            "t",
            vec![Column::not_null("id", DataType::Int)],
            vec![0],
        )))
        .unwrap();
        let p = Plan::scan(&c, "t").unwrap();
        assert!(estimate(&p, &c).is_none());
    }

    #[test]
    fn scan_estimate_is_row_count() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t").unwrap();
        let e = estimate(&p, &c).unwrap();
        assert!((e.rows - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn eq_filter_uses_ndv() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::eq(Expr::col(1), Expr::lit(3i64)));
        let e = estimate(&p, &c).unwrap();
        // grp has 10 distinct values over 1000 rows → ~100.
        assert!((e.rows - 100.0).abs() < 1.0, "rows={}", e.rows);
    }

    /// A narrowed scan's column estimates follow its projection, so a
    /// consumer indexing them by output position reads the right column.
    #[test]
    fn projected_scan_estimates_its_kept_columns() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::eq(Expr::col(2), Expr::lit(3i64)))
            .project(vec![(Expr::col(1), "grp".into())]);
        let p = crate::optimizer::optimize(p, &c).unwrap();
        let PlanKind::Project { input, .. } = &p.kind else { panic!("{}", p.explain()) };
        assert!(matches!(&input.kind, PlanKind::Scan { projection: Some(cols), .. } if cols == &[1]));
        let e = estimate(input, &c).unwrap();
        assert_eq!(e.cols.len(), 1);
        let ndv = e.cols[0].as_ref().map(|c| c.ndv);
        assert_eq!(ndv, Some(10.0), "grp's NDV, not id's: {:?}", e.cols);
    }

    #[test]
    fn range_filter_interpolates_min_max() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::binary(BinOp::Lt, Expr::col(2), Expr::lit(250i64)));
        let e = estimate(&p, &c).unwrap();
        // v uniform over [0, 999] → ~25%.
        assert!((e.rows - 250.0).abs() < 10.0, "rows={}", e.rows);
    }

    #[test]
    fn param_range_bound_takes_default_selectivity() {
        let c = analyzed_cat();
        let range = |hi: Expr| Plan {
            kind: PlanKind::IndexRange {
                table: "t".into(),
                column: 2,
                lo: None,
                hi: Some((hi, false)),
                residual: vec![],
            },
            fields: Plan::scan(&c, "t").unwrap().fields,
        };
        let lit = estimate(&range(Expr::lit(100i64)), &c).unwrap().rows;
        assert!((lit - 100.0).abs() < 2.0, "interpolated from min/max: {lit}");
        let param = estimate(&range(Expr::Param(0)), &c).unwrap().rows;
        assert!((param - 1000.0 * DEFAULT_RANGE_SEL).abs() < 1e-9, "{param}");
        assert!(plan_cost(&range(Expr::Param(0)), &c).is_some());
    }

    #[test]
    fn join_divides_by_key_ndv() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t").unwrap().join(
            Plan::scan(&c, "dim").unwrap(),
            JoinKind::Inner,
            vec![Expr::col(1)],
            vec![Expr::col(0)],
        );
        let e = estimate(&p, &c).unwrap();
        // 1000 × 10 / max(10, 10) = 1000.
        assert!((e.rows - 1000.0).abs() < 1.0, "rows={}", e.rows);
    }

    #[test]
    fn limit_caps_estimate() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t").unwrap().limit(7);
        assert!((estimate(&p, &c).unwrap().rows - 7.0).abs() < 1e-9);
    }

    #[test]
    fn explain_with_estimates_annotates_nodes() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::eq(Expr::col(1), Expr::lit(3i64)));
        let text = explain_with_estimates(&p, &c);
        assert!(text.contains("est="), "{text}");
        // Without stats the rendering is byte-identical to plain explain().
        let bare = Catalog::new();
        let p2 = Plan {
            kind: PlanKind::Values { rows: vec![] },
            fields: vec![],
        };
        assert_eq!(explain_with_estimates(&p2, &bare), p2.explain());
    }

    // ---- edge cases ---------------------------------------------------

    #[test]
    fn empty_table_estimates_zero_without_nan() {
        // An ANALYZEd table with zero rows must yield rc=0 estimates, not
        // NaN from the 0/0 null-fraction division in `leaf_cols`.
        let mut c = Catalog::new();
        c.create_table(Table::new(TableSchema::new(
            "empty",
            vec![Column::not_null("id", DataType::Int), Column::new("v", DataType::Int)],
            vec![0],
        )))
        .unwrap();
        c.analyze();
        let p = Plan::scan(&c, "empty").unwrap();
        let e = estimate(&p, &c).unwrap();
        assert_eq!(e.rows, 0.0);
        for ce in e.cols.iter().flatten() {
            assert!(ce.null_frac.is_finite(), "null_frac must not be NaN on rc=0");
        }
        // Filters over the empty estimate stay at zero and finite.
        let pf = Plan::scan(&c, "empty")
            .unwrap()
            .filter(Expr::eq(Expr::col(1), Expr::lit(3i64)));
        let ef = estimate(&pf, &c).unwrap();
        assert!(ef.rows == 0.0 && ef.rows.is_finite(), "rows={}", ef.rows);
    }

    #[test]
    fn all_null_column_uses_null_fraction() {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "n",
            vec![Column::not_null("id", DataType::Int), Column::new("v", DataType::Int)],
            vec![0],
        ));
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        c.create_table(t).unwrap();
        c.analyze();
        let base = Plan::scan(&c, "n").unwrap();
        let e = estimate(&base, &c).unwrap();
        let ce = e.cols[1].as_ref().expect("stats for all-NULL column");
        assert!((ce.null_frac - 1.0).abs() < 1e-9, "null_frac={}", ce.null_frac);
        // IS NULL keeps everything; IS NOT NULL collapses to the floor.
        let is_null = base.clone().filter(Expr::IsNull(Box::new(Expr::col(1))));
        let en = estimate(&is_null, &c).unwrap();
        assert!((en.rows - 100.0).abs() < 1e-6, "rows={}", en.rows);
        let not_null =
            Plan::scan(&c, "n").unwrap().filter(Expr::IsNotNull(Box::new(Expr::col(1))));
        let enn = estimate(&not_null, &c).unwrap();
        assert!(enn.rows <= 100.0 * SEL_FLOOR + 1e-9, "rows={}", enn.rows);
        assert!(enn.rows.is_finite());
    }

    #[test]
    fn limit_zero_estimates_zero_rows() {
        let c = analyzed_cat();
        let p = Plan::scan(&c, "t").unwrap().limit(0);
        let e = estimate(&p, &c).unwrap();
        assert_eq!(e.rows, 0.0);
        let text = explain_with_estimates(&p, &c);
        assert!(text.contains("est=0"), "{text}");
    }

    #[test]
    fn q_error_handles_zero_actual_rows() {
        // est=50 but the operator emitted nothing: both sides are floored at
        // one row, so q-error is 50 — finite, renderable, no divide-by-zero.
        let m = ExecMetrics {
            name: "Scan(t)".into(),
            rows_out: 0,
            est_rows: Some(50.0),
            ..ExecMetrics::default()
        };
        assert_eq!(m.q_error(), Some(50.0));
        let text = m.render();
        assert!(text.contains("est=50 q=50.00"), "{text}");
        // est=0 and actual=0 floor to 1/1 → perfect score, not NaN.
        let z = ExecMetrics { est_rows: Some(0.0), ..ExecMetrics::default() };
        assert_eq!(z.q_error(), Some(1.0));
    }

    // ---- plan cost ------------------------------------------------------

    /// A catalog holding only statistics (no tables): a one-column table per
    /// `(name, rows)`, its column as distinct as the table has rows.
    fn stats_only(tables: &[(&str, u64)]) -> Catalog {
        let mut c = Catalog::new();
        for &(name, rows) in tables {
            let column = ColumnStats { ndv: rows, ..ColumnStats::default() };
            let columns = vec![column];
            c.put_stats(name, TableStats { row_count: rows, columns, total_bytes: rows * 24 });
        }
        c
    }

    fn scan(table: &str, filters: Vec<Expr>) -> Plan {
        Plan {
            kind: PlanKind::Scan { table: table.into(), filters, projection: None },
            fields: vec![Field::new("x", DataType::Int)],
        }
    }

    /// `left ⋈ right` on their first columns.
    fn join(left: &str, right: &str) -> Plan {
        let key = || vec![Expr::col(0)];
        scan(left, vec![]).join(scan(right, vec![]), JoinKind::Inner, key(), key())
    }

    #[test]
    fn index_lookup_beats_scan() {
        let c = stats_only(&[("t", 1_000_000)]);
        let filtered = scan("t", vec![Expr::eq(Expr::col(0), Expr::lit(1i64))]);
        let lookup = Plan {
            kind: PlanKind::IndexLookup {
                table: "t".into(),
                columns: vec![0],
                keys: vec![Expr::lit(1i64)],
                residual: vec![],
            },
            fields: vec![Field::new("x", DataType::Int)],
        };
        let scan_cost = plan_cost(&filtered, &c).unwrap();
        let lookup_cost = plan_cost(&lookup, &c).unwrap();
        assert!(lookup_cost < scan_cost / 100.0, "lookup={lookup_cost} scan={scan_cost}");
    }

    #[test]
    fn join_cost_grows_with_inputs() {
        let c = stats_only(&[("a", 1_000), ("b", 100_000)]);
        assert!(plan_cost(&join("a", "b"), &c).unwrap() > plan_cost(&join("a", "a"), &c).unwrap());
    }

    #[test]
    fn plan_cost_needs_stats_on_every_leaf() {
        let c = stats_only(&[("a", 1_000)]);
        assert!(plan_cost(&scan("a", vec![]), &c).is_some());
        assert!(plan_cost(&scan("b", vec![]), &c).is_none());
        assert!(plan_cost(&join("a", "b"), &c).is_none(), "one leaf without stats prices nothing");
    }
}
