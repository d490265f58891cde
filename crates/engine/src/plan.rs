//! Logical/physical query plans.
//!
//! Plans are built by the mapping layer (which translates ERQL over the E/R
//! schema into operations over physical tables) and executed by
//! [`crate::exec`]. Every node carries its output [`Field`]s so upper layers
//! can resolve attribute names to column positions without a separate
//! binder pass.

use crate::agg::{AggCall, AggFunc};
use crate::error::{EngineError, EngineResult};
use crate::expr::{BinOp, Expr, ScalarFunc};
use erbium_storage::{Catalog, DataType, Row, Value};
use std::fmt::Write as _;

/// One output column of a plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype }
    }
}

/// Join variants supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Left outer: unmatched left rows are null-extended. The paper notes
    /// inheritance hierarchies "may result in a large number of left outer
    /// joins" when mapped onto a relational backend.
    Left,
    /// Left semi: left rows with at least one match, emitted once.
    Semi,
}

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub desc: bool,
}

/// A plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub kind: PlanKind,
    pub fields: Vec<Field>,
}

/// Plan node kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// Full scan with conjunctive pushed-down filters.
    ///
    /// `projection`, when set by the optimizer's pruning pass, lists the
    /// table columns (ascending) the scan materializes; the node's `fields`
    /// are the corresponding subset. `filters` always stay in the *original*
    /// table column space — they are evaluated during the scan, before
    /// projection, so filter-only columns are read but never materialized.
    Scan { table: String, filters: Vec<Expr>, projection: Option<Vec<usize>> },
    /// Point lookups through an index on `columns` for each key in `keys`,
    /// with residual filters applied to fetched rows. Each key is a literal
    /// or a `Param` that [`bind_params`] turns into one, so a cached
    /// template keeps its index; a NULL key matches nothing.
    IndexLookup { table: String, columns: Vec<usize>, keys: Vec<Expr>, residual: Vec<Expr> },
    /// Range scan through a BTree index on one column, with residual
    /// filters applied to fetched rows. Bounds are literals or `Param`s,
    /// inclusive/exclusive per the flags; `None` means unbounded, NULL
    /// entries never qualify, and a NULL bound matches nothing.
    IndexRange {
        table: String,
        column: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
        residual: Vec<Expr>,
    },
    /// Follow stored pointers: for each input row, read the row id in
    /// column `rid` and append the `columns` of the live row in that slot
    /// of `table`. A relationship traversal over a row-id link table, not a
    /// join. A NULL, negative, out-of-range or dead row id is an error.
    Fetch { input: Box<Plan>, table: String, rid: usize, columns: Vec<usize> },
    Filter { input: Box<Plan>, predicate: Expr },
    Project { input: Box<Plan>, exprs: Vec<Expr> },
    Join { left: Box<Plan>, right: Box<Plan>, kind: JoinKind, left_keys: Vec<Expr>, right_keys: Vec<Expr> },
    Aggregate { input: Box<Plan>, group: Vec<Expr>, aggs: Vec<AggCall> },
    /// Replace array column `column` with its elements, one output row per
    /// element. Rows with NULL/empty arrays are dropped (SQL `unnest`)
    /// unless `keep_empty` is set, in which case one row with NULL in the
    /// column is emitted (outer-unnest, used for LEFT joins over folded
    /// weak entities).
    Unnest { input: Box<Plan>, column: usize, keep_empty: bool },
    Sort { input: Box<Plan>, keys: Vec<SortKey> },
    Limit { input: Box<Plan>, limit: usize },
    Distinct { input: Box<Plan> },
    /// UNION ALL of inputs with identical arity.
    Union { inputs: Vec<Plan> },
    /// Literal rows.
    Values { rows: Vec<Row> },
}

impl Plan {
    // ---- constructors -----------------------------------------------------

    /// Scan a catalog table.
    pub fn scan(cat: &Catalog, table: &str) -> EngineResult<Plan> {
        let t = cat.table(table)?;
        let fields = t
            .schema()
            .columns
            .iter()
            .map(|c| Field::new(c.name.clone(), c.dtype.clone()))
            .collect();
        Ok(Plan {
            kind: PlanKind::Scan { table: table.to_string(), filters: Vec::new(), projection: None },
            fields,
        })
    }

    /// Follow the row ids in column `rid` into `table`, appending the
    /// fetched row's `columns` (table column positions) to each input row.
    pub fn fetch(
        self,
        cat: &Catalog,
        table: &str,
        rid: usize,
        columns: Vec<usize>,
    ) -> EngineResult<Plan> {
        if self.fields.get(rid).map(|f| &f.dtype) != Some(&DataType::Int) {
            let msg = format!("fetch from '{table}': column #{rid} is no row id");
            return Err(EngineError::Plan(msg));
        }
        let schema = cat.table(table)?.schema();
        let mut fields = self.fields.clone();
        for &c in &columns {
            let col = schema.columns.get(c).ok_or_else(|| {
                EngineError::Plan(format!("fetch from '{table}': no column #{c}"))
            })?;
            fields.push(Field::new(col.name.clone(), col.dtype.clone()));
        }
        let table = table.to_string();
        Ok(Plan { kind: PlanKind::Fetch { input: Box::new(self), table, rid, columns }, fields })
    }

    pub fn filter(self, predicate: Expr) -> Plan {
        let fields = self.fields.clone();
        Plan { kind: PlanKind::Filter { input: Box::new(self), predicate }, fields }
    }

    /// Project named expressions.
    pub fn project(self, exprs: Vec<(Expr, String)>) -> Plan {
        let fields = exprs
            .iter()
            .map(|(e, n)| Field::new(n.clone(), infer_type(e, &self.fields)))
            .collect();
        Plan {
            kind: PlanKind::Project {
                input: Box::new(self),
                exprs: exprs.into_iter().map(|(e, _)| e).collect(),
            },
            fields,
        }
    }

    /// Keep a subset of columns by position.
    pub fn project_columns(self, cols: &[usize]) -> Plan {
        let exprs = cols
            .iter()
            .map(|&i| (Expr::Col(i), self.fields[i].name.clone()))
            .collect();
        self.project(exprs)
    }

    /// Hash join on key-expression equality.
    pub fn join(self, right: Plan, kind: JoinKind, left_keys: Vec<Expr>, right_keys: Vec<Expr>) -> Plan {
        let mut fields = self.fields.clone();
        match kind {
            JoinKind::Semi => {}
            JoinKind::Inner | JoinKind::Left => fields.extend(right.fields.iter().cloned()),
        }
        Plan {
            kind: PlanKind::Join {
                left: Box::new(self),
                right: Box::new(right),
                kind,
                left_keys,
                right_keys,
            },
            fields,
        }
    }

    /// Group-by aggregation. Output = group columns then aggregate columns.
    pub fn aggregate(self, group: Vec<(Expr, String)>, aggs: Vec<(AggCall, String)>) -> Plan {
        let mut fields: Vec<Field> = group
            .iter()
            .map(|(e, n)| Field::new(n.clone(), infer_type(e, &self.fields)))
            .collect();
        for (a, n) in &aggs {
            fields.push(Field::new(n.clone(), infer_agg_type(a, &self.fields)));
        }
        Plan {
            kind: PlanKind::Aggregate {
                input: Box::new(self),
                group: group.into_iter().map(|(e, _)| e).collect(),
                aggs: aggs.into_iter().map(|(a, _)| a).collect(),
            },
            fields,
        }
    }

    pub fn unnest(self, column: usize) -> EngineResult<Plan> {
        self.unnest_impl(column, false)
    }

    /// Outer unnest: empty/NULL arrays yield one row with NULL.
    pub fn unnest_outer(self, column: usize) -> EngineResult<Plan> {
        self.unnest_impl(column, true)
    }

    fn unnest_impl(self, column: usize, keep_empty: bool) -> EngineResult<Plan> {
        let mut fields = self.fields.clone();
        let f = fields
            .get_mut(column)
            .ok_or_else(|| EngineError::Plan(format!("unnest column #{column} out of range")))?;
        f.dtype = match &f.dtype {
            DataType::Array(e) => (**e).clone(),
            other => {
                return Err(EngineError::Plan(format!(
                    "unnest over non-array column '{}' of type {other}",
                    f.name
                )))
            }
        };
        Ok(Plan { kind: PlanKind::Unnest { input: Box::new(self), column, keep_empty }, fields })
    }

    pub fn sort(self, keys: Vec<SortKey>) -> Plan {
        let fields = self.fields.clone();
        Plan { kind: PlanKind::Sort { input: Box::new(self), keys }, fields }
    }

    pub fn limit(self, limit: usize) -> Plan {
        let fields = self.fields.clone();
        Plan { kind: PlanKind::Limit { input: Box::new(self), limit }, fields }
    }

    pub fn distinct(self) -> Plan {
        let fields = self.fields.clone();
        Plan { kind: PlanKind::Distinct { input: Box::new(self) }, fields }
    }

    /// UNION ALL. Inputs must have equal arity; field names/types are taken
    /// from the first input.
    pub fn union(inputs: Vec<Plan>) -> EngineResult<Plan> {
        let first = inputs.first().ok_or_else(|| EngineError::Plan("empty union".into()))?;
        let arity = first.fields.len();
        for p in &inputs {
            if p.fields.len() != arity {
                return Err(EngineError::Plan(format!(
                    "union arity mismatch: {} vs {arity}",
                    p.fields.len()
                )));
            }
        }
        let fields = first.fields.clone();
        Ok(Plan { kind: PlanKind::Union { inputs }, fields })
    }

    pub fn values(fields: Vec<Field>, rows: Vec<Row>) -> Plan {
        Plan { kind: PlanKind::Values { rows }, fields }
    }

    // ---- helpers ----------------------------------------------------------

    /// Position of an output column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Position of an output column by name, or a plan error.
    pub fn require_column(&self, name: &str) -> EngineResult<usize> {
        self.column(name).ok_or_else(|| {
            EngineError::Plan(format!(
                "column '{name}' not found in [{}]",
                self.fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join(", ")
            ))
        })
    }

    /// Multi-line indented plan rendering (EXPLAIN).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0, &|_| None);
        s
    }

    /// Like [`Plan::explain`], but appends `annot(node)` (when `Some`) to
    /// each node's line — used by the cost module to render per-node row
    /// estimates. With an always-`None` closure the output is byte-identical
    /// to `explain()`.
    pub fn explain_annotated(&self, annot: &dyn Fn(&Plan) -> Option<String>) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0, annot);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize, annot: &dyn Fn(&Plan) -> Option<String>) {
        let pad = "  ".repeat(depth);
        let suffix = annot(self).map(|a| format!(" [{a}]")).unwrap_or_default();
        match &self.kind {
            PlanKind::Scan { table, filters, projection } => {
                let _ = write!(out, "{pad}Scan {table}");
                if !filters.is_empty() {
                    let _ = write!(out, " filter=[{}]", join_exprs(filters));
                }
                if projection.is_some() {
                    let cols: Vec<&str> = self.fields.iter().map(|f| f.name.as_str()).collect();
                    let _ = write!(out, " [cols={}]", cols.join(","));
                }
                out.push_str(&suffix);
                out.push('\n');
            }
            PlanKind::IndexLookup { table, columns, keys, residual } => {
                // An `IN` list can carry thousands of keys: show the first few.
                const SHOWN: usize = 8;
                let _ = write!(
                    out,
                    "{pad}IndexLookup {table} cols={columns:?} keys=[{}",
                    join_exprs(&keys[..keys.len().min(SHOWN)])
                );
                if keys.len() > SHOWN {
                    let _ = write!(out, ", … {} more", keys.len() - SHOWN);
                }
                out.push(']');
                if !residual.is_empty() {
                    let _ = write!(out, " residual=[{}]", join_exprs(residual));
                }
                out.push_str(&suffix);
                out.push('\n');
            }
            PlanKind::IndexRange { table, column, lo, hi, residual } => {
                let fmt_bound = |b: &Option<(Expr, bool)>| match b {
                    None => "∞".to_string(),
                    Some((v, true)) => format!("{v}="),
                    Some((v, false)) => format!("{v}"),
                };
                let _ = write!(
                    out,
                    "{pad}IndexRange {table} col=#{column} [{} .. {}]",
                    fmt_bound(lo),
                    fmt_bound(hi)
                );
                if !residual.is_empty() {
                    let _ = write!(out, " residual=[{}]", join_exprs(residual));
                }
                out.push_str(&suffix);
                out.push('\n');
            }
            PlanKind::Fetch { input, table, rid, columns } => {
                let fetched = &self.fields[self.fields.len() - columns.len()..];
                let cols: Vec<&str> = fetched.iter().map(|f| f.name.as_str()).collect();
                let _ = writeln!(out, "{pad}Fetch {table} rid=#{rid} [cols={}]{suffix}", cols.join(","));
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter {predicate}{suffix}");
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Project { input, exprs } => {
                let _ = writeln!(out, "{pad}Project [{}]{suffix}", join_exprs(exprs));
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Join { left, right, kind, left_keys, right_keys } => {
                let _ = writeln!(
                    out,
                    "{pad}Join {kind:?} on [{}] = [{}]{suffix}",
                    join_exprs(left_keys),
                    join_exprs(right_keys)
                );
                left.explain_into(out, depth + 1, annot);
                right.explain_into(out, depth + 1, annot);
            }
            PlanKind::Aggregate { input, group, aggs } => {
                let agg_names: Vec<String> =
                    aggs.iter().map(|a| format!("{:?}({})", a.func, a.arg)).collect();
                let _ = writeln!(
                    out,
                    "{pad}Aggregate group=[{}] aggs=[{}]{suffix}",
                    join_exprs(group),
                    agg_names.join(", ")
                );
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Unnest { input, column, keep_empty } => {
                let _ = writeln!(
                    out,
                    "{pad}Unnest #{column}{}{suffix}",
                    if *keep_empty { " (outer)" } else { "" }
                );
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                let _ = writeln!(out, "{pad}Sort [{}]{suffix}", ks.join(", "));
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Limit { input, limit } => {
                let _ = writeln!(out, "{pad}Limit {limit}{suffix}");
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct{suffix}");
                input.explain_into(out, depth + 1, annot);
            }
            PlanKind::Union { inputs } => {
                let _ = writeln!(out, "{pad}UnionAll ({}){suffix}", inputs.len());
                for i in inputs {
                    i.explain_into(out, depth + 1, annot);
                }
            }
            PlanKind::Values { rows } => {
                let _ = writeln!(out, "{pad}Values ({} rows){suffix}", rows.len());
            }
        }
    }
}

fn join_exprs(exprs: &[Expr]) -> String {
    exprs.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
}

/// Best-effort static type of an expression over the given input fields.
pub fn infer_type(expr: &Expr, input: &[Field]) -> DataType {
    match expr {
        Expr::Col(i) => input.get(*i).map(|f| f.dtype.clone()).unwrap_or(DataType::Text),
        Expr::Lit(v) => v.data_type().unwrap_or(DataType::Text),
        // A parameter's type is unknown until bind time; Text is the same
        // "don't know" fallback the other arms use.
        Expr::Param(_) => DataType::Text,
        Expr::Binary { op, left, right } => {
            if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                DataType::Bool
            } else {
                match (infer_type(left, input), infer_type(right, input)) {
                    (DataType::Int, DataType::Int) => DataType::Int,
                    _ => DataType::Float,
                }
            }
        }
        Expr::Unary { op, expr } => match op {
            crate::expr::UnOp::Not => DataType::Bool,
            crate::expr::UnOp::Neg => infer_type(expr, input),
        },
        Expr::Func { func, args } => match func {
            ScalarFunc::ArrayContains => DataType::Bool,
            ScalarFunc::ArrayIntersect | ScalarFunc::Coalesce => {
                args.first().map(|a| infer_type(a, input)).unwrap_or(DataType::Text)
            }
            ScalarFunc::ArrayLen => DataType::Int,
            ScalarFunc::StructPack => DataType::Struct(
                args.iter()
                    .enumerate()
                    .map(|(i, a)| (format!("f{i}"), infer_type(a, input)))
                    .collect(),
            ),
            ScalarFunc::Concat | ScalarFunc::Lower | ScalarFunc::Upper => DataType::Text,
            ScalarFunc::Abs => args.first().map(|a| infer_type(a, input)).unwrap_or(DataType::Int),
        },
        Expr::Field { expr, index } => match infer_type(expr, input) {
            DataType::Struct(fields) => {
                fields.get(*index).map(|(_, t)| t.clone()).unwrap_or(DataType::Text)
            }
            _ => DataType::Text,
        },
        Expr::InSet { .. } | Expr::IsNull(_) | Expr::IsNotNull(_) => DataType::Bool,
    }
}

// ---- prepared-statement parameter binding ----------------------------------

/// Number of positional parameters a plan expects: one past the highest
/// `?n` placeholder anywhere in the plan (0 for a parameter-free plan).
pub fn param_count(plan: &Plan) -> usize {
    fn expr_max(e: &Expr, max: &mut Option<u16>) {
        match e {
            Expr::Param(n) => *max = Some(max.map_or(*n, |m| m.max(*n))),
            Expr::Col(_) | Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                expr_max(left, max);
                expr_max(right, max);
            }
            Expr::Unary { expr, .. }
            | Expr::Field { expr, .. }
            | Expr::InSet { expr, .. }
            | Expr::IsNull(expr)
            | Expr::IsNotNull(expr) => expr_max(expr, max),
            Expr::Func { args, .. } => {
                for a in args {
                    expr_max(a, max);
                }
            }
        }
    }
    let mut max = None;
    walk_exprs(plan, &mut |e| expr_max(e, &mut max));
    max.map(|m| m as usize + 1).unwrap_or(0)
}

/// Visit every expression in a plan tree (filters, predicates, projections,
/// join keys, sort keys, aggregate arguments, index keys and range bounds —
/// everywhere an [`Expr`] can hide).
fn walk_exprs(plan: &Plan, f: &mut impl FnMut(&Expr)) {
    match &plan.kind {
        PlanKind::Scan { filters, .. } => filters.iter().for_each(&mut *f),
        PlanKind::IndexLookup { keys, residual, .. } => {
            keys.iter().chain(residual).for_each(&mut *f)
        }
        PlanKind::IndexRange { lo, hi, residual, .. } => {
            lo.iter().chain(hi).map(|(e, _)| e).chain(residual).for_each(&mut *f)
        }
        PlanKind::Values { .. } => {}
        PlanKind::Filter { input, predicate } => {
            f(predicate);
            walk_exprs(input, f);
        }
        PlanKind::Project { input, exprs } => {
            exprs.iter().for_each(&mut *f);
            walk_exprs(input, f);
        }
        PlanKind::Join { left, right, left_keys, right_keys, .. } => {
            left_keys.iter().for_each(&mut *f);
            right_keys.iter().for_each(&mut *f);
            walk_exprs(left, f);
            walk_exprs(right, f);
        }
        PlanKind::Aggregate { input, group, aggs } => {
            group.iter().for_each(&mut *f);
            for a in aggs {
                f(&a.arg);
            }
            walk_exprs(input, f);
        }
        PlanKind::Fetch { input, .. }
        | PlanKind::Unnest { input, .. }
        | PlanKind::Limit { input, .. }
        | PlanKind::Distinct { input } => walk_exprs(input, f),
        PlanKind::Sort { input, keys } => {
            for k in keys {
                f(&k.expr);
            }
            walk_exprs(input, f);
        }
        PlanKind::Union { inputs } => {
            for p in inputs {
                walk_exprs(p, f);
            }
        }
    }
}

/// Substitute every `?n` placeholder with `params[n]`, returning a bound
/// copy of the plan ready for execution. The template plan is untouched —
/// it stays in the plan cache and is re-bound per execute.
///
/// Errors if the plan references a parameter index `params` does not cover
/// or if surplus values are supplied (arity is part of the statement's
/// contract, and silently ignoring values hides caller bugs).
pub fn bind_params(plan: &Plan, params: &[Value]) -> EngineResult<Plan> {
    let expected = param_count(plan);
    if expected != params.len() {
        return Err(EngineError::Plan(format!(
            "statement expects {expected} parameter(s), got {}",
            params.len()
        )));
    }
    if expected == 0 {
        return Ok(plan.clone());
    }
    fn bind_expr(e: &Expr, params: &[Value]) -> Expr {
        match e {
            Expr::Param(n) => Expr::Lit(params[*n as usize].clone()),
            Expr::Col(_) | Expr::Lit(_) => e.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(bind_expr(left, params)),
                right: Box::new(bind_expr(right, params)),
            },
            Expr::Unary { op, expr } => {
                Expr::Unary { op: *op, expr: Box::new(bind_expr(expr, params)) }
            }
            Expr::Func { func, args } => Expr::Func {
                func: *func,
                args: args.iter().map(|a| bind_expr(a, params)).collect(),
            },
            Expr::Field { expr, index } => {
                Expr::Field { expr: Box::new(bind_expr(expr, params)), index: *index }
            }
            Expr::InSet { expr, set } => Expr::InSet {
                expr: Box::new(bind_expr(expr, params)),
                set: std::sync::Arc::clone(set),
            },
            Expr::IsNull(e) => Expr::IsNull(Box::new(bind_expr(e, params))),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(bind_expr(e, params))),
        }
    }
    fn bind_plan(plan: &Plan, params: &[Value]) -> Plan {
        let bind_vec = |es: &[Expr]| es.iter().map(|e| bind_expr(e, params)).collect();
        let bind_bound =
            |b: &Option<(Expr, bool)>| b.as_ref().map(|(e, inc)| (bind_expr(e, params), *inc));
        let kind = match &plan.kind {
            PlanKind::Scan { table, filters, projection } => PlanKind::Scan {
                table: table.clone(),
                filters: bind_vec(filters),
                projection: projection.clone(),
            },
            PlanKind::IndexLookup { table, columns, keys, residual } => PlanKind::IndexLookup {
                table: table.clone(),
                columns: columns.clone(),
                keys: bind_vec(keys),
                residual: bind_vec(residual),
            },
            PlanKind::IndexRange { table, column, lo, hi, residual } => PlanKind::IndexRange {
                table: table.clone(),
                column: *column,
                lo: bind_bound(lo),
                hi: bind_bound(hi),
                residual: bind_vec(residual),
            },
            PlanKind::Fetch { input, table, rid, columns } => PlanKind::Fetch {
                input: Box::new(bind_plan(input, params)),
                table: table.clone(),
                rid: *rid,
                columns: columns.clone(),
            },
            PlanKind::Filter { input, predicate } => PlanKind::Filter {
                input: Box::new(bind_plan(input, params)),
                predicate: bind_expr(predicate, params),
            },
            PlanKind::Project { input, exprs } => PlanKind::Project {
                input: Box::new(bind_plan(input, params)),
                exprs: bind_vec(exprs),
            },
            PlanKind::Join { left, right, kind, left_keys, right_keys } => PlanKind::Join {
                left: Box::new(bind_plan(left, params)),
                right: Box::new(bind_plan(right, params)),
                kind: *kind,
                left_keys: bind_vec(left_keys),
                right_keys: bind_vec(right_keys),
            },
            PlanKind::Aggregate { input, group, aggs } => PlanKind::Aggregate {
                input: Box::new(bind_plan(input, params)),
                group: bind_vec(group),
                aggs: aggs
                    .iter()
                    .map(|a| AggCall { func: a.func, arg: bind_expr(&a.arg, params) })
                    .collect(),
            },
            PlanKind::Unnest { input, column, keep_empty } => PlanKind::Unnest {
                input: Box::new(bind_plan(input, params)),
                column: *column,
                keep_empty: *keep_empty,
            },
            PlanKind::Sort { input, keys } => PlanKind::Sort {
                input: Box::new(bind_plan(input, params)),
                keys: keys
                    .iter()
                    .map(|k| SortKey { expr: bind_expr(&k.expr, params), desc: k.desc })
                    .collect(),
            },
            PlanKind::Limit { input, limit } => {
                PlanKind::Limit { input: Box::new(bind_plan(input, params)), limit: *limit }
            }
            PlanKind::Distinct { input } => {
                PlanKind::Distinct { input: Box::new(bind_plan(input, params)) }
            }
            PlanKind::Union { inputs } => {
                PlanKind::Union { inputs: inputs.iter().map(|p| bind_plan(p, params)).collect() }
            }
            PlanKind::Values { rows } => PlanKind::Values { rows: rows.clone() },
        };
        Plan { kind, fields: plan.fields.clone() }
    }
    Ok(bind_plan(plan, params))
}

fn infer_agg_type(call: &AggCall, input: &[Field]) -> DataType {
    match call.func {
        AggFunc::Count | AggFunc::CountStar | AggFunc::CountDistinct => DataType::Int,
        AggFunc::Avg => DataType::Float,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => infer_type(&call.arg, input),
        AggFunc::ArrayAgg => DataType::Array(Box::new(infer_type(&call.arg, input))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erbium_storage::{Column, Table, TableSchema};

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Table::new(TableSchema::new(
            "t",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("tags", DataType::Text.array_of()),
            ],
            vec![0],
        )))
        .unwrap();
        c
    }

    #[test]
    fn scan_fields_from_schema() {
        let c = cat();
        let p = Plan::scan(&c, "t").unwrap();
        assert_eq!(p.fields.len(), 2);
        assert_eq!(p.fields[1].dtype, DataType::Text.array_of());
    }

    #[test]
    fn unnest_rewrites_field_type() {
        let c = cat();
        let p = Plan::scan(&c, "t").unwrap().unnest(1).unwrap();
        assert_eq!(p.fields[1].dtype, DataType::Text);
    }

    #[test]
    fn unnest_non_array_rejected() {
        let c = cat();
        assert!(Plan::scan(&c, "t").unwrap().unnest(0).is_err());
    }

    #[test]
    fn join_concatenates_fields_semi_does_not() {
        let c = cat();
        let l = Plan::scan(&c, "t").unwrap();
        let r = Plan::scan(&c, "t").unwrap();
        let j = l.clone().join(r.clone(), JoinKind::Inner, vec![Expr::col(0)], vec![Expr::col(0)]);
        assert_eq!(j.fields.len(), 4);
        let s = l.join(r, JoinKind::Semi, vec![Expr::col(0)], vec![Expr::col(0)]);
        assert_eq!(s.fields.len(), 2);
    }

    #[test]
    fn union_arity_checked() {
        let c = cat();
        let a = Plan::scan(&c, "t").unwrap();
        let b = Plan::scan(&c, "t").unwrap().project_columns(&[0]);
        assert!(Plan::union(vec![a, b]).is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let c = cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::eq(Expr::col(0), Expr::lit(1i64)))
            .project_columns(&[0]);
        let text = p.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan t"));
    }

    #[test]
    fn explain_prints_lookup_keys() {
        let lookup = |keys: Vec<Expr>| {
            let (table, columns, residual) = ("t".into(), vec![0], vec![]);
            Plan { kind: PlanKind::IndexLookup { table, columns, keys, residual }, fields: vec![] }
        };
        assert_eq!(lookup(vec![Expr::Param(0)]).explain(), "IndexLookup t cols=[0] keys=[?0]\n");
        let many = lookup((0..10i64).map(Expr::lit).collect()).explain();
        assert!(many.contains("keys=[0, 1, 2, 3, 4, 5, 6, 7, … 2 more]"), "{many}");
    }

    #[test]
    fn infer_struct_pack_type() {
        let fields = vec![Field::new("a", DataType::Int), Field::new("b", DataType::Text)];
        let e = Expr::func(ScalarFunc::StructPack, vec![Expr::col(0), Expr::col(1)]);
        match infer_type(&e, &fields) {
            DataType::Struct(fs) => {
                assert_eq!(fs[0].1, DataType::Int);
                assert_eq!(fs[1].1, DataType::Text);
            }
            other => panic!("expected struct, got {other}"),
        }
    }
}
