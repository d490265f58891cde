//! Rule-based plan optimizer.
//!
//! Passes, applied in order:
//!
//! 1. **Constant folding** — evaluate column-free subexpressions.
//! 2. **Filter normalization & pushdown** — split conjunctions; merge
//!    adjacent filters; push predicates through projections (by inlining
//!    the projected expressions), into the matching side of joins, into
//!    all branches of unions, and finally into scans.
//! 3. **Index selection** — a scan filtered by `col = k` or `col IN <set>`
//!    turns into an [`PlanKind::IndexLookup`] when the table has an index on
//!    exactly that column, and `col < k` (etc.) into an
//!    [`PlanKind::IndexRange`] on a BTree index; `k` is a non-NULL literal
//!    or a `?` parameter, so a cached template keeps its access path.
//! 4. **Cost-based passes** — only when the catalog carries
//!    ANALYZE-gathered statistics (see [`crate::cost`]): greedy reordering
//!    of inner-join chains ([`reorder_joins`]) and hash-join build-side
//!    selection ([`choose_build_side`]). Both are strict no-ops on an
//!    un-analyzed catalog.
//! 5. **Projection pruning** — stacked bare-column `Project`s collapse
//!    into one ([`collapse_projects`] — the SQL lowering emits identity
//!    shapes that would otherwise hide the scan), then a
//!    `Project`/`Aggregate` over a (filtered) scan narrows the scan to
//!    the columns the subtree actually reads, so untouched columns are
//!    never materialized (`EXPLAIN` shows the kept set as `[cols=...]`).
//! 6. **Filter cost ranking** — order conjunct lists cheapest-first;
//!    with statistics the rank is weighted by estimated selectivity.
//!
//! The paper's argument for logical independence rests on the system (not
//! the user) being able to exploit physical choices like indexes and
//! pushed-down predicates regardless of the mapping; this module is where
//! that happens for the relational substrate.

use crate::agg::AggCall;
use crate::cost;
use crate::error::EngineResult;
use crate::expr::{BinOp, Expr};
use crate::plan::{Field, JoinKind, Plan, PlanKind};
use erbium_storage::{Catalog, Value};

fn m_stats_missing() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_optimizer_stats_missing_total",
            "Optimizations that skipped the cost-based passes because the \
             catalog carried no statistics (run ANALYZE, or investigate \
             stats loss across restarts)",
        )
    })
}

fn m_cbo_applied() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_optimizer_cbo_applied_total",
            "Optimizations where the cost-based passes ran over gathered statistics",
        )
    })
}

/// Run all optimizer passes.
pub fn optimize(plan: Plan, cat: &Catalog) -> EngineResult<Plan> {
    let _span = erbium_obs::span("optimize");
    let plan = fold_constants(plan)?;
    let plan = push_filters(plan)?;
    let plan = select_indexes(plan, cat)?;
    // The cost-based passes are strict no-ops without statistics. That
    // degradation must be *visible*: a database whose stats were lost (the
    // classic case being a recovery path that failed to restore them) would
    // otherwise silently plan every query on the heuristic paths. The
    // `stats_missing` counter is the alarm wire for exactly that drift.
    let plan = if cat.stats().is_empty() {
        m_stats_missing().inc();
        plan
    } else {
        m_cbo_applied().inc();
        let plan = reorder_joins(plan, cat);
        choose_build_side(plan, cat)
    };
    Ok(rank_filters(prune_projections(collapse_projects(plan)), cat))
}

// ---- projection pruning ------------------------------------------------------

/// Collapse a `Project` (or `Aggregate`) sitting on a `Project` whose
/// expressions are a pure column selection (every one a bare
/// `Expr::Col`), remapping the consumer's expressions into the inner
/// input's column space. The SQL lowering emits identity-shaped projects
/// (mapping views, `SELECT`-list shaping) that would otherwise hide the
/// `Filter*`·`Scan` chain from projection pruning below. A bare-column
/// project computes nothing and cannot error, so inlining it is always
/// safe; projects with computed expressions are left alone (inlining
/// could duplicate work into several consumer references).
fn collapse_projects(plan: Plan) -> Plan {
    fn bare_map(input: &Plan) -> Option<Vec<usize>> {
        let PlanKind::Project { exprs, .. } = &input.kind else { return None };
        exprs
            .iter()
            .map(|e| if let Expr::Col(c) = e { Some(*c) } else { None })
            .collect()
    }
    let Plan { kind, fields } = map_children(plan, &collapse_projects);
    match kind {
        PlanKind::Project { input, exprs } => {
            let Some(map) = bare_map(&input) else {
                return Plan { kind: PlanKind::Project { input, exprs }, fields };
            };
            let PlanKind::Project { input: grand, .. } = input.kind else { unreachable!() };
            let exprs = exprs.into_iter().map(|e| e.map_columns(&|c| map[c])).collect();
            // Re-run on the rewritten node: three or more stacked
            // projects collapse pairwise from the bottom up.
            collapse_projects(Plan { kind: PlanKind::Project { input: grand, exprs }, fields })
        }
        PlanKind::Aggregate { input, group, aggs } => {
            let Some(map) = bare_map(&input) else {
                return Plan { kind: PlanKind::Aggregate { input, group, aggs }, fields };
            };
            let PlanKind::Project { input: grand, .. } = input.kind else { unreachable!() };
            let group = group.into_iter().map(|e| e.map_columns(&|c| map[c])).collect();
            let aggs = aggs
                .into_iter()
                .map(|a| AggCall { func: a.func, arg: a.arg.map_columns(&|c| map[c]) })
                .collect();
            collapse_projects(Plan { kind: PlanKind::Aggregate { input: grand, group, aggs }, fields })
        }
        kind => Plan { kind, fields },
    }
}

/// Prune scan materialization to the columns the query actually reads.
///
/// A `Project` or `Aggregate` sitting on a `Scan` — possibly through a
/// chain of `Filter`s — names every column the subtree will ever touch.
/// This pass computes that set, sets the scan's `projection` to it (so
/// the executor never materializes the untouched columns; `EXPLAIN`
/// surfaces the set as `[cols=...]`), and remaps every expression above
/// the scan into the pruned column space. The scan's own pushed-down
/// `filters` stay in the table's column space: they are evaluated against
/// borrowed full-width rows *before* materialization, so a filter-only
/// column costs nothing and is not added to the set. Scans under joins,
/// unnests, and sorts are left unpruned — those consumers take whole
/// rows. An empty set is legal (`COUNT(*)` materializes zero-width rows).
pub fn prune_projections(plan: Plan) -> Plan {
    let plan = map_children(plan, &prune_projections);
    let fields = plan.fields;
    let kind = match plan.kind {
        PlanKind::Project { input, exprs } => {
            let needed: Vec<usize> = columns_of(exprs.iter());
            match prune_chain(*input, needed) {
                Ok((input, remap)) => PlanKind::Project {
                    input: Box::new(input),
                    exprs: exprs.iter().map(|e| e.map_columns(&remap)).collect(),
                },
                Err(input) => PlanKind::Project { input: Box::new(input), exprs },
            }
        }
        PlanKind::Aggregate { input, group, aggs } => {
            let needed: Vec<usize> = columns_of(group.iter().chain(aggs.iter().map(|a| &a.arg)));
            match prune_chain(*input, needed) {
                Ok((input, remap)) => PlanKind::Aggregate {
                    input: Box::new(input),
                    group: group.iter().map(|e| e.map_columns(&remap)).collect(),
                    aggs: aggs
                        .iter()
                        .map(|a| AggCall { func: a.func, arg: a.arg.map_columns(&remap) })
                        .collect(),
                },
                Err(input) => PlanKind::Aggregate { input: Box::new(input), group, aggs },
            }
        }
        other => other,
    };
    Plan { kind, fields }
}

/// Sorted, deduplicated set of columns referenced by `exprs`.
fn columns_of<'a>(exprs: impl Iterator<Item = &'a Expr>) -> Vec<usize> {
    let mut cols: Vec<usize> = exprs.flat_map(|e| e.columns()).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Try to prune the `Filter*·Scan` chain under a consumer that reads only
/// `needed` columns. On success returns the rebuilt chain (scan projected
/// to the final needed set, filter predicates remapped, fields narrowed)
/// plus the old→new column remap for the consumer's own expressions. On
/// failure returns the chain untouched.
#[allow(clippy::result_large_err)]
fn prune_chain(input: Plan, mut needed: Vec<usize>) -> Result<(Plan, impl Fn(usize) -> usize), Plan> {
    // Shape check (immutably): a chain of Filters over a bare, not yet
    // pruned Scan. Filter predicates read scan-output columns, so they
    // join the needed set.
    {
        let mut cur = &input;
        loop {
            match &cur.kind {
                PlanKind::Filter { input, predicate } => {
                    needed.extend(predicate.columns());
                    cur = input;
                }
                PlanKind::Scan { projection: None, .. } => break,
                _ => return Err(input),
            }
        }
        needed.sort_unstable();
        needed.dedup();
        if needed.len() == cur.fields.len() {
            return Err(input); // nothing to prune
        }
    }
    let pruned = rebuild_pruned(input, &needed);
    let remap = move |c: usize| {
        needed.binary_search(&c).expect("pruned set covers every referenced column")
    };
    Ok((pruned, remap))
}

/// Rebuild the checked `Filter*·Scan` chain with the scan projected to
/// `needed` and every filter predicate remapped into the pruned space.
fn rebuild_pruned(plan: Plan, needed: &[usize]) -> Plan {
    match plan.kind {
        PlanKind::Filter { input, predicate } => {
            let input = rebuild_pruned(*input, needed);
            let fields = input.fields.clone();
            let predicate = predicate.map_columns(&|c| {
                needed.binary_search(&c).expect("pruned set covers every referenced column")
            });
            Plan { kind: PlanKind::Filter { input: Box::new(input), predicate }, fields }
        }
        PlanKind::Scan { table, filters, .. } => {
            let fields = needed.iter().map(|&c| plan.fields[c].clone()).collect();
            Plan {
                kind: PlanKind::Scan { table, filters, projection: Some(needed.to_vec()) },
                fields,
            }
        }
        _ => unreachable!("prune_chain verified the chain shape"),
    }
}

/// Rebuild a plan node with every child mapped through `f` (leaves are
/// returned unchanged). Shared recursion scaffold for the cost-based passes.
fn map_children(plan: Plan, f: &impl Fn(Plan) -> Plan) -> Plan {
    let fields = plan.fields;
    let kind = match plan.kind {
        PlanKind::Filter { input, predicate } => {
            PlanKind::Filter { input: Box::new(f(*input)), predicate }
        }
        PlanKind::Project { input, exprs } => {
            PlanKind::Project { input: Box::new(f(*input)), exprs }
        }
        PlanKind::Fetch { input, table, rid, columns } => {
            PlanKind::Fetch { input: Box::new(f(*input)), table, rid, columns }
        }
        PlanKind::Join { left, right, kind, left_keys, right_keys } => PlanKind::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            left_keys,
            right_keys,
        },
        PlanKind::Aggregate { input, group, aggs } => {
            PlanKind::Aggregate { input: Box::new(f(*input)), group, aggs }
        }
        PlanKind::Unnest { input, column, keep_empty } => {
            PlanKind::Unnest { input: Box::new(f(*input)), column, keep_empty }
        }
        PlanKind::Sort { input, keys } => PlanKind::Sort { input: Box::new(f(*input)), keys },
        PlanKind::Limit { input, limit } => PlanKind::Limit { input: Box::new(f(*input)), limit },
        PlanKind::Distinct { input } => PlanKind::Distinct { input: Box::new(f(*input)) },
        PlanKind::Union { inputs } => {
            PlanKind::Union { inputs: inputs.into_iter().map(f).collect() }
        }
        leaf => leaf,
    };
    Plan { kind, fields }
}

// ---- filter cost ranking ---------------------------------------------------

/// Order every conjunctive filter list in the plan so the most effective
/// predicate runs first.
///
/// Pushed-down scan filters and index residuals are applied per examined
/// row, so running an integer comparison before an `array_contains` walk
/// lets the cheap predicate prune rows before the expensive one runs.
/// Without statistics the key is the static evaluation cost
/// ([`Expr::cost_rank`]); when the filtered table has gathered statistics
/// the key becomes `selectivity × (1 + cost_rank)`, which lets a highly
/// selective (but slightly pricier) predicate run before a cheap one that
/// keeps almost every row. The sort is stable: equally-ranked predicates
/// keep their pushdown order. Runs after [`select_indexes`] so index
/// residual lists are ranked too.
pub fn rank_filters(mut plan: Plan, cat: &Catalog) -> Plan {
    rank_filters_mut(&mut plan, cat);
    plan
}

fn sort_filters(filters: &mut [Expr], est: Option<&cost::Estimate>) {
    match est {
        Some(est) => filters.sort_by(|a, b| {
            let ka = cost::selectivity(a, est) * (1.0 + f64::from(a.cost_rank()));
            let kb = cost::selectivity(b, est) * (1.0 + f64::from(b.cost_rank()));
            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
        }),
        None => filters.sort_by_key(Expr::cost_rank),
    }
}

fn rank_filters_mut(plan: &mut Plan, cat: &Catalog) {
    match &mut plan.kind {
        PlanKind::Scan { table, filters, .. } => {
            let est = cost::table_estimate(cat, table);
            sort_filters(filters, est.as_ref());
        }
        PlanKind::IndexLookup { table, residual, .. }
        | PlanKind::IndexRange { table, residual, .. } => {
            let est = cost::table_estimate(cat, table);
            sort_filters(residual, est.as_ref());
        }
        PlanKind::Values { .. } => {}
        PlanKind::Filter { input, .. }
        | PlanKind::Project { input, .. }
        | PlanKind::Fetch { input, .. }
        | PlanKind::Aggregate { input, .. }
        | PlanKind::Unnest { input, .. }
        | PlanKind::Sort { input, .. }
        | PlanKind::Limit { input, .. }
        | PlanKind::Distinct { input } => rank_filters_mut(input, cat),
        PlanKind::Join { left, right, .. } => {
            rank_filters_mut(left, cat);
            rank_filters_mut(right, cat);
        }
        PlanKind::Union { inputs } => {
            for i in inputs {
                rank_filters_mut(i, cat);
            }
        }
    }
}

// ---- cost-based join passes -------------------------------------------------

/// Pick the cheaper build side for every Inner hash join.
///
/// The executor materializes the **right** input of a hash join into the
/// build table ([`crate::stream`]'s `JoinStream` drains `right` first and
/// probes with `left` batches). When statistics say the left input is the
/// smaller one, swapping the inputs builds the smaller hash table and
/// probes with the larger stream — the classic build-side heuristic. A
/// column-restoring projection goes on top so the output schema is
/// unchanged. Only Inner joins are swapped (Left/Semi joins are not
/// symmetric), and joins whose sides lack estimates are left alone.
pub fn choose_build_side(plan: Plan, cat: &Catalog) -> Plan {
    let fields = plan.fields;
    match plan.kind {
        PlanKind::Join { left, right, kind: JoinKind::Inner, left_keys, right_keys } => {
            let left = choose_build_side(*left, cat);
            let right = choose_build_side(*right, cat);
            let swap = match (cost::estimate(&left, cat), cost::estimate(&right, cat)) {
                (Some(l), Some(r)) => l.rows < r.rows,
                _ => false,
            };
            if swap {
                swap_join(left, right, left_keys, right_keys, fields)
            } else {
                Plan {
                    kind: PlanKind::Join {
                        left: Box::new(left),
                        right: Box::new(right),
                        kind: JoinKind::Inner,
                        left_keys,
                        right_keys,
                    },
                    fields,
                }
            }
        }
        other => {
            map_children(Plan { kind: other, fields }, &|p| choose_build_side(p, cat))
        }
    }
}

/// Build `right ⋈ left` from an Inner `left ⋈ right` and restore the
/// original column order (and field names) with a projection on top.
fn swap_join(
    left: Plan,
    right: Plan,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    fields: Vec<Field>,
) -> Plan {
    let l_arity = left.fields.len();
    let r_arity = right.fields.len();
    let mut swapped_fields: Vec<Field> = right.fields.clone();
    swapped_fields.extend(left.fields.iter().cloned());
    let swapped = Plan {
        kind: PlanKind::Join {
            left: Box::new(right),
            right: Box::new(left),
            kind: JoinKind::Inner,
            left_keys: right_keys,
            right_keys: left_keys,
        },
        fields: swapped_fields,
    };
    // Original column i < l_arity now lives at r_arity + i; original
    // l_arity + j now lives at j.
    let exprs: Vec<Expr> = (0..l_arity)
        .map(|i| Expr::col(r_arity + i))
        .chain((0..r_arity).map(Expr::col))
        .collect();
    Plan { kind: PlanKind::Project { input: Box::new(swapped), exprs }, fields }
}

/// Greedily reorder chains of Inner equi-joins so small inputs join first.
///
/// A maximal tree of Inner joins whose keys are all plain columns is
/// flattened into leaves plus equality predicates, then rebuilt left-deep:
/// start from the leaf with the fewest estimated rows and repeatedly join
/// the smallest leaf connected to the joined set by some predicate. Each
/// predicate is applied at the join where its second endpoint enters, so
/// multi-predicate and cyclic join graphs stay intact. A projection on top
/// restores the original column order. The pass bails to the original tree
/// when the chain has fewer than three leaves, when any leaf lacks an
/// estimate, when the join graph is disconnected (cross joins), or when
/// the greedy order is the original order.
pub fn reorder_joins(plan: Plan, cat: &Catalog) -> Plan {
    if is_flattenable(&plan) {
        reorder_join_tree(plan, cat)
    } else {
        map_children(plan, &|p| reorder_joins(p, cat))
    }
}

/// An Inner join whose keys are all plain `Col` references can take part
/// in flattening/reordering.
fn is_flattenable(plan: &Plan) -> bool {
    matches!(
        &plan.kind,
        PlanKind::Join { kind: JoinKind::Inner, left_keys, right_keys, .. }
            if !left_keys.is_empty()
                && left_keys
                    .iter()
                    .chain(right_keys.iter())
                    .all(|k| matches!(k, Expr::Col(_)))
    )
}

/// Flatten a maximal Inner-join tree rooted at `plan` into `leaves` (in
/// in-order traversal order, which equals the output column order of pure
/// Inner joins) and equality `preds` over **global** column positions.
/// Returns the subtree arity.
fn flatten_join(plan: Plan, base: usize, leaves: &mut Vec<Plan>, preds: &mut Vec<(usize, usize)>) -> usize {
    if is_flattenable(&plan) {
        let PlanKind::Join { left, right, left_keys, right_keys, .. } = plan.kind else {
            unreachable!("is_flattenable checked the kind")
        };
        let l_arity = flatten_join(*left, base, leaves, preds);
        let r_arity = flatten_join(*right, base + l_arity, leaves, preds);
        for (lk, rk) in left_keys.iter().zip(right_keys.iter()) {
            let (Expr::Col(i), Expr::Col(j)) = (lk, rk) else {
                unreachable!("is_flattenable checked the keys")
            };
            preds.push((base + i, base + l_arity + j));
        }
        l_arity + r_arity
    } else {
        let arity = plan.fields.len();
        leaves.push(plan);
        arity
    }
}

fn reorder_join_tree(plan: Plan, cat: &Catalog) -> Plan {
    let original = plan.clone();
    let fields = plan.fields.clone();
    let mut leaves: Vec<Plan> = Vec::new();
    let mut global_preds: Vec<(usize, usize)> = Vec::new();
    let total_arity = flatten_join(plan, 0, &mut leaves, &mut global_preds);
    let bail = |original: Plan| map_children(original, &|p| reorder_joins(p, cat));
    if leaves.len() < 3 {
        // Two-way joins have nothing to reorder; build-side selection
        // handles them.
        return bail(original);
    }
    // Recurse into the leaves first (they may hide further join chains
    // under aggregates, outer joins, ...).
    let leaves: Vec<Plan> = leaves.into_iter().map(|l| reorder_joins(l, cat)).collect();
    let Some(est_rows) = leaves
        .iter()
        .map(|l| cost::estimate(l, cat).map(|e| e.rows))
        .collect::<Option<Vec<f64>>>()
    else {
        return bail(original);
    };
    // Map global column positions to (leaf index, column within leaf).
    let mut starts = Vec::with_capacity(leaves.len());
    let mut acc = 0usize;
    for l in &leaves {
        starts.push(acc);
        acc += l.fields.len();
    }
    debug_assert_eq!(acc, total_arity);
    let to_leaf = |g: usize| -> (usize, usize) {
        let li = starts.partition_point(|&s| s <= g) - 1;
        (li, g - starts[li])
    };
    let preds: Vec<((usize, usize), (usize, usize))> =
        global_preds.iter().map(|&(a, b)| (to_leaf(a), to_leaf(b))).collect();
    // Greedy order: smallest leaf first, then repeatedly the smallest leaf
    // connected to the joined set by at least one predicate.
    let n = leaves.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut joined = vec![false; n];
    let start = (0..n)
        .min_by(|&a, &b| est_rows[a].partial_cmp(&est_rows[b]).unwrap_or(std::cmp::Ordering::Equal))
        .expect("n >= 3");
    order.push(start);
    joined[start] = true;
    while order.len() < n {
        let mut best: Option<usize> = None;
        for &((al, _), (bl, _)) in &preds {
            for (x, y) in [(al, bl), (bl, al)] {
                if joined[x] && !joined[y] && best.is_none_or(|b| est_rows[y] < est_rows[b]) {
                    best = Some(y);
                }
            }
        }
        match best {
            Some(b) => {
                order.push(b);
                joined[b] = true;
            }
            // Disconnected join graph (a cross join somewhere): reordering
            // a cross join is never a clear win, keep the written order.
            None => return bail(original),
        }
    }
    if order.iter().enumerate().all(|(i, &l)| i == l) {
        // Greedy agrees with the written order: keep the original tree
        // (and its exact fields/shape).
        return bail(original);
    }
    // Rebuild left-deep in greedy order. Each predicate becomes a join key
    // at the join where its second endpoint enters the joined set.
    let mut slots: Vec<Option<Plan>> = leaves.into_iter().map(Some).collect();
    let mut out_start: Vec<Option<usize>> = vec![None; n];
    let mut current = slots[order[0]].take().expect("leaf taken once");
    out_start[order[0]] = Some(0);
    let mut used = vec![false; preds.len()];
    for &next in &order[1..] {
        let right = slots[next].take().expect("leaf taken once");
        let cur_arity = current.fields.len();
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (pi, &((al, ac), (bl, bc))) in preds.iter().enumerate() {
            if used[pi] {
                continue;
            }
            let (inner, inner_col, next_col) = if al == next && out_start[bl].is_some() {
                (bl, bc, ac)
            } else if bl == next && out_start[al].is_some() {
                (al, ac, bc)
            } else {
                continue;
            };
            used[pi] = true;
            left_keys.push(Expr::col(out_start[inner].expect("endpoint joined") + inner_col));
            right_keys.push(Expr::col(next_col));
        }
        debug_assert!(!left_keys.is_empty(), "greedy order guarantees connectivity");
        let mut join_fields = current.fields.clone();
        join_fields.extend(right.fields.iter().cloned());
        current = Plan {
            kind: PlanKind::Join {
                left: Box::new(current),
                right: Box::new(right),
                kind: JoinKind::Inner,
                left_keys,
                right_keys,
            },
            fields: join_fields,
        };
        out_start[next] = Some(cur_arity);
    }
    // Restore the original column order with a projection carrying the
    // original output fields.
    let exprs: Vec<Expr> = (0..total_arity)
        .map(|g| {
            let (li, c) = to_leaf(g);
            Expr::col(out_start[li].expect("all leaves joined") + c)
        })
        .collect();
    Plan { kind: PlanKind::Project { input: Box::new(current), exprs }, fields }
}

// ---- constant folding ------------------------------------------------------

/// Fold constant subexpressions throughout the plan.
pub fn fold_constants(plan: Plan) -> EngineResult<Plan> {
    map_exprs(plan, &fold_expr)
}

fn fold_expr(e: Expr) -> Expr {
    // Fold children first.
    let e = match e {
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(fold_expr(*left)),
            right: Box::new(fold_expr(*right)),
        },
        Expr::Unary { op, expr } => Expr::Unary { op, expr: Box::new(fold_expr(*expr)) },
        Expr::Func { func, args } => {
            Expr::Func { func, args: args.into_iter().map(fold_expr).collect() }
        }
        Expr::Field { expr, index } => Expr::Field { expr: Box::new(fold_expr(*expr)), index },
        Expr::IsNull(x) => Expr::IsNull(Box::new(fold_expr(*x))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(fold_expr(*x))),
        other => other,
    };
    if !matches!(e, Expr::Lit(_)) && e.is_constant() {
        // A failing constant (e.g. 1/0) is left unfolded so the error
        // surfaces at execution time instead of plan time.
        if let Ok(v) = e.eval(&[]) {
            return Expr::Lit(v);
        }
    }
    // TRUE simplifications that keep three-valued semantics intact.
    match e {
        Expr::Binary { op: BinOp::And, left, right } => match (&*left, &*right) {
            (Expr::Lit(Value::Bool(true)), _) => *right,
            (_, Expr::Lit(Value::Bool(true))) => *left,
            (Expr::Lit(Value::Bool(false)), _) | (_, Expr::Lit(Value::Bool(false))) => {
                Expr::Lit(Value::Bool(false))
            }
            _ => Expr::Binary { op: BinOp::And, left, right },
        },
        Expr::Binary { op: BinOp::Or, left, right } => match (&*left, &*right) {
            (Expr::Lit(Value::Bool(false)), _) => *right,
            (_, Expr::Lit(Value::Bool(false))) => *left,
            (Expr::Lit(Value::Bool(true)), _) | (_, Expr::Lit(Value::Bool(true))) => {
                Expr::Lit(Value::Bool(true))
            }
            _ => Expr::Binary { op: BinOp::Or, left, right },
        },
        other => other,
    }
}

fn map_exprs(plan: Plan, f: &impl Fn(Expr) -> Expr) -> EngineResult<Plan> {
    let fields = plan.fields;
    let kind = match plan.kind {
        PlanKind::Scan { table, filters, projection } => {
            PlanKind::Scan { table, filters: filters.into_iter().map(f).collect(), projection }
        }
        PlanKind::IndexLookup { table, columns, keys, residual } => PlanKind::IndexLookup {
            table,
            columns,
            keys,
            residual: residual.into_iter().map(f).collect(),
        },
        PlanKind::IndexRange { table, column, lo, hi, residual } => PlanKind::IndexRange {
            table,
            column,
            lo,
            hi,
            residual: residual.into_iter().map(f).collect(),
        },
        PlanKind::Fetch { input, table, rid, columns } => {
            PlanKind::Fetch { input: Box::new(map_exprs(*input, f)?), table, rid, columns }
        }
        PlanKind::Filter { input, predicate } => PlanKind::Filter {
            input: Box::new(map_exprs(*input, f)?),
            predicate: f(predicate),
        },
        PlanKind::Project { input, exprs } => PlanKind::Project {
            input: Box::new(map_exprs(*input, f)?),
            exprs: exprs.into_iter().map(f).collect(),
        },
        PlanKind::Join { left, right, kind, left_keys, right_keys } => PlanKind::Join {
            left: Box::new(map_exprs(*left, f)?),
            right: Box::new(map_exprs(*right, f)?),
            kind,
            left_keys: left_keys.into_iter().map(f).collect(),
            right_keys: right_keys.into_iter().map(f).collect(),
        },
        PlanKind::Aggregate { input, group, aggs } => PlanKind::Aggregate {
            input: Box::new(map_exprs(*input, f)?),
            group: group.into_iter().map(f).collect(),
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = f(a.arg);
                    a
                })
                .collect(),
        },
        PlanKind::Unnest { input, column, keep_empty } => {
            PlanKind::Unnest { input: Box::new(map_exprs(*input, f)?), column, keep_empty }
        }
        PlanKind::Sort { input, keys } => PlanKind::Sort {
            input: Box::new(map_exprs(*input, f)?),
            keys: keys
                .into_iter()
                .map(|mut k| {
                    k.expr = f(k.expr);
                    k
                })
                .collect(),
        },
        PlanKind::Limit { input, limit } => {
            PlanKind::Limit { input: Box::new(map_exprs(*input, f)?), limit }
        }
        PlanKind::Distinct { input } => PlanKind::Distinct { input: Box::new(map_exprs(*input, f)?) },
        PlanKind::Union { inputs } => PlanKind::Union {
            inputs: inputs.into_iter().map(|p| map_exprs(p, f)).collect::<EngineResult<_>>()?,
        },
        PlanKind::Values { rows } => PlanKind::Values { rows },
    };
    Ok(Plan { kind, fields })
}

// ---- filter pushdown --------------------------------------------------------

/// Push filter predicates as close to the scans as possible.
pub fn push_filters(plan: Plan) -> EngineResult<Plan> {
    let fields = plan.fields.clone();
    let kind = match plan.kind {
        PlanKind::Filter { input, predicate } => {
            let input = push_filters(*input)?;
            let conjuncts = predicate.split_conjunction();
            return Ok(push_conjuncts_into(input, conjuncts));
        }
        PlanKind::Project { input, exprs } => PlanKind::Project {
            input: Box::new(push_filters(*input)?),
            exprs,
        },
        PlanKind::Fetch { input, table, rid, columns } => {
            PlanKind::Fetch { input: Box::new(push_filters(*input)?), table, rid, columns }
        }
        PlanKind::Join { left, right, kind, left_keys, right_keys } => PlanKind::Join {
            left: Box::new(push_filters(*left)?),
            right: Box::new(push_filters(*right)?),
            kind,
            left_keys,
            right_keys,
        },
        PlanKind::Aggregate { input, group, aggs } => {
            PlanKind::Aggregate { input: Box::new(push_filters(*input)?), group, aggs }
        }
        PlanKind::Unnest { input, column, keep_empty } => {
            PlanKind::Unnest { input: Box::new(push_filters(*input)?), column, keep_empty }
        }
        PlanKind::Sort { input, keys } => {
            PlanKind::Sort { input: Box::new(push_filters(*input)?), keys }
        }
        PlanKind::Limit { input, limit } => {
            PlanKind::Limit { input: Box::new(push_filters(*input)?), limit }
        }
        PlanKind::Distinct { input } => {
            PlanKind::Distinct { input: Box::new(push_filters(*input)?) }
        }
        PlanKind::Union { inputs } => PlanKind::Union {
            inputs: inputs.into_iter().map(push_filters).collect::<EngineResult<_>>()?,
        },
        leaf => leaf,
    };
    Ok(Plan { kind, fields })
}

/// Push a set of conjuncts into `plan`, leaving a residual Filter on top
/// for whatever cannot sink further.
fn push_conjuncts_into(plan: Plan, conjuncts: Vec<Expr>) -> Plan {
    if conjuncts.is_empty() {
        return plan;
    }
    let fields = plan.fields.clone();
    match plan.kind {
        PlanKind::Scan { table, mut filters, projection } => {
            filters.extend(conjuncts);
            Plan { kind: PlanKind::Scan { table, filters, projection }, fields }
        }
        PlanKind::IndexLookup { table, columns, keys, mut residual } => {
            residual.extend(conjuncts);
            Plan { kind: PlanKind::IndexLookup { table, columns, keys, residual }, fields }
        }
        PlanKind::IndexRange { table, column, lo, hi, mut residual } => {
            residual.extend(conjuncts);
            Plan { kind: PlanKind::IndexRange { table, column, lo, hi, residual }, fields }
        }
        PlanKind::Filter { input, predicate } => {
            let mut all = predicate.split_conjunction();
            all.extend(conjuncts);
            push_conjuncts_into(*input, all)
        }
        PlanKind::Project { input, exprs } => {
            // Inline projected expressions into each predicate; safe for any
            // deterministic expression.
            let rewritten: Vec<Expr> =
                conjuncts.iter().map(|p| substitute_columns(p, &exprs)).collect();
            let pushed = push_conjuncts_into(*input, rewritten);
            Plan { kind: PlanKind::Project { input: Box::new(pushed), exprs }, fields }
        }
        PlanKind::Join { left, right, kind, left_keys, right_keys } => {
            let left_arity = left.fields.len();
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut keep = Vec::new();
            for p in conjuncts {
                let cols = p.columns();
                let all_left = cols.iter().all(|&c| c < left_arity);
                let all_right = cols.iter().all(|&c| c >= left_arity);
                if all_left {
                    left_preds.push(p);
                } else if all_right && kind == crate::plan::JoinKind::Inner {
                    right_preds.push(p.map_columns(&|c| c - left_arity));
                } else {
                    keep.push(p);
                }
            }
            let new_left = push_conjuncts_into(*left, left_preds);
            let new_right = push_conjuncts_into(*right, right_preds);
            let joined = Plan {
                kind: PlanKind::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    kind,
                    left_keys,
                    right_keys,
                },
                fields,
            };
            wrap_filter(joined, keep)
        }
        PlanKind::Union { inputs } => {
            let pushed: Vec<Plan> = inputs
                .into_iter()
                .map(|p| push_conjuncts_into(p, conjuncts.clone()))
                .collect();
            Plan { kind: PlanKind::Union { inputs: pushed }, fields }
        }
        PlanKind::Fetch { input, table, rid, columns } => {
            // Only predicates on the input's own columns sink: a fetched
            // column does not exist below the fetch.
            let arity = input.fields.len();
            let (push, keep): (Vec<Expr>, Vec<Expr>) =
                conjuncts.into_iter().partition(|p| p.columns().iter().all(|&c| c < arity));
            let pushed = push_conjuncts_into(*input, push);
            let kind = PlanKind::Fetch { input: Box::new(pushed), table, rid, columns };
            wrap_filter(Plan { kind, fields }, keep)
        }
        PlanKind::Unnest { input, column, keep_empty } => {
            // Predicates not touching the unnested column commute with the
            // unnest (inner or outer): column indexes are unchanged and the
            // predicate is row-local over the preserved columns.
            let (push, keep): (Vec<Expr>, Vec<Expr>) =
                conjuncts.into_iter().partition(|p| !p.columns().contains(&column));
            let pushed = push_conjuncts_into(*input, push);
            let plan = Plan {
                kind: PlanKind::Unnest { input: Box::new(pushed), column, keep_empty },
                fields,
            };
            wrap_filter(plan, keep)
        }
        other => wrap_filter(Plan { kind: other, fields }, conjuncts),
    }
}

fn wrap_filter(plan: Plan, conjuncts: Vec<Expr>) -> Plan {
    if conjuncts.is_empty() {
        return plan;
    }
    let fields = plan.fields.clone();
    Plan {
        kind: PlanKind::Filter { input: Box::new(plan), predicate: Expr::conjunction(conjuncts) },
        fields,
    }
}

/// Replace `Col(i)` with `projection[i]`.
fn substitute_columns(pred: &Expr, projection: &[Expr]) -> Expr {
    match pred {
        Expr::Col(i) => projection.get(*i).cloned().unwrap_or_else(|| pred.clone()),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Param(n) => Expr::Param(*n),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute_columns(left, projection)),
            right: Box::new(substitute_columns(right, projection)),
        },
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(substitute_columns(expr, projection)) }
        }
        Expr::Func { func, args } => Expr::Func {
            func: *func,
            args: args.iter().map(|a| substitute_columns(a, projection)).collect(),
        },
        Expr::Field { expr, index } => {
            Expr::Field { expr: Box::new(substitute_columns(expr, projection)), index: *index }
        }
        Expr::InSet { expr, set } => Expr::InSet {
            expr: Box::new(substitute_columns(expr, projection)),
            set: std::sync::Arc::clone(set),
        },
        Expr::IsNull(e) => Expr::IsNull(Box::new(substitute_columns(e, projection))),
        Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(substitute_columns(e, projection))),
    }
}

// ---- index selection ---------------------------------------------------------

/// Convert filtered scans into index lookups where an index exists.
pub fn select_indexes(plan: Plan, cat: &Catalog) -> EngineResult<Plan> {
    let fields = plan.fields;
    let kind = match plan.kind {
        PlanKind::Scan { table, filters, projection } => {
            if let Ok(t) = cat.table(&table) {
                match extract_index_lookup(t, &filters) {
                    Some((columns, keys, residual)) => {
                        PlanKind::IndexLookup { table, columns, keys, residual }
                    }
                    None => match extract_index_range(t, &filters) {
                        Some((column, lo, hi, residual)) => {
                            PlanKind::IndexRange { table, column, lo, hi, residual }
                        }
                        None => PlanKind::Scan { table, filters, projection },
                    },
                }
            } else {
                PlanKind::Scan { table, filters, projection }
            }
        }
        PlanKind::Filter { input, predicate } => PlanKind::Filter {
            input: Box::new(select_indexes(*input, cat)?),
            predicate,
        },
        PlanKind::Project { input, exprs } => {
            PlanKind::Project { input: Box::new(select_indexes(*input, cat)?), exprs }
        }
        PlanKind::Fetch { input, table, rid, columns } => {
            PlanKind::Fetch { input: Box::new(select_indexes(*input, cat)?), table, rid, columns }
        }
        PlanKind::Join { left, right, kind, left_keys, right_keys } => PlanKind::Join {
            left: Box::new(select_indexes(*left, cat)?),
            right: Box::new(select_indexes(*right, cat)?),
            kind,
            left_keys,
            right_keys,
        },
        PlanKind::Aggregate { input, group, aggs } => {
            PlanKind::Aggregate { input: Box::new(select_indexes(*input, cat)?), group, aggs }
        }
        PlanKind::Unnest { input, column, keep_empty } => {
            PlanKind::Unnest { input: Box::new(select_indexes(*input, cat)?), column, keep_empty }
        }
        PlanKind::Sort { input, keys } => {
            PlanKind::Sort { input: Box::new(select_indexes(*input, cat)?), keys }
        }
        PlanKind::Limit { input, limit } => {
            PlanKind::Limit { input: Box::new(select_indexes(*input, cat)?), limit }
        }
        PlanKind::Distinct { input } => {
            PlanKind::Distinct { input: Box::new(select_indexes(*input, cat)?) }
        }
        PlanKind::Union { inputs } => PlanKind::Union {
            inputs: inputs
                .into_iter()
                .map(|p| select_indexes(p, cat))
                .collect::<EngineResult<_>>()?,
        },
        leaf => leaf,
    };
    Ok(Plan { kind, fields })
}

/// An operand an index can probe with: a non-NULL literal, or a parameter
/// bound per execution. A `?` later bound to NULL matches nothing, which the
/// executor handles, so the cached template keeps its index.
fn is_probe(e: &Expr) -> bool {
    match e {
        Expr::Lit(v) => !v.is_null(),
        Expr::Param(_) => true,
        _ => false,
    }
}

/// If some filter is `Col(i) = k` (`k` a probe, see [`is_probe`]) or
/// `Col(i) IN <set>` and the table has an index on column `i`, return the
/// lookup spec plus residual filters.
fn extract_index_lookup(
    table: &erbium_storage::Table,
    filters: &[Expr],
) -> Option<(Vec<usize>, Vec<Expr>, Vec<Expr>)> {
    for (pos, f) in filters.iter().enumerate() {
        let (col, keys) = match f {
            Expr::Binary { op: BinOp::Eq, left, right } => match (&**left, &**right) {
                (Expr::Col(i), k) | (k, Expr::Col(i)) if is_probe(k) => (*i, vec![k.clone()]),
                _ => continue,
            },
            Expr::InSet { expr, set } => match &**expr {
                Expr::Col(i) => {
                    let mut keys: Vec<Value> = set.iter().cloned().collect();
                    keys.sort();
                    (*i, keys.into_iter().map(Expr::Lit).collect())
                }
                _ => continue,
            },
            _ => continue,
        };
        if table.has_index_on(&[col]) {
            let residual: Vec<Expr> = filters
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, e)| e.clone())
                .collect();
            return Some((vec![col], keys, residual));
        }
    }
    None
}

/// If some filter is a comparison `Col(i) <op> k` (`k` a probe) and the
/// table has an ordered (BTree) index on column `i`, return the range spec
/// plus residual filters. Only single-bound ranges are extracted; a second
/// bound on the same column stays residual (still correct, marginally less
/// tight).
type RangeBound = Option<(Expr, bool)>;

fn extract_index_range(
    table: &erbium_storage::Table,
    filters: &[Expr],
) -> Option<(usize, RangeBound, RangeBound, Vec<Expr>)> {
    use erbium_storage::IndexKind;
    for (pos, f) in filters.iter().enumerate() {
        let Expr::Binary { op, left, right } = f else { continue };
        let (col, k, op) = match (&**left, &**right) {
            (Expr::Col(i), k) if is_probe(k) => (*i, k.clone(), *op),
            (k, Expr::Col(i)) if is_probe(k) => {
                // Mirror the comparison: k < col ≡ col > k.
                let mirrored = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    other => *other,
                };
                (*i, k.clone(), mirrored)
            }
            _ => continue,
        };
        let (lo, hi) = match op {
            BinOp::Lt => (None, Some((k, false))),
            BinOp::Le => (None, Some((k, true))),
            BinOp::Gt => (Some((k, false)), None),
            BinOp::Ge => (Some((k, true)), None),
            _ => continue,
        };
        let has_btree = table
            .indexes()
            .iter()
            .any(|ix| ix.columns == [col] && ix.kind() == IndexKind::BTree);
        if has_btree {
            let residual: Vec<Expr> = filters
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, e)| e.clone())
                .collect();
            return Some((col, lo, hi, residual));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::JoinKind;
    use erbium_storage::{Column, DataType, Table, TableSchema};

    fn cat() -> Catalog {
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
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i * 2)]).unwrap();
        }
        c.create_table(t).unwrap();
        c
    }

    #[test]
    fn constant_folding_simplifies() {
        let e = Expr::and(
            Expr::lit(true),
            Expr::eq(Expr::col(0), Expr::binary(BinOp::Add, Expr::lit(1i64), Expr::lit(2i64))),
        );
        let folded = fold_expr(e);
        assert_eq!(folded, Expr::eq(Expr::col(0), Expr::lit(3i64)));
    }

    #[test]
    fn folding_keeps_failing_constants() {
        let e = Expr::binary(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        let folded = fold_expr(e.clone());
        assert_eq!(folded, e);
    }

    #[test]
    fn rank_filters_orders_scan_conjuncts_cheapest_first() {
        use crate::expr::ScalarFunc;
        let c = cat();
        let cheap = Expr::eq(Expr::col(1), Expr::lit(3i64));
        let pricey = Expr::func(
            ScalarFunc::ArrayContains,
            vec![Expr::col(2), Expr::lit(1i64)],
        );
        let null_check = Expr::IsNotNull(Box::new(Expr::col(0)));
        // Expensive predicate first on purpose.
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(pricey.clone())
            .filter(cheap.clone())
            .filter(null_check.clone());
        let opt = push_filters(p).unwrap();
        let ranked = rank_filters(opt, &c);
        match &ranked.kind {
            PlanKind::Scan { filters, .. } => {
                assert_eq!(filters.len(), 3);
                // IsNotNull(col) rank 2 < Eq(col,lit) rank 3 < ArrayContains rank 17.
                assert_eq!(filters[0], null_check);
                assert_eq!(filters[1], cheap);
                assert_eq!(filters[2], pricey);
                let ranks: Vec<u32> = filters.iter().map(Expr::cost_rank).collect();
                let mut sorted = ranks.clone();
                sorted.sort_unstable();
                assert_eq!(ranks, sorted, "filters must be in ascending cost order");
            }
            other => panic!("expected scan, got {other:?}"),
        }
    }

    #[test]
    fn rank_filters_orders_index_residuals() {
        use crate::expr::ScalarFunc;
        let c = cat();
        let pricey = Expr::func(
            ScalarFunc::ArrayContains,
            vec![Expr::col(2), Expr::lit(1i64)],
        );
        let cheap = Expr::binary(BinOp::Lt, Expr::col(2), Expr::lit(50i64));
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(pricey.clone())
            .filter(cheap.clone())
            .filter(Expr::eq(Expr::col(0), Expr::lit(7i64)));
        let opt = optimize(p, &c).unwrap();
        match &opt.kind {
            PlanKind::IndexLookup { residual, .. } => {
                assert_eq!(residual, &vec![cheap, pricey], "residuals ranked cheapest first");
            }
            other => panic!("expected index lookup, got {other:?}"),
        }
    }

    #[test]
    fn filter_pushed_into_scan() {
        let c = cat();
        let p = Plan::scan(&c, "t").unwrap().filter(Expr::eq(Expr::col(1), Expr::lit(3i64)));
        let opt = push_filters(p).unwrap();
        match &opt.kind {
            PlanKind::Scan { filters, .. } => assert_eq!(filters.len(), 1),
            other => panic!("expected scan, got {other:?}"),
        }
    }

    /// Only conjuncts on the input's own columns sink below a `Fetch`: a
    /// fetched column does not exist underneath it.
    #[test]
    fn fetched_column_filters_stay_above_fetch() {
        let c = cat();
        // t's `grp` column (0..9) read as row ids of t itself.
        let p = Plan::scan(&c, "t").unwrap().fetch(&c, "t", 1, vec![0, 2]).unwrap();
        let on_input = Expr::eq(Expr::col(2), Expr::lit(8i64));
        let on_fetched = Expr::eq(Expr::col(3), Expr::lit(4i64));
        let opt = push_filters(p.clone().filter(Expr::and(on_input, on_fetched.clone()))).unwrap();
        let PlanKind::Filter { input, predicate } = &opt.kind else { panic!("{}", opt.explain()) };
        assert_eq!(predicate, &on_fetched);
        let PlanKind::Fetch { input, .. } = &input.kind else { panic!("{}", opt.explain()) };
        assert!(matches!(&input.kind, PlanKind::Scan { filters, .. } if filters.len() == 1));
        assert_eq!(execute(&opt, &c).unwrap().len(), 1, "{}", opt.explain());
    }

    #[test]
    fn filter_pushed_through_projection() {
        let c = cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .project(vec![(Expr::col(1), "g".into()), (Expr::col(2), "v".into())])
            .filter(Expr::eq(Expr::col(0), Expr::lit(3i64)));
        let opt = push_filters(p.clone()).unwrap();
        match &opt.kind {
            PlanKind::Project { input, .. } => match &input.kind {
                PlanKind::Scan { filters, .. } => {
                    assert_eq!(filters[0], Expr::eq(Expr::col(1), Expr::lit(3i64)))
                }
                other => panic!("expected scan under project, got {other:?}"),
            },
            other => panic!("expected project, got {other:?}"),
        }
        // Semantics preserved.
        let a = execute(&p, &cat()).unwrap();
        let b = execute(&opt, &cat()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn filter_split_across_join_sides() {
        let c = cat();
        let l = Plan::scan(&c, "t").unwrap();
        let r = Plan::scan(&c, "t").unwrap();
        let j = l
            .join(r, JoinKind::Inner, vec![Expr::col(0)], vec![Expr::col(0)])
            .filter(Expr::and(
                Expr::eq(Expr::col(1), Expr::lit(3i64)),  // left side
                Expr::eq(Expr::col(4), Expr::lit(3i64)), // right side (col 4 = right grp)
            ));
        let opt = push_filters(j.clone()).unwrap();
        match &opt.kind {
            PlanKind::Join { left, right, .. } => {
                assert!(matches!(&left.kind, PlanKind::Scan { filters, .. } if filters.len() == 1));
                assert!(matches!(&right.kind, PlanKind::Scan { filters, .. } if filters.len() == 1));
            }
            other => panic!("expected join, got {other:?}"),
        }
        assert_eq!(execute(&j, &c).unwrap(), execute(&opt, &c).unwrap());
    }

    #[test]
    fn right_side_filter_not_pushed_through_left_join() {
        let c = cat();
        let l = Plan::scan(&c, "t").unwrap();
        let r = Plan::scan(&c, "t").unwrap();
        let j = l
            .join(r, JoinKind::Left, vec![Expr::col(0)], vec![Expr::col(0)])
            .filter(Expr::eq(Expr::col(4), Expr::lit(3i64)));
        let opt = push_filters(j.clone()).unwrap();
        // Must stay above the join: pushing below a left join changes results.
        assert!(matches!(&opt.kind, PlanKind::Filter { .. }));
        assert_eq!(execute(&j, &c).unwrap(), execute(&opt, &c).unwrap());
    }

    #[test]
    fn index_lookup_selected_for_pk_equality() {
        let c = cat();
        let p = Plan::scan(&c, "t").unwrap().filter(Expr::eq(Expr::col(0), Expr::lit(42i64)));
        let opt = optimize(p.clone(), &c).unwrap();
        match &opt.kind {
            PlanKind::IndexLookup { columns, keys, .. } => {
                assert_eq!(columns, &vec![0]);
                assert_eq!(keys, &vec![Expr::lit(42i64)]);
            }
            other => panic!("expected index lookup, got {other:?}"),
        }
        assert_eq!(execute(&p, &c).unwrap(), execute(&opt, &c).unwrap());
    }

    #[test]
    fn in_set_uses_index() {
        let c = cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::in_set(Expr::col(0), vec![Value::Int(1), Value::Int(5)]));
        let opt = optimize(p.clone(), &c).unwrap();
        assert!(matches!(&opt.kind, PlanKind::IndexLookup { keys, .. } if keys.len() == 2));
        let mut a = execute(&p, &c).unwrap();
        let mut b = execute(&opt, &c).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn no_index_no_lookup() {
        let c = cat();
        let p = Plan::scan(&c, "t").unwrap().filter(Expr::eq(Expr::col(2), Expr::lit(4i64)));
        let opt = optimize(p, &c).unwrap();
        assert!(matches!(&opt.kind, PlanKind::Scan { .. }));
    }

    #[test]
    fn union_filters_pushed_into_all_branches() {
        let c = cat();
        let u = Plan::union(vec![Plan::scan(&c, "t").unwrap(), Plan::scan(&c, "t").unwrap()])
            .unwrap()
            .filter(Expr::eq(Expr::col(1), Expr::lit(1i64)));
        let opt = push_filters(u.clone()).unwrap();
        match &opt.kind {
            PlanKind::Union { inputs } => {
                for i in inputs {
                    assert!(matches!(&i.kind, PlanKind::Scan { filters, .. } if !filters.is_empty()));
                }
            }
            other => panic!("expected union, got {other:?}"),
        }
        assert_eq!(execute(&u, &c).unwrap(), execute(&opt, &c).unwrap());
    }

    #[test]
    fn prune_narrows_scan_under_project_and_remaps() {
        let c = cat();
        // SELECT v FROM t WHERE grp = 3 — reads grp (filter) and v
        // (projection); id must be pruned away.
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::eq(Expr::col(1), Expr::lit(3i64)))
            .project(vec![(Expr::col(2), "v".into())]);
        let before = execute(&p, &c).unwrap();
        let opt = optimize(p, &c).unwrap();
        let after = execute(&opt, &c).unwrap();
        assert_eq!(before, after, "pruning must not change results");
        // Filter was pushed into the scan (table column space, no pruning
        // pressure), so the scan keeps only the projected column.
        let explain = opt.explain();
        assert!(explain.contains("[cols=v]"), "pruned set surfaced in EXPLAIN:\n{explain}");
        let PlanKind::Project { input, exprs } = &opt.kind else {
            panic!("expected project root, got:\n{explain}")
        };
        assert_eq!(exprs[0], Expr::col(0), "projection remapped into pruned space");
        let PlanKind::Scan { projection, filters, .. } = &input.kind else {
            panic!("expected scan input, got:\n{explain}")
        };
        assert_eq!(projection.as_deref(), Some(&[2usize][..]));
        assert_eq!(
            filters[0],
            Expr::eq(Expr::col(1), Expr::lit(3i64)),
            "pushed-down filters stay in the table's column space"
        );
        assert_eq!(input.fields.len(), 1);
        assert_eq!(input.fields[0].name, "v");
    }

    #[test]
    fn prune_covers_aggregate_and_unprojected_filter_chains() {
        let c = cat();
        // SELECT grp, SUM(v) FROM t GROUP BY grp: id is never read.
        let agg = Plan::scan(&c, "t").unwrap().aggregate(
            vec![(Expr::col(1), "grp".into())],
            vec![(AggCall::new(crate::agg::AggFunc::Sum, Expr::col(2)), "s".into())],
        );
        let before = execute(&agg, &c).unwrap();
        let opt = optimize(agg, &c).unwrap();
        assert_eq!(execute(&opt, &c).unwrap(), before);
        let PlanKind::Aggregate { input, group, aggs } = &opt.kind else {
            panic!("expected aggregate root:\n{}", opt.explain())
        };
        let PlanKind::Scan { projection, .. } = &input.kind else {
            panic!("expected scan input:\n{}", opt.explain())
        };
        assert_eq!(projection.as_deref(), Some(&[1usize, 2][..]));
        assert_eq!(group[0], Expr::col(0), "group key remapped");
        assert_eq!(aggs[0].arg, Expr::col(1), "agg argument remapped");

        // A residual Filter that pushdown cannot fold into the scan (it
        // stays a Filter node) contributes its columns and is remapped.
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::eq(
                Expr::binary(BinOp::Mod, Expr::col(0), Expr::lit(7i64)),
                Expr::col(1),
            ))
            .project(vec![(Expr::col(2), "v".into())]);
        let before = execute(&p, &c).unwrap();
        let pruned = prune_projections(p);
        assert_eq!(execute(&pruned, &c).unwrap(), before);
        let PlanKind::Project { input, .. } = &pruned.kind else { panic!("project root") };
        let PlanKind::Filter { input: scan, predicate } = &input.kind else {
            panic!("filter kept: {}", pruned.explain())
        };
        assert_eq!(
            *predicate,
            Expr::eq(Expr::binary(BinOp::Mod, Expr::col(0), Expr::lit(7i64)), Expr::col(1)),
            "id,grp,v pruned to id,grp,v? no: all three referenced -> unchanged"
        );
        // All three columns are referenced here, so no pruning happened.
        let PlanKind::Scan { projection, .. } = &scan.kind else { panic!("scan leaf") };
        assert!(projection.is_none(), "full-width scans stay unprojected");
    }

    #[test]
    fn stacked_identity_projects_collapse_and_prune() {
        let c = cat();
        // The SQL lowering emits this exact shape: SELECT-list project
        // over identity mapping-view projects over the scan. Pruning
        // must see through the stack or it never fires for real queries.
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::eq(Expr::col(1), Expr::lit(3i64)))
            .project(vec![
                (Expr::col(0), "id".into()),
                (Expr::col(1), "grp".into()),
                (Expr::col(2), "v".into()),
            ])
            .project(vec![
                (Expr::col(0), "id".into()),
                (Expr::col(1), "grp".into()),
                (Expr::col(2), "v".into()),
            ])
            .project(vec![(Expr::col(2), "v".into())]);
        let before = execute(&p, &c).unwrap();
        let opt = optimize(p, &c).unwrap();
        assert_eq!(execute(&opt, &c).unwrap(), before);
        let explain = opt.explain();
        assert!(explain.contains("[cols=v]"), "pruning fires through the stack:\n{explain}");
        let PlanKind::Project { input, exprs } = &opt.kind else {
            panic!("single collapsed project:\n{explain}")
        };
        assert_eq!(exprs.as_slice(), &[Expr::col(0)]);
        assert!(
            matches!(&input.kind, PlanKind::Scan { projection: Some(cols), .. } if cols == &[2]),
            "scan directly below the collapsed project:\n{explain}"
        );
        // Computed inner projections must NOT be inlined (work would be
        // duplicated per outer reference).
        let q = Plan::scan(&c, "t")
            .unwrap()
            .project(vec![(
                Expr::binary(BinOp::Add, Expr::col(0), Expr::col(2)),
                "sum".into(),
            )])
            .project(vec![(Expr::col(0), "a".into()), (Expr::col(0), "b".into())]);
        let collapsed = collapse_projects(q.clone());
        assert_eq!(collapsed, q, "computed projections stay stacked");

        // An identity project between Aggregate and Scan (the SQL GROUP
        // BY shape) collapses too, unlocking the columnar agg fast path.
        let a = Plan::scan(&c, "t")
            .unwrap()
            .project(vec![
                (Expr::col(0), "id".into()),
                (Expr::col(1), "grp".into()),
                (Expr::col(2), "v".into()),
            ])
            .aggregate(
                vec![(Expr::col(1), "grp".into())],
                vec![(AggCall::new(crate::agg::AggFunc::Sum, Expr::col(2)), "s".into())],
            );
        let before = execute(&a, &c).unwrap();
        let opt = optimize(a, &c).unwrap();
        assert_eq!(execute(&opt, &c).unwrap(), before);
        let PlanKind::Aggregate { input, .. } = &opt.kind else {
            panic!("aggregate root:\n{}", opt.explain())
        };
        assert!(
            matches!(&input.kind, PlanKind::Scan { projection: Some(cols), .. } if cols == &[1, 2]),
            "pruned scan directly under the aggregate:\n{}",
            opt.explain()
        );
    }

    #[test]
    fn prune_allows_zero_width_count_star() {
        let c = cat();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .aggregate(vec![], vec![(AggCall::count_star(), "n".into())]);
        let opt = prune_projections(p);
        let PlanKind::Aggregate { input, .. } = &opt.kind else { panic!("aggregate root") };
        let PlanKind::Scan { projection, .. } = &input.kind else { panic!("scan leaf") };
        assert_eq!(projection.as_deref(), Some(&[][..]), "COUNT(*) reads no columns");
        assert_eq!(execute(&opt, &c).unwrap(), vec![vec![Value::Int(100)]]);
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::Plan;
    use erbium_storage::{Column, DataType, IndexKind, Row, Table, TableSchema};

    fn cat_with_btree() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![Column::not_null("id", DataType::Int), Column::new("v", DataType::Int)],
            vec![0],
        ));
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
        }
        t.create_index("by_id", vec![0], IndexKind::BTree).unwrap();
        c.create_table(t).unwrap();
        c
    }

    #[test]
    fn range_scan_selected_for_comparison() {
        let c = cat_with_btree();
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(10i64)));
        let opt = optimize(p.clone(), &c).unwrap();
        assert!(opt.explain().starts_with("IndexRange t col=#0 [∞ .. 10]"), "{}", opt.explain());
        let mut a = execute(&p, &c).unwrap();
        let mut b = execute(&opt, &c).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn mirrored_comparison_and_residual() {
        let c = cat_with_btree();
        // 90 <= id AND v = 3 → range on id, residual on v.
        let p = Plan::scan(&c, "t").unwrap().filter(Expr::and(
            Expr::binary(BinOp::Le, Expr::lit(90i64), Expr::col(0)),
            Expr::eq(Expr::col(1), Expr::lit(3i64)),
        ));
        let opt = optimize(p.clone(), &c).unwrap();
        match &opt.kind {
            PlanKind::IndexRange { lo: Some((Expr::Lit(Value::Int(90)), true)), residual, .. } => {
                assert_eq!(residual.len(), 1);
            }
            other => panic!("expected range, got {other:?}"),
        }
        let mut a = execute(&p, &c).unwrap();
        let mut b = execute(&opt, &c).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn no_btree_no_range() {
        let c = cat_with_btree();
        // Column v has no index: stays a scan.
        let p = Plan::scan(&c, "t")
            .unwrap()
            .filter(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(5i64)));
        let opt = optimize(p, &c).unwrap();
        assert!(matches!(&opt.kind, PlanKind::Scan { .. }));
    }

    /// `id` plus a nullable `k` (NULL on even ids, else the id) with an
    /// index of `kind` on `k`.
    fn cat_with_nullable_index(kind: IndexKind) -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "n",
            vec![Column::not_null("id", DataType::Int), Column::new("k", DataType::Int)],
            vec![0],
        ));
        for i in 0..10i64 {
            let k = if i % 2 == 0 { Value::Null } else { Value::Int(i) };
            t.insert(vec![Value::Int(i), k]).unwrap();
        }
        t.create_index("by_k", vec![1], kind).unwrap();
        c.create_table(t).unwrap();
        c
    }

    /// Optimize `p`, check the leaf became `leaf`, and return the rows of
    /// the scan plan and of the optimized one, both sorted.
    fn scan_vs_optimized(p: Plan, c: &Catalog, leaf: &str) -> (Vec<Row>, Vec<Row>) {
        let opt = optimize(p.clone(), c).unwrap();
        assert!(opt.explain().starts_with(leaf), "{}", opt.explain());
        let mut a = execute(&p, c).unwrap();
        let mut b = execute(&opt, c).unwrap();
        a.sort();
        b.sort();
        (a, b)
    }

    #[test]
    fn in_set_with_null_through_index_matches_scan() {
        let c = cat_with_nullable_index(IndexKind::Hash);
        let p = Plan::scan(&c, "n")
            .unwrap()
            .filter(Expr::in_set(Expr::col(1), vec![Value::Int(1), Value::Null]));
        let (scan, opt) = scan_vs_optimized(p, &c, "IndexLookup");
        assert_eq!(scan, vec![vec![Value::Int(1), Value::Int(1)]]);
        assert_eq!(opt, scan);
    }

    #[test]
    fn open_range_through_index_excludes_nulls() {
        let c = cat_with_nullable_index(IndexKind::BTree);
        let lt5 = Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(5i64));
        let five_ge = Expr::binary(BinOp::Ge, Expr::lit(5i64), Expr::col(1));
        let gt5 = Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(5i64));
        for (pred, want) in [(lt5, 2), (five_ge, 3), (gt5, 2)] {
            let p = Plan::scan(&c, "n").unwrap().filter(pred.clone());
            let (scan, opt) = scan_vs_optimized(p, &c, "IndexRange");
            assert_eq!(scan.len(), want, "{pred}");
            assert_eq!(opt, scan, "{pred}");
        }
    }

    #[test]
    fn param_key_keeps_the_index_and_binds_per_execution() {
        use crate::plan::{bind_params, param_count};
        let c = cat_with_nullable_index(IndexKind::Hash);
        let template = optimize(
            Plan::scan(&c, "n").unwrap().filter(Expr::eq(Expr::col(1), Expr::Param(0))),
            &c,
        )
        .unwrap();
        let explain = template.explain();
        assert!(explain.starts_with("IndexLookup n cols=[1] keys=[?0]"), "{explain}");
        assert_eq!(param_count(&template), 1, "the moved `?` still counts");
        assert!(bind_params(&template, &[]).is_err());
        let run = |v: Value| execute(&bind_params(&template, &[v]).unwrap(), &c).unwrap();
        let three = vec![vec![Value::Int(3), Value::Int(3)]];
        assert_eq!(run(Value::Int(3)), three);
        assert_eq!(run(Value::Float(3.0)), three);
        assert!(run(Value::Int(4)).is_empty());
        assert!(run(Value::Null).is_empty(), "`k = NULL` holds for no row");
    }

    #[test]
    fn param_bound_keeps_the_range_and_binds_per_execution() {
        use crate::plan::{bind_params, param_count};
        let c = cat_with_nullable_index(IndexKind::BTree);
        let template = optimize(
            Plan::scan(&c, "n")
                .unwrap()
                .filter(Expr::binary(BinOp::Gt, Expr::Param(0), Expr::col(1))),
            &c,
        )
        .unwrap();
        let explain = template.explain();
        assert!(explain.starts_with("IndexRange n col=#1 [∞ .. ?0]"), "{explain}");
        assert_eq!(param_count(&template), 1);
        for v in [Value::Int(5), Value::Float(7.5), Value::Null] {
            let lit = Plan::scan(&c, "n")
                .unwrap()
                .filter(Expr::binary(BinOp::Gt, Expr::Lit(v.clone()), Expr::col(1)));
            let mut want = execute(&lit, &c).unwrap();
            let bound = bind_params(&template, std::slice::from_ref(&v)).unwrap();
            let mut got = execute(&bound, &c).unwrap();
            want.sort();
            got.sort();
            assert_eq!(got, want, "bound to {v}");
        }
    }
}

#[cfg(test)]
mod cost_tests {
    use super::*;
    use crate::exec::execute;
    use erbium_storage::{Column, DataType, Table, TableSchema};

    /// big(id, k): 1000 rows, k = id % 10; small(k): 10 rows; mid(k): 100
    /// rows — all ANALYZEd.
    fn analyzed_cat3() -> Catalog {
        let mut c = Catalog::new();
        let mut big = Table::new(TableSchema::new(
            "big",
            vec![Column::not_null("id", DataType::Int), Column::new("k", DataType::Int)],
            vec![0],
        ));
        for i in 0..1000i64 {
            big.insert(vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
        }
        c.create_table(big).unwrap();
        let mut small =
            Table::new(TableSchema::new("small", vec![Column::not_null("k", DataType::Int)], vec![0]));
        for i in 0..10i64 {
            small.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(small).unwrap();
        let mut mid =
            Table::new(TableSchema::new("mid", vec![Column::not_null("k", DataType::Int)], vec![0]));
        for i in 0..100i64 {
            mid.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(mid).unwrap();
        c.analyze();
        c
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort();
        rows
    }

    #[test]
    fn build_side_swapped_when_left_is_smaller() {
        let c = analyzed_cat3();
        // small ⋈ big: the executor builds the RIGHT side, so without the
        // pass it would build the 1000-row table.
        let p = Plan::scan(&c, "small").unwrap().join(
            Plan::scan(&c, "big").unwrap(),
            JoinKind::Inner,
            vec![Expr::col(0)],
            vec![Expr::col(1)],
        );
        let opt = optimize(p.clone(), &c).unwrap();
        match &opt.kind {
            PlanKind::Project { input, .. } => match &input.kind {
                PlanKind::Join { left, right, left_keys, right_keys, .. } => {
                    assert!(
                        matches!(&left.kind, PlanKind::Scan { table, .. } if table == "big"),
                        "probe side must be big:\n{}",
                        opt.explain()
                    );
                    assert!(
                        matches!(&right.kind, PlanKind::Scan { table, .. } if table == "small"),
                        "build side must be small:\n{}",
                        opt.explain()
                    );
                    assert_eq!(left_keys, &vec![Expr::col(1)], "keys swapped with the sides");
                    assert_eq!(right_keys, &vec![Expr::col(0)]);
                }
                other => panic!("expected join under project, got {other:?}"),
            },
            other => panic!("expected restore projection on top, got {other:?}"),
        }
        // Field names survive the swap.
        let names: Vec<&str> = opt.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["k", "id", "k"]);
        // Same multiset of rows, same column order.
        assert_eq!(sorted(execute(&p, &c).unwrap()), sorted(execute(&opt, &c).unwrap()));
    }

    #[test]
    fn build_side_not_swapped_when_right_is_smaller() {
        let c = analyzed_cat3();
        let p = Plan::scan(&c, "big").unwrap().join(
            Plan::scan(&c, "small").unwrap(),
            JoinKind::Inner,
            vec![Expr::col(1)],
            vec![Expr::col(0)],
        );
        let opt = optimize(p.clone(), &c).unwrap();
        assert!(matches!(&opt.kind, PlanKind::Join { .. }), "{}", opt.explain());
        assert_eq!(sorted(execute(&p, &c).unwrap()), sorted(execute(&opt, &c).unwrap()));
    }

    #[test]
    fn left_join_never_swapped() {
        let c = analyzed_cat3();
        let p = Plan::scan(&c, "small").unwrap().join(
            Plan::scan(&c, "big").unwrap(),
            JoinKind::Left,
            vec![Expr::col(0)],
            vec![Expr::col(1)],
        );
        let opt = optimize(p.clone(), &c).unwrap();
        assert!(
            matches!(&opt.kind, PlanKind::Join { kind: JoinKind::Left, left, .. }
                if matches!(&left.kind, PlanKind::Scan { table, .. } if table == "small")),
            "{}",
            opt.explain()
        );
        assert_eq!(sorted(execute(&p, &c).unwrap()), sorted(execute(&opt, &c).unwrap()));
    }

    #[test]
    fn join_chain_reordered_smallest_first() {
        let c = analyzed_cat3();
        // Written order: (big ⋈ small) ⋈ mid. Greedy should join the two
        // small tables into big instead: (small ⋈ big) ⋈ mid.
        let p = Plan::scan(&c, "big")
            .unwrap()
            .join(
                Plan::scan(&c, "small").unwrap(),
                JoinKind::Inner,
                vec![Expr::col(1)],
                vec![Expr::col(0)],
            )
            .join(
                Plan::scan(&c, "mid").unwrap(),
                JoinKind::Inner,
                vec![Expr::col(1)],
                vec![Expr::col(0)],
            );
        let reordered = reorder_joins(p.clone(), &c);
        match &reordered.kind {
            PlanKind::Project { input, .. } => match &input.kind {
                PlanKind::Join { left, right, .. } => {
                    assert!(
                        matches!(&right.kind, PlanKind::Scan { table, .. } if table == "mid"),
                        "mid joins last:\n{}",
                        reordered.explain()
                    );
                    match &left.kind {
                        PlanKind::Join { left: ll, right: lr, .. } => {
                            assert!(matches!(&ll.kind, PlanKind::Scan { table, .. } if table == "small"));
                            assert!(matches!(&lr.kind, PlanKind::Scan { table, .. } if table == "big"));
                        }
                        other => panic!("expected inner join, got {other:?}"),
                    }
                }
                other => panic!("expected join under project, got {other:?}"),
            },
            other => panic!("expected restore projection, got {other:?}"),
        }
        // Column order and field names restored.
        assert_eq!(reordered.fields, p.fields);
        assert_eq!(sorted(execute(&p, &c).unwrap()), sorted(execute(&reordered, &c).unwrap()));
        // The full pipeline also stays correct (build-side pass runs on the
        // rebuilt tree afterwards).
        let opt = optimize(p.clone(), &c).unwrap();
        assert_eq!(sorted(execute(&p, &c).unwrap()), sorted(execute(&opt, &c).unwrap()));
    }

    #[test]
    fn reorder_keeps_already_good_order() {
        let c = analyzed_cat3();
        // (small ⋈ big) ⋈ mid is already the greedy order: no projection is
        // inserted, the tree shape is untouched.
        let p = Plan::scan(&c, "small")
            .unwrap()
            .join(
                Plan::scan(&c, "big").unwrap(),
                JoinKind::Inner,
                vec![Expr::col(0)],
                vec![Expr::col(1)],
            )
            .join(
                Plan::scan(&c, "mid").unwrap(),
                JoinKind::Inner,
                vec![Expr::col(2)],
                vec![Expr::col(0)],
            );
        let reordered = reorder_joins(p.clone(), &c);
        assert_eq!(reordered, p);
    }

    #[test]
    fn cost_passes_are_noops_without_stats() {
        // Same tables, no ANALYZE: the plan shape must be exactly what the
        // rule-based passes alone produce.
        let mut c = Catalog::new();
        let mut big = Table::new(TableSchema::new(
            "big",
            vec![Column::not_null("id", DataType::Int), Column::new("k", DataType::Int)],
            vec![0],
        ));
        for i in 0..50i64 {
            big.insert(vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        c.create_table(big).unwrap();
        let mut small =
            Table::new(TableSchema::new("small", vec![Column::not_null("k", DataType::Int)], vec![0]));
        for i in 0..5i64 {
            small.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(small).unwrap();
        assert!(c.stats().is_empty());
        let p = Plan::scan(&c, "small").unwrap().join(
            Plan::scan(&c, "big").unwrap(),
            JoinKind::Inner,
            vec![Expr::col(0)],
            vec![Expr::col(1)],
        );
        let opt = optimize(p.clone(), &c).unwrap();
        // No restore projection, no swap: left is still `small`.
        assert!(
            matches!(&opt.kind, PlanKind::Join { left, .. }
                if matches!(&left.kind, PlanKind::Scan { table, .. } if table == "small")),
            "{}",
            opt.explain()
        );
    }

    #[test]
    fn stats_rank_selective_filter_first() {
        let c = analyzed_cat3();
        // Both predicates have the same static cost rank (Binary over
        // Col/Lit). `k >= 0` keeps every row; `id = 3` keeps one in a
        // thousand. With stats the selective one must run first; without
        // stats the pushdown order is kept.
        let keep_all = Expr::binary(BinOp::Ge, Expr::col(1), Expr::lit(0i64));
        let selective = Expr::eq(Expr::col(0), Expr::lit(3i64));
        let one_in_ten = Expr::and(keep_all.clone(), selective.clone());
        let p = Plan::scan(&c, "big").unwrap().filter(one_in_ten.clone());
        let with_stats = rank_filters(push_filters(p.clone()).unwrap(), &c);
        match &with_stats.kind {
            PlanKind::Scan { filters, .. } => {
                assert_eq!(filters[0], selective, "selective predicate first with stats");
                assert_eq!(filters[1], keep_all);
            }
            other => panic!("expected scan, got {other:?}"),
        }
        let bare = {
            let mut c2 = Catalog::new();
            let mut big = Table::new(TableSchema::new(
                "big",
                vec![Column::not_null("id", DataType::Int), Column::new("k", DataType::Int)],
                vec![0],
            ));
            big.insert(vec![Value::Int(0), Value::Int(0)]).unwrap();
            c2.create_table(big).unwrap();
            c2
        };
        let q = Plan::scan(&bare, "big").unwrap().filter(one_in_ten);
        let without_stats = rank_filters(push_filters(q).unwrap(), &bare);
        match &without_stats.kind {
            PlanKind::Scan { filters, .. } => {
                assert_eq!(filters[0], keep_all, "stable static order without stats");
                assert_eq!(filters[1], selective);
            }
            other => panic!("expected scan, got {other:?}"),
        }
    }

}
