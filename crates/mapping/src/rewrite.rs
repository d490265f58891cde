//! ERQL → physical plan rewriting.
//!
//! This module is where the paper's *logical data independence* happens: a
//! query written against the E/R schema ("SELECT r.r_mv1 FROM R r JOIN S s
//! VIA r_s WHERE ...") is translated into an engine [`Plan`] over whatever
//! physical tables the installed mapping chose. The same ERQL text
//! therefore runs — with identical results but very different costs —
//! against all of the paper's mappings M1–M6.
//!
//! Key translation rules:
//!
//! * **Entity access**: scanning an entity set produces its extent with all
//!   inherited attributes. Delta hierarchies join ancestor tables; merged
//!   hierarchies filter (or not) on `_type`; full/disjoint hierarchies union
//!   subtree tables (the paper's "5-relation union"); folded weak entities
//!   unnest the owner's array-of-struct column; co-located entities read
//!   their own member table like any delta-layout level, or one side of a
//!   denormalized pair table (with `DISTINCT`, since pair rows duplicate
//!   entity data).
//! * **Multi-valued attributes** are resolved lazily, in the layout's
//!   native shape: a bare reference yields an *array* (side tables are
//!   aggregated with `array_agg`; inline arrays are read directly), while
//!   `UNNEST(attr)` yields one row per value (side tables are joined
//!   directly — no aggregation; inline arrays go through the `Unnest`
//!   operator). Each distinct `(binding, attribute)` unnest becomes one
//!   plan column, so repeated `UNNEST(x)` references agree.
//! * **`JOIN ... VIA rel`** compiles to whatever the relationship's home
//!   dictates: FK equality for folded relationships, a join-table hop, a
//!   link-table scan that fetches both members by row id (`Fetch`, no join)
//!   for factorized co-location, a pair-row scan for denormalized
//!   co-location, or an owner-key equality for identifying relationships.
//! * **`NEST(...)`** lowers to `array_agg(struct_pack(...))` with grouping
//!   inferred from the remaining select items, as the paper proposes.

use crate::error::{MappingError, MappingResult};
use crate::fragment::HierarchyLayout;
use crate::lower::{
    co_col, fk_col, join_col, EntityHome, Lowering, MvHome, RelHome, Side, LINK_COLS, TYPE_COL,
};
use erbium_engine::{AggCall, AggFunc, BinOp, Expr, Field, JoinKind, Plan, ScalarFunc, SortKey};
use erbium_model::{EntitySet, Relationship};
use erbium_query::{
    JoinClause, Literal, OrderItem, QAggFunc, QBinOp, QExpr, SelectItem, SelectStmt,
};
use erbium_storage::{Catalog, DataType, Value};

/// Provenance of one plan column in a query scope.
#[derive(Debug, Clone, PartialEq)]
struct ScopeCol {
    binding: String,
    /// Attribute name; physical-ish names (`rel__key`) for FK columns,
    /// `#unnest:attr` for unnest result columns.
    attr: String,
}

/// A partially-built query: a plan plus the provenance of its columns.
struct Scope {
    plan: Plan,
    cols: Vec<ScopeCol>,
    /// `(binding, entity)` pairs bound so far, in FROM/JOIN order.
    bindings: Vec<(String, String)>,
}

impl Scope {
    fn find(&self, binding: &str, attr: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.binding == binding && c.attr == attr)
    }

    fn find_unqualified(&self, attr: &str) -> MappingResult<Option<usize>> {
        let mut hits = self.cols.iter().enumerate().filter(|(_, c)| c.attr == attr);
        match (hits.next(), hits.next()) {
            (None, _) => Ok(None),
            (Some((i, _)), None) => Ok(Some(i)),
            (Some(_), Some(_)) => {
                Err(MappingError::Binding(format!("ambiguous attribute '{attr}'")))
            }
        }
    }

    fn entity_of(&self, binding: &str) -> Option<&str> {
        self.bindings
            .iter()
            .find(|(b, _)| b == binding)
            .map(|(_, e)| e.as_str())
    }
}

/// Rewrites ERQL statements into engine plans under one lowered mapping.
pub struct QueryRewriter<'a> {
    lw: &'a Lowering,
    cat: &'a Catalog,
}

impl<'a> QueryRewriter<'a> {
    pub fn new(lw: &'a Lowering, cat: &'a Catalog) -> QueryRewriter<'a> {
        QueryRewriter { lw, cat }
    }

    /// Translate a SELECT statement to a physical plan. The plan's output
    /// fields carry the select-item names.
    pub fn rewrite(&self, stmt: &SelectStmt) -> MappingResult<Plan> {
        // FROM + JOINs.
        let mut scope = self.entity_access(stmt.from.binding(), &stmt.from.entity)?;
        for j in &stmt.joins {
            scope = self.apply_join(scope, j)?;
        }
        // Lazily resolve multi-valued attributes referenced anywhere.
        self.resolve_multivalued(&mut scope, stmt)?;
        // WHERE.
        if let Some(w) = &stmt.where_clause {
            let pred = self.expr(&scope, w)?;
            scope.plan = scope.plan.filter(pred);
        }
        // SELECT list (+ inferred grouping).
        let has_agg = stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Nest { .. } => true,
            SelectItem::Wildcard { .. } => false,
        }) || !stmt.group_by.is_empty();

        let mut out_plan;
        let out_names: Vec<String>;
        if has_agg {
            (out_plan, out_names) = self.build_aggregate(&scope, stmt)?;
        } else {
            let mut exprs: Vec<(Expr, String)> = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard { qualifier } => {
                        for (e, n) in self.expand_wildcard(&scope, qualifier.as_deref())? {
                            exprs.push((e, n));
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let e = self.expr(&scope, expr)?;
                        exprs.push((e, alias.clone().unwrap_or_else(|| item_name(expr))));
                    }
                    SelectItem::Nest { .. } => unreachable!("nest implies has_agg"),
                }
            }
            out_names = exprs.iter().map(|(_, n)| n.clone()).collect();
            out_plan = scope.plan.clone().project(exprs);
        }
        if stmt.distinct {
            out_plan = out_plan.distinct();
        }
        // ORDER BY against the output schema (aliases), falling back to
        // positions.
        if !stmt.order_by.is_empty() {
            let keys = stmt
                .order_by
                .iter()
                .map(|o| self.order_key(&out_plan, &out_names, o))
                .collect::<MappingResult<Vec<SortKey>>>()?;
            out_plan = out_plan.sort(keys);
        }
        if let Some(n) = stmt.limit {
            out_plan = out_plan.limit(n);
        }
        Ok(out_plan)
    }

    /// Rewrite and optimize.
    pub fn rewrite_optimized(&self, stmt: &SelectStmt) -> MappingResult<Plan> {
        let plan = self.rewrite(stmt)?;
        Ok(erbium_engine::optimizer::optimize(plan, self.cat)?)
    }

    fn order_key(
        &self,
        plan: &Plan,
        names: &[String],
        item: &OrderItem,
    ) -> MappingResult<SortKey> {
        // Simple column / alias references sort on the output column.
        if let QExpr::Column { qualifier: None, name } = &item.expr {
            if let Some(i) = names.iter().position(|n| n == name) {
                return Ok(SortKey { expr: Expr::Col(i), desc: item.desc });
            }
        }
        if let QExpr::Column { qualifier: Some(q), name } = &item.expr {
            let combined = format!("{q}.{name}");
            if let Some(i) =
                names.iter().position(|n| *n == combined || *n == *name)
            {
                return Ok(SortKey { expr: Expr::Col(i), desc: item.desc });
            }
        }
        let _ = plan;
        Err(MappingError::Binding(format!(
            "ORDER BY must reference a select-list column (got {:?})",
            item.expr
        )))
    }

    // ---- entity access -------------------------------------------------------

    /// Plan producing the extent of `entity` with key columns, resident
    /// (non-side-table) attributes of all ancestry levels, and FK columns of
    /// folded relationships.
    fn entity_access(&self, binding: &str, entity: &str) -> MappingResult<Scope> {
        let chain: Vec<EntitySet> =
            self.lw.schema.ancestry(entity)?.into_iter().cloned().collect();
        let most = chain.last().expect("nonempty");
        let scope = match self.lw.entity_home(&most.name)? {
            EntityHome::Merged { table, .. } => {
                self.access_merged(binding, entity, &chain, table)?
            }
            EntityHome::Table { layout: HierarchyLayout::Full, .. } => {
                self.access_full(binding, entity, &chain)?
            }
            EntityHome::FoldedWeak { owner, column } => {
                let owner = owner.clone();
                let column = column.clone();
                self.access_folded_weak(binding, entity, &owner, &column)?
            }
            _ => {
                // The root of a merged hierarchy is itself `Table`, but its
                // table carries `_type`; detect and reuse the merged path.
                if let EntityHome::Table { table, .. } = self.lw.entity_home(&most.name)? {
                    if self
                        .lw
                        .table_schema(table)
                        .map(|s| s.column_index(TYPE_COL).is_some())
                        .unwrap_or(false)
                    {
                        let table = table.clone();
                        return self.finish_access(
                            self.access_merged(binding, entity, &chain, &table)?,
                            binding,
                            entity,
                        );
                    }
                }
                self.access_delta(binding, entity, &chain)?
            }
        };
        self.finish_access(scope, binding, entity)
    }

    fn finish_access(&self, mut scope: Scope, binding: &str, entity: &str) -> MappingResult<Scope> {
        scope.bindings = vec![(binding.to_string(), entity.to_string())];
        Ok(scope)
    }

    /// Merged (single-table) hierarchy access.
    fn access_merged(
        &self,
        binding: &str,
        entity: &str,
        chain: &[EntitySet],
        table: &str,
    ) -> MappingResult<Scope> {
        let mut plan = Plan::scan(self.cat, table)?;
        // Restrict to the entity's subtree unless it is the root.
        if chain.len() > 1 {
            let ty_col = plan.require_column(TYPE_COL)?;
            let mut members = vec![Value::str(entity)];
            for d in self.lw.schema.descendants(entity) {
                members.push(Value::str(&d.name));
            }
            plan = plan.filter(Expr::in_set(Expr::Col(ty_col), members));
        }
        // Project to key + chain attributes + FK columns.
        let (exprs, cols) = self.visible_columns(binding, entity, chain, &plan, |n| n.to_string())?;
        let plan = plan.project(exprs);
        Ok(Scope { plan, cols, bindings: vec![] })
    }

    /// Full-layout (disjoint tables) hierarchy access: union of subtree
    /// tables projected to the entity's visible columns.
    fn access_full(&self, binding: &str, entity: &str, chain: &[EntitySet]) -> MappingResult<Scope> {
        let mut members = vec![entity.to_string()];
        members.extend(self.lw.schema.descendants(entity).iter().map(|e| e.name.clone()));
        let mut branches = Vec::new();
        let mut cols = Vec::new();
        for (i, m) in members.iter().enumerate() {
            let EntityHome::Table { table, .. } = self.lw.entity_home(m)? else {
                return Err(MappingError::Unsupported(format!(
                    "full-layout member '{m}' without its own table"
                )));
            };
            let plan = Plan::scan(self.cat, table)?;
            let (exprs, branch_cols) =
                self.visible_columns(binding, entity, chain, &plan, |n| n.to_string())?;
            if i == 0 {
                cols = branch_cols;
            }
            branches.push(plan.project(exprs));
        }
        let plan = if branches.len() == 1 {
            branches.pop().expect("single branch")
        } else {
            Plan::union(branches)?
        };
        Ok(Scope { plan, cols, bindings: vec![] })
    }

    /// Delta-layout access: join the entity's own table with its ancestors'
    /// tables (co-located levels read their side of the shared structure).
    fn access_delta(&self, binding: &str, entity: &str, chain: &[EntitySet]) -> MappingResult<Scope> {
        let key_names: Vec<String> =
            self.lw.key_columns(entity)?.into_iter().map(|(n, _)| n).collect();
        let mut plan: Option<Plan> = None;
        let mut cols: Vec<ScopeCol> = Vec::new();
        // Join from the most specific level upward: its table is the
        // smallest and determines the extent.
        for level in chain.iter().rev() {
            let (level_plan, level_cols) = self.level_access(binding, level)?;
            match plan {
                None => {
                    plan = Some(level_plan);
                    cols = level_cols;
                }
                Some(p) => {
                    // Join on the key columns (present in both).
                    let left_keys: Vec<Expr> = key_names
                        .iter()
                        .map(|k| {
                            Expr::Col(
                                cols.iter()
                                    .position(|c| c.attr == *k)
                                    .expect("key column present"),
                            )
                        })
                        .collect();
                    let right_keys: Vec<Expr> = key_names
                        .iter()
                        .map(|k| {
                            Expr::Col(
                                level_cols
                                    .iter()
                                    .position(|c| c.attr == *k)
                                    .expect("key column present"),
                            )
                        })
                        .collect();
                    let offset = p.fields.len();
                    plan = Some(p.join(level_plan, JoinKind::Inner, left_keys, right_keys));
                    // Drop the duplicated key columns of the right side from
                    // the visible set? Keep them (harmless) but do not
                    // register duplicates.
                    for (i, c) in level_cols.into_iter().enumerate() {
                        if key_names.contains(&c.attr) {
                            continue;
                        }
                        cols.push(c);
                        // Adjust: the pushed col's index is offset + i.
                        let idx = cols.len() - 1;
                        debug_assert!(idx <= offset + i);
                    }
                    // Rebuild cols to be index-accurate with a projection.
                    let p2 = plan.take().expect("set above");
                    let mut exprs = Vec::new();
                    let mut new_cols = Vec::new();
                    let mut seen = std::collections::HashSet::new();
                    for (i, f) in p2.fields.iter().enumerate() {
                        let attr = f.name.clone();
                        if !seen.insert(attr.clone()) {
                            continue; // duplicate key col from right side
                        }
                        exprs.push((Expr::Col(i), attr.clone()));
                        new_cols.push(ScopeCol { binding: binding.to_string(), attr });
                    }
                    plan = Some(p2.project(exprs));
                    cols = new_cols;
                }
            }
        }
        let plan = plan.expect("nonempty chain");
        // Deterministic column order regardless of join order: keys, then
        // root→leaf chain attributes, then FK columns — so that wildcard
        // expansion agrees across mappings.
        let mut order: Vec<String> = key_names.clone();
        for level in chain {
            for a in &level.attributes {
                if !order.contains(&a.name) {
                    order.push(a.name.clone());
                }
            }
            for rel_name in self.lw.folds_of(&level.name) {
                let rel = self.lw.schema.require_relationship(rel_name)?;
                let one = rel.one_end().expect("folded is m:1");
                for (k, _) in self.lw.key_columns(&one.entity)? {
                    order.push(fk_col(rel_name, &k));
                }
            }
            for weak in self.lw.schema.entities() {
                if weak.weak.as_ref().map(|w| w.owner == level.name).unwrap_or(false) {
                    order.push(format!("#fold:{}", weak.name));
                }
            }
        }
        let mut exprs = Vec::new();
        let mut out_cols = Vec::new();
        for attr in order {
            if let Some(i) = cols.iter().position(|c| c.attr == attr) {
                exprs.push((Expr::Col(i), attr.clone()));
                out_cols.push(ScopeCol { binding: binding.to_string(), attr });
            }
        }
        Ok(Scope { plan: plan.project(exprs), cols: out_cols, bindings: vec![] })
    }

    /// Access to one hierarchy level's own table / structure, exposing key
    /// columns + the level's resident attributes + its FK columns.
    fn level_access(&self, binding: &str, level: &EntitySet) -> MappingResult<(Plan, Vec<ScopeCol>)> {
        match self.lw.entity_home(&level.name)? {
            EntityHome::Table { table, .. } => {
                let plan = Plan::scan(self.cat, table)?;
                let (exprs, cols) = self.visible_columns(
                    binding,
                    &level.name,
                    std::slice::from_ref(level),
                    &plan,
                    |n| n.to_string(),
                )?;
                Ok((plan.project(exprs), cols))
            }
            EntityHome::CoLocated { table, side } => {
                // Pair rows duplicate entity data: filter to rows where
                // this side is present, project the side's columns, and
                // deduplicate — the cost the paper predicts for
                // single-entity queries on M6.
                let plan = Plan::scan(self.cat, table)?;
                let key_names: Vec<String> =
                    self.lw.key_columns(&level.name)?.into_iter().map(|(n, _)| n).collect();
                let first_key = plan.require_column(&co_col(*side, &key_names[0]))?;
                let plan = plan.filter(Expr::IsNotNull(Box::new(Expr::Col(first_key))));
                let mut exprs = Vec::new();
                let mut cols = Vec::new();
                for (i, f) in plan.fields.iter().enumerate() {
                    if let Some(stripped) = strip_side_name(&f.name, *side) {
                        exprs.push((Expr::Col(i), stripped.to_string()));
                        cols.push(ScopeCol {
                            binding: binding.to_string(),
                            attr: stripped.to_string(),
                        });
                    }
                }
                Ok((plan.project(exprs).distinct(), cols))
            }
            other => Err(MappingError::Unsupported(format!(
                "level access for home {other:?}"
            ))),
        }
    }

    /// Folded weak entity access: owner scan → unnest the array-of-struct
    /// column → project owner key + struct fields.
    fn access_folded_weak(
        &self,
        binding: &str,
        entity: &str,
        owner: &str,
        column: &str,
    ) -> MappingResult<Scope> {
        let owner_scope = self.entity_access("@owner", owner)?;
        let es = self.lw.schema.require_entity(entity)?;
        // The folded column lives in the owner's home table but is NOT part
        // of the owner's visible attributes; re-scan with the raw table to
        // reach it.
        let EntityHome::Table { table, .. } = self.lw.entity_home(owner)? else {
            return Err(MappingError::Unsupported(
                "folded weak owner must have its own table".into(),
            ));
        };
        let _ = owner_scope;
        let plan = Plan::scan(self.cat, table)?;
        let col = plan.require_column(column)?;
        let plan = plan.unnest(col)?;
        let owner_keys: Vec<String> =
            self.lw.key_columns(owner)?.into_iter().map(|(n, _)| n).collect();
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        for k in &owner_keys {
            let i = plan.require_column(k)?;
            exprs.push((Expr::Col(i), k.clone()));
            cols.push(ScopeCol { binding: binding.to_string(), attr: k.clone() });
        }
        for (fi, a) in es.attributes.iter().enumerate() {
            exprs.push((Expr::field(Expr::Col(col), fi), a.name.clone()));
            cols.push(ScopeCol { binding: binding.to_string(), attr: a.name.clone() });
        }
        Ok(Scope { plan: plan.project(exprs), cols, bindings: vec![] })
    }

    /// The visible (resident) columns of an access plan: keys, chain
    /// attributes present in the plan, FK columns of folded relationships.
    #[allow(clippy::type_complexity)]
    fn visible_columns(
        &self,
        binding: &str,
        entity: &str,
        chain: &[EntitySet],
        plan: &Plan,
        name_of: impl Fn(&str) -> String,
    ) -> MappingResult<(Vec<(Expr, String)>, Vec<ScopeCol>)> {
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        let push = |idx: usize, attr: String, exprs: &mut Vec<(Expr, String)>, cols: &mut Vec<ScopeCol>| {
            exprs.push((Expr::Col(idx), name_of(&attr)));
            cols.push(ScopeCol { binding: binding.to_string(), attr });
        };
        for (k, _) in self.lw.key_columns(entity)? {
            if let Some(i) = plan.column(&k) {
                push(i, k, &mut exprs, &mut cols);
            }
        }
        for level in chain {
            for a in &level.attributes {
                if cols.iter().any(|c| c.attr == a.name) {
                    continue; // key columns already pushed
                }
                if let Some(i) = plan.column(&a.name) {
                    push(i, a.name.clone(), &mut exprs, &mut cols);
                }
            }
            for rel_name in self.lw.folds_of(&level.name) {
                let rel = self.lw.schema.require_relationship(rel_name)?;
                let one = rel.one_end().expect("folded is m:1");
                for (k, _) in self.lw.key_columns(&one.entity)? {
                    let physical = fk_col(rel_name, &k);
                    if let Some(i) = plan.column(&physical) {
                        push(i, physical, &mut exprs, &mut cols);
                    }
                }
            }
            // Folded weak children travel with the owner row; expose them
            // as hidden columns so a later identifying-relationship join
            // can unnest in place instead of re-scanning the owner.
            for weak in self.lw.schema.entities() {
                if weak.weak.as_ref().map(|w| w.owner == level.name).unwrap_or(false) {
                    if let Some(i) = plan.column(&crate::lower::weak_col(&weak.name)) {
                        push(i, format!("#fold:{}", weak.name), &mut exprs, &mut cols);
                    }
                }
            }
        }
        Ok((exprs, cols))
    }

    // ---- joins ------------------------------------------------------------------

    fn apply_join(&self, scope: Scope, j: &JoinClause) -> MappingResult<Scope> {
        let binding = j.table.binding().to_string();
        let entity = j.table.entity.clone();
        if scope.bindings.iter().any(|(b, _)| *b == binding) {
            return Err(MappingError::Binding(format!("duplicate binding '{binding}'")));
        }
        let right = self.entity_access(&binding, &entity)?;
        let kind = if j.left { JoinKind::Left } else { JoinKind::Inner };
        let mut joined = match &j.via {
            Some(rel_name) => self.join_via(scope, right, rel_name, &entity, kind)?,
            None => {
                // Pure ON join (cartesian if no ON): join with no keys.
                let mut s = merge_scopes(scope, right, kind, vec![], vec![]);
                s.bindings.push((binding.clone(), entity.clone()));
                s
            }
        };
        if !joined.bindings.iter().any(|(b, _)| *b == binding) {
            joined.bindings.push((binding.clone(), entity.clone()));
        }
        if let Some(on) = &j.on {
            let pred = self.expr(&joined, on)?;
            joined.plan = joined.plan.filter(pred);
        }
        Ok(joined)
    }

    /// Identify which end of `rel` matches an existing binding, returning
    /// `(binding, its entity, end_is_from)`.
    fn match_end(
        &self,
        scope: &Scope,
        rel: &Relationship,
        new_entity: &str,
    ) -> MappingResult<(String, String, bool)> {
        // Two entity sets are join-compatible when one is an ancestor of
        // the other (they share key attributes).
        let compatible = |a: &str, b: &str| -> MappingResult<bool> {
            if a == b {
                return Ok(true);
            }
            Ok(self.lw.schema.ancestry(a)?.iter().any(|l| l.name == b)
                || self.lw.schema.ancestry(b)?.iter().any(|l| l.name == a))
        };
        // Which end does the NEW entity play?
        let from_ok = compatible(new_entity, &rel.from.entity)?;
        let to_ok = compatible(new_entity, &rel.to.entity)?;
        let new_is_from = match (from_ok, to_ok) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => {
                return Err(MappingError::Binding(format!(
                    "relationship '{}' is ambiguous for '{new_entity}'; \
                     use an explicit ON clause",
                    rel.name
                )))
            }
            (false, false) => {
                return Err(MappingError::Binding(format!(
                    "'{new_entity}' does not participate in relationship '{}'",
                    rel.name
                )))
            }
        };
        let existing_end = if new_is_from { &rel.to.entity } else { &rel.from.entity };
        for (b, e) in &scope.bindings {
            if compatible(e, existing_end)? {
                return Ok((b.clone(), e.clone(), !new_is_from));
            }
        }
        Err(MappingError::Binding(format!(
            "no bound entity matches the '{existing_end}' end of relationship '{}'",
            rel.name
        )))
    }

    fn join_via(
        &self,
        scope: Scope,
        right: Scope,
        rel_name: &str,
        new_entity: &str,
        kind: JoinKind,
    ) -> MappingResult<Scope> {
        let rel = self.lw.schema.require_relationship(rel_name)?.clone();
        let (bound_binding, _bound_entity, bound_is_from) =
            self.match_end(&scope, &rel, new_entity)?;
        let bound_end_entity =
            if bound_is_from { &rel.from.entity } else { &rel.to.entity };
        let new_end_entity = if bound_is_from { &rel.to.entity } else { &rel.from.entity };
        let bound_keys: Vec<String> =
            self.lw.key_columns(bound_end_entity)?.into_iter().map(|(n, _)| n).collect();
        let new_keys: Vec<String> =
            self.lw.key_columns(new_end_entity)?.into_iter().map(|(n, _)| n).collect();
        let new_binding = right.cols.first().map(|c| c.binding.clone()).unwrap_or_default();

        let key_exprs = |s: &Scope, binding: &str, keys: &[String]| -> MappingResult<Vec<Expr>> {
            keys.iter()
                .map(|k| {
                    s.find(binding, k)
                        .map(Expr::Col)
                        .ok_or_else(|| MappingError::Binding(format!("key '{k}' not in scope")))
                })
                .collect()
        };

        match self.lw.rel_home(rel_name)?.clone() {
            RelHome::Folded { many_entity, one_entity } => {
                // FK columns live with the many side; the bound side is the
                // many side iff its declared end is the relationship's many
                // end.
                let bound_is_many = self
                    .lw
                    .schema
                    .require_relationship(rel_name)?
                    .many_end()
                    .map(|e| e.entity == *bound_end_entity)
                    .unwrap_or(false);
                let _ = &many_entity;
                let one_key_names: Vec<String> =
                    self.lw.key_columns(&one_entity)?.into_iter().map(|(n, _)| n).collect();
                let fk_attr = |k: &str| fk_col(rel_name, k);
                if bound_is_many {
                    // bound side carries the FK.
                    let lk: Vec<Expr> = one_key_names
                        .iter()
                        .map(|k| {
                            scope.find(&bound_binding, &fk_attr(k)).map(Expr::Col).ok_or_else(
                                || MappingError::Binding(format!("FK '{}' not in scope", fk_attr(k))),
                            )
                        })
                        .collect::<MappingResult<_>>()?;
                    let rk = key_exprs(&right, &new_binding, &one_key_names)?;
                    Ok(merge_scopes(scope, right, kind, lk, rk))
                } else {
                    // new side carries the FK.
                    let lk = key_exprs(&scope, &bound_binding, &one_key_names)?;
                    let rk: Vec<Expr> = one_key_names
                        .iter()
                        .map(|k| {
                            right.find(&new_binding, &fk_attr(k)).map(Expr::Col).ok_or_else(
                                || MappingError::Binding(format!("FK '{}' not in scope", fk_attr(k))),
                            )
                        })
                        .collect::<MappingResult<_>>()?;
                    Ok(merge_scopes(scope, right, kind, lk, rk))
                }
            }
            RelHome::JoinTable { table } => {
                // scope ⋈ (rel table ⋈ right).
                let rel_plan = Plan::scan(self.cat, table.as_str())?;
                let (from_keys, to_keys) = (
                    self.lw.key_columns(&rel.from.entity)?,
                    self.lw.key_columns(&rel.to.entity)?,
                );
                let (bound_side_cols, new_side_cols): (Vec<String>, Vec<String>) = if bound_is_from
                {
                    (
                        from_keys.iter().map(|(k, _)| join_col(Side::Left, k)).collect(),
                        to_keys.iter().map(|(k, _)| join_col(Side::Right, k)).collect(),
                    )
                } else {
                    (
                        to_keys.iter().map(|(k, _)| join_col(Side::Right, k)).collect(),
                        from_keys.iter().map(|(k, _)| join_col(Side::Left, k)).collect(),
                    )
                };
                // rel ⋈ right first (inner), so LEFT joins stay correct.
                let rel_new_keys: Vec<Expr> = new_side_cols
                    .iter()
                    .map(|c| rel_plan.require_column(c).map(Expr::Col))
                    .collect::<Result<_, _>>()
                    .map_err(MappingError::Engine)?;
                let right_keys_e = key_exprs(&right, &new_binding, &new_keys)?;
                let rel_arity = rel_plan.fields.len();
                let combined = rel_plan.join(right.plan, JoinKind::Inner, rel_new_keys, right_keys_e);
                // Columns: rel table's, then right's.
                let mut combined_cols: Vec<ScopeCol> = (0..rel_arity)
                    .map(|i| ScopeCol {
                        binding: format!("@rel:{rel_name}"),
                        attr: combined.fields[i].name.clone(),
                    })
                    .collect();
                combined_cols.extend(right.cols.iter().cloned());
                let combined_scope =
                    Scope { plan: combined, cols: combined_cols, bindings: right.bindings.clone() };
                let lk = key_exprs(&scope, &bound_binding, &bound_keys)?;
                let rk: Vec<Expr> = bound_side_cols
                    .iter()
                    .map(|c| {
                        combined_scope
                            .cols
                            .iter()
                            .position(|sc| sc.attr == *c)
                            .map(Expr::Col)
                            .ok_or_else(|| {
                                MappingError::Binding(format!("join-table column '{c}' missing"))
                            })
                    })
                    .collect::<MappingResult<_>>()?;
                Ok(merge_scopes(scope, combined_scope, kind, lk, rk))
            }
            RelHome::Linked { table, left, right: right_table } => {
                // Follow the stored pointers: scan the link table and fetch
                // both members by row id — the new end's whole row, and of
                // the bound end only the key the scope joins on (its other
                // columns are already in the scope).
                let link = Plan::scan(self.cat, table.as_str())?;
                let [l, r] = LINK_COLS.map(|c| link.require_column(c));
                let member_cols = |member: &str, whole: bool| -> MappingResult<Vec<usize>> {
                    let schema = self.cat.table(member)?.schema();
                    Ok(if whole { (0..schema.arity()).collect() } else { schema.primary_key.clone() })
                };
                let left_cols = member_cols(&left, !bound_is_from)?;
                let right_cols = member_cols(&right_table, bound_is_from)?;
                let left_end = LINK_COLS.len() + left_cols.len();
                let pair_plan = link
                    .fetch(self.cat, &left, l?, left_cols)?
                    .fetch(self.cat, &right_table, r?, right_cols)?;
                // Provenance: the row ids belong to the relationship, left
                // member cols to the from side, right ones to the to side.
                let rel_binding = format!("@rel:{rel_name}");
                let mut pair_cols = Vec::new();
                for (i, f) in pair_plan.fields.iter().enumerate() {
                    let side_binding = if i < LINK_COLS.len() {
                        &rel_binding
                    } else if i < left_end {
                        if bound_is_from { &bound_binding } else { &new_binding }
                    } else if bound_is_from {
                        &new_binding
                    } else {
                        &bound_binding
                    };
                    pair_cols.push(ScopeCol {
                        binding: side_binding.clone(),
                        attr: f.name.clone(),
                    });
                }
                let pair_scope =
                    Scope { plan: pair_plan, cols: pair_cols, bindings: right.bindings.clone() };
                // Join the existing scope to the pair stream on the
                // bound side's key.
                let lk = key_exprs(&scope, &bound_binding, &bound_keys)?;
                let rk = key_exprs(&pair_scope, &bound_binding, &bound_keys)?;
                let mut merged = merge_scopes(scope, pair_scope, kind, lk, rk);
                // The bound side's columns now appear twice (from the
                // original scope and the pair stream); keep provenance
                // on the first occurrence by renaming the duplicates.
                dedupe_cols(&mut merged);
                // The pair stream only carries the co-located level's
                // (delta) columns; join the new entity's ancestor
                // tables for inherited attributes.
                self.join_new_ancestors(merged, &new_binding, new_end_entity)
            }
            RelHome::CoLocated { table } => {
                // Pair rows: both sides present.
                let plan = Plan::scan(self.cat, table.as_str())?;
                let lkey0 = co_col(Side::Left, &self.lw.key_columns(&rel.from.entity)?[0].0);
                let rkey0 = co_col(Side::Right, &self.lw.key_columns(&rel.to.entity)?[0].0);
                let li = plan.require_column(&lkey0)?;
                let ri = plan.require_column(&rkey0)?;
                let plan = plan
                    .filter(Expr::IsNotNull(Box::new(Expr::Col(li))))
                    .filter(Expr::IsNotNull(Box::new(Expr::Col(ri))));
                let mut pair_cols = Vec::new();
                let mut exprs = Vec::new();
                for (i, f) in plan.fields.iter().enumerate() {
                    let (attr, side_binding) =
                        if let Some(s) = strip_side_name(&f.name, Side::Left) {
                            (
                                s.to_string(),
                                if bound_is_from { &bound_binding } else { &new_binding },
                            )
                        } else if let Some(s) = strip_side_name(&f.name, Side::Right) {
                            (
                                s.to_string(),
                                if bound_is_from { &new_binding } else { &bound_binding },
                            )
                        } else {
                            // relationship attribute column
                            (f.name.clone(), &new_binding)
                        };
                    exprs.push((Expr::Col(i), attr.clone()));
                    pair_cols.push(ScopeCol { binding: side_binding.clone(), attr });
                }
                let pair_scope = Scope {
                    plan: plan.project(exprs),
                    cols: pair_cols,
                    bindings: right.bindings.clone(),
                };
                let lk = key_exprs(&scope, &bound_binding, &bound_keys)?;
                let rk = key_exprs(&pair_scope, &bound_binding, &bound_keys)?;
                let mut merged = merge_scopes(scope, pair_scope, kind, lk, rk);
                dedupe_cols(&mut merged);
                self.join_new_ancestors(merged, &new_binding, new_end_entity)
            }
            RelHome::ImplicitWeak { weak } => {
                // The weak side's plan exposes the owner key attributes.
                let owner = self
                    .lw
                    .schema
                    .require_entity(&weak)?
                    .weak
                    .as_ref()
                    .expect("weak")
                    .owner
                    .clone();
                // Fast path (mapping M5): the weak entity is folded into the
                // bound owner — unnest the array column already in scope
                // instead of re-scanning the owner's table.
                let weak_is_new = self
                    .lw
                    .schema
                    .hierarchy_root(new_end_entity)?
                    .name
                    == weak;
                if weak_is_new {
                    if let Ok(EntityHome::FoldedWeak { .. }) = self.lw.entity_home(&weak) {
                        if let Some(fold_idx) =
                            scope.find(&bound_binding, &format!("#fold:{weak}"))
                        {
                            return self.unnest_fold_in_place(
                                scope,
                                fold_idx,
                                &weak,
                                &bound_binding,
                                &new_binding,
                                kind,
                            );
                        }
                    }
                }
                let owner_keys: Vec<String> =
                    self.lw.key_columns(&owner)?.into_iter().map(|(n, _)| n).collect();
                // Both sides expose the owner key attributes (the weak
                // side's full key embeds them), so the join condition is
                // symmetric regardless of which end is bound.
                let lk = key_exprs(&scope, &bound_binding, &owner_keys)?;
                let rk = key_exprs(&right, &new_binding, &owner_keys)?;
                Ok(merge_scopes(scope, right, kind, lk, rk))
            }
        }
    }

    /// In-place unnest of a folded weak entity's array column (M5 fast
    /// path): the scope's rows fan out per weak child, and the struct
    /// fields become the weak binding's attribute columns.
    fn unnest_fold_in_place(
        &self,
        scope: Scope,
        fold_idx: usize,
        weak: &str,
        bound_binding: &str,
        new_binding: &str,
        kind: JoinKind,
    ) -> MappingResult<Scope> {
        let es = self.lw.schema.require_entity(weak)?.clone();
        // Duplicate the fold column so other joins can still use it, then
        // unnest the duplicate.
        let mut exprs: Vec<(Expr, String)> = scope
            .plan
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (Expr::Col(i), f.name.clone()))
            .collect();
        exprs.push((Expr::Col(fold_idx), format!("#elem:{weak}")));
        let dup_idx = exprs.len() - 1;
        let Scope { plan, cols: scope_cols, bindings: scope_bindings } = scope;
        let find = |b: &str, a: &str| scope_cols.iter().position(|c| c.binding == b && c.attr == a);
        let plan = plan.project(exprs);
        let plan = match kind {
            JoinKind::Left => plan.unnest_outer(dup_idx)?,
            _ => plan.unnest(dup_idx)?,
        };
        // Extract the struct fields as columns for the weak binding.
        let mut exprs: Vec<(Expr, String)> = plan
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (Expr::Col(i), f.name.clone()))
            .collect();
        let mut cols = scope_cols.clone();
        cols.push(ScopeCol { binding: new_binding.to_string(), attr: format!("#elem:{weak}") });
        // Owner key columns visible under the weak binding too.
        let owner_keys: Vec<String> = self
            .lw
            .key_columns(&es.weak.as_ref().expect("weak").owner)?
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for k in &owner_keys {
            if let Some(i) = find(bound_binding, k) {
                exprs.push((Expr::Col(i), format!("{new_binding}.{k}")));
                cols.push(ScopeCol { binding: new_binding.to_string(), attr: k.clone() });
            }
        }
        for (fi, a) in es.attributes.iter().enumerate() {
            exprs.push((Expr::field(Expr::Col(dup_idx), fi), a.name.clone()));
            cols.push(ScopeCol { binding: new_binding.to_string(), attr: a.name.clone() });
        }
        let mut bindings = scope_bindings;
        bindings.push((new_binding.to_string(), weak.to_string()));
        Ok(Scope { plan: plan.project(exprs), cols, bindings })
    }

    /// Join the ancestor levels of a co-located entity so that inherited
    /// attributes become visible.
    fn join_new_ancestors(
        &self,
        mut scope: Scope,
        new_binding: &str,
        new_entity: &str,
    ) -> MappingResult<Scope> {
        let chain: Vec<EntitySet> =
            self.lw.schema.ancestry(new_entity)?.into_iter().cloned().collect();
        if chain.len() <= 1 {
            return Ok(scope);
        }
        let key_names: Vec<String> =
            self.lw.key_columns(new_entity)?.into_iter().map(|(n, _)| n).collect();
        for level in chain[..chain.len() - 1].iter().rev() {
            let (level_plan, level_cols) = self.level_access(new_binding, level)?;
            let lk: Vec<Expr> = key_names
                .iter()
                .map(|k| {
                    scope.find(new_binding, k).map(Expr::Col).ok_or_else(|| {
                        MappingError::Binding(format!("key '{k}' not in scope"))
                    })
                })
                .collect::<MappingResult<_>>()?;
            let rk: Vec<Expr> = key_names
                .iter()
                .map(|k| {
                    level_cols
                        .iter()
                        .position(|c| c.attr == *k)
                        .map(Expr::Col)
                        .ok_or_else(|| {
                            MappingError::Binding(format!("key '{k}' missing in level table"))
                        })
                })
                .collect::<MappingResult<_>>()?;
            let level_scope = Scope { plan: level_plan, cols: level_cols, bindings: vec![] };
            scope = merge_scopes(scope, level_scope, JoinKind::Inner, lk, rk);
            dedupe_cols(&mut scope);
        }
        Ok(scope)
    }

    // ---- multi-valued resolution ---------------------------------------------

    /// Find every reference to a side-table multi-valued attribute in the
    /// statement and extend the scope with the columns it needs: an array
    /// column for bare references, a value column for `UNNEST`.
    ///
    /// Fast path: when the query touches a single entity and references
    /// nothing beyond its key and `UNNEST`ed side-table attributes, the
    /// side table(s) are scanned directly and the entity's home table is
    /// never read — the normalized layout's native unnested form, which is
    /// how the paper's M1 wins its unnest experiments (E2/E4).
    fn resolve_multivalued(&self, scope: &mut Scope, stmt: &SelectStmt) -> MappingResult<()> {
        let mut wanted: Vec<(String, String, bool)> = Vec::new(); // (binding, attr, unnest)
        for item in &stmt.items {
            match item {
                SelectItem::Expr { expr, .. } => {
                    self.collect_mv_refs(scope, expr, false, &mut wanted)?
                }
                SelectItem::Nest { items, .. } => {
                    for (e, _) in items {
                        self.collect_mv_refs(scope, e, false, &mut wanted)?;
                    }
                }
                SelectItem::Wildcard { qualifier } => {
                    // Wildcards include multi-valued attributes as arrays.
                    let bindings: Vec<(String, String)> = scope
                        .bindings
                        .iter()
                        .filter(|(b, _)| qualifier.as_deref().map(|q| q == b).unwrap_or(true))
                        .cloned()
                        .collect();
                    for (b, e) in bindings {
                        for level in self.lw.schema.ancestry(&e)? {
                            for a in level.attributes.iter().filter(|a| a.multi_valued) {
                                wanted.push((b.clone(), a.name.clone(), false));
                            }
                        }
                    }
                }
            }
        }
        if let Some(w) = &stmt.where_clause {
            self.collect_mv_refs(scope, w, false, &mut wanted)?;
        }
        for g in &stmt.group_by {
            self.collect_mv_refs(scope, g, false, &mut wanted)?;
        }
        for o in &stmt.order_by {
            self.collect_mv_refs(scope, &o.expr, false, &mut wanted)?;
        }
        wanted.sort();
        wanted.dedup();
        if self.try_side_scan_shortcut(scope, stmt, &wanted)? {
            return Ok(());
        }
        for (binding, attr, unnest) in wanted {
            self.add_mv_column(scope, &binding, &attr, unnest)?;
        }
        Ok(())
    }

    /// Attempt the direct side-table scan described on
    /// [`Self::resolve_multivalued`]. Returns `true` when applied.
    fn try_side_scan_shortcut(
        &self,
        scope: &mut Scope,
        stmt: &SelectStmt,
        wanted: &[(String, String, bool)],
    ) -> MappingResult<bool> {
        if scope.bindings.len() != 1 || !stmt.joins.is_empty() || wanted.is_empty() {
            return Ok(false);
        }
        // Every multi-valued reference must be UNNEST over a side table.
        let (binding, entity) = scope.bindings[0].clone();
        let mut side_tables: Vec<(String, String)> = Vec::new(); // (attr, table)
        for (b, attr, unnest) in wanted {
            if b != &binding || !*unnest {
                return Ok(false);
            }
            let owner = self
                .lw
                .schema
                .ancestry(&entity)?
                .into_iter()
                .find(|l| l.attribute(attr).map(|a| a.multi_valued).unwrap_or(false));
            let Some(owner) = owner else { return Ok(false) };
            match self.lw.mv_home(&owner.name, attr)? {
                MvHome::SideTable { table } => side_tables.push((attr.clone(), table.clone())),
                MvHome::Inline { .. } => return Ok(false),
            }
        }
        // Everything referenced must be a key attribute or a wanted attr.
        let key_names: Vec<String> =
            self.lw.key_columns(&entity)?.into_iter().map(|(n, _)| n).collect();
        let allowed = |name: &str| {
            key_names.iter().any(|k| k == name)
                || wanted.iter().any(|(_, a, _)| a == name)
        };
        let mut refs: Vec<String> = Vec::new();
        collect_column_refs_stmt(stmt, &mut refs);
        if !refs.iter().all(|r| allowed(r)) {
            return Ok(false);
        }
        // Base: scan the first side table; join the rest on the owner key.
        let klen = key_names.len();
        let (first_attr, first_table) = &side_tables[0];
        let mut plan = Plan::scan(self.cat, first_table)?;
        let mut cols: Vec<ScopeCol> = key_names
            .iter()
            .map(|k| ScopeCol { binding: binding.clone(), attr: k.clone() })
            .collect();
        cols.push(ScopeCol { binding: binding.clone(), attr: format!("#unnest:{first_attr}") });
        for (attr, table) in &side_tables[1..] {
            let side = Plan::scan(self.cat, table)?;
            let lk: Vec<Expr> = (0..klen).map(Expr::Col).collect();
            let rk: Vec<Expr> = (0..klen).map(Expr::Col).collect();
            plan = plan.join(side, JoinKind::Inner, lk, rk);
            for i in 0..klen {
                cols.push(ScopeCol { binding: binding.clone(), attr: format!("#sidekey:{table}:{i}") });
            }
            cols.push(ScopeCol { binding: binding.clone(), attr: format!("#unnest:{attr}") });
        }
        scope.plan = plan;
        scope.cols = cols;
        Ok(true)
    }

    fn collect_mv_refs(
        &self,
        scope: &Scope,
        e: &QExpr,
        in_unnest: bool,
        out: &mut Vec<(String, String, bool)>,
    ) -> MappingResult<()> {
        match e {
            QExpr::Column { qualifier, name } => {
                let targets: Vec<(String, String)> = match qualifier {
                    Some(q) => scope
                        .entity_of(q)
                        .map(|ent| vec![(q.clone(), ent.to_string())])
                        .unwrap_or_default(),
                    None => scope.bindings.clone(),
                };
                for (b, ent) in targets {
                    for level in self.lw.schema.ancestry(&ent)? {
                        if let Some(a) = level.attribute(name) {
                            if a.multi_valued {
                                out.push((b.clone(), name.clone(), in_unnest));
                            }
                        }
                    }
                }
                Ok(())
            }
            QExpr::Unnest(inner) => self.collect_mv_refs(scope, inner, true, out),
            QExpr::Lit(_) | QExpr::Param(_) => Ok(()),
            QExpr::FieldAccess { base, .. } => self.collect_mv_refs(scope, base, in_unnest, out),
            QExpr::Binary { left, right, .. } => {
                self.collect_mv_refs(scope, left, in_unnest, out)?;
                self.collect_mv_refs(scope, right, in_unnest, out)
            }
            QExpr::Not(x) | QExpr::Neg(x) => self.collect_mv_refs(scope, x, in_unnest, out),
            QExpr::Agg { arg, .. } => match arg {
                Some(a) => self.collect_mv_refs(scope, a, in_unnest, out),
                None => Ok(()),
            },
            QExpr::Call { args, .. } => {
                for a in args {
                    self.collect_mv_refs(scope, a, in_unnest, out)?;
                }
                Ok(())
            }
            QExpr::InList { expr, .. } => self.collect_mv_refs(scope, expr, in_unnest, out),
            QExpr::IsNull(x) | QExpr::IsNotNull(x) => {
                self.collect_mv_refs(scope, x, in_unnest, out)
            }
        }
    }

    /// Extend the scope with an array column (`unnest == false`) or a
    /// per-value column (`unnest == true`) for one multi-valued attribute.
    fn add_mv_column(
        &self,
        scope: &mut Scope,
        binding: &str,
        attr: &str,
        unnest: bool,
    ) -> MappingResult<()> {
        let target_attr =
            if unnest { format!("#unnest:{attr}") } else { attr.to_string() };
        if scope.find(binding, &target_attr).is_some() {
            return Ok(()); // already resolved (e.g. inline array column)
        }
        let entity = scope
            .entity_of(binding)
            .ok_or_else(|| MappingError::Binding(format!("unknown binding '{binding}'")))?
            .to_string();
        // Which ancestry level owns this attribute?
        let owner_level = self
            .lw
            .schema
            .ancestry(&entity)?
            .into_iter()
            .find(|l| l.attribute(attr).map(|a| a.multi_valued).unwrap_or(false))
            .map(|l| l.name.clone())
            .ok_or_else(|| {
                MappingError::Binding(format!("'{attr}' is not a multi-valued attribute"))
            })?;
        match self.lw.mv_home(&owner_level, attr)?.clone() {
            MvHome::Inline { .. } => {
                // Inline arrays are already visible; only unnest needs work.
                if !unnest {
                    return Ok(());
                }
                let array_idx = scope.find(binding, attr).ok_or_else(|| {
                    MappingError::Binding(format!("inline array '{attr}' missing from scope"))
                })?;
                // Duplicate the array column, then unnest the duplicate so a
                // bare reference to the attribute still sees the array.
                let mut exprs: Vec<(Expr, String)> = scope
                    .plan
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (Expr::Col(i), f.name.clone()))
                    .collect();
                exprs.push((Expr::Col(array_idx), target_attr.clone()));
                let plan = scope.plan.clone().project(exprs);
                let new_idx = plan.fields.len() - 1;
                scope.plan = plan.unnest(new_idx)?;
                scope.cols.push(ScopeCol { binding: binding.to_string(), attr: target_attr });
                Ok(())
            }
            MvHome::SideTable { table } => {
                let key_names: Vec<String> =
                    self.lw.key_columns(&owner_level)?.into_iter().map(|(n, _)| n).collect();
                let side = Plan::scan(self.cat, &table)?;
                let klen = key_names.len();
                let lk: Vec<Expr> = key_names
                    .iter()
                    .map(|k| {
                        scope.find(binding, k).map(Expr::Col).ok_or_else(|| {
                            MappingError::Binding(format!("key '{k}' not in scope"))
                        })
                    })
                    .collect::<MappingResult<_>>()?;
                if unnest {
                    // Direct join: one row per value — the side table is the
                    // native unnested form.
                    let rk: Vec<Expr> = (0..klen).map(Expr::Col).collect();
                    let offset = scope.plan.fields.len();
                    let value_idx = offset + klen; // key cols then value
                    scope.plan =
                        scope.plan.clone().join(side, JoinKind::Inner, lk, rk);
                    // Register only the value column.
                    for i in offset..scope.plan.fields.len() {
                        let attr_name = if i == value_idx {
                            target_attr.clone()
                        } else {
                            format!("#mvkey:{}:{}", table, i - offset)
                        };
                        scope.cols.push(ScopeCol {
                            binding: binding.to_string(),
                            attr: attr_name,
                        });
                    }
                } else {
                    // Aggregate the side table per owner, then left join so
                    // owners with no values still appear (empty array).
                    let group: Vec<(Expr, String)> = (0..klen)
                        .map(|i| (Expr::Col(i), format!("k{i}")))
                        .collect();
                    let agg = side.aggregate(
                        group,
                        vec![(
                            AggCall::new(AggFunc::ArrayAgg, Expr::Col(klen)),
                            "vals".to_string(),
                        )],
                    );
                    let rk: Vec<Expr> = (0..klen).map(Expr::Col).collect();
                    let offset = scope.plan.fields.len();
                    scope.plan = scope.plan.clone().join(agg, JoinKind::Left, lk, rk);
                    for i in offset..scope.plan.fields.len() {
                        let attr_name = if i == offset + klen {
                            target_attr.clone()
                        } else {
                            format!("#mvkey:{}:{}", table, i - offset)
                        };
                        scope.cols.push(ScopeCol {
                            binding: binding.to_string(),
                            attr: attr_name,
                        });
                    }
                    // A left-join miss leaves NULL; normalize to [] via a
                    // projection? Keep NULL — SQL array_agg over no rows is
                    // NULL too, and extraction treats both as empty.
                }
                Ok(())
            }
        }
    }

    // ---- aggregation ----------------------------------------------------------

    fn build_aggregate(
        &self,
        scope: &Scope,
        stmt: &SelectStmt,
    ) -> MappingResult<(Plan, Vec<String>)> {
        // Classify items.
        enum Slot {
            Group(usize),
            Agg(usize),
        }
        let mut group: Vec<(Expr, String)> = Vec::new();
        let mut aggs: Vec<(AggCall, String)> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        let mut names: Vec<String> = Vec::new();

        if !stmt.group_by.is_empty() {
            for g in &stmt.group_by {
                let e = self.expr(scope, g)?;
                group.push((e, format!("g{}", group.len())));
            }
        }

        for item in &stmt.items {
            match item {
                SelectItem::Wildcard { .. } => {
                    return Err(MappingError::Unsupported(
                        "wildcard select with aggregates".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| item_name(expr));
                    names.push(name.clone());
                    if let QExpr::Agg { func, arg, distinct } = expr {
                        let call = self.agg_call(scope, *func, arg.as_deref(), *distinct)?;
                        slots.push(Slot::Agg(aggs.len()));
                        aggs.push((call, name));
                    } else if expr.contains_aggregate() {
                        return Err(MappingError::Unsupported(
                            "aggregates must be top-level select items".into(),
                        ));
                    } else {
                        let e = self.expr(scope, expr)?;
                        if stmt.group_by.is_empty() {
                            slots.push(Slot::Group(group.len()));
                            group.push((e, name));
                        } else {
                            // Must match an explicit group-by expression.
                            let pos = group
                                .iter()
                                .position(|(ge, _)| *ge == e)
                                .ok_or_else(|| {
                                    MappingError::Binding(format!(
                                        "select item '{name}' is not in GROUP BY"
                                    ))
                                })?;
                            slots.push(Slot::Group(pos));
                        }
                    }
                }
                SelectItem::Nest { items, alias } => {
                    let name = alias.clone().unwrap_or_else(|| "nest".to_string());
                    names.push(name.clone());
                    let packed: Vec<Expr> = items
                        .iter()
                        .map(|(e, _)| self.expr(scope, e))
                        .collect::<MappingResult<_>>()?;
                    let call = AggCall::new(
                        AggFunc::ArrayAgg,
                        Expr::func(ScalarFunc::StructPack, packed),
                    );
                    slots.push(Slot::Agg(aggs.len()));
                    aggs.push((call, name));
                }
            }
        }
        let n_group = group.len();
        let agg_plan = scope.plan.clone().aggregate(group, aggs);
        // Reorder to select order.
        let exprs: Vec<(Expr, String)> = slots
            .iter()
            .zip(names.iter())
            .map(|(slot, name)| {
                let idx = match slot {
                    Slot::Group(i) => *i,
                    Slot::Agg(i) => n_group + *i,
                };
                (Expr::Col(idx), name.clone())
            })
            .collect();
        Ok((agg_plan.project(exprs), names))
    }

    fn agg_call(
        &self,
        scope: &Scope,
        func: QAggFunc,
        arg: Option<&QExpr>,
        distinct: bool,
    ) -> MappingResult<AggCall> {
        let engine_func = match (func, distinct) {
            (QAggFunc::CountStar, _) => return Ok(AggCall::count_star()),
            (QAggFunc::Count, true) => AggFunc::CountDistinct,
            (QAggFunc::Count, false) => AggFunc::Count,
            (QAggFunc::Sum, _) => AggFunc::Sum,
            (QAggFunc::Avg, _) => AggFunc::Avg,
            (QAggFunc::Min, _) => AggFunc::Min,
            (QAggFunc::Max, _) => AggFunc::Max,
            (QAggFunc::ArrayAgg, _) => AggFunc::ArrayAgg,
        };
        let arg = arg.ok_or_else(|| {
            MappingError::Binding("aggregate function requires an argument".into())
        })?;
        Ok(AggCall::new(engine_func, self.expr(scope, arg)?))
    }

    // ---- expression translation ---------------------------------------------------

    fn expr(&self, scope: &Scope, e: &QExpr) -> MappingResult<Expr> {
        match e {
            QExpr::Column { qualifier, name } => {
                let idx = match qualifier {
                    Some(q) => scope.find(q, name).ok_or_else(|| {
                        MappingError::Binding(format!("unknown column '{q}.{name}'"))
                    })?,
                    None => scope.find_unqualified(name)?.ok_or_else(|| {
                        MappingError::Binding(format!("unknown column '{name}'"))
                    })?,
                };
                Ok(Expr::Col(idx))
            }
            QExpr::FieldAccess { base, field } => {
                let base_e = self.expr(scope, base)?;
                let base_t = erbium_engine::plan::infer_type(&base_e, &scope.plan.fields);
                match base_t {
                    DataType::Struct(fields) => {
                        let idx = fields.iter().position(|(n, _)| n == field).ok_or_else(|| {
                            MappingError::Binding(format!("unknown struct field '{field}'"))
                        })?;
                        Ok(Expr::field(base_e, idx))
                    }
                    other => Err(MappingError::Binding(format!(
                        "field access '{field}' on non-composite type {other}"
                    ))),
                }
            }
            QExpr::Lit(l) => Ok(Expr::Lit(lit_value(l))),
            QExpr::Param(n) => Ok(Expr::Param(*n)),
            QExpr::Binary { op, left, right } => Ok(Expr::binary(
                bin_op(*op),
                self.expr(scope, left)?,
                self.expr(scope, right)?,
            )),
            QExpr::Not(x) => Ok(Expr::not(self.expr(scope, x)?)),
            QExpr::Neg(x) => Ok(Expr::Unary {
                op: erbium_engine::UnOp::Neg,
                expr: Box::new(self.expr(scope, x)?),
            }),
            QExpr::Agg { .. } => Err(MappingError::Unsupported(
                "aggregate in a non-aggregate position".into(),
            )),
            QExpr::Call { name, args } => {
                let func = match name.as_str() {
                    "array_contains" => ScalarFunc::ArrayContains,
                    "array_intersect" => ScalarFunc::ArrayIntersect,
                    "array_len" => ScalarFunc::ArrayLen,
                    "coalesce" => ScalarFunc::Coalesce,
                    "concat" => ScalarFunc::Concat,
                    "abs" => ScalarFunc::Abs,
                    "lower" => ScalarFunc::Lower,
                    "upper" => ScalarFunc::Upper,
                    other => {
                        return Err(MappingError::Unsupported(format!(
                            "unknown function '{other}'"
                        )))
                    }
                };
                let args = args
                    .iter()
                    .map(|a| self.expr(scope, a))
                    .collect::<MappingResult<Vec<_>>>()?;
                Ok(Expr::func(func, args))
            }
            QExpr::Unnest(inner) => {
                // Resolved to a dedicated per-value column during
                // resolve_multivalued; find it.
                let QExpr::Column { qualifier, name } = inner.as_ref() else {
                    return Err(MappingError::Unsupported(
                        "UNNEST argument must be a multi-valued attribute reference".into(),
                    ));
                };
                let target = format!("#unnest:{name}");
                let idx = match qualifier {
                    Some(q) => scope.find(q, &target),
                    None => scope
                        .cols
                        .iter()
                        .position(|c| c.attr == target),
                };
                idx.map(Expr::Col).ok_or_else(|| {
                    MappingError::Binding(format!("UNNEST({name}) was not resolved"))
                })
            }
            QExpr::InList { expr, list } => {
                let inner = self.expr(scope, expr)?;
                Ok(Expr::in_set(inner, list.iter().map(lit_value)))
            }
            QExpr::IsNull(x) => Ok(Expr::IsNull(Box::new(self.expr(scope, x)?))),
            QExpr::IsNotNull(x) => Ok(Expr::IsNotNull(Box::new(self.expr(scope, x)?))),
        }
    }

    fn expand_wildcard(
        &self,
        scope: &Scope,
        qualifier: Option<&str>,
    ) -> MappingResult<Vec<(Expr, String)>> {
        // Expand in logical schema order (keys, then ancestry attributes in
        // declaration order) so the output does not depend on the mapping.
        let mut out = Vec::new();
        for (b, entity) in &scope.bindings {
            if let Some(q) = qualifier {
                if b != q {
                    continue;
                }
            }
            let mut attrs: Vec<String> =
                self.lw.key_columns(entity)?.into_iter().map(|(n, _)| n).collect();
            for level in self.lw.schema.ancestry(entity)? {
                for a in &level.attributes {
                    if !attrs.contains(&a.name) {
                        attrs.push(a.name.clone());
                    }
                }
            }
            for attr in attrs {
                let Some(i) = scope.find(b, &attr) else { continue };
                let name = if qualifier.is_some() || scope.bindings.len() == 1 {
                    attr.clone()
                } else {
                    format!("{b}.{attr}")
                };
                out.push((Expr::Col(i), name));
            }
        }
        if out.is_empty() {
            return Err(MappingError::Binding("wildcard expanded to no columns".into()));
        }
        Ok(out)
    }
}

/// Helper used by [`crate::EntityStore`]-level consumers: run an ERQL query string
/// end-to-end under a lowering.
pub fn run_query(
    lw: &Lowering,
    cat: &Catalog,
    sql: &str,
) -> MappingResult<(Vec<Field>, Vec<erbium_storage::Row>)> {
    let stmt = erbium_query::parse_single(sql)
        .map_err(|e| MappingError::Binding(format!("parse error: {e}")))?;
    let erbium_query::Statement::Select(sel) = stmt else {
        return Err(MappingError::Unsupported("run_query expects a SELECT".into()));
    };
    let rewriter = QueryRewriter::new(lw, cat);
    let plan = rewriter.rewrite_optimized(&sel)?;
    // Pull-based streaming execution: operators exchange batches and a
    // LIMIT plan stops pulling (and scanning) as soon as it is satisfied.
    let rows = {
        let mut stream =
            erbium_engine::execute_streaming(&plan, cat, &erbium_engine::ExecContext::default())?;
        stream.drain()?
    };
    Ok((plan.fields, rows))
}

fn merge_scopes(
    left: Scope,
    right: Scope,
    kind: JoinKind,
    lk: Vec<Expr>,
    rk: Vec<Expr>,
) -> Scope {
    let mut bindings = left.bindings.clone();
    for b in &right.bindings {
        if !bindings.contains(b) {
            bindings.push(b.clone());
        }
    }
    let plan = left.plan.join(right.plan, kind, lk, rk);
    let mut cols = left.cols;
    cols.extend(right.cols);
    Scope { plan, cols, bindings }
}

/// After joining a scope with a pair stream that repeats the bound side's
/// columns, mark later duplicates as internal so unqualified resolution
/// stays unambiguous.
fn dedupe_cols(scope: &mut Scope) {
    let mut seen: Vec<(String, String)> = Vec::new();
    for c in scope.cols.iter_mut() {
        let key = (c.binding.clone(), c.attr.clone());
        if seen.contains(&key) {
            c.attr = format!("#dup:{}", c.attr);
        } else {
            seen.push(key);
        }
    }
}

/// Collect every column name referenced anywhere in a statement.
fn collect_column_refs_stmt(stmt: &SelectStmt, out: &mut Vec<String>) {
    for item in &stmt.items {
        match item {
            SelectItem::Expr { expr, .. } => collect_column_refs(expr, out),
            SelectItem::Nest { items, .. } => {
                for (e, _) in items {
                    collect_column_refs(e, out);
                }
            }
            SelectItem::Wildcard { .. } => out.push("*".to_string()),
        }
    }
    if let Some(w) = &stmt.where_clause {
        collect_column_refs(w, out);
    }
    for g in &stmt.group_by {
        collect_column_refs(g, out);
    }
    for o in &stmt.order_by {
        collect_column_refs(&o.expr, out);
    }
}

fn collect_column_refs(e: &QExpr, out: &mut Vec<String>) {
    match e {
        QExpr::Column { name, .. } => out.push(name.clone()),
        QExpr::Lit(_) | QExpr::Param(_) => {}
        QExpr::FieldAccess { base, .. } => collect_column_refs(base, out),
        QExpr::Binary { left, right, .. } => {
            collect_column_refs(left, out);
            collect_column_refs(right, out);
        }
        QExpr::Not(x) | QExpr::Neg(x) | QExpr::Unnest(x) => collect_column_refs(x, out),
        QExpr::Agg { arg, .. } => {
            if let Some(a) = arg {
                collect_column_refs(a, out);
            }
        }
        QExpr::Call { args, .. } => {
            for a in args {
                collect_column_refs(a, out);
            }
        }
        QExpr::InList { expr, .. } => collect_column_refs(expr, out),
        QExpr::IsNull(x) | QExpr::IsNotNull(x) => collect_column_refs(x, out),
    }
}

fn strip_side_name(col: &str, side: Side) -> Option<&str> {
    match side {
        Side::Left => col.strip_prefix("l__"),
        Side::Right => col.strip_prefix("r__"),
    }
}

fn lit_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::str(s),
    }
}

fn bin_op(op: QBinOp) -> BinOp {
    match op {
        QBinOp::Add => BinOp::Add,
        QBinOp::Sub => BinOp::Sub,
        QBinOp::Mul => BinOp::Mul,
        QBinOp::Div => BinOp::Div,
        QBinOp::Mod => BinOp::Mod,
        QBinOp::Eq => BinOp::Eq,
        QBinOp::Ne => BinOp::Ne,
        QBinOp::Lt => BinOp::Lt,
        QBinOp::Le => BinOp::Le,
        QBinOp::Gt => BinOp::Gt,
        QBinOp::Ge => BinOp::Ge,
        QBinOp::And => BinOp::And,
        QBinOp::Or => BinOp::Or,
    }
}

/// Default output name for a select item.
fn item_name(e: &QExpr) -> String {
    match e {
        QExpr::Column { qualifier: _, name } => name.clone(),
        QExpr::Unnest(inner) => match inner.as_ref() {
            QExpr::Column { name, .. } => name.clone(),
            _ => "unnest".to_string(),
        },
        QExpr::Agg { func, .. } => format!("{func:?}").to_lowercase(),
        QExpr::FieldAccess { field, .. } => field.clone(),
        QExpr::Call { name, .. } => name.clone(),
        _ => "expr".to_string(),
    }
}
