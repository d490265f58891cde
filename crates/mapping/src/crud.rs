//! Entity-centric CRUD, translated to physical operations.
//!
//! The paper's second mapping requirement: "We must be able to map any
//! inserts/updates/deletes to the entities and relationships to the
//! database." [`EntityStore`] is that translation. A single logical
//! operation may touch several physical tables (e.g. inserting an `R3`
//! instance under the normalized mapping writes three delta rows plus
//! multi-valued side rows); callers wrap groups of operations in a storage
//! [`Transaction`] for atomicity.
//!
//! The same module implements **extraction** (reading entity extents and
//! relationship instances back out), which is the reversibility half of the
//! mapping contract and the engine behind the governance operations the
//! paper motivates (entity-centric deletion for GDPR-style erasure).
//!
//! Factorized co-location needs no case of its own: its members are plain
//! tables, and only the relationship arms (`link`, `unlink`, delete
//! cascades, extraction) know the row-id link table between them.

use crate::error::{MappingError, MappingResult};
use crate::fragment::HierarchyLayout;
use crate::lower::{co_col, fk_col, rel_attr_col, EntityHome, Lowering, MvHome, RelHome, Side, TYPE_COL};
use erbium_model::{EntitySet, Relationship};
use erbium_storage::{Catalog, Row, RowId, Table, Transaction, Value};
use rustc_hash::FxHashMap;

/// The live rows of `t` whose `cols` equal `key`, in slot order, found with
/// [`Table::rows_eq`] — the one access path CRUD uses to find rows by a
/// non-primary key (owner keys, foreign keys, relationship ends, the side
/// keys of a denormalized table).
fn keyed_rows<'t>(
    t: &'t Table,
    cols: &[usize],
    key: &[Value],
) -> impl Iterator<Item = (RowId, &'t Row)> {
    t.rows_eq(cols, key).into_iter().map(move |rid| (rid, t.get(rid).expect("probed row is live")))
}

/// The member row a link-table cell points at; a dangling id is an error.
fn linked_row<'t>(t: &'t Table, slot: &Value) -> MappingResult<&'t Row> {
    let row = slot.as_int().and_then(|s| t.get(RowId(s as u64)));
    row.ok_or_else(|| {
        MappingError::Unsupported(format!("link row id {slot} names no live row of '{}'", t.name()))
    })
}

/// [`keyed_rows`], cloned out so the caller can write to the table.
fn keyed_rows_owned(t: &Table, cols: &[usize], key: &[Value]) -> Vec<(RowId, Row)> {
    keyed_rows(t, cols, key).map(|(rid, row)| (rid, row.clone())).collect()
}

/// Delete every row of `table` whose leading columns equal `key`: the
/// multi-valued side rows of one instance, or one join-table pair.
fn delete_prefixed(
    cat: &mut Catalog,
    txn: &mut Transaction,
    table: &str,
    key: &[Value],
) -> MappingResult<()> {
    let cols: Vec<usize> = (0..key.len()).collect();
    for rid in cat.table(table)?.rows_eq(&cols, key) {
        txn.delete(cat, table, rid)?;
    }
    Ok(())
}

/// Attribute-name → value map describing one entity instance. Multi-valued
/// attributes are `Value::Array`, composite attributes `Value::Struct`
/// (fields in declaration order). Weak entities include their owner's key
/// attributes under the owner's key names.
pub type EntityData = FxHashMap<String, Value>;

/// One instance in a [`EntityStore::bulk_insert`] batch: attribute data plus
/// at-insert-time many-to-one link targets — the same contract as the
/// `links` argument of [`EntityStore::insert`].
#[derive(Debug, Clone, Default)]
pub struct BulkEntity {
    pub data: EntityData,
    pub links: Vec<(String, Vec<Value>)>,
}

impl BulkEntity {
    /// Build from attribute pairs, no links.
    pub fn new(data: &[(&str, Value)]) -> BulkEntity {
        BulkEntity {
            data: data.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            links: Vec::new(),
        }
    }

    /// Build from attribute pairs plus link targets.
    pub fn linked(data: &[(&str, Value)], links: &[(&str, Vec<Value>)]) -> BulkEntity {
        BulkEntity {
            data: data.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            links: links.iter().map(|(r, k)| (r.to_string(), k.clone())).collect(),
        }
    }
}

/// A relationship instance: from-side key, to-side key, attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct RelInstance {
    pub from_key: Vec<Value>,
    pub to_key: Vec<Value>,
    pub attrs: EntityData,
}

/// The CRUD translator for one lowered mapping.
pub struct EntityStore<'a> {
    lw: &'a Lowering,
}

impl<'a> EntityStore<'a> {
    pub fn new(lw: &'a Lowering) -> EntityStore<'a> {
        EntityStore { lw }
    }

    /// The lowering this store operates against.
    pub fn lowering(&self) -> &Lowering {
        self.lw
    }

    // ---- key helpers ---------------------------------------------------------

    /// Key attribute names of `entity` (full key, owner keys first).
    pub fn key_names(&self, entity: &str) -> MappingResult<Vec<String>> {
        Ok(self.lw.key_columns(entity)?.into_iter().map(|(n, _)| n).collect())
    }

    /// Extract the key of an instance from its data map.
    pub fn key_of(&self, entity: &str, data: &EntityData) -> MappingResult<Vec<Value>> {
        self.key_names(entity)?
            .iter()
            .map(|k| {
                data.get(k).cloned().ok_or_else(|| {
                    MappingError::BadPayload(format!("missing key attribute '{k}' for '{entity}'"))
                })
            })
            .collect()
    }

    fn key_value(key: &[Value]) -> Value {
        match key {
            [v] => v.clone(),
            vs => Value::Struct(vs.to_vec()),
        }
    }

    /// The slot of the row keyed `key` in the factorized member table
    /// `member`, as a link-table cell: one primary-key probe.
    fn member_slot(cat: &Catalog, member: &str, key: &[Value]) -> MappingResult<Option<Value>> {
        let hit = cat.table(member)?.lookup_pk(&Self::key_value(key));
        Ok(hit.map(|(rid, _)| Value::Int(rid.0 as i64)))
    }

    // ---- insert ----------------------------------------------------------------

    /// Insert one entity instance. `links` carries targets of many-to-one
    /// relationships that must be set at insert time (e.g. total
    /// participation FKs): `(relationship, key-of-the-one-side)`.
    pub fn insert(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        entity: &str,
        data: &EntityData,
        links: &[(&str, Vec<Value>)],
    ) -> MappingResult<()> {
        let chain = self.lw.schema.ancestry(entity)?;
        let chain: Vec<EntitySet> = chain.into_iter().cloned().collect();
        let most = chain.last().expect("nonempty ancestry");
        match self.lw.entity_home(&most.name)?.clone() {
            EntityHome::Merged { table, .. } => {
                let row = self.build_row(&table, entity, data, links)?;
                txn.insert(cat, &table, row)?;
            }
            EntityHome::Table { table, layout: HierarchyLayout::Full } => {
                let row = self.build_row(&table, entity, data, links)?;
                txn.insert(cat, &table, row)?;
            }
            EntityHome::FoldedWeak { owner, column } => {
                self.insert_folded_weak(cat, txn, entity, &owner, &column, data)?;
            }
            _ => {
                // Delta chain, possibly with a denormalized co-located level.
                for level in &chain {
                    match self.lw.entity_home(&level.name)?.clone() {
                        EntityHome::Table { table, layout: HierarchyLayout::Delta } => {
                            let row = self.build_row(&table, entity, data, links)?;
                            txn.insert(cat, &table, row)?;
                        }
                        EntityHome::CoLocated { table, side } => {
                            self.insert_colocated(cat, txn, &table, side, data)?;
                        }
                        other => {
                            return Err(MappingError::Unsupported(format!(
                                "unexpected home {other:?} for '{}' in delta chain",
                                level.name
                            )))
                        }
                    }
                }
            }
        }
        // Multi-valued side tables (for every level of the chain).
        for level in &chain {
            for attr in level.attributes.iter().filter(|a| a.multi_valued) {
                if let MvHome::SideTable { table } = self.lw.mv_home(&level.name, &attr.name)? {
                    let table = table.clone();
                    let key = self.key_of(entity, data)?;
                    if let Some(Value::Array(vals)) = data.get(&attr.name) {
                        for v in vals {
                            let mut row = key.clone();
                            row.push(v.clone());
                            txn.insert(cat, &table, row)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Insert a batch of instances of one entity in a single logical
    /// operation. Homes that lower to plain tables (merged, full, and
    /// all-delta chains) are batched: rows are built up front, then each
    /// physical table receives **one** [`Transaction::bulk_insert`] — one
    /// undo entry, one WAL record, one secondary-index pass. Multi-valued
    /// side-table rows are likewise batched per side table. Homes that need
    /// read-modify-write (folded weak) or denormalized routing fall back to
    /// per-instance [`EntityStore::insert`] within the same transaction, so
    /// atomicity is identical either way.
    ///
    /// Returns the names of the plain tables that received rows. On the
    /// fallback path this is derived from the mapping homes (the tables
    /// the per-instance inserts write to), so callers can refresh live
    /// statistics and invalidate cached plans once per batch either way.
    pub fn bulk_insert(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        entity: &str,
        batch: &[BulkEntity],
    ) -> MappingResult<Vec<String>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let chain = self.lw.schema.ancestry(entity)?;
        let chain: Vec<EntitySet> = chain.into_iter().cloned().collect();
        let most = chain.last().expect("nonempty ancestry");

        // Physical tables that take one built row per instance, in chain
        // order. Empty means the home needs the per-row fallback.
        let mut home_tables: Vec<String> = Vec::new();
        match self.lw.entity_home(&most.name)?.clone() {
            EntityHome::Merged { table, .. }
            | EntityHome::Table { table, layout: HierarchyLayout::Full } => {
                home_tables.push(table);
            }
            EntityHome::FoldedWeak { .. } | EntityHome::CoLocated { .. } => {}
            _ => {
                for level in &chain {
                    match self.lw.entity_home(&level.name)? {
                        EntityHome::Table { table, layout: HierarchyLayout::Delta } => {
                            home_tables.push(table.clone());
                        }
                        _ => {
                            home_tables.clear();
                            break;
                        }
                    }
                }
            }
        }
        if home_tables.is_empty() {
            // Per-instance fallback (folded-weak / denormalized homes). The
            // rows still land in physical tables, so report them: the
            // caller refreshes live statistics and bumps the plan-cache
            // generation once for the whole batch, same as the batched
            // path above.
            let touched = self.fallback_touched(&chain)?;
            for b in batch {
                let links: Vec<(&str, Vec<Value>)> =
                    b.links.iter().map(|(r, k)| (r.as_str(), k.clone())).collect();
                self.insert(cat, txn, entity, &b.data, &links)?;
            }
            return Ok(touched);
        }

        let mut per_table: Vec<(String, Vec<Row>)> = home_tables
            .into_iter()
            .map(|t| (t, Vec::with_capacity(batch.len())))
            .collect();
        for b in batch {
            let links: Vec<(&str, Vec<Value>)> =
                b.links.iter().map(|(r, k)| (r.as_str(), k.clone())).collect();
            for (table, rows) in per_table.iter_mut() {
                rows.push(self.build_row(table, entity, &b.data, &links)?);
            }
        }
        // Multi-valued side tables, batched across the whole batch.
        for level in &chain {
            for attr in level.attributes.iter().filter(|a| a.multi_valued) {
                if let MvHome::SideTable { table } = self.lw.mv_home(&level.name, &attr.name)? {
                    let table = table.clone();
                    let mut rows = Vec::new();
                    for b in batch {
                        if let Some(Value::Array(vals)) = b.data.get(&attr.name) {
                            let key = self.key_of(entity, &b.data)?;
                            for v in vals {
                                let mut row = key.clone();
                                row.push(v.clone());
                                rows.push(row);
                            }
                        }
                    }
                    if !rows.is_empty() {
                        per_table.push((table, rows));
                    }
                }
            }
        }
        let mut touched = Vec::with_capacity(per_table.len());
        for (table, rows) in per_table {
            txn.bulk_insert(cat, &table, rows)?;
            touched.push(table);
        }
        Ok(touched)
    }

    /// Plain tables the per-instance fallback of [`Self::bulk_insert`] can
    /// write to, derived from the mapping homes. Conservative per batch: a
    /// table is listed if any instance may land a row (or an in-place
    /// folded-weak update) in it.
    fn fallback_touched(&self, chain: &[EntitySet]) -> MappingResult<Vec<String>> {
        fn note(table: &str, touched: &mut Vec<String>) {
            if !touched.iter().any(|t| t == table) {
                touched.push(table.to_string());
            }
        }
        let mut touched: Vec<String> = Vec::new();
        let most = chain.last().expect("nonempty ancestry");
        if let EntityHome::FoldedWeak { owner, .. } = self.lw.entity_home(&most.name)? {
            // Folded weak elements rewrite the owning row in place; the
            // owner instance lives in its own home table or — under a
            // full-layout hierarchy — in a descendant's.
            let owner = owner.clone();
            if let Some(table) = self.lw.entity_home(&owner)?.table() {
                note(table, &mut touched);
            }
            for d in self.lw.schema.descendants(&owner) {
                if let EntityHome::Table { table, .. } = self.lw.entity_home(&d.name)? {
                    note(table, &mut touched);
                }
            }
        } else {
            for level in chain {
                if let Some(table) = self.lw.entity_home(&level.name)?.table() {
                    note(table, &mut touched);
                }
            }
        }
        for level in chain {
            for attr in level.attributes.iter().filter(|a| a.multi_valued) {
                if let MvHome::SideTable { table } = self.lw.mv_home(&level.name, &attr.name)? {
                    note(table, &mut touched);
                }
            }
        }
        Ok(touched)
    }

    fn insert_folded_weak(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        entity: &str,
        owner: &str,
        column: &str,
        data: &EntityData,
    ) -> MappingResult<()> {
        let owner_key_names = self.key_names(owner)?;
        let owner_key: Vec<Value> = owner_key_names
            .iter()
            .map(|k| {
                data.get(k).cloned().ok_or_else(|| {
                    MappingError::BadPayload(format!(
                        "weak '{entity}' payload missing owner key '{k}'"
                    ))
                })
            })
            .collect::<MappingResult<_>>()?;
        let (table, rid, mut row) = self.locate_plain(cat, owner, &owner_key)?.ok_or_else(|| {
            MappingError::BadPayload(format!("owner instance {owner_key:?} of '{owner}' not found"))
        })?;
        let schema = cat.table(&table)?.schema().clone();
        let col = schema.require_column(column)?;
        let es = self.lw.schema.require_entity(entity)?;
        let elem = weak_struct(es, data)?;
        match &mut row[col] {
            Value::Array(vs) => vs.push(elem),
            v @ Value::Null => *v = Value::Array(vec![elem]),
            other => {
                return Err(MappingError::BadPayload(format!(
                    "folded weak column holds non-array {other}"
                )))
            }
        }
        txn.update(cat, &table, rid, row)?;
        Ok(())
    }

    /// Insert one side of a denormalized pair table as a dangling half-row.
    fn insert_colocated(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        table: &str,
        side: Side,
        data: &EntityData,
    ) -> MappingResult<()> {
        let schema = cat.table(table)?.schema().clone();
        let mut row = vec![Value::Null; schema.arity()];
        for (i, c) in schema.columns.iter().enumerate() {
            if let Some(stripped) = strip_side(&c.name, side) {
                row[i] = data.get(stripped).cloned().unwrap_or(Value::Null);
            }
        }
        txn.insert(cat, table, row)?;
        Ok(())
    }

    /// Build a row for an entity table (delta/full/merged), resolving each
    /// column from the instance data, the `links` list, or a default.
    fn build_row(
        &self,
        table: &str,
        entity: &str,
        data: &EntityData,
        links: &[(&str, Vec<Value>)],
    ) -> MappingResult<Row> {
        let schema = self
            .lw
            .table_schema(table)
            .ok_or_else(|| MappingError::Unsupported(format!("no schema for table '{table}'")))?;
        let mut row = Vec::with_capacity(schema.arity());
        for c in &schema.columns {
            if c.name == TYPE_COL {
                row.push(Value::str(entity));
            } else if let Some(w) = c.name.strip_prefix("_w_") {
                let _ = w;
                row.push(Value::Array(vec![]));
            } else if let Some((rel, part)) = c.name.split_once("__") {
                // Folded FK or relationship-attribute column.
                let value = links
                    .iter()
                    .find(|(r, _)| *r == rel)
                    .and_then(|(r, key)| {
                        let rel_def = self.lw.schema.relationship(r)?;
                        let one = rel_def.one_end()?;
                        let names = self.key_names(&one.entity).ok()?;
                        names.iter().position(|n| n == part).map(|i| key[i].clone())
                    })
                    .unwrap_or(Value::Null);
                row.push(value);
            } else {
                row.push(data.get(&c.name).cloned().unwrap_or(Value::Null));
            }
        }
        Ok(row)
    }

    // ---- locate ---------------------------------------------------------------

    /// Find the plain-table row holding the instance at the level of
    /// `entity` (probing subtree tables for full layouts and denormalized /
    /// merged homes as needed). Returns `(table, rid, row)`.
    fn locate_plain(
        &self,
        cat: &Catalog,
        entity: &str,
        key: &[Value],
    ) -> MappingResult<Option<(String, RowId, Row)>> {
        let kv = Self::key_value(key);
        match self.lw.entity_home(entity)? {
            EntityHome::Table { table, layout: HierarchyLayout::Delta } => {
                let t = cat.table(table)?;
                Ok(t.lookup_pk(&kv).map(|(rid, row)| (table.clone(), rid, row.clone())))
            }
            EntityHome::Table { table, layout: HierarchyLayout::Full } => {
                // Probe this table, then descendants' (disjoint extents).
                let mut candidates = vec![table.clone()];
                for d in self.lw.schema.descendants(entity) {
                    if let EntityHome::Table { table, .. } = self.lw.entity_home(&d.name)? {
                        candidates.push(table.clone());
                    }
                }
                for t in candidates {
                    if let Some((rid, row)) = cat.table(&t)?.lookup_pk(&kv) {
                        return Ok(Some((t, rid, row.clone())));
                    }
                }
                Ok(None)
            }
            EntityHome::Merged { table, .. } => {
                let t = cat.table(table)?;
                match t.lookup_pk(&kv) {
                    None => Ok(None),
                    Some((rid, row)) => {
                        let ty_col = t.schema().require_column(TYPE_COL)?;
                        let ty = row[ty_col].as_str().unwrap_or_default().to_string();
                        if self.in_subtree(entity, &ty) {
                            Ok(Some((table.clone(), rid, row.clone())))
                        } else {
                            Ok(None)
                        }
                    }
                }
            }
            EntityHome::CoLocated { table, side } => {
                let key_cols = self.denorm_key_cols(cat, table, *side, entity)?;
                Ok(keyed_rows(cat.table(table)?, &key_cols, key)
                    .next()
                    .map(|(rid, row)| (table.clone(), rid, row.clone())))
            }
            EntityHome::FoldedWeak { .. } => Err(MappingError::Unsupported(format!(
                "'{entity}' is folded into its owner; use weak-element access"
            ))),
        }
    }

    fn denorm_key_cols(
        &self,
        cat: &Catalog,
        table: &str,
        side: Side,
        entity: &str,
    ) -> MappingResult<Vec<usize>> {
        let schema = cat.table(table)?.schema();
        self.key_names(entity)?
            .iter()
            .map(|k| Ok(schema.require_column(&co_col(side, k))?))
            .collect()
    }

    fn in_subtree(&self, root: &str, ty: &str) -> bool {
        ty == root
            || self
                .lw
                .schema
                .descendants(root)
                .iter()
                .any(|d| d.name == ty)
    }

    // ---- get -----------------------------------------------------------------

    /// Fetch one instance, assembling all attributes visible at the level
    /// of `entity` (inherited ones included). Returns `None` if no such
    /// instance exists.
    pub fn get(&self, cat: &Catalog, entity: &str, key: &[Value]) -> MappingResult<Option<EntityData>> {
        let chain = self.lw.schema.ancestry(entity)?;
        let chain: Vec<EntitySet> = chain.into_iter().cloned().collect();
        let mut out = EntityData::default();
        // Key attributes first.
        let key_names = self.key_names(entity)?;
        for (n, v) in key_names.iter().zip(key.iter()) {
            out.insert(n.clone(), v.clone());
        }
        let most = chain.last().expect("nonempty");
        // A folded weak entity lives inside its owner's row.
        if let EntityHome::FoldedWeak { owner, column } = self.lw.entity_home(&most.name)? {
            let owner_len = self.key_names(owner)?.len();
            let (owner_key, partial) = key.split_at(owner_len);
            let Some((table, _rid, row)) = self.locate_plain(cat, owner, owner_key)? else {
                return Ok(None);
            };
            let col = cat.table(&table)?.schema().require_column(column)?;
            let es = self.lw.schema.require_entity(entity)?;
            let partial_names: Vec<&str> = es.key.iter().map(String::as_str).collect();
            if let Value::Array(elems) = &row[col] {
                for elem in elems {
                    if let Value::Struct(vals) = elem {
                        let matches = partial_names.iter().enumerate().all(|(i, pk)| {
                            let idx = es
                                .attributes
                                .iter()
                                .position(|a| a.name == *pk)
                                .expect("partial key is an attribute");
                            vals.get(idx) == partial.get(i)
                        });
                        if matches {
                            for (a, v) in es.attributes.iter().zip(vals.iter()) {
                                out.insert(a.name.clone(), v.clone());
                            }
                            return Ok(Some(out));
                        }
                    }
                }
            }
            return Ok(None);
        }
        // Walk the chain collecting resident attributes.
        for level in &chain {
            match self.lw.entity_home(&level.name)? {
                EntityHome::Table { .. } | EntityHome::Merged { .. } => {
                    let Some((table, _rid, row)) = self.locate_plain(cat, &level.name, key)?
                    else {
                        return Ok(None);
                    };
                    let schema = cat.table(&table)?.schema();
                    for a in &level.attributes {
                        if let Some(i) = schema.column_index(&a.name) {
                            out.insert(a.name.clone(), row[i].clone());
                        }
                    }
                    // Full layout: one row holds everything for the chain.
                    if matches!(
                        self.lw.entity_home(&level.name)?,
                        EntityHome::Table { layout: HierarchyLayout::Full, .. }
                    ) {
                        for l2 in &chain {
                            for a in &l2.attributes {
                                if let Some(i) = schema.column_index(&a.name) {
                                    out.insert(a.name.clone(), row[i].clone());
                                }
                            }
                        }
                        break;
                    }
                }
                EntityHome::CoLocated { side, .. } => {
                    let Some((table, _rid, row)) = self.locate_plain(cat, &level.name, key)? else {
                        return Ok(None);
                    };
                    let schema = cat.table(&table)?.schema();
                    for a in &level.attributes {
                        if let Some(i) = schema.column_index(&co_col(*side, &a.name)) {
                            out.insert(a.name.clone(), row[i].clone());
                        }
                    }
                }
                EntityHome::FoldedWeak { .. } => {
                    // Only reachable for the most-specific level; handled above.
                }
            }
        }
        // Multi-valued side tables.
        for level in &chain {
            for a in level.attributes.iter().filter(|a| a.multi_valued) {
                if let MvHome::SideTable { table } = self.lw.mv_home(&level.name, &a.name)? {
                    let vals = self.mv_values(cat, table, key)?;
                    out.insert(a.name.clone(), Value::Array(vals));
                }
            }
        }
        Ok(Some(out))
    }

    fn mv_values(&self, cat: &Catalog, table: &str, key: &[Value]) -> MappingResult<Vec<Value>> {
        let cols: Vec<usize> = (0..key.len()).collect();
        let rows = keyed_rows(cat.table(table)?, &cols, key);
        Ok(rows.map(|(_, row)| row[key.len()].clone()).collect())
    }

    // ---- update ----------------------------------------------------------------

    /// Update attributes of one instance. Key attributes cannot be changed.
    pub fn update(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        entity: &str,
        key: &[Value],
        changes: &EntityData,
    ) -> MappingResult<()> {
        let key_names = self.key_names(entity)?;
        for k in changes.keys() {
            if key_names.contains(k) {
                return Err(MappingError::BadPayload(format!(
                    "key attribute '{k}' cannot be updated"
                )));
            }
        }
        let chain = self.lw.schema.ancestry(entity)?;
        let chain: Vec<EntitySet> = chain.into_iter().cloned().collect();
        for level in &chain {
            // Attributes of this level mentioned in the changes.
            let level_changes: Vec<(&String, &Value)> = changes
                .iter()
                .filter(|(k, _)| level.attribute(k).is_some())
                .collect();
            if level_changes.is_empty() {
                continue;
            }
            for (name, value) in level_changes {
                let attr = level.attribute(name).expect("filtered");
                if attr.multi_valued {
                    match self.lw.mv_home(&level.name, name)? {
                        MvHome::SideTable { table } => {
                            let table = table.clone();
                            self.replace_mv_rows(cat, txn, &table, key, value)?;
                            continue;
                        }
                        MvHome::Inline { .. } => {} // falls through to column update
                    }
                }
                self.update_resident_column(cat, txn, entity, level, key, name, value)?;
            }
        }
        Ok(())
    }

    fn replace_mv_rows(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        table: &str,
        key: &[Value],
        value: &Value,
    ) -> MappingResult<()> {
        delete_prefixed(cat, txn, table, key)?;
        let Value::Array(vals) = value else {
            return Err(MappingError::BadPayload(
                "multi-valued attribute update requires an array value".into(),
            ));
        };
        for v in vals {
            let mut row = key.to_vec();
            row.push(v.clone());
            txn.insert(cat, table, row)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn update_resident_column(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        entity: &str,
        level: &EntitySet,
        key: &[Value],
        name: &str,
        value: &Value,
    ) -> MappingResult<()> {
        match self.lw.entity_home(&level.name)?.clone() {
            EntityHome::Table { .. } | EntityHome::Merged { .. } => {
                let (table, rid, mut row) =
                    self.locate_plain(cat, &level.name, key)?.ok_or_else(|| {
                        MappingError::BadPayload(format!("instance {key:?} of '{entity}' not found"))
                    })?;
                let col = cat.table(&table)?.schema().require_column(name)?;
                row[col] = value.clone();
                txn.update(cat, &table, rid, row)?;
            }
            EntityHome::CoLocated { table, side } => {
                // Every duplicated row must be rewritten — the update
                // amplification the paper warns about.
                let key_cols = self.denorm_key_cols(cat, &table, side, &level.name)?;
                let t = cat.table(&table)?;
                let col = t.schema().require_column(&co_col(side, name))?;
                let hits = keyed_rows_owned(t, &key_cols, key);
                if hits.is_empty() {
                    return Err(MappingError::BadPayload(format!(
                        "instance {key:?} of '{entity}' not found"
                    )));
                }
                for (rid, mut row) in hits {
                    row[col] = value.clone();
                    txn.update(cat, &table, rid, row)?;
                }
            }
            EntityHome::FoldedWeak { owner, column } => {
                let owner_len = self.key_names(&owner)?.len();
                let (owner_key, partial) = key.split_at(owner_len);
                let (table, rid, mut row) =
                    self.locate_plain(cat, &owner, owner_key)?.ok_or_else(|| {
                        MappingError::BadPayload(format!("owner of '{entity}' {key:?} not found"))
                    })?;
                let col = cat.table(&table)?.schema().require_column(&column)?;
                let es = self.lw.schema.require_entity(&level.name)?;
                let attr_pos = es
                    .attributes
                    .iter()
                    .position(|a| a.name == name)
                    .ok_or_else(|| MappingError::BadPayload(format!("unknown attribute '{name}'")))?;
                let partial_positions: Vec<usize> = es
                    .key
                    .iter()
                    .map(|k| es.attributes.iter().position(|a| a.name == *k).expect("validated"))
                    .collect();
                let Value::Array(elems) = &mut row[col] else {
                    return Err(MappingError::BadPayload("folded weak column not an array".into()));
                };
                let mut found = false;
                for elem in elems.iter_mut() {
                    if let Value::Struct(vals) = elem {
                        if partial_positions
                            .iter()
                            .zip(partial.iter())
                            .all(|(&p, pk)| vals.get(p) == Some(pk))
                        {
                            vals[attr_pos] = value.clone();
                            found = true;
                            break;
                        }
                    }
                }
                if !found {
                    return Err(MappingError::BadPayload(format!(
                        "instance {key:?} of '{entity}' not found in owner fold"
                    )));
                }
                txn.update(cat, &table, rid, row)?;
            }
        }
        Ok(())
    }

    // ---- delete ---------------------------------------------------------------

    /// Delete one instance entirely: all hierarchy rows, multi-valued side
    /// rows, owned weak entities (cascade), and every relationship instance
    /// it participates in. This is the entity-centric deletion the paper's
    /// governance discussion calls for.
    pub fn delete(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        entity: &str,
        key: &[Value],
    ) -> MappingResult<()> {
        let root = self.lw.schema.hierarchy_root(entity)?.name.clone();
        // Hierarchy members (root's full subtree): the instance may be more
        // specific than `entity`.
        let mut members = vec![root.clone()];
        members.extend(self.lw.schema.descendants(&root).iter().map(|e| e.name.clone()));

        // 1. Cascade: owned weak entities of any member.
        for m in &members {
            let weak_children: Vec<String> = self
                .lw
                .schema
                .entities()
                .iter()
                .filter(|e| e.weak.as_ref().map(|w| w.owner == *m).unwrap_or(false))
                .map(|e| e.name.clone())
                .collect();
            for w in weak_children {
                for wkey in self.weak_keys_of_owner(cat, &w, key)? {
                    self.delete(cat, txn, &w, &wkey)?;
                }
            }
        }

        // 2. Relationship instances.
        for m in &members {
            for rel in self.lw.schema.relationships_of(m).iter().map(|r| (*r).clone()).collect::<Vec<Relationship>>() {
                if self.is_identifying(&rel.name) {
                    continue; // handled by weak cascade / own row removal
                }
                // A relationship folded as FK columns on the deleted
                // instance's own row disappears with the row; unlinking it
                // explicitly would violate NOT NULL on total participation.
                if let Ok(RelHome::Folded { many_entity, .. }) = self.lw.rel_home(&rel.name) {
                    if many_entity == m {
                        continue;
                    }
                }
                self.unlink_all(cat, txn, &rel, m, key)?;
            }
        }

        // 3. Multi-valued side rows of every member.
        for m in &members {
            let es = self.lw.schema.require_entity(m)?.clone();
            for a in es.attributes.iter().filter(|a| a.multi_valued) {
                if let MvHome::SideTable { table } = self.lw.mv_home(m, &a.name)? {
                    delete_prefixed(cat, txn, table, key)?;
                }
            }
        }

        // 4. Home rows across the hierarchy.
        let mut removed_any = false;
        for m in &members {
            match self.lw.entity_home(m)?.clone() {
                EntityHome::Table { table, .. } | EntityHome::Merged { table, .. } => {
                    let kv = Self::key_value(key);
                    let hit = cat.table(&table)?.lookup_pk(&kv).map(|(rid, _)| rid);
                    if let Some(rid) = hit {
                        // Merged tables appear once per member; delete once.
                        if cat.table(&table)?.get(rid).is_some() {
                            txn.delete(cat, &table, rid)?;
                            removed_any = true;
                        }
                    }
                }
                EntityHome::CoLocated { table, side } => {
                    removed_any |= self.denorm_delete_side(cat, txn, &table, side, m, key)?;
                }
                EntityHome::FoldedWeak { owner, column } => {
                    removed_any |=
                        self.folded_weak_delete(cat, txn, m, &owner, &column, key)?;
                }
            }
        }
        if !removed_any {
            return Err(MappingError::BadPayload(format!(
                "instance {key:?} of '{entity}' not found"
            )));
        }
        Ok(())
    }

    fn folded_weak_delete(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        entity: &str,
        owner: &str,
        column: &str,
        key: &[Value],
    ) -> MappingResult<bool> {
        let owner_len = self.key_names(owner)?.len();
        if key.len() < owner_len {
            return Ok(false);
        }
        let (owner_key, partial) = key.split_at(owner_len);
        let Some((table, rid, mut row)) = self.locate_plain(cat, owner, owner_key)? else {
            return Ok(false);
        };
        let col = cat.table(&table)?.schema().require_column(column)?;
        let es = self.lw.schema.require_entity(entity)?;
        let partial_positions: Vec<usize> = es
            .key
            .iter()
            .map(|k| es.attributes.iter().position(|a| a.name == *k).expect("validated"))
            .collect();
        let Value::Array(elems) = &mut row[col] else {
            return Ok(false);
        };
        let before = elems.len();
        elems.retain(|elem| {
            if let Value::Struct(vals) = elem {
                !partial_positions
                    .iter()
                    .zip(partial.iter())
                    .all(|(&p, pk)| vals.get(p) == Some(pk))
            } else {
                true
            }
        });
        let removed = elems.len() != before;
        if removed {
            txn.update(cat, &table, rid, row)?;
        }
        Ok(removed)
    }

    fn weak_keys_of_owner(
        &self,
        cat: &Catalog,
        weak: &str,
        owner_key: &[Value],
    ) -> MappingResult<Vec<Vec<Value>>> {
        let klen = self.key_names(weak)?.len();
        // Weak keys lead with the owner key, in the row and in the member.
        let owner_cols: Vec<usize> = (0..owner_key.len()).collect();
        let leading = |t: &Table| -> Vec<Vec<Value>> {
            keyed_rows(t, &owner_cols, owner_key).map(|(_, row)| row[..klen].to_vec()).collect()
        };
        match self.lw.entity_home(weak)? {
            EntityHome::Table { table, .. } => Ok(leading(cat.table(table)?)),
            EntityHome::CoLocated { table, side } => {
                let key_cols = self.denorm_key_cols(cat, table, *side, weak)?;
                let owner_cols = &key_cols[..owner_key.len()];
                let mut out: Vec<Vec<Value>> = Vec::new();
                for (_, row) in keyed_rows(cat.table(table)?, owner_cols, owner_key) {
                    let kvals: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
                    if !kvals.iter().any(Value::is_null) && !out.contains(&kvals) {
                        out.push(kvals);
                    }
                }
                Ok(out)
            }
            EntityHome::FoldedWeak { owner, column } => {
                let Some((table, _rid, row)) = self.locate_plain(cat, owner, owner_key)? else {
                    return Ok(vec![]);
                };
                let col = cat.table(&table)?.schema().require_column(column)?;
                let es = self.lw.schema.require_entity(weak)?;
                let partial_positions: Vec<usize> = es
                    .key
                    .iter()
                    .map(|k| es.attributes.iter().position(|a| a.name == *k).expect("validated"))
                    .collect();
                let mut out = Vec::new();
                if let Value::Array(elems) = &row[col] {
                    for elem in elems {
                        if let Value::Struct(vals) = elem {
                            let mut k = owner_key.to_vec();
                            for &p in &partial_positions {
                                k.push(vals[p].clone());
                            }
                            out.push(k);
                        }
                    }
                }
                Ok(out)
            }
            EntityHome::Merged { .. } => Err(MappingError::Unsupported(
                "weak entities cannot be merged into a hierarchy".into(),
            )),
        }
    }

    fn denorm_delete_side(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        table: &str,
        side: Side,
        entity: &str,
        key: &[Value],
    ) -> MappingResult<bool> {
        let key_cols = self.denorm_key_cols(cat, table, side, entity)?;
        let hits = keyed_rows_owned(cat.table(table)?, &key_cols, key);
        if hits.is_empty() {
            return Ok(false);
        }
        let schema = cat.table(table)?.schema();
        let arity = schema.arity();
        let other = match side {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        };
        let other_cols: Vec<usize> = (0..arity)
            .filter(|&i| strip_side(&schema.columns[i].name, other).is_some())
            .collect();
        for (rid, row) in hits {
            let other_vals: Vec<Value> = other_cols.iter().map(|&i| row[i].clone()).collect();
            txn.delete(cat, table, rid)?;
            // Preserve the other side's data if this row was its only copy:
            // re-insert it as a dangling half-row unless another row still
            // carries exactly those values.
            if other_vals.iter().any(|v| !v.is_null())
                && cat.table(table)?.rows_eq(&other_cols, &other_vals).is_empty()
            {
                let mut dangling = vec![Value::Null; arity];
                for (&i, v) in other_cols.iter().zip(other_vals) {
                    dangling[i] = v;
                }
                txn.insert(cat, table, dangling)?;
            }
        }
        Ok(true)
    }

    fn is_identifying(&self, rel: &str) -> bool {
        matches!(self.lw.rel_home(rel), Ok(RelHome::ImplicitWeak { .. }))
    }

    // ---- relationships -----------------------------------------------------------

    /// Create one relationship instance.
    pub fn link(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        rel: &str,
        from_key: &[Value],
        to_key: &[Value],
        attrs: &EntityData,
    ) -> MappingResult<()> {
        let r = self.lw.schema.require_relationship(rel)?.clone();
        match self.lw.rel_home(rel)?.clone() {
            RelHome::ImplicitWeak { weak } => Err(MappingError::Unsupported(format!(
                "identifying relationship '{rel}' is implicit; insert the weak entity '{weak}'"
            ))),
            RelHome::Folded { many_entity, one_entity } => {
                let (many_key, one_key) = if r.many_end().expect("folded is m:1").entity
                    == r.from.entity
                    && many_entity == r.from.entity
                {
                    (from_key, to_key)
                } else {
                    (to_key, from_key)
                };
                let (table, rid, mut row) =
                    self.locate_plain(cat, &many_entity, many_key)?.ok_or_else(|| {
                        MappingError::BadPayload(format!(
                            "many-side instance {many_key:?} of '{many_entity}' not found"
                        ))
                    })?;
                let schema = cat.table(&table)?.schema().clone();
                for (i, k) in self.key_names(&one_entity)?.iter().enumerate() {
                    let col = schema.require_column(&fk_col(rel, k))?;
                    row[col] = one_key[i].clone();
                }
                for (name, v) in attrs {
                    let col = schema.require_column(&rel_attr_col(rel, name))?;
                    row[col] = v.clone();
                }
                txn.update(cat, &table, rid, row)?;
                Ok(())
            }
            RelHome::JoinTable { table } => {
                let mut row = Vec::new();
                row.extend(from_key.iter().cloned());
                row.extend(to_key.iter().cloned());
                let schema = cat.table(&table)?.schema().clone();
                for c in schema.columns.iter().skip(from_key.len() + to_key.len()) {
                    row.push(attrs.get(&c.name).cloned().unwrap_or(Value::Null));
                }
                txn.insert(cat, &table, row)?;
                Ok(())
            }
            RelHome::Linked { table, left, right } => {
                if !attrs.is_empty() {
                    // Mapping validation rejects factorized co-location
                    // for relationships WITH declared attributes, so any
                    // attrs supplied here have nowhere to live. Error
                    // instead of silently dropping them.
                    return Err(MappingError::BadPayload(format!(
                        "relationship '{rel}' is stored factorized and cannot carry \
                         attributes ({} supplied)",
                        attrs.len()
                    )));
                }
                // Two primary-key probes, one link row of their slots.
                let mut pair = Vec::with_capacity(2);
                for (member, key) in [(&left, from_key), (&right, to_key)] {
                    let slot = Self::member_slot(cat, member, key)?;
                    pair.push(slot.ok_or_else(|| {
                        MappingError::BadPayload(format!("instance {key:?} not found in '{member}'"))
                    })?);
                }
                txn.insert(cat, &table, pair)?;
                Ok(())
            }
            RelHome::CoLocated { table } => {
                self.denorm_link(cat, txn, &table, &r, from_key, to_key, attrs)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn denorm_link(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        table: &str,
        rel: &Relationship,
        from_key: &[Value],
        to_key: &[Value],
        attrs: &EntityData,
    ) -> MappingResult<()> {
        let schema = cat.table(table)?.schema().clone();
        let lcols = self.denorm_key_cols(cat, table, Side::Left, &rel.from.entity)?;
        let rcols = self.denorm_key_cols(cat, table, Side::Right, &rel.to.entity)?;
        let lrows = keyed_rows_owned(cat.table(table)?, &lcols, from_key);
        let rrows = keyed_rows_owned(cat.table(table)?, &rcols, to_key);
        if lrows.is_empty() || rrows.is_empty() {
            return Err(MappingError::BadPayload(format!(
                "both sides must exist before linking '{}' in denormalized co-location",
                rel.name
            )));
        }
        let right_is_null = |row: &Row| {
            schema
                .columns
                .iter()
                .enumerate()
                .all(|(i, c)| strip_side(&c.name, Side::Right).is_none() || row[i].is_null())
        };
        let left_is_null = |row: &Row| {
            schema
                .columns
                .iter()
                .enumerate()
                .all(|(i, c)| strip_side(&c.name, Side::Left).is_none() || row[i].is_null())
        };
        let copy_side = |dst: &mut Row, src: &Row, side: Side| {
            for (i, c) in schema.columns.iter().enumerate() {
                if strip_side(&c.name, side).is_some() {
                    dst[i] = src[i].clone();
                }
            }
        };
        let set_attrs = |dst: &mut Row| -> MappingResult<()> {
            for (name, v) in attrs {
                let col = schema.require_column(name)?;
                dst[col] = v.clone();
            }
            Ok(())
        };
        let l_src = lrows[0].1.clone();
        let r_src = rrows[0].1.clone();
        let l_dangling = lrows.iter().find(|(_, r)| right_is_null(r)).cloned();
        let r_dangling = rrows.iter().find(|(_, r)| left_is_null(r)).cloned();
        match (l_dangling, r_dangling) {
            (Some((lrid, mut lrow)), rd) => {
                copy_side(&mut lrow, &r_src, Side::Right);
                set_attrs(&mut lrow)?;
                txn.update(cat, table, lrid, lrow)?;
                if let Some((rrid, _)) = rd {
                    txn.delete(cat, table, rrid)?;
                }
            }
            (None, Some((rrid, mut rrow))) => {
                copy_side(&mut rrow, &l_src, Side::Left);
                set_attrs(&mut rrow)?;
                txn.update(cat, table, rrid, rrow)?;
            }
            (None, None) => {
                let mut row = vec![Value::Null; schema.arity()];
                copy_side(&mut row, &l_src, Side::Left);
                copy_side(&mut row, &r_src, Side::Right);
                set_attrs(&mut row)?;
                txn.insert(cat, table, row)?;
            }
        }
        Ok(())
    }

    /// Remove one relationship instance.
    pub fn unlink(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        rel: &str,
        from_key: &[Value],
        to_key: &[Value],
    ) -> MappingResult<()> {
        let r = self.lw.schema.require_relationship(rel)?.clone();
        match self.lw.rel_home(rel)?.clone() {
            RelHome::ImplicitWeak { .. } => Err(MappingError::Unsupported(format!(
                "identifying relationship '{rel}' is implicit; delete the weak entity instead"
            ))),
            RelHome::Folded { many_entity, one_entity } => {
                let many_is_from = r.many_end().expect("m:1").entity == r.from.entity;
                let many_key = if many_is_from { from_key } else { to_key };
                let (table, rid, mut row) =
                    self.locate_plain(cat, &many_entity, many_key)?.ok_or_else(|| {
                        MappingError::BadPayload(format!(
                            "many-side instance {many_key:?} of '{many_entity}' not found"
                        ))
                    })?;
                let schema = cat.table(&table)?.schema().clone();
                for k in self.key_names(&one_entity)? {
                    let col = schema.require_column(&fk_col(rel, &k))?;
                    row[col] = Value::Null;
                }
                for a in &r.attributes {
                    if let Ok(col) = schema.require_column(&rel_attr_col(rel, &a.name)) {
                        row[col] = Value::Null;
                    }
                }
                txn.update(cat, &table, rid, row)?;
                Ok(())
            }
            // The pair is the join table's primary key.
            RelHome::JoinTable { table } => {
                delete_prefixed(cat, txn, &table, &[from_key, to_key].concat())
            }
            RelHome::Linked { table, left, right } => {
                let l = Self::member_slot(cat, &left, from_key)?;
                let r = Self::member_slot(cat, &right, to_key)?;
                if let (Some(l), Some(r)) = (l, r) {
                    // Probe the left slot's links; remove one with the right slot.
                    let t = cat.table(&table)?;
                    let pair = keyed_rows(t, &[0], &[l]).find(|(_, row)| row[1] == r);
                    if let Some((rid, _)) = pair {
                        txn.delete(cat, &table, rid)?;
                    }
                }
                Ok(())
            }
            RelHome::CoLocated { table } => {
                // Find the combined row and split it back into dangling
                // halves as needed.
                let schema = cat.table(&table)?.schema().clone();
                let lcols = self.denorm_key_cols(cat, &table, Side::Left, &r.from.entity)?;
                let rcols = self.denorm_key_cols(cat, &table, Side::Right, &r.to.entity)?;
                let hits = keyed_rows_owned(cat.table(&table)?, &lcols, from_key);
                let Some((rid, row)) = hits
                    .iter()
                    .find(|(_, row)| rcols.iter().zip(to_key).all(|(&c, k)| row[c] == *k))
                else {
                    return Ok(());
                };
                // A side that appears in no other row keeps a dangling
                // half-row.
                let l_elsewhere = hits.len() > 1;
                let r_elsewhere = cat.table(&table)?.rows_eq(&rcols, to_key).len() > 1;
                txn.delete(cat, &table, *rid)?;
                for (side, elsewhere) in [(Side::Left, l_elsewhere), (Side::Right, r_elsewhere)]
                {
                    if !elsewhere {
                        let mut dangle = vec![Value::Null; schema.arity()];
                        for (i, c) in schema.columns.iter().enumerate() {
                            if strip_side(&c.name, side).is_some() {
                                dangle[i] = row[i].clone();
                            }
                        }
                        txn.insert(cat, &table, dangle)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Remove every instance of `rel` in which the given instance of
    /// `entity` participates. The instances are found by following the
    /// edges out of that instance — a probe of the relationship's home on
    /// `entity`'s end — never by a pass over the whole relationship.
    fn unlink_all(
        &self,
        cat: &mut Catalog,
        txn: &mut Transaction,
        rel: &Relationship,
        entity: &str,
        key: &[Value],
    ) -> MappingResult<()> {
        let is_from = rel.from.entity == entity;
        let (mine, theirs, other) = if is_from {
            (Side::Left, Side::Right, &rel.to.entity)
        } else {
            (Side::Right, Side::Left, &rel.from.entity)
        };
        let other_len = self.key_names(other)?.len();
        // Keys of the other end of every instance, in slot order.
        let mut others: Vec<Vec<Value>> = Vec::new();
        match self.lw.rel_home(&rel.name)? {
            // The owner's cascade deletes the weak rows themselves.
            RelHome::ImplicitWeak { .. } => {}
            RelHome::JoinTable { table } => {
                let (mine_cols, theirs_cols) = if is_from {
                    (0..key.len(), key.len()..key.len() + other_len)
                } else {
                    (other_len..other_len + key.len(), 0..other_len)
                };
                let mine_cols: Vec<usize> = mine_cols.collect();
                others.extend(
                    keyed_rows(cat.table(table)?, &mine_cols, key)
                        .map(|(_, row)| row[theirs_cols.clone()].to_vec()),
                );
            }
            // The caller skips the many side (its foreign key goes with its
            // own row), so `entity` is the one side and `other` the many.
            RelHome::Folded { many_entity, one_entity } => {
                for table in self.fk_tables(many_entity)? {
                    let t = cat.table(&table)?;
                    let fk_cols: Vec<usize> = self
                        .key_names(one_entity)?
                        .iter()
                        .map(|k| t.schema().require_column(&fk_col(&rel.name, k)))
                        .collect::<Result<_, _>>()?;
                    // Merged tables hold the whole hierarchy.
                    let ty_col = t.schema().column_index(TYPE_COL);
                    others.extend(
                        keyed_rows(t, &fk_cols, key)
                            .filter(|(_, row)| {
                                let ty = |c: usize| row[c].as_str().unwrap_or_default();
                                ty_col.is_none_or(|c| self.in_subtree(many_entity, ty(c)))
                            })
                            .map(|(_, row)| row[..other_len].to_vec()),
                    );
                }
            }
            // Every link row holding this instance's slot goes: a probe of
            // the link table's index on this end's column.
            RelHome::Linked { table, left, right } => {
                let (member, col) = if is_from { (left, 0) } else { (right, 1) };
                if let Some(slot) = Self::member_slot(cat, member, key)? {
                    for rid in cat.table(table)?.rows_eq(&[col], &[slot]) {
                        txn.delete(cat, table, rid)?;
                    }
                }
            }
            RelHome::CoLocated { table } => {
                let mine_cols = self.denorm_key_cols(cat, table, mine, entity)?;
                let theirs_cols = self.denorm_key_cols(cat, table, theirs, other)?;
                for (_, row) in keyed_rows(cat.table(table)?, &mine_cols, key) {
                    let other_key: Vec<Value> =
                        theirs_cols.iter().map(|&c| row[c].clone()).collect();
                    // A dangling half-row is no instance.
                    if !other_key.iter().any(Value::is_null) {
                        others.push(other_key);
                    }
                }
            }
        }
        for other_key in others {
            let (from, to) = if is_from { (key, &other_key[..]) } else { (&other_key[..], key) };
            self.unlink(cat, txn, &rel.name, from, to)?;
        }
        Ok(())
    }

    // ---- extraction (reversibility) -----------------------------------------------

    /// All keys of instances in the extent of `entity` (including subclass
    /// instances).
    pub fn extent_keys(&self, cat: &Catalog, entity: &str) -> MappingResult<Vec<Vec<Value>>> {
        let klen = self.key_names(entity)?.len();
        let mut out: Vec<Vec<Value>> = Vec::new();
        match self.lw.entity_home(entity)? {
            EntityHome::Table { table, layout } => match layout {
                HierarchyLayout::Delta => {
                    for (_, row) in cat.table(table)?.scan() {
                        out.push(row[..klen].to_vec());
                    }
                }
                HierarchyLayout::Full => {
                    let mut tables = vec![table.clone()];
                    for d in self.lw.schema.descendants(entity) {
                        if let EntityHome::Table { table, .. } = self.lw.entity_home(&d.name)? {
                            tables.push(table.clone());
                        }
                    }
                    for t in tables {
                        for (_, row) in cat.table(&t)?.scan() {
                            out.push(row[..klen].to_vec());
                        }
                    }
                }
            },
            EntityHome::Merged { table, .. } => {
                let t = cat.table(table)?;
                let ty_col = t.schema().require_column(TYPE_COL)?;
                for (_, row) in t.scan() {
                    let ty = row[ty_col].as_str().unwrap_or_default();
                    if self.in_subtree(entity, ty) {
                        out.push(row[..klen].to_vec());
                    }
                }
            }
            EntityHome::FoldedWeak { owner, .. } => {
                let owner = owner.clone();
                for okey in self.extent_keys(cat, &owner)? {
                    out.extend(self.weak_keys_of_owner(cat, entity, &okey)?);
                }
            }
            EntityHome::CoLocated { table, side } => {
                let t = cat.table(table)?;
                let schema = t.schema();
                let key_cols: Vec<usize> = self
                    .key_names(entity)?
                    .iter()
                    .map(|k| schema.require_column(&co_col(*side, k)))
                    .collect::<Result<_, _>>()?;
                let mut seen = rustc_hash::FxHashSet::default();
                for (_, row) in t.scan() {
                    let kvals: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
                    if kvals.iter().any(Value::is_null) {
                        continue;
                    }
                    if seen.insert(kvals.clone()) {
                        out.push(kvals);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Recover the full extent of `entity` as attribute maps — the
    /// reversibility requirement of the paper.
    pub fn extract_entities(&self, cat: &Catalog, entity: &str) -> MappingResult<Vec<EntityData>> {
        let mut out = Vec::new();
        for key in self.extent_keys(cat, entity)? {
            if let Some(data) = self.get(cat, entity, &key)? {
                out.push(data);
            }
        }
        Ok(out)
    }

    /// Recover every instance of a relationship.
    pub fn extract_relationship(
        &self,
        cat: &Catalog,
        rel: &str,
    ) -> MappingResult<Vec<RelInstance>> {
        let r = self.lw.schema.require_relationship(rel)?.clone();
        let mut out = Vec::new();
        match self.lw.rel_home(rel)?.clone() {
            RelHome::ImplicitWeak { weak } => {
                // (weak instance, owner) pairs, oriented by declaration.
                let owner = self
                    .lw
                    .schema
                    .require_entity(&weak)?
                    .weak
                    .as_ref()
                    .expect("weak")
                    .owner
                    .clone();
                let olen = self.key_names(&owner)?.len();
                for wkey in self.extent_keys(cat, &weak)? {
                    let okey = wkey[..olen].to_vec();
                    let (from_key, to_key) = if r.from.entity == weak {
                        (wkey.clone(), okey)
                    } else {
                        (okey, wkey.clone())
                    };
                    out.push(RelInstance { from_key, to_key, attrs: EntityData::default() });
                }
            }
            RelHome::Folded { many_entity, one_entity } => {
                let one_key_names = self.key_names(&one_entity)?;
                let many_klen = self.key_names(&many_entity)?.len();
                let many_is_from = r.from.entity == many_entity;
                for table in self.fk_tables(&many_entity)? {
                    let t = cat.table(&table)?;
                    let schema = t.schema();
                    let fk_cols: Vec<usize> = one_key_names
                        .iter()
                        .map(|k| schema.require_column(&fk_col(rel, k)))
                        .collect::<Result<_, _>>()?;
                    let attr_cols: Vec<(String, usize)> = r
                        .attributes
                        .iter()
                        .filter_map(|a| {
                            schema
                                .column_index(&rel_attr_col(rel, &a.name))
                                .map(|i| (a.name.clone(), i))
                        })
                        .collect();
                    // Merged tables hold the whole hierarchy: restrict to
                    // the many entity's subtree.
                    let ty_col = schema.column_index(TYPE_COL);
                    for (_, row) in t.scan() {
                        if let Some(tc) = ty_col {
                            let ty = row[tc].as_str().unwrap_or_default();
                            if !self.in_subtree(&many_entity, ty) {
                                continue;
                            }
                        }
                        let fk: Vec<Value> = fk_cols.iter().map(|&c| row[c].clone()).collect();
                        if fk.iter().any(Value::is_null) {
                            continue;
                        }
                        let many_key = row[..many_klen].to_vec();
                        let mut attrs = EntityData::default();
                        for (name, col) in &attr_cols {
                            attrs.insert(name.clone(), row[*col].clone());
                        }
                        let (from_key, to_key) =
                            if many_is_from { (many_key, fk) } else { (fk, many_key) };
                        out.push(RelInstance { from_key, to_key, attrs });
                    }
                }
            }
            RelHome::JoinTable { table } => {
                let from_len = self.key_names(&r.from.entity)?.len();
                let to_len = self.key_names(&r.to.entity)?.len();
                let t = cat.table(&table)?;
                for (_, row) in t.scan() {
                    let mut attrs = EntityData::default();
                    for (c, v) in
                        t.schema().columns.iter().zip(row.iter()).skip(from_len + to_len)
                    {
                        attrs.insert(c.name.clone(), v.clone());
                    }
                    out.push(RelInstance {
                        from_key: row[..from_len].to_vec(),
                        to_key: row[from_len..from_len + to_len].to_vec(),
                        attrs,
                    });
                }
            }
            RelHome::Linked { table, left, right } => {
                let (lt, rt) = (cat.table(&left)?, cat.table(&right)?);
                let llen = self.key_names(&r.from.entity)?.len();
                let rlen = self.key_names(&r.to.entity)?.len();
                for (_, pair) in cat.table(&table)?.scan() {
                    out.push(RelInstance {
                        from_key: linked_row(lt, &pair[0])?[..llen].to_vec(),
                        to_key: linked_row(rt, &pair[1])?[..rlen].to_vec(),
                        attrs: EntityData::default(),
                    });
                }
            }
            RelHome::CoLocated { table } => {
                let t = cat.table(&table)?;
                let schema = t.schema();
                let lcols: Vec<usize> = self
                    .key_names(&r.from.entity)?
                    .iter()
                    .map(|k| schema.require_column(&co_col(Side::Left, k)))
                    .collect::<Result<_, _>>()?;
                let rcols: Vec<usize> = self
                    .key_names(&r.to.entity)?
                    .iter()
                    .map(|k| schema.require_column(&co_col(Side::Right, k)))
                    .collect::<Result<_, _>>()?;
                let attr_cols: Vec<(String, usize)> = r
                    .attributes
                    .iter()
                    .filter_map(|a| schema.column_index(&a.name).map(|i| (a.name.clone(), i)))
                    .collect();
                for (_, row) in t.scan() {
                    let from_key: Vec<Value> = lcols.iter().map(|&c| row[c].clone()).collect();
                    let to_key: Vec<Value> = rcols.iter().map(|&c| row[c].clone()).collect();
                    if from_key.iter().any(Value::is_null) || to_key.iter().any(Value::is_null)
                    {
                        continue; // dangling half-row
                    }
                    let mut attrs = EntityData::default();
                    for (name, col) in &attr_cols {
                        attrs.insert(name.clone(), row[*col].clone());
                    }
                    out.push(RelInstance { from_key, to_key, attrs });
                }
            }
        }
        Ok(out)
    }

    /// Physical tables carrying the FK columns of relationships folded into
    /// `entity` (one table normally; several for full-layout hierarchies).
    fn fk_tables(&self, entity: &str) -> MappingResult<Vec<String>> {
        match self.lw.entity_home(entity)? {
            EntityHome::Table { table, layout: HierarchyLayout::Delta } => {
                Ok(vec![table.clone()])
            }
            EntityHome::Table { table, layout: HierarchyLayout::Full } => {
                let mut tables = vec![table.clone()];
                for d in self.lw.schema.descendants(entity) {
                    if let EntityHome::Table { table, .. } = self.lw.entity_home(&d.name)? {
                        tables.push(table.clone());
                    }
                }
                Ok(tables)
            }
            EntityHome::Merged { table, .. } => Ok(vec![table.clone()]),
            other => Err(MappingError::Unsupported(format!(
                "folded relationship on entity with home {other:?}"
            ))),
        }
    }

    /// The most specific type of an instance (probing subclass storage).
    pub fn type_of(&self, cat: &Catalog, entity: &str, key: &[Value]) -> MappingResult<Option<String>> {
        let root = self.lw.schema.hierarchy_root(entity)?.name.clone();
        // Single-table hierarchy: the root's table carries a `_type`
        // discriminator (the root's own home is `Table`, so detect the
        // merged case by the column).
        if let EntityHome::Table { table, .. } | EntityHome::Merged { table, .. } =
            self.lw.entity_home(&root)?
        {
            let t = cat.table(table)?;
            if let Some(ty_col) = t.schema().column_index(TYPE_COL) {
                let Some((_, row)) = t.lookup_pk(&Self::key_value(key)) else {
                    return Ok(None);
                };
                return Ok(row[ty_col].as_str().map(String::from));
            }
        }
        match self.lw.entity_home(&root)? {
            EntityHome::Merged { table, .. } => {
                let t = cat.table(table)?;
                let Some((_, row)) = t.lookup_pk(&Self::key_value(key)) else {
                    return Ok(None);
                };
                let ty_col = t.schema().require_column(TYPE_COL)?;
                Ok(row[ty_col].as_str().map(String::from))
            }
            _ => {
                // Probe from the leaves upward: deepest table containing the
                // key wins.
                let mut best: Option<(usize, String)> = None;
                let mut stack = vec![root.clone()];
                while let Some(cur) = stack.pop() {
                    let depth = self.lw.schema.ancestry(&cur)?.len();
                    let present = match self.lw.entity_home(&cur)? {
                        EntityHome::Table { table, .. } => {
                            cat.table(table)?.lookup_pk(&Self::key_value(key)).is_some()
                        }
                        EntityHome::CoLocated { .. } => {
                            self.locate_plain(cat, &cur, key)?.is_some()
                        }
                        _ => false,
                    };
                    if present && best.as_ref().map(|(d, _)| depth > *d).unwrap_or(true) {
                        best = Some((depth, cur.clone()));
                    }
                    for d in self.lw.schema.subclasses(&cur) {
                        stack.push(d.name.clone());
                    }
                }
                Ok(best.map(|(_, n)| n))
            }
        }
    }
}

/// Build the struct value representing a folded weak instance.
fn weak_struct(es: &EntitySet, data: &EntityData) -> MappingResult<Value> {
    let mut vals = Vec::with_capacity(es.attributes.len());
    for a in &es.attributes {
        let v = data.get(&a.name).cloned().unwrap_or(Value::Null);
        if v.is_null() && es.key.contains(&a.name) {
            return Err(MappingError::BadPayload(format!(
                "weak instance missing partial key '{}'",
                a.name
            )));
        }
        vals.push(v);
    }
    Ok(Value::Struct(vals))
}

/// If `col` belongs to `side` of a denormalized co-located table, return
/// the unprefixed name.
fn strip_side(col: &str, side: Side) -> Option<&str> {
    match side {
        Side::Left => col.strip_prefix("l__"),
        Side::Right => col.strip_prefix("r__"),
    }
}
