//! Lowering a mapping to physical schemas.
//!
//! [`Lowering::build`] validates a [`Mapping`] against an [`ErSchema`] and
//! computes, for every schema element, *where its data lives*:
//!
//! * [`EntityHome`] — the structure storing an entity set's instances;
//! * [`RelHome`] — the structure storing a relationship's instances;
//! * [`MvHome`] — where each multi-valued attribute lives (inline array
//!   column vs. side table);
//!
//! plus the full physical [`TableSpec`]s. [`Lowering::install`] creates the
//! tables in a [`Catalog`] and persists the schema + mapping as JSON
//! catalog metadata, exactly as the paper's prototype does.

use crate::error::{MappingError, MappingResult};
use crate::fragment::{CoFormat, Fragment, HierarchyLayout, Mapping};
use crate::validate;
use erbium_model::{AttrType, Attribute, ErSchema, Participation, ScalarType};
use erbium_storage::{Catalog, Column, DataType, IndexKind, Table, TableSchema};
use rustc_hash::FxHashMap;

/// Catalog metadata key for the persisted E/R schema.
pub const META_SCHEMA: &str = "er_schema";
/// Catalog metadata key for the persisted mapping.
pub const META_MAPPING: &str = "mapping";

/// The discriminator column added to single-table hierarchies.
pub const TYPE_COL: &str = "_type";

/// Column name for a folded foreign key.
pub fn fk_col(rel: &str, key: &str) -> String {
    format!("{rel}__{key}")
}

/// Column name for a relationship attribute stored beside a foreign key or
/// in a join table.
pub fn rel_attr_col(rel: &str, attr: &str) -> String {
    format!("{rel}__{attr}")
}

/// Column name for a folded weak entity set.
pub fn weak_col(weak: &str) -> String {
    format!("_w_{weak}")
}

/// Column prefix for one side of a denormalized co-located table.
pub fn co_col(side: Side, name: &str) -> String {
    match side {
        Side::Left => format!("l__{name}"),
        Side::Right => format!("r__{name}"),
    }
}

/// Columns of a row-id link table (factorized co-location): the slot of
/// the left member row and the slot of the right member row of one pair.
pub const LINK_COLS: [&str; 2] = ["__l", "__r"];

/// Join-table column name for one end's key attribute.
pub fn join_col(end: Side, key: &str) -> String {
    match end {
        Side::Left => format!("from__{key}"),
        Side::Right => format!("to__{key}"),
    }
}

/// Which end of a two-sided structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Where an entity set's instances live.
#[derive(Debug, Clone, PartialEq)]
pub enum EntityHome {
    /// Its own table (delta or full layout). A member of a factorized
    /// co-location is one too: a delta-layout table of its own.
    Table { table: String, layout: HierarchyLayout },
    /// Merged into a single-table hierarchy (row discriminated by `_type`).
    Merged { table: String, root: String },
    /// Folded into the owner's table as an array-of-struct column.
    FoldedWeak { owner: String, column: String },
    /// One side of a denormalized co-located table.
    CoLocated { table: String, side: Side },
}

impl EntityHome {
    /// The physical structure holding this entity's rows.
    pub fn table(&self) -> Option<&str> {
        match self {
            EntityHome::Table { table, .. }
            | EntityHome::Merged { table, .. }
            | EntityHome::CoLocated { table, .. } => Some(table),
            EntityHome::FoldedWeak { .. } => None,
        }
    }
}

/// Where a relationship's instances live.
#[derive(Debug, Clone, PartialEq)]
pub enum RelHome {
    /// Foreign-key columns folded into the many side's home table(s). For
    /// full-layout (disjoint) hierarchies the FK columns appear in every
    /// table of the many side's subtree, since each stores part of the
    /// extent.
    Folded { many_entity: String, one_entity: String },
    /// A join table.
    JoinTable { table: String },
    /// A denormalized co-located table: one row per pair.
    CoLocated { table: String },
    /// Factorized co-location: a link table of row-id pairs ([`LINK_COLS`])
    /// between the `left` (from-end) and `right` (to-end) member tables.
    Linked { table: String, left: String, right: String },
    /// Identifying relationship of a weak entity set: the owner key is
    /// embedded wherever the weak entity lives.
    ImplicitWeak { weak: String },
}

/// Where a multi-valued attribute lives.
#[derive(Debug, Clone, PartialEq)]
pub enum MvHome {
    Inline { table: String, column: String },
    SideTable { table: String },
}

/// An index to create on a physical table.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSpec {
    pub name: String,
    pub columns: Vec<String>,
    pub kind: IndexKind,
}

/// One physical table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    pub schema: TableSchema,
    pub indexes: Vec<IndexSpec>,
}

impl TableSpec {
    pub fn name(&self) -> &str {
        &self.schema.name
    }
}

/// A validated, lowered mapping: homes for every schema element plus the
/// physical table specifications.
#[derive(Debug, Clone)]
pub struct Lowering {
    pub schema: ErSchema,
    pub mapping: Mapping,
    entity_homes: FxHashMap<String, EntityHome>,
    rel_homes: FxHashMap<String, RelHome>,
    mv_homes: FxHashMap<(String, String), MvHome>,
    /// Folded relationships keyed by their many-side entity.
    folds_by_entity: FxHashMap<String, Vec<String>>,
    /// Inline multi-valued attributes keyed by their owning entity.
    inline_by_entity: FxHashMap<String, Vec<String>>,
    pub tables: Vec<TableSpec>,
}

impl Lowering {
    /// Validate the mapping and compute the physical design.
    pub fn build(schema: &ErSchema, mapping: &Mapping) -> MappingResult<Lowering> {
        validate::validate(schema, mapping)?;
        let mut lw = Lowering {
            schema: schema.clone(),
            mapping: mapping.clone(),
            entity_homes: FxHashMap::default(),
            rel_homes: FxHashMap::default(),
            mv_homes: FxHashMap::default(),
            folds_by_entity: FxHashMap::default(),
            inline_by_entity: FxHashMap::default(),
            tables: Vec::new(),
        };
        // Identifying relationships are implicit.
        for e in schema.entities() {
            if let Some(w) = &e.weak {
                lw.rel_homes.insert(
                    w.identifying_relationship.clone(),
                    RelHome::ImplicitWeak { weak: e.name.clone() },
                );
            }
        }
        // Pre-pass: collect folded relationships (keyed by many-side
        // entity) and inline multi-valued attributes (keyed by owner), so
        // full-layout subtree tables can replicate FK and array columns.
        for frag in &mapping.fragments {
            if let Fragment::Entity {
                entity, layout, merged_subclasses, folded_relationships, inline_multivalued, ..
            } = frag
            {
                for r in folded_relationships {
                    let rel = schema.require_relationship(r)?;
                    let many = rel.many_end().ok_or_else(|| {
                        MappingError::InvalidCover(format!(
                            "folded relationship '{r}' is not many-to-one"
                        ))
                    })?;
                    lw.folds_by_entity.entry(many.entity.clone()).or_default().push(r.clone());
                }
                if !inline_multivalued.is_empty() {
                    let mut covered: Vec<String> = match layout {
                        HierarchyLayout::Full => schema
                            .ancestry(entity)?
                            .into_iter()
                            .map(|e| e.name.clone())
                            .collect(),
                        HierarchyLayout::Delta => vec![entity.clone()],
                    };
                    covered.extend(merged_subclasses.iter().cloned());
                    for mv in inline_multivalued {
                        let owner = covered.iter().find(|e| {
                            schema
                                .entity(e)
                                .and_then(|es| es.attribute(mv))
                                .map(|a| a.multi_valued)
                                .unwrap_or(false)
                        });
                        if let Some(owner) = owner {
                            lw.inline_by_entity
                                .entry(owner.clone())
                                .or_default()
                                .push(mv.clone());
                        }
                    }
                }
            }
        }
        for frag in &mapping.fragments {
            lw.lower_fragment(frag)?;
        }
        Ok(lw)
    }

    /// Create all physical structures in the catalog and persist the schema
    /// and mapping as catalog metadata.
    pub fn install(&self, cat: &mut Catalog) -> MappingResult<()> {
        for TableSpec { schema, indexes } in &self.tables {
            let mut t = Table::new(schema.clone());
            for ix in indexes {
                let cols: Vec<usize> =
                    ix.columns.iter().map(|c| schema.require_column(c)).collect::<Result<_, _>>()?;
                t.create_index(ix.name.clone(), cols, ix.kind)?;
            }
            cat.create_table(t)?;
        }
        cat.put_meta_typed(META_SCHEMA, &self.schema)?;
        cat.put_meta(META_MAPPING, self.mapping.to_json());
        Ok(())
    }

    /// Drop all physical structures of this mapping from the catalog.
    pub fn uninstall(&self, cat: &mut Catalog) -> MappingResult<()> {
        for spec in &self.tables {
            cat.drop_table(spec.name())?;
        }
        Ok(())
    }

    pub fn entity_home(&self, entity: &str) -> MappingResult<&EntityHome> {
        self.entity_homes
            .get(entity)
            .ok_or_else(|| MappingError::InvalidCover(format!("entity '{entity}' has no home")))
    }

    pub fn rel_home(&self, rel: &str) -> MappingResult<&RelHome> {
        self.rel_homes
            .get(rel)
            .ok_or_else(|| MappingError::InvalidCover(format!("relationship '{rel}' has no home")))
    }

    pub fn mv_home(&self, entity: &str, attr: &str) -> MappingResult<&MvHome> {
        self.mv_homes.get(&(entity.to_string(), attr.to_string())).ok_or_else(|| {
            MappingError::InvalidCover(format!("multi-valued '{entity}.{attr}' has no home"))
        })
    }

    /// Relationships folded as FK columns whose many side is `entity`.
    pub fn folds_of(&self, entity: &str) -> &[String] {
        self.folds_by_entity.get(entity).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Physical schema of a table by name.
    pub fn table_schema(&self, name: &str) -> Option<&TableSchema> {
        self.tables.iter().find(|s| s.name() == name).map(|s| &s.schema)
    }

    // ---- fragment lowering ---------------------------------------------------

    fn lower_fragment(&mut self, frag: &Fragment) -> MappingResult<()> {
        match frag {
            Fragment::Entity {
                table,
                entity,
                layout,
                merged_subclasses,
                inline_multivalued,
                folded_weak,
                folded_relationships,
            } => {
                // Full-layout tables replicate the FK columns of every
                // relationship folded anywhere in their ancestry, because
                // each disjoint table stores part of the extent.
                let effective_folds: Vec<String> = match layout {
                    HierarchyLayout::Delta => folded_relationships.clone(),
                    HierarchyLayout::Full => {
                        let mut out = Vec::new();
                        for anc in self.schema.ancestry(entity)? {
                            if let Some(folds) = self.folds_by_entity.get(&anc.name) {
                                out.extend(folds.iter().cloned());
                            }
                        }
                        out.sort();
                        out.dedup();
                        out
                    }
                };
                // Full-layout tables likewise replicate inline array
                // columns declared anywhere in their ancestry.
                let effective_inline: Vec<String> = match layout {
                    HierarchyLayout::Delta => inline_multivalued.clone(),
                    HierarchyLayout::Full => {
                        let mut out = inline_multivalued.clone();
                        for anc in self.schema.ancestry(entity)? {
                            if let Some(mvs) = self.inline_by_entity.get(&anc.name) {
                                out.extend(mvs.iter().cloned());
                            }
                        }
                        out.sort();
                        out.dedup();
                        out
                    }
                };
                let (schema_cols, pk) = self.entity_table_columns(
                    entity,
                    *layout,
                    merged_subclasses,
                    &effective_inline,
                    folded_weak,
                    &effective_folds,
                )?;
                // Homes.
                self.entity_homes.insert(
                    entity.clone(),
                    EntityHome::Table { table: table.clone(), layout: *layout },
                );
                for m in merged_subclasses {
                    self.entity_homes.insert(
                        m.clone(),
                        EntityHome::Merged { table: table.clone(), root: entity.clone() },
                    );
                }
                for w in folded_weak {
                    self.entity_homes.insert(
                        w.clone(),
                        EntityHome::FoldedWeak { owner: entity.clone(), column: weak_col(w) },
                    );
                }
                for r in folded_relationships {
                    let rel = self.schema.require_relationship(r)?;
                    let many = rel.many_end().ok_or_else(|| {
                        MappingError::InvalidCover(format!(
                            "folded relationship '{r}' is not many-to-one"
                        ))
                    })?;
                    let one = rel.one_end().expect("many_end implies one_end");
                    self.rel_homes.insert(
                        r.clone(),
                        RelHome::Folded {
                            many_entity: many.entity.clone(),
                            one_entity: one.entity.clone(),
                        },
                    );
                }
                // Multi-valued homes for inline arrays.
                let covered = self.covered_entities(entity, *layout, merged_subclasses)?;
                for ce in &covered {
                    let es = self.schema.require_entity(ce)?;
                    for a in es.attributes.iter().filter(|a| a.multi_valued) {
                        if effective_inline.contains(&a.name) {
                            self.mv_homes.insert(
                                (ce.clone(), a.name.clone()),
                                MvHome::Inline { table: table.clone(), column: a.name.clone() },
                            );
                        }
                    }
                }
                let mut indexes = Vec::new();
                // Folded FKs get hash indexes: the physical pointer the
                // one side needs for reverse navigation.
                for r in &effective_folds {
                    let rel = self.schema.require_relationship(r)?;
                    let one = rel.one_end().expect("validated");
                    let cols: Vec<String> = self
                        .key_columns(&one.entity)?
                        .into_iter()
                        .map(|(k, _)| fk_col(r, &k))
                        .collect();
                    indexes.push(IndexSpec {
                        name: format!("{table}__{r}_fk"),
                        columns: cols,
                        kind: IndexKind::Hash,
                    });
                }
                self.tables.push(TableSpec {
                    schema: TableSchema::new(table.clone(), schema_cols, pk),
                    indexes,
                });
            }
            Fragment::MultiValued { table, entity, attribute } => {
                let keys = self.key_columns(entity)?;
                let es = self.schema.require_entity(entity)?;
                let attr = es.attribute(attribute).ok_or_else(|| {
                    MappingError::InvalidCover(format!("unknown attribute '{entity}.{attribute}'"))
                })?;
                let mut cols: Vec<Column> =
                    keys.iter().map(|(n, t)| Column::not_null(n.clone(), t.clone())).collect();
                cols.push(Column::new("value", base_datatype(attr)));
                // Deliberately no index on the owner key: mirrors the
                // paper's observation that point lookups on the normalized
                // M1 could not use an index. An ablation bench adds one.
                self.mv_homes.insert(
                    (entity.clone(), attribute.clone()),
                    MvHome::SideTable { table: table.clone() },
                );
                self.tables.push(TableSpec {
                    schema: TableSchema::new(table.clone(), cols, vec![]),
                    indexes: vec![],
                });
            }
            Fragment::Relationship { table, relationship } => {
                let rel = self.schema.require_relationship(relationship)?;
                let from_keys = self.key_columns(&rel.from.entity)?;
                let to_keys = self.key_columns(&rel.to.entity)?;
                let mut cols: Vec<Column> = Vec::new();
                for (k, t) in &from_keys {
                    cols.push(Column::not_null(join_col(Side::Left, k), t.clone()));
                }
                for (k, t) in &to_keys {
                    cols.push(Column::not_null(join_col(Side::Right, k), t.clone()));
                }
                for a in &rel.attributes {
                    cols.push(Column::new(a.name.clone(), attr_datatype(a)));
                }
                let pk: Vec<usize> = (0..from_keys.len() + to_keys.len()).collect();
                let indexes = vec![
                    IndexSpec {
                        name: format!("{table}__from"),
                        columns: from_keys.iter().map(|(k, _)| join_col(Side::Left, k)).collect(),
                        kind: IndexKind::Hash,
                    },
                    IndexSpec {
                        name: format!("{table}__to"),
                        columns: to_keys.iter().map(|(k, _)| join_col(Side::Right, k)).collect(),
                        kind: IndexKind::Hash,
                    },
                ];
                self.rel_homes
                    .insert(relationship.clone(), RelHome::JoinTable { table: table.clone() });
                self.tables.push(TableSpec {
                    schema: TableSchema::new(table.clone(), cols, pk),
                    indexes,
                });
            }
            Fragment::CoLocated { table, relationship, format } => {
                let rel = self.schema.require_relationship(relationship)?;
                let left_schema =
                    self.entity_member_schema(&rel.from.entity, &format!("{table}__l"))?;
                let right_schema =
                    self.entity_member_schema(&rel.to.entity, &format!("{table}__r"))?;
                match format {
                    CoFormat::Factorized => {
                        // Two plain member tables plus a link table of
                        // row-id pairs: slots stay put under redo and
                        // snapshots, so a pair's ids are stable pointers.
                        for (end, member) in [(&rel.from, &left_schema), (&rel.to, &right_schema)] {
                            self.entity_homes.insert(
                                end.entity.clone(),
                                EntityHome::Table {
                                    table: member.name.clone(),
                                    layout: HierarchyLayout::Delta,
                                },
                            );
                        }
                        self.rel_homes.insert(
                            relationship.clone(),
                            RelHome::Linked {
                                table: table.clone(),
                                left: left_schema.name.clone(),
                                right: right_schema.name.clone(),
                            },
                        );
                        let cols =
                            LINK_COLS.iter().map(|c| Column::not_null(*c, DataType::Int)).collect();
                        let indexes = LINK_COLS
                            .iter()
                            .map(|c| IndexSpec {
                                name: format!("{table}_by{c}"),
                                columns: vec![c.to_string()],
                                kind: IndexKind::Hash,
                            })
                            .collect();
                        self.tables.push(TableSpec { schema: left_schema, indexes: vec![] });
                        self.tables.push(TableSpec { schema: right_schema, indexes: vec![] });
                        self.tables.push(TableSpec {
                            schema: TableSchema::new(table.clone(), cols, vec![]),
                            indexes,
                        });
                    }
                    CoFormat::Denormalized => {
                        self.entity_homes.insert(
                            rel.from.entity.clone(),
                            EntityHome::CoLocated { table: table.clone(), side: Side::Left },
                        );
                        self.entity_homes.insert(
                            rel.to.entity.clone(),
                            EntityHome::CoLocated { table: table.clone(), side: Side::Right },
                        );
                        let home = RelHome::CoLocated { table: table.clone() };
                        self.rel_homes.insert(relationship.clone(), home);
                        // Materialized full outer join: all columns nullable,
                        // prefixed by side; no primary key.
                        let mut cols = Vec::new();
                        for c in &left_schema.columns {
                            cols.push(Column::new(co_col(Side::Left, &c.name), c.dtype.clone()));
                        }
                        for c in &right_schema.columns {
                            cols.push(Column::new(co_col(Side::Right, &c.name), c.dtype.clone()));
                        }
                        for a in &rel.attributes {
                            cols.push(Column::new(a.name.clone(), attr_datatype(a)));
                        }
                        let mut indexes = Vec::new();
                        let lkeys: Vec<String> = left_schema
                            .primary_key
                            .iter()
                            .map(|&i| co_col(Side::Left, &left_schema.columns[i].name))
                            .collect();
                        let rkeys: Vec<String> = right_schema
                            .primary_key
                            .iter()
                            .map(|&i| co_col(Side::Right, &right_schema.columns[i].name))
                            .collect();
                        indexes.push(IndexSpec {
                            name: format!("{table}__l"),
                            columns: lkeys,
                            kind: IndexKind::Hash,
                        });
                        indexes.push(IndexSpec {
                            name: format!("{table}__r"),
                            columns: rkeys,
                            kind: IndexKind::Hash,
                        });
                        self.tables.push(TableSpec {
                            schema: TableSchema::new(table.clone(), cols, vec![]),
                            indexes,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Entity sets whose attributes a fragment's table physically stores.
    fn covered_entities(
        &self,
        entity: &str,
        layout: HierarchyLayout,
        merged: &[String],
    ) -> MappingResult<Vec<String>> {
        let mut out: Vec<String> = match layout {
            HierarchyLayout::Full => {
                self.schema.ancestry(entity)?.into_iter().map(|e| e.name.clone()).collect()
            }
            HierarchyLayout::Delta => vec![entity.to_string()],
        };
        out.extend(merged.iter().cloned());
        Ok(out)
    }

    /// Full-key columns (names + storage types) of an entity, owner keys
    /// first for weak entity sets.
    pub fn key_columns(&self, entity: &str) -> MappingResult<Vec<(String, DataType)>> {
        key_columns_of(&self.schema, entity)
    }

    fn entity_table_columns(
        &self,
        entity: &str,
        layout: HierarchyLayout,
        merged: &[String],
        inline_mv: &[String],
        folded_weak: &[String],
        folded_rels: &[String],
    ) -> MappingResult<(Vec<Column>, Vec<usize>)> {
        let keys = self.key_columns(entity)?;
        let key_names: Vec<&str> = keys.iter().map(|(n, _)| n.as_str()).collect();
        let mut cols: Vec<Column> =
            keys.iter().map(|(n, t)| Column::not_null(n.clone(), t.clone())).collect();
        let pk: Vec<usize> = (0..cols.len()).collect();
        if !merged.is_empty() {
            cols.push(Column::not_null(TYPE_COL, DataType::Text));
        }
        let covered = self.covered_entities(entity, layout, merged)?;
        for ce in &covered {
            let es = self.schema.require_entity(ce)?;
            let force_nullable = merged.contains(ce);
            for a in &es.attributes {
                if key_names.contains(&a.name.as_str()) {
                    continue; // already emitted as a key column
                }
                if a.multi_valued && !inline_mv.contains(&a.name) {
                    continue; // lives in a side table
                }
                let dtype = attr_datatype(a);
                if cols.iter().any(|c| c.name == a.name) {
                    return Err(MappingError::InvalidCover(format!(
                        "column name collision on '{}' in table for '{entity}'",
                        a.name
                    )));
                }
                cols.push(if a.optional || force_nullable {
                    Column::new(a.name.clone(), dtype)
                } else {
                    Column::not_null(a.name.clone(), dtype)
                });
            }
        }
        for w in folded_weak {
            let es = self.schema.require_entity(w)?;
            let mut fields: Vec<(String, DataType)> = Vec::new();
            for a in &es.attributes {
                fields.push((a.name.clone(), attr_datatype(a)));
            }
            cols.push(Column::new(
                weak_col(w),
                DataType::Array(Box::new(DataType::Struct(fields))),
            ));
        }
        for r in folded_rels {
            let rel = self.schema.require_relationship(r)?;
            let many = rel.many_end().ok_or_else(|| {
                MappingError::InvalidCover(format!("folded relationship '{r}' is not many-to-one"))
            })?;
            let one = rel.one_end().expect("checked");
            // Total participation keeps the FK NOT NULL — unless the fold
            // was hoisted into a merged single-table hierarchy, where rows
            // of other subclasses legitimately hold NULL.
            let nullable = many.participation == Participation::Partial
                || merged.contains(&many.entity);
            for (k, t) in self.key_columns(&one.entity)? {
                let name = fk_col(r, &k);
                cols.push(if nullable {
                    Column::new(name, t)
                } else {
                    Column::not_null(name, t)
                });
            }
            for a in &rel.attributes {
                cols.push(Column::new(rel_attr_col(r, &a.name), attr_datatype(a)));
            }
        }
        Ok((cols, pk))
    }

    /// Delta-layout schema of one entity, used as the member schema of
    /// co-located structures.
    fn entity_member_schema(&self, entity: &str, name: &str) -> MappingResult<TableSchema> {
        let keys = self.key_columns(entity)?;
        let key_names: Vec<&str> = keys.iter().map(|(n, _)| n.as_str()).collect();
        let mut cols: Vec<Column> =
            keys.iter().map(|(n, t)| Column::not_null(n.clone(), t.clone())).collect();
        let pk: Vec<usize> = (0..cols.len()).collect();
        let es = self.schema.require_entity(entity)?;
        for a in &es.attributes {
            if key_names.contains(&a.name.as_str()) || a.multi_valued {
                continue;
            }
            let dtype = attr_datatype(a);
            cols.push(if a.optional {
                Column::new(a.name.clone(), dtype)
            } else {
                Column::not_null(a.name.clone(), dtype)
            });
        }
        Ok(TableSchema::new(name, cols, pk))
    }
}

/// Storage type of an attribute including multi-valued wrapping.
pub fn attr_datatype(a: &Attribute) -> DataType {
    let base = base_datatype(a);
    if a.multi_valued {
        DataType::Array(Box::new(base))
    } else {
        base
    }
}

/// Storage type of an attribute ignoring the outer multi-valued wrapper.
pub fn base_datatype(a: &Attribute) -> DataType {
    match &a.ty {
        AttrType::Scalar(s) => scalar_datatype(*s),
        AttrType::Composite(fields) => DataType::Struct(
            fields.iter().map(|f| (f.name.clone(), attr_datatype(f))).collect(),
        ),
    }
}

/// Storage type of a model scalar.
pub fn scalar_datatype(s: ScalarType) -> DataType {
    match s {
        ScalarType::Int => DataType::Int,
        ScalarType::Float => DataType::Float,
        ScalarType::Text => DataType::Text,
        ScalarType::Bool => DataType::Bool,
    }
}

/// Full-key columns (names + storage types) of an entity.
pub fn key_columns_of(schema: &ErSchema, entity: &str) -> MappingResult<Vec<(String, DataType)>> {
    let root = schema.hierarchy_root(entity)?;
    let mut out = Vec::new();
    if let Some(w) = &root.weak {
        out.extend(key_columns_of(schema, &w.owner)?);
    }
    for k in &root.key {
        let a = root.attribute(k).ok_or_else(|| {
            MappingError::Model(erbium_model::ModelError::UnknownAttribute {
                owner: root.name.clone(),
                attribute: k.clone(),
            })
        })?;
        out.push((k.clone(), base_datatype(a)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{self, paper};
    use erbium_model::fixtures;

    #[test]
    fn m1_lowering_shapes() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m1(&s)).unwrap();

        let r = lw.table_schema("R").unwrap();
        // r_id key + r_a + r_b + folded r_s FK (no mv columns).
        assert_eq!(r.primary_key, vec![0]);
        assert!(r.column_index("r_mv1").is_none());
        assert!(r.column_index(&fk_col("r_s", "s_id")).is_some());

        let r3 = lw.table_schema("R3").unwrap();
        assert_eq!(r3.columns.len(), 2, "r_id + r3_a delta only");

        let mv = lw.table_schema("R__r_mv1").unwrap();
        assert_eq!(mv.columns.len(), 2);
        assert!(mv.primary_key.is_empty());

        let s1 = lw.table_schema("S1").unwrap();
        assert_eq!(s1.column_index("s_id"), Some(0), "owner key embedded");
        assert_eq!(s1.primary_key, vec![0, 1]);

        let j = lw.table_schema("r2_s1").unwrap();
        assert!(j.column_index("from__r_id").is_some());
        assert!(j.column_index("to__s_id").is_some());
        assert!(j.column_index("to__s1_no").is_some());
    }

    #[test]
    fn m2_arrays_inline() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m2(&s)).unwrap();
        let r = lw.table_schema("R").unwrap();
        assert_eq!(
            r.columns[r.column_index("r_mv1").unwrap()].dtype,
            DataType::Int.array_of()
        );
        assert!(lw.table_schema("R__r_mv1").is_none());
        assert!(matches!(lw.mv_home("R", "r_mv1").unwrap(), MvHome::Inline { .. }));
    }

    #[test]
    fn m3_single_table_with_type() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m3(&s)).unwrap();
        let r = lw.table_schema("R").unwrap();
        assert!(r.column_index(TYPE_COL).is_some());
        assert!(r.column_index("r3_a").is_some());
        assert!(r.columns[r.column_index("r1_a").unwrap()].nullable);
        assert!(lw.table_schema("R3").is_none());
        assert!(matches!(lw.entity_home("R3").unwrap(), EntityHome::Merged { .. }));
    }

    #[test]
    fn m4_full_tables() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m4(&s)).unwrap();
        let r3 = lw.table_schema("R3").unwrap();
        // r_id, r_a, r_b (mv in side tables), r1_a, r1_b, r3_a
        assert!(r3.column_index("r_a").is_some());
        assert!(r3.column_index("r1_b").is_some());
        assert!(r3.column_index("r3_a").is_some());
        assert!(r3.column_index("r2_a").is_none());
    }

    #[test]
    fn m5_folded_weak_columns() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m5(&s).unwrap()).unwrap();
        let st = lw.table_schema("S").unwrap();
        let c = &st.columns[st.column_index(&weak_col("S1")).unwrap()];
        match &c.dtype {
            DataType::Array(inner) => match inner.as_ref() {
                DataType::Struct(fields) => {
                    assert_eq!(fields[0].0, "s1_no");
                }
                other => panic!("expected struct, got {other}"),
            },
            other => panic!("expected array, got {other}"),
        }
        assert!(lw.table_schema("S1").is_none());
        assert!(matches!(lw.entity_home("S1").unwrap(), EntityHome::FoldedWeak { .. }));
    }

    #[test]
    fn m6_factorized_members() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m6(&s, CoFormat::Factorized).unwrap()).unwrap();
        let left = lw.table_schema("r2_s1__co__l").unwrap();
        let right = lw.table_schema("r2_s1__co__r").unwrap();
        assert!(left.column_index("r_id").is_some());
        assert!(left.column_index("r2_a").is_some());
        assert!(right.column_index("s_id").is_some());
        assert!(right.column_index("s1_a").is_some());
        let link = lw.table_schema("r2_s1__co").unwrap();
        assert_eq!(link.columns.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(), LINK_COLS);
        let delta =
            |table: &str| EntityHome::Table { table: table.into(), layout: HierarchyLayout::Delta };
        assert_eq!(lw.entity_home("R2").unwrap(), &delta("r2_s1__co__l"));
        assert_eq!(lw.entity_home("S1").unwrap(), &delta("r2_s1__co__r"));
        assert!(matches!(lw.rel_home("r2_s1").unwrap(), RelHome::Linked { .. }));
    }

    #[test]
    fn m6_denormalized_prefixed_columns() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m6(&s, CoFormat::Denormalized).unwrap()).unwrap();
        let t = lw.table_schema("r2_s1__co").unwrap();
        assert!(t.column_index("l__r_id").is_some());
        assert!(t.column_index("r__s_id").is_some());
        assert!(t.primary_key.is_empty(), "outer-join rows: no PK");
    }

    #[test]
    fn install_creates_all_tables() {
        let s = fixtures::experiment();
        let lw = Lowering::build(&s, &paper::m1(&s)).unwrap();
        let mut cat = Catalog::new();
        lw.install(&mut cat).unwrap();
        assert_eq!(cat.table_names().len(), 13);
        assert!(cat.get_meta(META_MAPPING).is_some());
        let back: ErSchema = cat.get_meta_typed(META_SCHEMA).unwrap().unwrap();
        assert_eq!(back, s);
        lw.uninstall(&mut cat).unwrap();
        assert_eq!(cat.table_names().len(), 0);
    }

    #[test]
    fn university_normalized_lowering() {
        let s = fixtures::university();
        let lw = Lowering::build(&s, &presets::normalized(&s)).unwrap();
        let person = lw.table_schema("person").unwrap();
        // Composite address is a struct column in 1NF-with-composites.
        match &person.columns[person.column_index("address").unwrap()].dtype {
            DataType::Struct(fields) => assert_eq!(fields.len(), 2),
            other => panic!("expected struct, got {other}"),
        }
        // phone is multi-valued → side table.
        assert!(person.column_index("phone").is_none());
        assert!(lw.table_schema("person__phone").is_some());
        // student folds advisor.
        let student = lw.table_schema("student").unwrap();
        assert!(student.column_index(&fk_col("advisor", "id")).is_some());
        // weak section embeds course_id.
        let section = lw.table_schema("section").unwrap();
        assert_eq!(section.column_index("course_id"), Some(0));
    }

    #[test]
    fn folded_fk_nullable_tracks_participation() {
        let s = fixtures::university();
        let lw = Lowering::build(&s, &presets::normalized(&s)).unwrap();
        let student = lw.table_schema("student").unwrap();
        let advisor_fk = &student.columns[student.column_index(&fk_col("advisor", "id")).unwrap()];
        assert!(advisor_fk.nullable, "partial participation");
        let instructor = lw.table_schema("instructor").unwrap();
        let dept_fk =
            &instructor.columns[instructor.column_index(&fk_col("member_of", "dept_name")).unwrap()];
        assert!(!dept_fk.nullable, "total participation");
    }
}
