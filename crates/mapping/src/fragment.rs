//! Fragments: typed connected subgraphs of the E/R graph.
//!
//! Each fragment becomes one physical table or data structure. Rather than
//! raw node sets, fragments are structured values whose layout options are
//! explicit; [`Fragment::nodes`] projects a fragment back onto the E/R
//! graph so that [`crate::validate`] can check the paper's formal
//! conditions (connected subgraphs, full coverage).

use erbium_model::{ErSchema, ModelResult, NodeId};
use serde::{Deserialize, Serialize};

/// How an entity table lays out inherited attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HierarchyLayout {
    /// Only the entity's own ("delta") attributes plus the inherited key;
    /// ancestors hold the rest (the paper's first hierarchy option).
    Delta,
    /// All attributes from the hierarchy root down to this entity; the
    /// table stores only instances whose most-specific type is this entity
    /// (the paper's "disjoint relations" option, mapping M4).
    Full,
}

/// Storage format of a co-located (multi-relation) fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoFormat {
    /// Materialized outer join in one table — one row per relationship
    /// pair, plus dangling rows for unmatched entities. Duplicates entity
    /// data ("significant duplication ... and also increases the cost of
    /// inserts/updates/deletes", as the paper notes for its
    /// PostgreSQL-based M6).
    Denormalized,
    /// Factorized: each entity stored once, in a member table of its own,
    /// plus physical pointers — a link table of row-id pairs — the compact
    /// multi-relation format the paper says is "needed to make a
    /// representation like M6 viable".
    Factorized,
}

/// One fragment of a mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fragment {
    /// A table anchored at one entity set.
    Entity {
        /// Physical table name.
        table: String,
        /// Anchor entity set.
        entity: String,
        /// Layout of inherited attributes.
        layout: HierarchyLayout,
        /// Descendant entity sets merged into this table (single-table
        /// hierarchy, mapping M3). A `_type` discriminator column is added
        /// when non-empty.
        merged_subclasses: Vec<String>,
        /// Multi-valued attributes (of the anchor or merged subclasses)
        /// stored inline as array columns; all other multi-valued
        /// attributes must have their own [`Fragment::MultiValued`].
        inline_multivalued: Vec<String>,
        /// Weak entity sets folded in as array-of-struct columns
        /// (mapping M5).
        folded_weak: Vec<String>,
        /// Many-to-one relationships (anchor on the many side) folded in
        /// as foreign-key columns.
        folded_relationships: Vec<String>,
    },
    /// A side table for one multi-valued attribute: owner key + one value
    /// per row (the fully normalized layout).
    MultiValued { table: String, entity: String, attribute: String },
    /// A join table for one relationship: both keys + relationship
    /// attributes.
    Relationship { table: String, relationship: String },
    /// Two entity sets and the relationship between them co-located in a
    /// single structure (mapping M6).
    CoLocated { table: String, relationship: String, format: CoFormat },
}

impl Fragment {
    /// Physical structure name.
    pub fn table(&self) -> &str {
        match self {
            Fragment::Entity { table, .. }
            | Fragment::MultiValued { table, .. }
            | Fragment::Relationship { table, .. }
            | Fragment::CoLocated { table, .. } => table,
        }
    }

    /// The E/R-graph nodes this fragment covers. Used by validation to
    /// check the paper's cover conditions.
    pub fn nodes(&self, schema: &ErSchema) -> ModelResult<Vec<NodeId>> {
        let mut out = Vec::new();
        match self {
            Fragment::Entity {
                entity,
                layout,
                merged_subclasses,
                inline_multivalued,
                folded_weak,
                folded_relationships,
                ..
            } => {
                let covered_entities: Vec<String> = match layout {
                    // Full layout physically stores ancestor attributes, so
                    // it covers the whole ancestry chain.
                    HierarchyLayout::Full => schema
                        .ancestry(entity)?
                        .into_iter()
                        .map(|e| e.name.clone())
                        .collect(),
                    HierarchyLayout::Delta => vec![entity.clone()],
                };
                let mut all = covered_entities;
                all.extend(merged_subclasses.iter().cloned());
                for e in &all {
                    out.push(NodeId::entity(e));
                    let es = schema.require_entity(e)?;
                    for a in &es.attributes {
                        if a.multi_valued && !inline_multivalued.contains(&a.name) {
                            continue; // lives in its own MultiValued fragment
                        }
                        out.push(NodeId::attribute(e, &a.name));
                    }
                }
                for w in folded_weak {
                    out.push(NodeId::entity(w));
                    let es = schema.require_entity(w)?;
                    for a in &es.attributes {
                        out.push(NodeId::attribute(w, &a.name));
                    }
                    if let Some(info) = &es.weak {
                        out.push(NodeId::relationship(&info.identifying_relationship));
                    }
                }
                for r in folded_relationships {
                    out.push(NodeId::relationship(r));
                    let rel = schema.require_relationship(r)?;
                    for a in &rel.attributes {
                        out.push(NodeId::attribute(r, &a.name));
                    }
                }
                // A weak entity's own table embeds the owner key, covering
                // the identifying relationship implicitly.
                if let Some(es) = schema.entity(entity) {
                    if let Some(info) = &es.weak {
                        out.push(NodeId::relationship(&info.identifying_relationship));
                    }
                }
            }
            Fragment::MultiValued { entity, attribute, .. } => {
                out.push(NodeId::attribute(entity, attribute));
                // The owner key is physically replicated; the entity node
                // itself is covered by the entity's home fragment. Including
                // the entity node keeps the subgraph connected, mirroring
                // the paper's Figure 2 where the `Ph` side table contains
                // both the attribute node and (the key of) the entity.
                out.push(NodeId::entity(entity));
            }
            Fragment::Relationship { relationship, .. } => {
                out.push(NodeId::relationship(relationship));
                let rel = schema.require_relationship(relationship)?;
                for a in &rel.attributes {
                    out.push(NodeId::attribute(relationship, &a.name));
                }
            }
            Fragment::CoLocated { relationship, .. } => {
                let rel = schema.require_relationship(relationship)?;
                out.push(NodeId::relationship(relationship));
                for a in &rel.attributes {
                    out.push(NodeId::attribute(relationship, &a.name));
                }
                for end in [&rel.from.entity, &rel.to.entity] {
                    out.push(NodeId::entity(end));
                    let es = schema.require_entity(end)?;
                    for a in &es.attributes {
                        out.push(NodeId::attribute(end, &a.name));
                    }
                    // Weak co-located entities embed their owner key.
                    if let Some(info) = &es.weak {
                        out.push(NodeId::relationship(&info.identifying_relationship));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }
}

/// A complete physical mapping: a named cover of the E/R graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    pub name: String,
    pub fragments: Vec<Fragment>,
}

impl Mapping {
    pub fn new(name: impl Into<String>, fragments: Vec<Fragment>) -> Mapping {
        Mapping { name: name.into(), fragments }
    }

    /// Find the fragment that is the *home* of an entity set: the one whose
    /// table stores the entity's rows (anchor, merged, folded weak, or
    /// co-located).
    pub fn home_fragment(&self, entity: &str, schema: &ErSchema) -> Option<&Fragment> {
        self.fragments.iter().find(|f| match f {
            Fragment::Entity { entity: anchor, merged_subclasses, folded_weak, .. } => {
                anchor == entity
                    || merged_subclasses.iter().any(|m| m == entity)
                    || folded_weak.iter().any(|w| w == entity)
            }
            Fragment::CoLocated { relationship, .. } => schema
                .relationship(relationship)
                .map(|r| r.involves(entity))
                .unwrap_or(false),
            _ => false,
        })
    }

    /// All physical structure names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.fragments.iter().map(Fragment::table).collect();
        names.sort();
        names
    }

    /// Serialize as the JSON document stored in the catalog (the paper:
    /// "the mapping of the E/R graph to physical tables ... is maintained
    /// in a table in the database as a JSON object").
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("mapping serialization is infallible")
    }

    /// Deserialize from the catalog JSON document.
    pub fn from_json(v: &serde_json::Value) -> Result<Mapping, serde_json::Error> {
        serde_json::from_value(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erbium_model::fixtures;

    #[test]
    fn entity_fragment_nodes_delta() {
        let s = fixtures::experiment();
        let f = Fragment::Entity {
            table: "r3".into(),
            entity: "R3".into(),
            layout: HierarchyLayout::Delta,
            merged_subclasses: vec![],
            inline_multivalued: vec![],
            folded_weak: vec![],
            folded_relationships: vec![],
        };
        let nodes = f.nodes(&s).unwrap();
        assert!(nodes.contains(&NodeId::entity("R3")));
        assert!(nodes.contains(&NodeId::attribute("R3", "r3_a")));
        assert!(!nodes.contains(&NodeId::entity("R1")), "delta covers only itself");
    }

    #[test]
    fn entity_fragment_nodes_full_cover_ancestry() {
        let s = fixtures::experiment();
        let f = Fragment::Entity {
            table: "r3_full".into(),
            entity: "R3".into(),
            layout: HierarchyLayout::Full,
            merged_subclasses: vec![],
            inline_multivalued: vec!["r_mv1".into(), "r_mv2".into(), "r_mv3".into()],
            folded_weak: vec![],
            folded_relationships: vec![],
        };
        let nodes = f.nodes(&s).unwrap();
        assert!(nodes.contains(&NodeId::entity("R")));
        assert!(nodes.contains(&NodeId::entity("R1")));
        assert!(nodes.contains(&NodeId::attribute("R", "r_a")));
        assert!(nodes.contains(&NodeId::attribute("R", "r_mv1")));
    }

    #[test]
    fn multivalued_exclusion() {
        let s = fixtures::experiment();
        let f = Fragment::Entity {
            table: "r".into(),
            entity: "R".into(),
            layout: HierarchyLayout::Delta,
            merged_subclasses: vec![],
            inline_multivalued: vec!["r_mv1".into()],
            folded_weak: vec![],
            folded_relationships: vec![],
        };
        let nodes = f.nodes(&s).unwrap();
        assert!(nodes.contains(&NodeId::attribute("R", "r_mv1")), "inline mv covered");
        assert!(!nodes.contains(&NodeId::attribute("R", "r_mv2")), "side-table mv not covered");
    }

    #[test]
    fn colocated_covers_both_entities_and_relationship() {
        let s = fixtures::experiment();
        let f = Fragment::CoLocated {
            table: "r2_s1_co".into(),
            relationship: "r2_s1".into(),
            format: CoFormat::Factorized,
        };
        let nodes = f.nodes(&s).unwrap();
        assert!(nodes.contains(&NodeId::relationship("r2_s1")));
        assert!(nodes.contains(&NodeId::entity("R2")));
        assert!(nodes.contains(&NodeId::entity("S1")));
        assert!(nodes.contains(&NodeId::relationship("s_s1")), "weak owner key embedded");
    }

    #[test]
    fn mapping_json_roundtrip() {
        let m = Mapping::new(
            "test",
            vec![Fragment::MultiValued {
                table: "r_mv1_t".into(),
                entity: "R".into(),
                attribute: "r_mv1".into(),
            }],
        );
        let back = Mapping::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }
}
