//! # erbium-mapping
//!
//! Graph-cover physical mappings — the heart of the paper's proposal.
//!
//! Section 4 of the paper: "we first view the E/R diagram as a graph where
//! each entity, relationship, and attribute is a separate node... A mapping
//! to physical storage representation can be seen as a **cover of this
//! graph using connected subgraphs**. Each connected subgraph corresponds
//! to a physical table or data structure."
//!
//! A [`Mapping`] is a list of [`Fragment`]s (typed connected subgraphs).
//! The two requirements the paper imposes on any mapping are enforced here:
//!
//! 1. **Unique reversibility** — the stored entities and relationships must
//!    be recoverable (the [`validate`] module checks coverage/homes;
//!    `EntityStore::extract_entities` performs the recovery and property
//!    tests in this crate assert round-tripping);
//! 2. **CRUD well-definedness** — every insert/update/delete of an entity
//!    or relationship maps to physical-table updates ([`crud`] implements
//!    the translation, atomically via storage transactions).
//!
//! The supported fragment layouts realize all three physical representation
//! targets of Section 4: 1NF tables with composite types, hierarchical
//! structures with arrays (of structs), and multi-relational compressed
//! (factorized) representations — two member tables joined by a row-id
//! link table.
//!
//! [`rewrite`] translates ERQL queries over the logical E/R schema into
//! engine plans over whatever physical layout the installed mapping chose —
//! this is the logical data independence the paper is arguing for.

pub mod crud;
pub mod error;
pub mod fragment;
pub mod lower;
pub mod presets;
pub mod rewrite;
pub mod validate;

pub use crud::{BulkEntity, EntityData, EntityStore, RelInstance};
pub use error::{MappingError, MappingResult};
pub use fragment::{CoFormat, Fragment, HierarchyLayout, Mapping};
pub use lower::{EntityHome, Lowering, MvHome, RelHome, Side, TableSpec};
pub use rewrite::QueryRewriter;
