//! # erbium-model
//!
//! The extended entity-relationship (E/R) schema model — the paper's core
//! abstraction ("we specifically advocate for the familiar (extended)
//! entity-relationship abstraction").
//!
//! This crate defines:
//!
//! * the schema vocabulary ([`EntitySet`], [`Relationship`], [`Attribute`])
//!   covering everything Figure 1 of the paper exercises: composite
//!   attributes, multi-valued attributes, weak entity sets with identifying
//!   relationships, ISA specialization hierarchies with total/partial and
//!   disjoint/overlapping annotations, relationship cardinality and
//!   participation constraints, and free-text descriptions (the paper wants
//!   descriptive text attached to schema elements "that can be automatically
//!   used, e.g., for creating API documentations");
//! * [`ErSchema`] — the validated collection of entity sets and
//!   relationships, with inheritance-aware lookups;
//! * [`graph::ErGraph`] — the E/R diagram viewed as a graph with one node
//!   per entity, relationship, and attribute. Physical mappings are defined
//!   as covers of this graph by connected subgraphs (paper Section 4), so
//!   the graph exposes exactly the operations the mapping layer needs:
//!   membership, adjacency, and connectivity of induced subgraphs.

pub mod api;
pub mod attr;
pub mod codec;
pub mod db_error;
pub mod error;
pub mod fixtures;
pub mod graph;
pub mod schema;
pub mod value;

pub use api::{Connection, ReadSession, Rows, TxOps};
pub use attr::{AttrType, Attribute, ScalarType};
pub use db_error::{DbError, DbResult};
pub use error::{ModelError, ModelResult};
pub use value::{DataType, Value};
pub use graph::{ErGraph, NodeId, NodeKind};
pub use schema::{
    Cardinality, EntitySet, ErSchema, Participation, RelEnd, Relationship, Specialization, WeakInfo,
};
