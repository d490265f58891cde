//! # ErbiumDB
//!
//! An entity-relationship database system: a Rust implementation of the
//! CIDR'25 paper *"Beyond Relations: A Case for Elevating to the
//! Entity-Relationship Abstraction"* (Amol Deshpande), with an embedded
//! relational substrate replacing the paper's PostgreSQL backend.
//!
//! The E/R model — entities, relationships, composite and multi-valued
//! attributes, weak entity sets, ISA hierarchies — is the *primary* data
//! model: you define schemas, run CRUD, and write queries against it, while
//! the system freely chooses (and changes) the physical relational layout
//! underneath.
//!
//! Start with [`core::Database`]; the layer crates are re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `erbium-core` | the `Database` facade, governance |
//! | [`model`] | `erbium-model` | E/R schema + E/R graph |
//! | [`query`] | `erbium-query` | ERQL parser (DDL + SELECT with `VIA`/`NEST`) |
//! | [`mapping`] | `erbium-mapping` | graph-cover mappings, CRUD + query rewriting |
//! | [`engine`] | `erbium-engine` | plans, optimizer, executor |
//! | [`storage`] | `erbium-storage` | tables, indexes, transactions, WAL, checkpoints |
//! | [`evolve`] | `erbium-evolve` | schema evolution, migration, versioning |
//! | [`advisor`] | `erbium-advisor` | workload-aware mapping advisor |
//! | [`datagen`] | `erbium-datagen` | the paper's synthetic instances |
//! | [`client`] | `erbium-client` | ERSP wire protocol + `RemoteClient` |
//! | [`server`] | `erbium-server` | TCP server: sessions, admission control |
//!
//! Embedded and networked use share one API: the [`Connection`] trait
//! (`query`, `query_params`, `prepare`/`execute_prepared`, `transaction`,
//! `snapshot`, `set_option`) is implemented by [`core::Database`],
//! [`core::SharedDatabase`], and [`client::RemoteClient`] alike.
//!
//! ```
//! use erbiumdb::core::Database;
//! use erbiumdb::storage::Value;
//!
//! let mut db = Database::new();
//! db.execute(
//!     "CREATE ENTITY city (name text KEY, population int);
//!      CREATE ENTITY capital EXTENDS city (since int NULLABLE);",
//! ).unwrap();
//! db.install_default().unwrap();
//! db.insert("capital", &[
//!     ("name", Value::str("Annapolis")),
//!     ("population", Value::Int(40_000)),
//!     ("since", Value::Int(1694)),
//! ]).unwrap();
//! let r = db.query("SELECT c.name FROM city c WHERE c.population < 100000").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! ```

pub use erbium_advisor as advisor;
pub use erbium_client as client;
pub use erbium_core as core;
pub use erbium_datagen as datagen;
pub use erbium_engine as engine;
pub use erbium_evolve as evolve;
pub use erbium_mapping as mapping;
pub use erbium_model as model;
pub use erbium_query as query;
pub use erbium_server as server;
pub use erbium_storage as storage;

pub use erbium_core::{AccessPolicy, Database, DbError, DbResult, QueryResult};
pub use erbium_model::api::{CacheStats, Connection, ReadSession, Rows, TxOps};
