//! # erbium-storage
//!
//! The in-memory relational storage substrate underneath ErbiumDB.
//!
//! The CIDR'25 paper layers its prototype on PostgreSQL; this crate is the
//! from-scratch Rust substitute. It provides everything the E/R layer needs
//! from a relational backend:
//!
//! * a typed [`Value`] model including arrays and composite (struct) values,
//!   so that hierarchical physical representations (mapping M2/M5 in the
//!   paper) can be stored natively;
//! * slotted row [`Table`]s with primary-key and secondary hash/BTree
//!   [`index`]es;
//! * a [`Catalog`] of tables plus a persisted metadata area (the paper stores
//!   the chosen E/R mapping "in a table in the database as a JSON object");
//! * undo-log [`txn`] transactions so that a single logical E/R update that
//!   touches several physical tables commits or rolls back atomically — the
//!   paper calls this out as one of the two key OLTP challenges;
//! * per-table [`stats`] used by the query optimizer and the mapping advisor.

pub mod buffer_pool;
pub mod catalog;
pub mod column;
mod cow;
pub mod error;
pub mod group_commit;
pub mod index;
pub mod pages;
pub mod row;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod txn;
pub mod wal;

/// Runtime values and data types.
///
/// The definitions moved to `erbium-model` (the wire protocol and client
/// crate need them without pulling in storage); this re-export keeps every
/// `erbium_storage::{Value, DataType}` path working unchanged.
pub mod value {
    pub use erbium_model::value::{DataType, Value};
}

pub use buffer_pool::{BufferPool, BufferPoolStats, PAGE_SIZE};
pub use catalog::Catalog;
pub use column::{Bitmap, ColumnSlice, Columns, StringDict};
pub use error::{StorageError, StorageResult};
pub use group_commit::GroupCommitter;
pub use index::{BTreeIndex, HashIndex, IndexKind};
pub use row::{Row, RowId};
pub use schema::{Column, TableSchema};
pub use snapshot::{
    write_checkpoint, CheckpointKind, Recovered, MAX_DELTA_CHAIN, SNAPSHOT_FILE, WAL_FILE,
};
pub use stats::{CatalogStats, ColumnStats, TableStats};
pub use table::Table;
pub use txn::{Transaction, UndoEntry};
pub use value::{DataType, Value};
pub use wal::{SyncPolicy, Wal, WalRecord};
