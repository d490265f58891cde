//! The transport-independent client API of ErbiumDB.
//!
//! The paper's Figure-3 architecture puts a client-facing API layer above
//! the E/R abstraction. This module is that layer's *contract*: one
//! [`Connection`] trait implemented by the embedded handles
//! (`erbium_core::Database`, `erbium_core::SharedDatabase`) and by the
//! networked `erbium_client::RemoteClient`, so workloads — benches, smoke
//! binaries, applications — are written once and run unmodified against
//! either transport.
//!
//! Living in `erbium-model` (not `erbium-core`) is deliberate: the wire
//! client must speak this API without linking storage or the engine, and
//! everything the trait mentions — [`Value`](crate::Value), [`Rows`],
//! [`DbError`](crate::DbError) — is already defined here.
//!
//! ## Contract
//!
//! * `&mut self` receivers throughout: a connection is a session, and
//!   sessions are single-threaded. Concurrency is expressed by opening more
//!   connections (embedded handles are cheap to clone; remote clients dial
//!   another socket), never by sharing one.
//! * [`Connection::transaction`] is atomic all-or-nothing on every
//!   transport. Remote transactions are *buffered*: operations are recorded
//!   client-side and shipped as one batch at closure end, so per-operation
//!   errors surface at commit time rather than at the recording call. The
//!   [`TxOps`] surface is therefore write-only — no mid-transaction reads.
//! * [`Connection::snapshot`] pins a point-in-time read session: repeated
//!   queries over it return stable answers regardless of concurrent
//!   commits.
//! * [`Connection::prepare`] + [`Connection::execute_prepared`] bind a
//!   `?`-parameterized template once; re-executions skip parse and plan
//!   (embedded: generation-keyed plan-cache hit; remote: server-side
//!   statement id).
//! * [`Connection::set_option`] configures *this session only* — it must
//!   never leak into other sessions or process defaults.

use crate::db_error::DbResult;
use crate::value::Value;

/// A query result: column names plus rows of values. The wire-level
/// mirror of `erbium_core::QueryResult`, minus the embedded-only metrics
/// tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

/// The write surface available inside a [`Connection::transaction`]
/// closure. Mirrors `erbium_core::Tx` method-for-method, restricted to
/// operations every transport can honor atomically (no reads — a buffered
/// remote transaction has nothing to read from until commit).
pub trait TxOps {
    /// Insert an entity instance. Multi-valued attributes take
    /// `Value::Array`, composite attributes `Value::Struct`.
    fn insert(&mut self, entity: &str, data: &[(&str, Value)]) -> DbResult<()>;
    /// Insert with many-to-one relationship targets applied atomically.
    fn insert_linked(
        &mut self,
        entity: &str,
        data: &[(&str, Value)],
        links: &[(&str, Vec<Value>)],
    ) -> DbResult<()>;
    /// Update attributes of one instance.
    fn update_entity(
        &mut self,
        entity: &str,
        key: &[Value],
        changes: &[(&str, Value)],
    ) -> DbResult<()>;
    /// Delete one instance entirely.
    fn delete_entity(&mut self, entity: &str, key: &[Value]) -> DbResult<()>;
    /// Create a relationship instance, optionally with attributes.
    fn link(
        &mut self,
        rel: &str,
        from_key: &[Value],
        to_key: &[Value],
        attrs: &[(&str, Value)],
    ) -> DbResult<()>;
    /// Remove a relationship instance.
    fn unlink(&mut self, rel: &str, from_key: &[Value], to_key: &[Value]) -> DbResult<()>;
}

/// A pinned point-in-time read session (see [`Connection::snapshot`]).
pub trait ReadSession {
    /// Run an ERQL SELECT against the pinned state.
    fn query(&mut self, sql: &str) -> DbResult<Rows>;
    /// Run a `?`-parameterized ERQL SELECT against the pinned state.
    fn query_params(&mut self, sql: &str, params: &[Value]) -> DbResult<Rows>;
}

/// Plan-cache effectiveness counters as reported through a connection
/// (`hits`/`misses` mirror `erbium_engine::PlanCacheStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// A session with an ErbiumDB database, embedded or remote.
pub trait Connection {
    /// Prepared-statement handle (embedded: the template text keyed into
    /// the plan cache; remote: a server-side statement id).
    type Prepared;
    /// Pinned snapshot handle.
    type Reads: ReadSession;

    /// Execute a script of ERQL statements (DDL and/or SELECTs whose
    /// results are discarded).
    fn execute(&mut self, script: &str) -> DbResult<()>;
    /// Run an ERQL SELECT and return its rows.
    fn query(&mut self, sql: &str) -> DbResult<Rows>;
    /// Run a `?`-parameterized ERQL SELECT, binding `params` positionally.
    fn query_params(&mut self, sql: &str, params: &[Value]) -> DbResult<Rows>;
    /// Bind a `?`-parameterized template for repeated execution.
    fn prepare(&mut self, sql: &str) -> DbResult<Self::Prepared>;
    /// Execute a prepared template with positional parameter values.
    fn execute_prepared(&mut self, stmt: &Self::Prepared, params: &[Value]) -> DbResult<Rows>;
    /// Run a group of writes as one atomic transaction.
    fn transaction(
        &mut self,
        f: impl FnOnce(&mut dyn TxOps) -> DbResult<()>,
    ) -> DbResult<()>;
    /// Pin the current state for stable repeated reads.
    fn snapshot(&mut self) -> DbResult<Self::Reads>;
    /// Set a session-scoped option (`threads`, `batch_size`,
    /// `morsel_size`). Never affects other sessions.
    fn set_option(&mut self, key: &str, value: &str) -> DbResult<()>;
    /// Plan-cache counters of the serving database (process-wide for an
    /// embedded handle; the server's cache for a remote one).
    fn cache_stats(&mut self) -> DbResult<CacheStats>;
}
