//! [`Connection`] implementations for the embedded handles.
//!
//! The transport-independent client API lives in [`erbium_model::api`];
//! this module plugs [`Database`] (exclusive, single-caller) and
//! [`SharedDatabase`] (concurrent, clone-per-session) into it, so any
//! workload written against [`Connection`] runs unmodified embedded or —
//! through `erbium_client::RemoteClient` — over the wire.
//!
//! Session scoping: both impls keep an [`ExecContext`] *in the handle*
//! (for [`SharedDatabase`], outside its shared `Arc`), so
//! [`Connection::set_option`] configures exactly one session. Cloning a
//! `SharedDatabase` starts a fresh session that inherits the clone
//! source's options but diverges independently afterwards.

use crate::database::{Database, DbError, DbResult, QueryResult, Tx};
use crate::shared::{SharedDatabase, Snapshot};
use erbium_engine::ExecContext;
use erbium_model::api::{CacheStats, Connection, ReadSession, Rows, TxOps};
use erbium_model::Value;

impl From<QueryResult> for Rows {
    fn from(r: QueryResult) -> Rows {
        // `erbium_storage::Row` *is* `Vec<Value>`, so this drops only the
        // embedded-only metrics tree — no per-row conversion.
        Rows { columns: r.columns, rows: r.rows }
    }
}

/// A prepared `?`-template on an embedded connection. Holds the template
/// text; the compiled plan lives in the database's generation-keyed plan
/// cache, so executions skip parse + plan while the cache entry is valid
/// and transparently replan after DDL/ANALYZE invalidate it.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    pub(crate) sql: String,
}

impl PreparedStatement {
    /// The template text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// A pinned read session: a [`Snapshot`] paired with the session's
/// execution options at the time [`Connection::snapshot`] was called.
pub struct SnapshotReads {
    snap: Snapshot,
    ctx: ExecContext,
}

impl SnapshotReads {
    /// The underlying pinned [`Snapshot`].
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }
}

impl ReadSession for SnapshotReads {
    fn query(&mut self, sql: &str) -> DbResult<Rows> {
        self.snap.ctx().run_query(sql, &[], &self.ctx, false).map(Rows::from)
    }

    fn query_params(&mut self, sql: &str, params: &[Value]) -> DbResult<Rows> {
        self.snap.ctx().run_query(sql, params, &self.ctx, false).map(Rows::from)
    }
}

impl TxOps for Tx<'_> {
    fn insert(&mut self, entity: &str, data: &[(&str, Value)]) -> DbResult<()> {
        Tx::insert(self, entity, data)
    }

    fn insert_linked(
        &mut self,
        entity: &str,
        data: &[(&str, Value)],
        links: &[(&str, Vec<Value>)],
    ) -> DbResult<()> {
        Tx::insert_linked(self, entity, data, links)
    }

    fn update_entity(
        &mut self,
        entity: &str,
        key: &[Value],
        changes: &[(&str, Value)],
    ) -> DbResult<()> {
        Tx::update_entity(self, entity, key, changes)
    }

    fn delete_entity(&mut self, entity: &str, key: &[Value]) -> DbResult<()> {
        Tx::delete_entity(self, entity, key)
    }

    fn link(
        &mut self,
        rel: &str,
        from_key: &[Value],
        to_key: &[Value],
        attrs: &[(&str, Value)],
    ) -> DbResult<()> {
        Tx::link(self, rel, from_key, to_key, attrs)
    }

    fn unlink(&mut self, rel: &str, from_key: &[Value], to_key: &[Value]) -> DbResult<()> {
        Tx::unlink(self, rel, from_key, to_key)
    }
}

/// Apply one `SET`-style option to a session's [`ExecContext`]. Shared by
/// the embedded impls here and by the server's session handler, so the
/// option vocabulary is identical on every transport.
pub fn apply_session_option(ctx: &mut ExecContext, key: &str, value: &str) -> DbResult<()> {
    fn num(key: &str, value: &str) -> DbResult<usize> {
        match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(DbError::Parse(format!(
                "invalid value '{value}' for session option '{key}' (want a positive integer)"
            ))),
        }
    }
    match key {
        "threads" => ctx.threads = num(key, value)?.min(64),
        "batch_size" => ctx.batch_size = num(key, value)?,
        "morsel_size" => ctx.morsel_size = num(key, value)?,
        _ => {
            return Err(DbError::Parse(format!(
                "unknown session option '{key}' (supported: threads, batch_size, morsel_size)"
            )))
        }
    }
    Ok(())
}

fn stats_of(s: erbium_engine::PlanCacheStats) -> CacheStats {
    CacheStats { hits: s.hits, misses: s.misses }
}

impl Connection for Database {
    type Prepared = PreparedStatement;
    type Reads = SnapshotReads;

    fn execute(&mut self, script: &str) -> DbResult<()> {
        Database::execute(self, script)
    }

    fn query(&mut self, sql: &str) -> DbResult<Rows> {
        self.query_ctx().run_query(sql, &[], &self.session_ctx, false).map(Rows::from)
    }

    fn query_params(&mut self, sql: &str, params: &[Value]) -> DbResult<Rows> {
        self.query_ctx().run_query(sql, params, &self.session_ctx, false).map(Rows::from)
    }

    fn prepare(&mut self, sql: &str) -> DbResult<PreparedStatement> {
        // Compile now: surfaces parse/bind errors at prepare time and seeds
        // the plan cache, so the first execute is already a hit.
        self.query_ctx().plan(sql)?;
        Ok(PreparedStatement { sql: sql.to_string() })
    }

    fn execute_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> DbResult<Rows> {
        self.query_ctx()
            .run_query(&stmt.sql, params, &self.session_ctx, false)
            .map(Rows::from)
    }

    fn transaction(&mut self, f: impl FnOnce(&mut dyn TxOps) -> DbResult<()>) -> DbResult<()> {
        Database::transaction(self, |tx| f(tx))
    }

    fn snapshot(&mut self) -> DbResult<SnapshotReads> {
        Ok(SnapshotReads { snap: Database::snapshot(self), ctx: self.session_ctx.clone() })
    }

    fn set_option(&mut self, key: &str, value: &str) -> DbResult<()> {
        apply_session_option(&mut self.session_ctx, key, value)
    }

    fn cache_stats(&mut self) -> DbResult<CacheStats> {
        Ok(stats_of(self.plan_cache_stats()))
    }
}

impl Connection for SharedDatabase {
    type Prepared = PreparedStatement;
    type Reads = SnapshotReads;

    fn execute(&mut self, script: &str) -> DbResult<()> {
        SharedDatabase::execute(self, script)
    }

    fn query(&mut self, sql: &str) -> DbResult<Rows> {
        let snap = SharedDatabase::snapshot(self);
        snap.ctx().run_query(sql, &[], &self.session_ctx, false).map(Rows::from)
    }

    fn query_params(&mut self, sql: &str, params: &[Value]) -> DbResult<Rows> {
        let snap = SharedDatabase::snapshot(self);
        snap.ctx().run_query(sql, params, &self.session_ctx, false).map(Rows::from)
    }

    fn prepare(&mut self, sql: &str) -> DbResult<PreparedStatement> {
        SharedDatabase::snapshot(self).ctx().plan(sql)?;
        Ok(PreparedStatement { sql: sql.to_string() })
    }

    fn execute_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> DbResult<Rows> {
        let snap = SharedDatabase::snapshot(self);
        snap.ctx().run_query(&stmt.sql, params, &self.session_ctx, false).map(Rows::from)
    }

    fn transaction(&mut self, f: impl FnOnce(&mut dyn TxOps) -> DbResult<()>) -> DbResult<()> {
        SharedDatabase::transaction(self, |tx| f(tx))
    }

    fn snapshot(&mut self) -> DbResult<SnapshotReads> {
        Ok(SnapshotReads {
            snap: SharedDatabase::snapshot(self),
            ctx: self.session_ctx.clone(),
        })
    }

    fn set_option(&mut self, key: &str, value: &str) -> DbResult<()> {
        apply_session_option(&mut self.session_ctx, key, value)
    }

    fn cache_stats(&mut self) -> DbResult<CacheStats> {
        Ok(stats_of(self.plan_cache_stats()))
    }
}
