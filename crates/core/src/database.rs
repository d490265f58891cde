//! The `Database` facade.

use crate::governance::{AccessPolicy, ErasureReport};
use erbium_advisor::{Advisor, Recommendation, Workload};
use erbium_engine::{ExecContext, Plan, PlanCache, PlanCacheStats};
use erbium_evolve::{EvolutionOp, MigrationReport, Migrator, VersionLog};
use erbium_mapping::{
    lower::{META_MAPPING, META_SCHEMA},
    presets, BulkEntity, EntityData, EntityStore, Lowering, Mapping, QueryRewriter,
};
use erbium_model::{ErGraph, ErSchema};
use erbium_query::{SelectStmt, Statement};
use erbium_storage::{
    snapshot, Catalog, CheckpointKind, Row, SyncPolicy, Transaction, Value, Wal, WAL_FILE,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Top-level error type of ErbiumDB — the unified, wire-encodable
/// [`erbium_model::DbError`] with stable numeric codes. Every layer error
/// (`StorageError`, `EngineError`, `ParseError`, `MappingError`,
/// `ModelError`) converts into it via `From`, so the embedded API and the
/// ERSP protocol report identical codes.
pub use erbium_model::{DbError, DbResult};

/// Result of a query: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Per-operator runtime metrics (`EXPLAIN ANALYZE`-style). Populated
    /// only by [`Database::query_with`]; plain [`Database::query`] leaves
    /// it `None` so the common path pays nothing for instrumentation
    /// beyond the executor's atomic counters.
    pub metrics: Option<erbium_engine::ExecMetrics>,
}

impl QueryResult {
    /// Render as an aligned text table (for examples and the REPL-style
    /// binaries).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if s.len() > widths[i] {
                            widths[i] = s.len();
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        out.push('\n');
        for w in &widths {
            out.push_str(&"-".repeat(*w));
            out.push_str("  ");
        }
        out.push('\n');
        for row in rendered {
            for (i, v) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", v, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// How a durable database syncs and checkpoints. See
/// [`Database::open_with`].
#[derive(Debug, Clone, Default)]
pub struct DurabilityOptions {
    /// WAL fsync policy (see [`SyncPolicy`]); defaults to `EveryN(32)`.
    pub sync: SyncPolicy,
    /// Leader dally window for WAL group commit, used only by
    /// [`crate::SharedDatabase`] under `SyncPolicy::Always`: the first
    /// committer to reach the fsync waits this long so concurrent commits
    /// can join its batch. `Duration::ZERO` (the default) adds no
    /// artificial latency — commits that overlap a running `fdatasync`
    /// still share the next one.
    pub group_commit_window: Duration,
    /// Frame budget of the row-page buffer pool: the number of 64 KiB row
    /// pages kept resident before cold pages spill to `pages.erb` in the
    /// database directory. `None` (the default) is unbounded — every page
    /// stays resident, exactly the pre-pool behavior. Query results are
    /// identical either way; only memory residency changes.
    pub buffer_pool_frames: Option<usize>,
}

/// Observability configuration, applied with
/// [`Database::configure_observability`]. Mirrors the
/// [`DurabilityOptions`] style: a plain struct of knobs with sensible
/// zero-cost defaults (no slow-query capture, tracing off).
#[derive(Debug, Clone, Default)]
pub struct ObservabilityOptions {
    /// Queries running at least this long are recorded in the slow-query
    /// log with their SQL, plan digest, metrics tree and q-error.
    /// `None` disables capture. `Some(Duration::ZERO)` records every query
    /// (useful for offline workload analysis feeding the advisor).
    pub slow_query_threshold: Option<Duration>,
    /// Enable structured tracing spans (process-wide; see
    /// [`erbium_obs::trace`]). Off by default — a disabled span costs one
    /// relaxed atomic load.
    pub tracing: bool,
    /// Stream finished spans to this JSONL file (one object per line) in
    /// addition to the in-memory ring buffer. Requires `tracing: true` to
    /// produce anything.
    pub trace_file: Option<PathBuf>,
}

/// One slow-query log entry (see [`Database::slow_queries`]).
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// Tracing query id — correlates with span records in the trace sink.
    pub query_id: u64,
    /// The ERQL text as submitted.
    pub sql: String,
    /// Stable digest of the optimized physical plan's rendering: queries
    /// with the same digest executed the same plan shape, so a workload
    /// analysis can group records by plan rather than by SQL string.
    pub plan_digest: u64,
    /// End-to-end latency (parse → plan → optimize → execute → drain).
    pub elapsed: Duration,
    /// Per-operator metrics tree, annotated with optimizer estimates when
    /// statistics were available.
    pub metrics: erbium_engine::ExecMetrics,
    /// Worst estimate-vs-actual q-error across the plan (`None` when no
    /// node carried an estimate — e.g. stats were never gathered).
    pub max_q_error: Option<f64>,
}

/// Interior-mutable slow-query state. `run_query` takes `&self`, so the
/// ring lives behind a mutex; the lock is touched once per query (a load
/// of the threshold) and only contended when records are actually pushed.
/// Shared (`Arc`) so snapshots record offenders into the same ring as the
/// database they were pinned from.
pub(crate) struct SlowLog {
    pub(crate) threshold: Option<Duration>,
    pub(crate) ring: VecDeque<SlowQueryRecord>,
}

/// Retained slow-query records (oldest evicted first).
const SLOW_LOG_CAP: usize = 128;

/// Durable-state handles attached to an opened database.
pub(crate) struct Durability {
    pub(crate) dir: PathBuf,
    pub(crate) wal: Wal,
}

// ---- process-wide query metrics --------------------------------------------

fn m_queries() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .counter("erbium_queries_total", "Queries executed (EXPLAIN excluded)")
    })
}

fn m_query_seconds() -> &'static erbium_obs::Histogram {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Histogram>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .histogram("erbium_query_seconds", "End-to-end query latency")
    })
}

fn m_rows_scanned() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_rows_scanned_total",
            "Rows produced by leaf scan operators across all queries",
        )
    })
}

fn m_rows_emitted() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .counter("erbium_rows_emitted_total", "Result rows returned to callers")
    })
}

fn m_ingest_rows() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .counter("erbium_ingest_rows_total", "Entity instances loaded through the bulk path")
    })
}

fn m_slow_queries() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global()
            .counter("erbium_slow_queries_total", "Queries recorded in the slow-query log")
    })
}

/// An ErbiumDB database instance.
pub struct Database {
    /// `Arc` so publishing a read view shares it; DDL copies it on write.
    pub(crate) schema: Arc<ErSchema>,
    pub(crate) catalog: Catalog,
    /// `Arc` so a pinned [`crate::Snapshot`] keeps the lowering it was
    /// planned against alive while the writer remaps underneath it.
    pub(crate) lowering: Option<Arc<Lowering>>,
    pub(crate) policy: Option<AccessPolicy>,
    /// `Some` for databases opened from a directory ([`Database::open`]);
    /// `None` for in-memory instances — the CRUD paths then skip WAL
    /// logging entirely, so the in-memory fast path pays nothing.
    pub(crate) durability: Option<Durability>,
    /// Slow-query capture state (threshold + bounded ring of records).
    pub(crate) slow_log: Arc<Mutex<SlowLog>>,
    /// Cache of optimized plans, keyed on (generation, normalized SQL);
    /// shared with snapshots, invalidated on anything that changes plan
    /// shape (install/evolve/remap/rollback/ANALYZE/policy change).
    pub(crate) plan_cache: Arc<PlanCache>,
    /// Group-commit dally window carried from [`DurabilityOptions`] to
    /// [`Database::into_shared`].
    pub(crate) group_commit_window: Duration,
    /// Session-scoped execution overrides, set through
    /// [`erbium_model::Connection::set_option`]. Defaults apply until the
    /// session issues a `SET`; never shared with other sessions.
    pub(crate) session_ctx: ExecContext,
}

/// Convert a parsed ERQL literal (from a `COPY ... VALUES` tuple) into a
/// storage value.
fn literal_value(lit: &erbium_query::Literal) -> Value {
    match lit {
        erbium_query::Literal::Null => Value::Null,
        erbium_query::Literal::Bool(b) => Value::Bool(*b),
        erbium_query::Literal::Int(i) => Value::Int(*i),
        erbium_query::Literal::Float(x) => Value::Float(*x),
        erbium_query::Literal::Str(s) => Value::str(s),
    }
}

fn new_slow_log() -> Arc<Mutex<SlowLog>> {
    Arc::new(Mutex::new(SlowLog { threshold: None, ring: VecDeque::new() }))
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database: define the schema with DDL, then [`install`] a
    /// mapping.
    ///
    /// [`install`]: Database::install
    pub fn new() -> Database {
        Database {
            schema: Arc::default(),
            catalog: Catalog::new(),
            lowering: None,
            policy: None,
            durability: None,
            slow_log: new_slow_log(),
            plan_cache: Arc::new(PlanCache::default()),
            group_commit_window: Duration::ZERO,
            session_ctx: ExecContext::default(),
        }
    }

    /// Create a database from a prebuilt schema.
    pub fn with_schema(schema: ErSchema) -> DbResult<Database> {
        schema.validate()?;
        Ok(Database {
            schema: Arc::new(schema),
            catalog: Catalog::new(),
            lowering: None,
            policy: None,
            durability: None,
            slow_log: new_slow_log(),
            plan_cache: Arc::new(PlanCache::default()),
            group_commit_window: Duration::ZERO,
            session_ctx: ExecContext::default(),
        })
    }

    /// Assemble a database around an already-installed, possibly populated
    /// catalog (bulk loaders like `erbium-datagen` build state at the
    /// mapping layer and wrap it afterwards).
    pub fn from_parts(catalog: Catalog, lowering: Lowering) -> Database {
        Database {
            schema: Arc::new(lowering.schema.clone()),
            catalog,
            lowering: Some(Arc::new(lowering)),
            policy: None,
            durability: None,
            slow_log: new_slow_log(),
            plan_cache: Arc::new(PlanCache::default()),
            group_commit_window: Duration::ZERO,
            session_ctx: ExecContext::default(),
        }
    }

    // ---- durability ------------------------------------------------------------

    /// Open (or create) a durable database rooted at directory `dir` with
    /// default [`DurabilityOptions`]. Recovery runs automatically: the
    /// latest checkpoint snapshot is loaded and the committed WAL suffix is
    /// replayed on top of it; an installed mapping is rebuilt from the
    /// persisted catalog metadata.
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Database> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit durability options.
    pub fn open_with(dir: impl AsRef<Path>, opts: DurabilityOptions) -> DbResult<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| {
            DbError::from(erbium_storage::StorageError::Io(format!(
                "create database directory {}: {e}",
                dir.display()
            )))
        })?;
        let pool = match opts.buffer_pool_frames {
            Some(frames) => erbium_storage::BufferPool::bounded(frames, dir.join("pages.erb")),
            None => erbium_storage::BufferPool::unbounded(),
        };
        let recovered = Catalog::recover_with(&dir, pool)?;
        let catalog = recovered.catalog;

        // Rebuild the installed mapping (if any) from the persisted catalog
        // metadata: the typed E/R schema plus the mapping JSON. `build` is
        // pure — the physical tables already exist in the recovered catalog.
        let lowering = match (
            catalog.get_meta_typed::<ErSchema>(META_SCHEMA)?,
            catalog.get_meta(META_MAPPING),
        ) {
            (Some(schema), Some(mapping_json)) => {
                let mapping = Mapping::from_json(mapping_json).map_err(|e| {
                    DbError::from(erbium_storage::StorageError::Metadata(format!(
                        "persisted mapping does not parse: {e}"
                    )))
                })?;
                Some(Lowering::build(&schema, &mapping)?)
            }
            _ => None,
        };
        let schema = Arc::new(lowering.as_ref().map(|lw| lw.schema.clone()).unwrap_or_default());

        let wal = Wal::open(dir.join(WAL_FILE), opts.sync, recovered.next_txn)?;
        Ok(Database {
            schema,
            catalog,
            lowering: lowering.map(Arc::new),
            policy: None,
            durability: Some(Durability { dir, wal }),
            slow_log: new_slow_log(),
            plan_cache: Arc::new(PlanCache::default()),
            group_commit_window: opts.group_commit_window,
            session_ctx: ExecContext::default(),
        })
    }

    /// Is this database backed by a WAL + checkpoint directory?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Checkpoint the catalog and truncate the WAL. Incremental: only the
    /// row pages written since the previous checkpoint are saved, as an
    /// `ERBSNAP3` page delta chained onto the base snapshot; a full snapshot is
    /// written instead (compacting the chain away) after structural
    /// changes, when most of the catalog is dirty, or when the chain grows
    /// past [`erbium_storage::MAX_DELTA_CHAIN`]. A crash at any byte
    /// leaves either the old chain plus the full log, or the new chain —
    /// never a hybrid. Returns what was written (`None` for in-memory
    /// databases, where this is a no-op).
    pub fn checkpoint(&mut self) -> DbResult<Option<CheckpointKind>> {
        let Some(d) = self.durability.as_mut() else { return Ok(None) };
        d.wal.sync()?;
        let kind = snapshot::write_checkpoint(&mut self.catalog, d.wal.next_txn_id(), &d.dir)?;
        d.wal.truncate()?;
        // Checkpointing walked every dirty table (faulting pages in for
        // encoding); claw residency back under the frame budget before
        // returning to the workload.
        self.catalog.reclaim_pages();
        Ok(Some(kind))
    }

    /// Live counters of the row-page buffer pool this database's tables
    /// are bound to (residency, budget, hit/miss/eviction totals).
    pub fn buffer_pool_stats(&self) -> erbium_storage::BufferPoolStats {
        self.catalog.pool().stats()
    }

    /// Heavyweight structural operations (install / evolve / remap /
    /// rollback) rewrite whole tables outside the WAL, so they are made
    /// durable by checkpointing instead of logging.
    fn checkpoint_after_structural_change(&mut self) -> DbResult<()> {
        self.checkpoint().map(|_| ())
    }

    // ---- DDL -------------------------------------------------------------------

    /// Execute a script of ERQL statements (`;`-separated). DDL statements
    /// mutate the schema; SELECT / EXPLAIN statements run through the
    /// plan-cached query path (results are discarded — use
    /// [`Database::query`] to get rows back). The script is split at lexed
    /// statement boundaries so each SELECT keeps its own source text,
    /// which is what the plan cache keys on: re-executing a script hits
    /// the cache instead of replanning every statement.
    pub fn execute(&mut self, script: &str) -> DbResult<()> {
        let pieces =
            erbium_query::split_statements(script).map_err(|e| DbError::Parse(e.to_string()))?;
        for sql in pieces {
            let stmt =
                erbium_query::parse_single(sql).map_err(|e| DbError::Parse(e.to_string()))?;
            match stmt {
                Statement::CreateEntity(ce) => {
                    self.require_not_installed()?;
                    Arc::make_mut(&mut self.schema).add_entity(ce.to_entity_set()?)?;
                    self.plan_cache.invalidate();
                }
                Statement::CreateRelationship(cr) => {
                    self.require_not_installed()?;
                    Arc::make_mut(&mut self.schema).add_relationship(cr.to_relationship()?)?;
                    self.plan_cache.invalidate();
                }
                Statement::DropEntity(name) => {
                    self.require_not_installed()?;
                    Arc::make_mut(&mut self.schema).remove_entity(&name)?;
                    self.plan_cache.invalidate();
                }
                Statement::DropRelationship(name) => {
                    self.require_not_installed()?;
                    Arc::make_mut(&mut self.schema).remove_relationship(&name)?;
                    self.plan_cache.invalidate();
                }
                Statement::InstallMapping => {
                    self.install_default()?;
                }
                Statement::Copy(c) => {
                    let batch: Vec<BulkEntity> = c
                        .rows
                        .iter()
                        .map(|tuple| BulkEntity {
                            data: c
                                .columns
                                .iter()
                                .zip(tuple)
                                .map(|(name, lit)| (name.clone(), literal_value(lit)))
                                .collect(),
                            links: Vec::new(),
                        })
                        .collect();
                    self.copy_from(&c.entity, &batch)?;
                }
                Statement::Select(_) | Statement::Explain(_) => {
                    self.query_ctx().run_query(sql, &[], &ExecContext::default(), false)?;
                }
            }
        }
        Ok(())
    }

    fn require_not_installed(&self) -> DbResult<()> {
        if self.lowering.is_some() {
            return Err(DbError::AlreadyInstalled);
        }
        Ok(())
    }

    /// The current E/R schema.
    pub fn schema(&self) -> &ErSchema {
        &self.schema
    }

    /// The E/R graph of the current schema.
    pub fn er_graph(&self) -> DbResult<ErGraph> {
        Ok(ErGraph::from_schema(&self.schema)?)
    }

    /// The installed mapping, if any.
    pub fn mapping(&self) -> Option<&Mapping> {
        self.lowering.as_ref().map(|lw| &lw.mapping)
    }

    /// Direct access to the physical catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The lowering (homes + physical specs), if installed.
    pub fn lowering(&self) -> DbResult<&Lowering> {
        self.lowering.as_deref().ok_or(DbError::NotInstalled)
    }

    // ---- mapping installation --------------------------------------------------

    /// Validate the schema and install a specific physical mapping.
    pub fn install(&mut self, mapping: Mapping) -> DbResult<()> {
        self.require_not_installed()?;
        self.schema.validate()?;
        let lw = Lowering::build(&self.schema, &mapping)?;
        lw.install(&mut self.catalog)?;
        let mut log = VersionLog::load(&self.catalog)?;
        log.record(&lw, format!("install mapping '{}'", mapping.name));
        log.save(&mut self.catalog)?;
        self.lowering = Some(Arc::new(lw));
        self.plan_cache.invalidate();
        self.checkpoint_after_structural_change()?;
        Ok(())
    }

    /// Install the fully normalized mapping (the sensible default).
    pub fn install_default(&mut self) -> DbResult<()> {
        let mapping = presets::normalized(&self.schema);
        self.install(mapping)
    }

    // ---- transactions ------------------------------------------------------------

    /// Run several logical CRUD operations as one atomic transaction.
    ///
    /// The closure receives a [`Tx`] handle exposing the full CRUD surface
    /// (insert / update / delete / link / unlink / erase). If the closure
    /// returns `Ok`, every change is kept and — for durable databases — the
    /// whole group is written to the WAL under a single Begin/Commit pair,
    /// so recovery replays it all-or-nothing. If the closure returns `Err`
    /// (or any single operation fails), every change made so far is rolled
    /// back, including secondary indexes and row-id link tables, and
    /// nothing reaches the log.
    ///
    /// ```no_run
    /// # use erbium_core::Database;
    /// # use erbium_storage::Value;
    /// # let mut db = Database::new();
    /// db.transaction(|tx| {
    ///     tx.insert("Person", &[("name", Value::str("ada"))])?;
    ///     tx.insert("Person", &[("name", Value::str("lin"))])?;
    ///     tx.link("Knows", &[Value::str("ada")], &[Value::str("lin")], &[])
    /// })?;
    /// # Ok::<(), erbium_core::DbError>(())
    /// ```
    pub fn transaction<T>(
        &mut self,
        f: impl FnOnce(&mut Tx<'_>) -> DbResult<T>,
    ) -> DbResult<T> {
        self.transaction_inner(f, false).map(|(out, _)| out)
    }

    /// [`Database::transaction`] plus the machinery shared mode needs:
    /// every transaction commits under a fresh catalog epoch (so slot
    /// epoch stamps order writes against pinned snapshots), and with
    /// `defer_sync` the WAL group is appended but *not* fsynced — the
    /// returned LSN is handed to a [`erbium_storage::GroupCommitter`]
    /// after the writer lock is released, so concurrent committers share
    /// fsyncs. An LSN of 0 means there is nothing to wait for (in-memory
    /// database, empty transaction, or `defer_sync == false`). A failed
    /// WAL append still rolls back here, under the writer's exclusive
    /// borrow.
    pub(crate) fn transaction_inner<T>(
        &mut self,
        f: impl FnOnce(&mut Tx<'_>) -> DbResult<T>,
        defer_sync: bool,
    ) -> DbResult<(T, u64)> {
        let lw = Arc::clone(self.lowering.as_ref().ok_or(DbError::NotInstalled)?);
        let durable = self.durability.is_some();
        self.catalog.advance_epoch();
        // Advance the pool's write clock: pages dirtied by this transaction
        // stamp the new clock value, which stays above the write-back
        // barrier until the transaction ends — eviction can never spill
        // uncommitted state (see `erbium_storage::buffer_pool`).
        self.catalog.pool().note_txn_start();
        let mut tx = Tx {
            store: EntityStore::new(&lw),
            cat: &mut self.catalog,
            txn: if durable { Transaction::logged() } else { Transaction::new() },
        };
        match f(&mut tx) {
            Ok(out) => {
                let Tx { cat, mut txn, .. } = tx;
                let mut lsn = 0;
                if let Some(d) = self.durability.as_mut() {
                    let flushed = if defer_sync {
                        txn.flush_to_wal_deferred(&mut d.wal).map(|(_, l)| l)
                    } else {
                        txn.flush_to_wal(&mut d.wal).map(|_| 0)
                    };
                    match flushed {
                        Ok(l) => lsn = l,
                        Err(e) => {
                            txn.rollback(cat).map_err(|re| {
                                DbError::from(erbium_storage::StorageError::Internal(format!(
                                    "rollback failed: {re} (original error: {e})"
                                )))
                            })?;
                            return Err(e.into());
                        }
                    }
                }
                txn.commit();
                // The group is in the WAL (or this is an in-memory
                // database): raise the write-back barrier so this
                // transaction's pages become evictable, then shed any
                // residency overshoot.
                cat.pool().note_txn_end();
                cat.reclaim_pages();
                Ok((out, lsn))
            }
            Err(e) => {
                let Tx { cat, txn, .. } = tx;
                txn.rollback(cat).map_err(|re| {
                    DbError::from(erbium_storage::StorageError::Internal(format!(
                        "rollback failed: {re} (original error: {e})"
                    )))
                })?;
                // The undo log restored committed state, so the touched
                // pages are clean to write back again.
                cat.pool().note_txn_end();
                cat.reclaim_pages();
                Err(e)
            }
        }
    }

    // ---- CRUD --------------------------------------------------------------------

    /// Insert an entity instance. `data` uses attribute names; multi-valued
    /// attributes take `Value::Array`, composite attributes `Value::Struct`.
    pub fn insert(&mut self, entity: &str, data: &[(&str, Value)]) -> DbResult<()> {
        self.transaction(|tx| tx.insert(entity, data))
    }

    /// Insert with many-to-one relationship targets applied atomically
    /// (required when participation is total).
    pub fn insert_linked(
        &mut self,
        entity: &str,
        data: &[(&str, Value)],
        links: &[(&str, Vec<Value>)],
    ) -> DbResult<()> {
        self.transaction(|tx| tx.insert_linked(entity, data, links))
    }

    /// Bulk-load a batch of one entity's instances — the fast path behind
    /// `COPY ... FROM`. The whole batch commits as **one** transaction and
    /// one WAL commit group carrying a compact record per touched table;
    /// column vectors are extended wholesale and secondary indexes updated
    /// in a single pass per table. Tables already under `ANALYZE` coverage
    /// get their statistics recomputed once at the end of the batch (and
    /// the plan cache invalidated exactly once); tables never analyzed
    /// stay stats-less, preserving the no-stats-until-`ANALYZE` contract.
    /// Returns the number of instances loaded.
    pub fn copy_from(&mut self, entity: &str, batch: &[BulkEntity]) -> DbResult<usize> {
        if batch.is_empty() {
            return Ok(0);
        }
        let touched = self.transaction(|tx| tx.copy_from(entity, batch))?;
        if self.catalog.reanalyze_tables(&touched) > 0 {
            self.plan_cache.invalidate();
        }
        m_ingest_rows().add(batch.len() as u64);
        Ok(batch.len())
    }

    /// Fetch one instance by key (all attributes at this entity's level).
    pub fn get(&self, entity: &str, key: &[Value]) -> DbResult<Option<EntityData>> {
        let lw = self.lowering.as_deref().ok_or(DbError::NotInstalled)?;
        Ok(EntityStore::new(lw).get(&self.catalog, entity, key)?)
    }

    /// Update attributes of one instance.
    pub fn update_entity(
        &mut self,
        entity: &str,
        key: &[Value],
        changes: &[(&str, Value)],
    ) -> DbResult<()> {
        self.transaction(|tx| tx.update_entity(entity, key, changes))
    }

    /// Delete one instance entirely (hierarchy rows, multi-valued side
    /// rows, owned weak entities, relationship instances).
    pub fn delete_entity(&mut self, entity: &str, key: &[Value]) -> DbResult<()> {
        self.transaction(|tx| tx.delete_entity(entity, key))
    }

    /// Create a relationship instance, optionally carrying relationship
    /// attributes (`&[]` for none).
    pub fn link(
        &mut self,
        rel: &str,
        from_key: &[Value],
        to_key: &[Value],
        attrs: &[(&str, Value)],
    ) -> DbResult<()> {
        self.transaction(|tx| tx.link(rel, from_key, to_key, attrs))
    }

    /// Remove a relationship instance.
    pub fn unlink(&mut self, rel: &str, from_key: &[Value], to_key: &[Value]) -> DbResult<()> {
        self.transaction(|tx| tx.unlink(rel, from_key, to_key))
    }

    // ---- statistics ---------------------------------------------------------------

    /// ANALYZE: gather fresh table statistics for every physical table in
    /// the catalog. The optimizer's cost-based passes
    /// (hash-join build-side selection, join reordering, selectivity-ranked
    /// filters) and the EXPLAIN estimate column activate only after this has
    /// run; subsequent CRUD writes mark the affected tables' statistics stale
    /// until the next `analyze()`. Returns the number of statistics entries
    /// gathered.
    pub fn analyze(&mut self) -> usize {
        let gathered = self.catalog.analyze();
        // Fresh statistics can change plan shape (join order, build side),
        // so cached plans are stale the useful way: replan once, re-cache.
        self.plan_cache.invalidate();
        gathered
    }

    // ---- queries ------------------------------------------------------------------

    /// The borrowed query context of this database's current state (see
    /// [`QueryCtx`]). The plan-cache generation is captured here, so a
    /// context assembled before an invalidation can't serve plans cached
    /// after it (and vice versa).
    pub(crate) fn query_ctx(&self) -> QueryCtx<'_> {
        QueryCtx {
            schema: &self.schema,
            catalog: &self.catalog,
            lowering: self.lowering.as_deref(),
            policy: self.policy.as_ref(),
            slow_log: &self.slow_log,
            plan_cache: &self.plan_cache,
            plan_generation: self.plan_cache.generation(),
        }
    }

    /// Run an ERQL SELECT against the logical schema. `EXPLAIN SELECT ...`
    /// returns the rendered physical plan as a one-column result instead.
    /// Metrics collection is off — the common path pays nothing for
    /// instrumentation beyond the executor's atomic counters; use
    /// [`Database::query_with`] for the instrumented variant.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.query_ctx().run_query(sql, &[], &ExecContext::default(), false)
    }

    /// Run a `?`-parameterized ERQL SELECT, binding `params` positionally
    /// (left to right). The template is planned once and cached; repeated
    /// executions with different values hit the plan cache and skip parse
    /// and plan entirely. Arity is strict: the number of values must match
    /// the number of `?` placeholders exactly.
    pub fn query_params(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.query_ctx().run_query(sql, params, &ExecContext::default(), false)
    }

    /// Run an ERQL SELECT under an explicit [`ExecContext`] and return the
    /// executed plan's per-operator metrics tree (rows in/out, batches,
    /// wall-clock time per operator) in [`QueryResult::metrics`] — the
    /// programmatic equivalent of `EXPLAIN ANALYZE`. When statistics have
    /// been gathered (see [`Database::analyze`]), each metrics node also
    /// carries the optimizer's row estimate, so its rendering shows
    /// estimate-vs-actual q-error per operator.
    pub fn query_with(&self, sql: &str, ctx: &ExecContext) -> DbResult<QueryResult> {
        self.query_ctx().run_query(sql, &[], ctx, true)
    }

    /// Compile an ERQL SELECT to an optimized physical plan (through the
    /// plan cache).
    pub fn plan(&self, sql: &str) -> DbResult<Plan> {
        self.query_ctx().plan(sql).map(|p| (*p).clone())
    }

    /// Per-database plan-cache counters (hits/misses/invalidations/entries).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    // ---- observability ----------------------------------------------------------

    /// Render every process-wide metric (counters, gauges, histograms across
    /// queries, WAL/checkpoint/recovery, the executor pool and the
    /// optimizer) in Prometheus text exposition format.
    ///
    /// The registry is process-global — it aggregates over every `Database`
    /// in the process, exactly like a `/metrics` endpoint would.
    pub fn metrics_text(&self) -> String {
        erbium_obs::Registry::global().render()
    }

    /// Apply observability configuration: the slow-query threshold is
    /// per-database; tracing enablement and the JSONL sink are process-wide
    /// (spans from all databases interleave in one stream, distinguished by
    /// query id).
    pub fn configure_observability(&self, opts: ObservabilityOptions) -> DbResult<()> {
        self.slow_log.lock().threshold = opts.slow_query_threshold;
        let tracer = erbium_obs::Tracer::global();
        tracer
            .set_jsonl_sink(opts.trace_file.as_deref())
            .map_err(|e| {
                DbError::from(erbium_storage::StorageError::Io(format!("trace sink: {e}")))
            })?;
        tracer.set_enabled(opts.tracing);
        Ok(())
    }

    /// Snapshot of the slow-query log, oldest first (bounded ring; see
    /// [`ObservabilityOptions::slow_query_threshold`]).
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.slow_log.lock().ring.iter().cloned().collect()
    }

    /// Render the optimized physical plan of a query — shows how the same
    /// ERQL compiles differently under different mappings. After
    /// [`Database::analyze`] every node is annotated with the optimizer's
    /// row estimate (`[est=N]`).
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        let plan = self.query_ctx().plan(sql)?;
        Ok(erbium_engine::explain_with_estimates(&plan, &self.catalog))
    }

    // ---- evolution -------------------------------------------------------------------

    /// Apply a logical schema-evolution operation, migrating the data and
    /// recording a new schema version.
    pub fn evolve(&mut self, op: EvolutionOp) -> DbResult<MigrationReport> {
        let lw = self.lowering.take().ok_or(DbError::NotInstalled)?;
        match Migrator::apply(&mut self.catalog, &lw, &op) {
            Ok((new_lw, report)) => {
                self.schema = Arc::new(new_lw.schema.clone());
                let mut log = VersionLog::load(&self.catalog)?;
                log.record(&new_lw, report.description.clone());
                log.save(&mut self.catalog)?;
                self.lowering = Some(Arc::new(new_lw));
                self.plan_cache.invalidate();
                self.checkpoint_after_structural_change()?;
                Ok(report)
            }
            Err(e) => {
                self.lowering = Some(lw);
                Err(e.into())
            }
        }
    }

    /// Migrate to a different physical mapping without any schema change.
    pub fn remap(&mut self, mapping: Mapping) -> DbResult<MigrationReport> {
        let lw = self.lowering.take().ok_or(DbError::NotInstalled)?;
        match Migrator::remap(&mut self.catalog, &lw, mapping) {
            Ok((new_lw, report)) => {
                let mut log = VersionLog::load(&self.catalog)?;
                log.record(&new_lw, report.description.clone());
                log.save(&mut self.catalog)?;
                self.lowering = Some(Arc::new(new_lw));
                self.plan_cache.invalidate();
                self.checkpoint_after_structural_change()?;
                Ok(report)
            }
            Err(e) => {
                self.lowering = Some(lw);
                Err(e.into())
            }
        }
    }

    /// The recorded schema versions.
    pub fn versions(&self) -> DbResult<VersionLog> {
        Ok(VersionLog::load(&self.catalog)?)
    }

    /// Roll back to an earlier schema version (appends a new version).
    pub fn rollback_to(&mut self, version: u64) -> DbResult<MigrationReport> {
        let lw = self.lowering.take().ok_or(DbError::NotInstalled)?;
        let mut log = VersionLog::load(&self.catalog)?;
        match log.rollback_to(&mut self.catalog, &lw, version) {
            Ok((new_lw, report)) => {
                self.schema = Arc::new(new_lw.schema.clone());
                self.lowering = Some(Arc::new(new_lw));
                self.plan_cache.invalidate();
                self.checkpoint_after_structural_change()?;
                Ok(report)
            }
            Err(e) => {
                self.lowering = Some(lw);
                Err(e.into())
            }
        }
    }

    /// Run the workload-aware advisor against the current data.
    pub fn advise(&self, workload: &Workload) -> DbResult<Recommendation> {
        let lw = self.lowering.as_deref().ok_or(DbError::NotInstalled)?;
        let advisor = Advisor::from_database(&self.catalog, lw)?;
        Ok(advisor.recommend(workload)?)
    }

    // ---- governance --------------------------------------------------------------------

    /// Entity-centric erasure: remove one instance and every trace of it
    /// (all fragments, side tables, owned weak entities, relationship
    /// instances), reporting what was touched.
    pub fn erase(&mut self, entity: &str, key: &[Value]) -> DbResult<ErasureReport> {
        self.transaction(|tx| tx.erase(entity, key))
    }

    /// Install (or clear) the tag-based access policy applied to queries.
    pub fn set_policy(&mut self, policy: Option<AccessPolicy>) {
        self.policy = policy;
        // Policy approval is baked into cached plans (a cache hit skips
        // the check), so a policy change must discard them all.
        self.plan_cache.invalidate();
    }

    /// Markdown description of the schema, generated from the attached
    /// `DESCRIPTION` texts and governance tags.
    pub fn describe_schema(&self) -> String {
        crate::governance::describe_schema(&self.schema)
    }
}

/// Everything the read path needs, borrowed. Both [`Database`] (borrowing
/// its own live state) and [`crate::Snapshot`] (borrowing a pinned
/// [`crate::shared::ReadView`]) assemble one of these, so a snapshot query
/// runs the *identical* code as a direct query — same plan cache, same
/// slow-query ring, same instrumentation — just against different borrows.
pub(crate) struct QueryCtx<'a> {
    pub(crate) schema: &'a ErSchema,
    pub(crate) catalog: &'a Catalog,
    pub(crate) lowering: Option<&'a Lowering>,
    pub(crate) policy: Option<&'a AccessPolicy>,
    pub(crate) slow_log: &'a Mutex<SlowLog>,
    pub(crate) plan_cache: &'a PlanCache,
    /// Plan-cache generation this context plans under. A [`Database`]
    /// context reads the current generation; a snapshot carries the
    /// generation captured when its view was published, so it keeps
    /// hitting (and repopulating) entries consistent with its pinned
    /// schema and statistics even after the writer invalidates.
    pub(crate) plan_generation: u64,
}

impl QueryCtx<'_> {
    /// Compile `sql` through the plan cache: probe, plan fresh on a miss.
    pub(crate) fn plan(&self, sql: &str) -> DbResult<Arc<Plan>> {
        if let Some(plan) = self.plan_cache.get(self.plan_generation, sql) {
            return Ok(plan);
        }
        self.plan_fresh(sql, self.parse(sql)?)
    }

    /// Parse `sql` under the `parse` span, once per plan-cache miss. An
    /// uninstalled database fails before the text is looked at.
    fn parse(&self, sql: &str) -> DbResult<Statement> {
        self.lowering.ok_or(DbError::NotInstalled)?;
        let _span = erbium_obs::span("parse");
        erbium_query::parse_single(sql).map_err(|e| DbError::Parse(e.to_string()))
    }

    /// Policy-check, rewrite, optimize, and cache the parsed `sql`, which
    /// must be a SELECT. The policy check runs only here — a cache hit
    /// skips it, which is sound because [`Database::set_policy`]
    /// invalidates the cache (the generation encodes the policy a plan was
    /// approved under).
    fn plan_fresh(&self, sql: &str, stmt: Statement) -> DbResult<Arc<Plan>> {
        let lw = self.lowering.ok_or(DbError::NotInstalled)?;
        let Statement::Select(sel) = stmt else {
            return Err(DbError::Parse("query() expects a SELECT".into()));
        };
        if let Some(policy) = self.policy {
            policy.check(self.schema, &sel).map_err(DbError::PolicyViolation)?;
        }
        // The `plan` span covers mapping-aware rewrite + optimization; the
        // optimizer emits its own nested `optimize` span.
        let _span = erbium_obs::span("plan");
        let rewriter = QueryRewriter::new(lw, self.catalog);
        let plan = Arc::new(rewriter.rewrite_optimized(&sel)?);
        self.plan_cache.insert(self.plan_generation, sql, Arc::clone(&plan));
        Ok(plan)
    }

    /// `EXPLAIN SELECT ...`: the optimized plan with estimates, one line
    /// per row. Never cached and never counted as a query.
    fn explain(&self, sel: &SelectStmt) -> DbResult<QueryResult> {
        let lw = self.lowering.ok_or(DbError::NotInstalled)?;
        if let Some(policy) = self.policy {
            policy.check(self.schema, sel).map_err(DbError::PolicyViolation)?;
        }
        let rewriter = QueryRewriter::new(lw, self.catalog);
        let plan = rewriter.rewrite_optimized(sel)?;
        let rows = erbium_engine::explain_with_estimates(&plan, self.catalog)
            .lines()
            .map(|l| vec![Value::str(l)])
            .collect();
        Ok(QueryResult { columns: vec!["plan".into()], rows, metrics: None })
    }

    /// Single entry point behind `query`/`query_params`/`query_with` (on
    /// both `Database` and `Snapshot`): handles `EXPLAIN SELECT ...`,
    /// plans through the cache, binds positional `?` parameters, executes,
    /// and optionally collects the per-operator metrics tree.
    ///
    /// The cache always holds the *template* plan (parameters still as
    /// `Expr::Param`), so N executions of one `?`-template cost one miss
    /// and N−1 hits; binding substitutes values on a per-execution copy.
    pub(crate) fn run_query(
        &self,
        sql: &str,
        params: &[Value],
        ctx: &ExecContext,
        collect_metrics: bool,
    ) -> DbResult<QueryResult> {
        // Probe the cache before anything else: a hit skips parsing
        // entirely. Only SELECT plans are ever inserted, so an
        // `EXPLAIN ...` text can't false-hit — it misses and is recognized
        // by the one parse below.
        let cached = self.plan_cache.get(self.plan_generation, sql);
        // Query lifecycle instrumentation: a fresh query id scopes every
        // span opened below (parse/plan/optimize on a cache miss, execute
        // here, plus any storage spans the query triggers on this thread).
        let qid = erbium_obs::Tracer::global().next_query_id();
        let _qscope = erbium_obs::QueryIdScope::enter(qid);
        let _span = erbium_obs::span("query").with_detail(|| sql.to_string());
        let t0 = std::time::Instant::now();

        let plan = match cached {
            Some(plan) => plan,
            None => match self.parse(sql)? {
                Statement::Explain(sel) => return self.explain(&sel),
                stmt => self.plan_fresh(sql, stmt)?,
            },
        };
        // Parameter binding happens here, after the cache, so the cached
        // entry stays parameter-shaped and is shared by every binding.
        // Arity is strict in both directions: executing a `?`-template
        // without values is as much an error as passing values to a
        // parameterless statement.
        let exec_plan: Arc<Plan> =
            if params.is_empty() && erbium_engine::param_count(&plan) == 0 {
                Arc::clone(&plan)
            } else {
                Arc::new(erbium_engine::bind_params(&plan, params).map_err(DbError::from)?)
            };
        let mut stream = erbium_engine::execute_streaming(&exec_plan, self.catalog, ctx)
            .map_err(DbError::from)?;
        let rows = {
            let _exec_span = erbium_obs::span("execute");
            stream.drain().map_err(DbError::from)?
        };
        let elapsed = t0.elapsed();

        // Process-wide counters ride the executor's always-on atomic
        // counters, so they cost the same whether or not the caller asked
        // for a metrics tree.
        let snapshot = stream.metrics();
        let scanned: u64 = snapshot.leaves().iter().map(|l| l.rows_out).sum();
        m_queries().inc();
        m_query_seconds().observe_duration(elapsed);
        m_rows_scanned().add(scanned);
        m_rows_emitted().add(rows.len() as u64);

        // Slow-query capture: one cheap threshold load per query; the
        // expensive work (annotation, digest) happens only for offenders.
        let threshold = self.slow_log.lock().threshold;
        if let Some(th) = threshold {
            if elapsed >= th {
                self.record_slow_query(qid, sql, elapsed, &plan, snapshot.clone());
            }
        }

        let metrics = if collect_metrics {
            let mut metrics = snapshot;
            erbium_engine::annotate_metrics(&mut metrics, &plan, self.catalog);
            Some(metrics)
        } else {
            None
        };
        Ok(QueryResult {
            columns: plan.fields.iter().map(|f| f.name.clone()).collect(),
            rows,
            metrics,
        })
    }

    /// Annotate, digest and append one slow-query record.
    fn record_slow_query(
        &self,
        query_id: u64,
        sql: &str,
        elapsed: Duration,
        plan: &Plan,
        mut metrics: erbium_engine::ExecMetrics,
    ) {
        use std::hash::{Hash, Hasher};
        erbium_engine::annotate_metrics(&mut metrics, plan, self.catalog);
        let rendered = erbium_engine::explain_with_estimates(plan, self.catalog);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        rendered.hash(&mut hasher);
        let plan_digest = hasher.finish();
        fn max_q(m: &erbium_engine::ExecMetrics) -> Option<f64> {
            let mine = m.q_error();
            m.children
                .iter()
                .filter_map(max_q)
                .chain(mine)
                .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
        }
        let rec = SlowQueryRecord {
            query_id,
            sql: sql.to_string(),
            plan_digest,
            elapsed,
            max_q_error: max_q(&metrics),
            metrics,
        };
        m_slow_queries().inc();
        let mut log = self.slow_log.lock();
        if log.ring.len() == SLOW_LOG_CAP {
            log.ring.pop_front();
        }
        log.ring.push_back(rec);
    }
}

/// An open transaction on a [`Database`], handed to the closure of
/// [`Database::transaction`]. Exposes the CRUD surface; every call records
/// undo information (and, for durable databases, a WAL record) so the whole
/// group commits or rolls back as a unit.
pub struct Tx<'a> {
    store: EntityStore<'a>,
    cat: &'a mut Catalog,
    txn: Transaction,
}

impl Tx<'_> {
    /// Insert an entity instance (see [`Database::insert`]).
    pub fn insert(&mut self, entity: &str, data: &[(&str, Value)]) -> DbResult<()> {
        self.insert_linked(entity, data, &[])
    }

    /// Insert with many-to-one relationship targets applied atomically
    /// (see [`Database::insert_linked`]).
    pub fn insert_linked(
        &mut self,
        entity: &str,
        data: &[(&str, Value)],
        links: &[(&str, Vec<Value>)],
    ) -> DbResult<()> {
        let map: EntityData = data.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        self.store.insert(self.cat, &mut self.txn, entity, &map, links)?;
        Ok(())
    }

    /// Bulk insert a batch of one entity's instances (the transactional
    /// core of [`Database::copy_from`]). Returns the physical tables that
    /// received batched appends (empty when the mapping forced the
    /// per-row fallback).
    pub fn copy_from(&mut self, entity: &str, batch: &[BulkEntity]) -> DbResult<Vec<String>> {
        Ok(self.store.bulk_insert(self.cat, &mut self.txn, entity, batch)?)
    }

    /// Fetch one instance by key. Reads inside a transaction see its own
    /// uncommitted writes.
    pub fn get(&self, entity: &str, key: &[Value]) -> DbResult<Option<EntityData>> {
        Ok(self.store.get(self.cat, entity, key)?)
    }

    /// Update attributes of one instance (see [`Database::update_entity`]).
    pub fn update_entity(
        &mut self,
        entity: &str,
        key: &[Value],
        changes: &[(&str, Value)],
    ) -> DbResult<()> {
        let map: EntityData =
            changes.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        self.store.update(self.cat, &mut self.txn, entity, key, &map)?;
        Ok(())
    }

    /// Delete one instance entirely (see [`Database::delete_entity`]).
    pub fn delete_entity(&mut self, entity: &str, key: &[Value]) -> DbResult<()> {
        self.store.delete(self.cat, &mut self.txn, entity, key)?;
        Ok(())
    }

    /// Create a relationship instance, optionally with attributes.
    pub fn link(
        &mut self,
        rel: &str,
        from_key: &[Value],
        to_key: &[Value],
        attrs: &[(&str, Value)],
    ) -> DbResult<()> {
        let map: EntityData =
            attrs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        self.store.link(self.cat, &mut self.txn, rel, from_key, to_key, &map)?;
        Ok(())
    }

    /// Remove a relationship instance.
    pub fn unlink(&mut self, rel: &str, from_key: &[Value], to_key: &[Value]) -> DbResult<()> {
        self.store.unlink(self.cat, &mut self.txn, rel, from_key, to_key)?;
        Ok(())
    }

    /// Entity-centric erasure (see [`Database::erase`]): delete the
    /// instance and every trace of it, reporting what was touched.
    pub fn erase(&mut self, entity: &str, key: &[Value]) -> DbResult<ErasureReport> {
        let rows_before = self.cat.total_rows();
        let ops_before = self.txn.len();
        self.store.delete(self.cat, &mut self.txn, entity, key)?;
        let rows_after = self.cat.total_rows();
        Ok(ErasureReport {
            entity: entity.to_string(),
            physical_operations: self.txn.len() - ops_before,
            rows_removed: rows_before.saturating_sub(rows_after),
        })
    }

    /// Number of physical operations recorded so far in this transaction.
    pub fn ops(&self) -> usize {
        self.txn.len()
    }
}
