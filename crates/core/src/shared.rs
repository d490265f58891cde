//! Concurrent access: snapshot reads racing a single writer.
//!
//! [`SharedDatabase`] wraps a [`Database`] for multi-client use with a
//! simple, robust concurrency model:
//!
//! * **One writer at a time** — every mutating operation takes an interior
//!   writer mutex. Write throughput is the single-writer throughput (WAL
//!   group commit gives back most of what serialization costs under
//!   `SyncPolicy::Always`, see below).
//! * **Readers never block and are never blocked** — a [`Snapshot`] is a
//!   pinned, immutable view: an `Arc` of a shallow [`Catalog`] clone whose
//!   tables are copy-on-write (`Arc<Table>` inside the catalog, detached
//!   by the writer via `Arc::make_mut` only when shared). Acquiring one is
//!   an `RwLock` read + `Arc` clone — no data is copied — and scans run
//!   against it without any coordination with the writer.
//!
//! Isolation is *structural*: the writer mutates its own detached copies,
//! so a pinned snapshot cannot observe partial transactions — not because
//! a visibility predicate filters rows, but because the snapshot's memory
//! is never written to. Each snapshot records the catalog commit epoch it
//! was pinned at ([`Snapshot::epoch`]), which names its commit point.
//!
//! **Publish protocol**: a mutator locks the writer, applies its change,
//! captures a fresh [`ReadView`] (still under the lock, tagged with a
//! monotonic sequence number), then publishes it into the `RwLock`d slot,
//! newest sequence wins. Transactions on a durable database under
//! `SyncPolicy::Always` append their WAL group under the lock but fsync
//! *after releasing it* through a [`GroupCommitter`], so concurrent
//! commits batch into shared fsyncs; the new view is published only after
//! the commit is durable (readers never see a committed-but-not-yet-synced
//! state). If that fsync fails the transaction is applied in memory but
//! reported as an error and not published — the same acknowledgment rule
//! group-committing systems use: no success until durable.
use crate::database::{Database, DbResult, QueryResult, SlowQueryRecord};
use crate::governance::AccessPolicy;
use crate::DbError;
use erbium_engine::{ExecContext, Plan, PlanCache, PlanCacheStats};
use erbium_mapping::{EntityData, EntityStore, Lowering};
use erbium_model::ErSchema;
use erbium_storage::{Catalog, GroupCommitter, SyncPolicy, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable, consistent view of the database at one commit point.
/// Cheap to capture (shallow catalog clone: per-table `Arc` bumps) and to
/// hand out (`Arc<ReadView>`).
pub(crate) struct ReadView {
    /// Publish order, assigned under the writer lock — strictly increasing
    /// in state order, so a delayed publish can never overwrite a newer
    /// view (the catalog epoch alone can't arbitrate: structural ops
    /// change state without advancing it).
    seq: u64,
    /// Catalog epoch this view pins; row slots created at a later epoch
    /// are structurally absent from this view's tables.
    epoch: u64,
    pub(crate) schema: Arc<ErSchema>,
    pub(crate) catalog: Catalog,
    pub(crate) lowering: Option<Arc<Lowering>>,
    pub(crate) policy: Option<AccessPolicy>,
    pub(crate) plan_generation: u64,
}

struct SharedInner {
    writer: Mutex<Database>,
    published: RwLock<Arc<ReadView>>,
    seq: AtomicU64,
    /// Present iff the wrapped database is durable with
    /// `SyncPolicy::Always` — the only configuration where commits fsync
    /// individually and therefore benefit from batching.
    group: Option<GroupCommitter>,
    slow_log: Arc<Mutex<crate::database::SlowLog>>,
    plan_cache: Arc<PlanCache>,
}

/// A handle to a database shared between concurrent clients. Clone freely —
/// all clones address the same underlying database. See the module docs
/// for the concurrency model.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<SharedInner>,
    /// Session-scoped execution overrides (see
    /// [`erbium_model::Connection::set_option`]). Deliberately *outside*
    /// the shared `Arc`: every clone of the handle is its own session, so
    /// a `SET threads = 1` in one session can never bleed into another —
    /// or into the process defaults.
    pub(crate) session_ctx: ExecContext,
}

impl Database {
    /// Convert this database into a [`SharedDatabase`] for concurrent use.
    /// The single-caller API remains available through the shared handle's
    /// `&self` methods.
    pub fn into_shared(self) -> SharedDatabase {
        let group = self.durability.as_ref().and_then(|d| {
            if d.wal.policy() == SyncPolicy::Always {
                let (file, appended) = d.wal.sync_handle();
                Some(GroupCommitter::new(file, appended, self.group_commit_window))
            } else {
                None
            }
        });
        let slow_log = Arc::clone(&self.slow_log);
        let plan_cache = Arc::clone(&self.plan_cache);
        let view = Arc::new(capture_view(&self, 0));
        SharedDatabase {
            inner: Arc::new(SharedInner {
                writer: Mutex::new(self),
                published: RwLock::new(view),
                seq: AtomicU64::new(0),
                group,
                slow_log,
                plan_cache,
            }),
            session_ctx: ExecContext::default(),
        }
    }

    /// Pin the current state as an immutable [`Snapshot`] without going
    /// through [`Database::into_shared`]. Subsequent writes through this
    /// handle detach the tables they touch (copy-on-write), so the
    /// snapshot keeps returning the pinned answers.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            view: Arc::new(capture_view(self, 0)),
            slow_log: Arc::clone(&self.slow_log),
            plan_cache: Arc::clone(&self.plan_cache),
        }
    }
}

fn capture_view(db: &Database, seq: u64) -> ReadView {
    ReadView {
        seq,
        epoch: db.catalog.epoch(),
        schema: Arc::clone(&db.schema),
        catalog: db.catalog.clone(),
        lowering: db.lowering.clone(),
        policy: db.policy.clone(),
        plan_generation: db.plan_cache.generation(),
    }
}

impl SharedDatabase {
    /// Capture a view of `db`'s current state. Must be called while
    /// holding the writer lock so sequence order matches state order.
    fn capture(&self, db: &Database) -> Arc<ReadView> {
        let seq = self.inner.seq.fetch_add(1, Ordering::AcqRel) + 1;
        Arc::new(capture_view(db, seq))
    }

    /// Swap in `view` if it is newer than what's published. The view that
    /// loses is dropped after the lock is released: it may hold the last
    /// reference to superseded table versions, and freeing them must not
    /// stall `snapshot()` callers.
    fn publish(&self, view: Arc<ReadView>) {
        let _stale = {
            let mut cur = self.inner.published.write();
            if view.seq > cur.seq {
                std::mem::replace(&mut *cur, view)
            } else {
                view
            }
        };
    }

    /// Run a mutating operation under the writer lock and publish the
    /// resulting state (even on `Err` — a failed operation may have
    /// partially succeeded at a coarser granularity, e.g. a migration that
    /// checkpointed; publishing the writer's actual state is always safe
    /// because mutators leave the database consistent).
    fn mutate<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut db = self.inner.writer.lock();
        let out = f(&mut db);
        let view = self.capture(&db);
        drop(db);
        self.publish(view);
        out
    }

    /// Run a read-only operation against the writer's live state (used for
    /// accessors that need the `Database` itself rather than a view).
    fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.writer.lock())
    }

    // ---- reads -----------------------------------------------------------------

    /// Pin the latest published state. The snapshot sees no writes
    /// committed after this call; acquiring it is lock-free in the fast
    /// path sense — an uncontended `RwLock` read plus an `Arc` clone, with
    /// no data copied and no interaction with the writer.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            view: Arc::clone(&self.inner.published.read()),
            slow_log: Arc::clone(&self.inner.slow_log),
            plan_cache: Arc::clone(&self.inner.plan_cache),
        }
    }

    /// One-shot query against the latest published snapshot (see
    /// [`Database::query`]).
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.snapshot().query(sql)
    }

    /// One-shot `?`-parameterized query against the latest published
    /// snapshot (see [`Database::query_params`]).
    pub fn query_params(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.snapshot().query_params(sql, params)
    }

    /// One-shot instrumented query against the latest published snapshot
    /// (see [`Database::query_with`]).
    pub fn query_with(&self, sql: &str, ctx: &ExecContext) -> DbResult<QueryResult> {
        self.snapshot().query_with(sql, ctx)
    }

    /// Fetch one instance by key from the latest published snapshot.
    pub fn get(&self, entity: &str, key: &[Value]) -> DbResult<Option<EntityData>> {
        self.snapshot().get(entity, key)
    }

    /// Render the optimized plan of a query (see [`Database::explain`]).
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        self.snapshot().explain(sql)
    }

    // ---- writes ----------------------------------------------------------------

    /// Run several logical CRUD operations as one atomic transaction (see
    /// [`Database::transaction`]). Holds the writer lock for the closure
    /// and the WAL append; under `SyncPolicy::Always` the fsync happens
    /// *after* the lock is released, through the group committer, so
    /// concurrent transactions share fsyncs. The new state is published to
    /// readers only once durable.
    pub fn transaction<T>(
        &self,
        f: impl FnOnce(&mut crate::database::Tx<'_>) -> DbResult<T>,
    ) -> DbResult<T> {
        let defer = self.inner.group.is_some();
        let mut db = self.inner.writer.lock();
        let (out, lsn) = db.transaction_inner(f, defer)?;
        let view = self.capture(&db);
        drop(db);
        if lsn > 0 {
            if let Some(gc) = &self.inner.group {
                gc.wait_durable(lsn).map_err(DbError::from)?;
            }
        }
        self.publish(view);
        Ok(out)
    }

    /// Insert an entity instance (see [`Database::insert`]).
    pub fn insert(&self, entity: &str, data: &[(&str, Value)]) -> DbResult<()> {
        self.transaction(|tx| tx.insert(entity, data))
    }

    /// Insert with relationship targets (see [`Database::insert_linked`]).
    pub fn insert_linked(
        &self,
        entity: &str,
        data: &[(&str, Value)],
        links: &[(&str, Vec<Value>)],
    ) -> DbResult<()> {
        self.transaction(|tx| tx.insert_linked(entity, data, links))
    }

    /// Update attributes of one instance (see [`Database::update_entity`]).
    pub fn update_entity(
        &self,
        entity: &str,
        key: &[Value],
        changes: &[(&str, Value)],
    ) -> DbResult<()> {
        self.transaction(|tx| tx.update_entity(entity, key, changes))
    }

    /// Delete one instance entirely (see [`Database::delete_entity`]).
    pub fn delete_entity(&self, entity: &str, key: &[Value]) -> DbResult<()> {
        self.transaction(|tx| tx.delete_entity(entity, key))
    }

    /// Create a relationship instance (see [`Database::link`]).
    pub fn link(
        &self,
        rel: &str,
        from_key: &[Value],
        to_key: &[Value],
        attrs: &[(&str, Value)],
    ) -> DbResult<()> {
        self.transaction(|tx| tx.link(rel, from_key, to_key, attrs))
    }

    /// Remove a relationship instance (see [`Database::unlink`]).
    pub fn unlink(&self, rel: &str, from_key: &[Value], to_key: &[Value]) -> DbResult<()> {
        self.transaction(|tx| tx.unlink(rel, from_key, to_key))
    }

    /// Entity-centric erasure (see [`Database::erase`]).
    pub fn erase(&self, entity: &str, key: &[Value]) -> DbResult<crate::ErasureReport> {
        self.transaction(|tx| tx.erase(entity, key))
    }

    /// Execute an ERQL script (see [`Database::execute`]).
    pub fn execute(&self, script: &str) -> DbResult<()> {
        self.mutate(|db| db.execute(script))
    }

    /// Install a physical mapping (see [`Database::install`]).
    pub fn install(&self, mapping: erbium_mapping::Mapping) -> DbResult<()> {
        self.mutate(|db| db.install(mapping))
    }

    /// Install the fully normalized mapping (see
    /// [`Database::install_default`]).
    pub fn install_default(&self) -> DbResult<()> {
        self.mutate(|db| db.install_default())
    }

    /// Apply a schema-evolution operation (see [`Database::evolve`]).
    pub fn evolve(&self, op: erbium_evolve::EvolutionOp) -> DbResult<erbium_evolve::MigrationReport> {
        self.mutate(|db| db.evolve(op))
    }

    /// Migrate to a different physical mapping (see [`Database::remap`]).
    pub fn remap(&self, mapping: erbium_mapping::Mapping) -> DbResult<erbium_evolve::MigrationReport> {
        self.mutate(|db| db.remap(mapping))
    }

    /// Roll back to an earlier schema version (see
    /// [`Database::rollback_to`]).
    pub fn rollback_to(&self, version: u64) -> DbResult<erbium_evolve::MigrationReport> {
        self.mutate(|db| db.rollback_to(version))
    }

    /// ANALYZE (see [`Database::analyze`]). Readers pinned before this
    /// keep planning against the old statistics.
    pub fn analyze(&self) -> usize {
        self.mutate(|db| db.analyze())
    }

    /// Install (or clear) the access policy (see [`Database::set_policy`]).
    pub fn set_policy(&self, policy: Option<AccessPolicy>) {
        self.mutate(|db| db.set_policy(policy))
    }

    /// Checkpoint and truncate the WAL (see [`Database::checkpoint`]).
    pub fn checkpoint(&self) -> DbResult<Option<erbium_storage::CheckpointKind>> {
        self.mutate(|db| db.checkpoint())
    }

    // ---- introspection ---------------------------------------------------------

    /// Apply observability configuration (see
    /// [`Database::configure_observability`]).
    pub fn configure_observability(&self, opts: crate::ObservabilityOptions) -> DbResult<()> {
        self.with_db(|db| db.configure_observability(opts))
    }

    /// Snapshot of the slow-query log (see [`Database::slow_queries`]).
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.inner.slow_log.lock().ring.iter().cloned().collect()
    }

    /// Prometheus-format rendering of all process-wide metrics.
    pub fn metrics_text(&self) -> String {
        erbium_obs::Registry::global().render()
    }

    /// Per-database plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache.stats()
    }

    /// Group-commit batching counters `(batches, commits)`, or `None` when
    /// group commit is inactive (in-memory database or a sync policy other
    /// than `Always`). `commits` transactions were made durable by
    /// `batches` fsyncs; `batches < commits` is batching at work.
    pub fn group_commit_stats(&self) -> Option<(u64, u64)> {
        self.inner.group.as_ref().map(|g| (g.batches(), g.commits()))
    }

    /// The catalog epoch of the latest published view.
    pub fn epoch(&self) -> u64 {
        self.inner.published.read().epoch
    }
}

/// A pinned, immutable view of the database at one commit point. Queries
/// on a snapshot run the identical code path as [`Database::query`] — same
/// plan cache, same slow-query log — against state that no concurrent
/// writer can touch. Cheap to clone; hold it as long as needed (the only
/// cost is keeping the pinned tables' memory alive).
#[derive(Clone)]
pub struct Snapshot {
    view: Arc<ReadView>,
    slow_log: Arc<Mutex<crate::database::SlowLog>>,
    plan_cache: Arc<PlanCache>,
}

impl Snapshot {
    pub(crate) fn ctx(&self) -> crate::database::QueryCtx<'_> {
        crate::database::QueryCtx {
            schema: &self.view.schema,
            catalog: &self.view.catalog,
            lowering: self.view.lowering.as_deref(),
            policy: self.view.policy.as_ref(),
            slow_log: &self.slow_log,
            plan_cache: &self.plan_cache,
            plan_generation: self.view.plan_generation,
        }
    }

    /// Run an ERQL SELECT against this pinned view (see
    /// [`Database::query`]).
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.ctx().run_query(sql, &[], &ExecContext::default(), false)
    }

    /// Run a `?`-parameterized ERQL SELECT against this pinned view (see
    /// [`Database::query_params`]).
    pub fn query_params(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.ctx().run_query(sql, params, &ExecContext::default(), false)
    }

    /// Instrumented query against this pinned view (see
    /// [`Database::query_with`]).
    pub fn query_with(&self, sql: &str, ctx: &ExecContext) -> DbResult<QueryResult> {
        self.ctx().run_query(sql, &[], ctx, true)
    }

    /// Fetch one instance by key from this pinned view.
    pub fn get(&self, entity: &str, key: &[Value]) -> DbResult<Option<EntityData>> {
        let lw = self.view.lowering.as_deref().ok_or(DbError::NotInstalled)?;
        Ok(EntityStore::new(lw).get(&self.view.catalog, entity, key)?)
    }

    /// Compile an ERQL SELECT to an optimized physical plan against this
    /// pinned view (see [`Database::plan`]).
    pub fn plan(&self, sql: &str) -> DbResult<Plan> {
        self.ctx().plan(sql).map(|p| (*p).clone())
    }

    /// Render the optimized plan of a query against this pinned view.
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        let plan = self.ctx().plan(sql)?;
        Ok(erbium_engine::explain_with_estimates(&plan, &self.view.catalog))
    }

    /// The catalog epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.view.epoch
    }

    /// The pinned catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.view.catalog
    }

    /// The pinned E/R schema.
    pub fn schema(&self) -> &ErSchema {
        &self.view.schema
    }
}
