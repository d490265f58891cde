//! The catalog: named tables plus a persisted metadata area.
//!
//! The paper's prototype keeps the chosen E/R mapping "in a table in the
//! database as a JSON object, ... read into memory at initialization time".
//! [`Catalog::put_meta`]/[`Catalog::get_meta`] provide that same facility:
//! an ordinary key→JSON store living beside the data tables, used by the
//! upper layers to persist the E/R schema, the installed mapping, and the
//! schema version history.

use crate::buffer_pool::BufferPool;
use crate::cow::cow_mut;
use crate::error::{StorageError, StorageResult};
use crate::stats::{CatalogStats, TableStats};
use crate::table::Table;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// All physical state of one database instance.
///
/// Tables live behind `Arc`s so that cloning a `Catalog` is shallow — a
/// handful of pointer bumps, independent of data size. That clone *is* the
/// snapshot mechanism for concurrent reads: a published read view holds a
/// cloned `Catalog`, and every mutation goes through [`Catalog::table_mut`],
/// which copy-on-writes (`Arc::make_mut`) the table iff a snapshot still
/// shares it. Readers therefore keep a fully consistent, immutable view
/// (rows, columns, indexes, stats) with no locks held while the writer
/// keeps mutating. A table copy is itself shallow in its pages, index
/// shards and dictionary chunks, which the write then detaches one by one.
/// The metadata area and the statistics registry are shared the same way
/// and copied only by the rare writes to them (install, ANALYZE, evolve,
/// remap, and the first write that marks a table's statistics stale).
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The buffer pool every table installed in this catalog is bound to.
    /// Unbounded by default; [`Catalog::recover_with`] and the database
    /// layer thread a budgeted pool through instead.
    pool: Arc<BufferPool>,
    tables: FxHashMap<String, Arc<Table>>,
    meta: Arc<FxHashMap<String, serde_json::Value>>,
    /// ANALYZE-gathered statistics, keyed by table name.
    stats: Arc<CatalogStats>,
    /// Commit epoch: advanced once per transaction by the database layer
    /// ([`Catalog::advance_epoch`]); a pinned snapshot records the epoch it
    /// was taken at. Process-local: recovery restarts at 0.
    epoch: u64,
    /// Tables mutated since the last checkpoint (names inserted by
    /// [`Catalog::table_mut`], cleared by [`Catalog::mark_checkpointed`]).
    /// Incremental checkpoints serialize exactly this set into a delta.
    dirty_tables: FxHashSet<String>,
    /// True when the *shape* of the catalog changed since the last
    /// checkpoint (table created or dropped). A structural change
    /// forces the next checkpoint to be a full snapshot: deltas only carry
    /// changed content, not existence.
    structural_dirty: bool,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog::with_pool(BufferPool::unbounded())
    }
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// An empty catalog whose tables will be bound to `pool`.
    pub fn with_pool(pool: Arc<BufferPool>) -> Catalog {
        Catalog {
            pool,
            tables: FxHashMap::default(),
            meta: Arc::default(),
            stats: Arc::default(),
            epoch: 0,
            dirty_tables: FxHashSet::default(),
            structural_dirty: false,
        }
    }

    /// The buffer pool this catalog's tables are bound to.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// One cooperative eviction pass: while the pool is over budget, sweep
    /// the catalog's tables clock-hand style and evict cold pages (second
    /// chance first, then a forced pass). Tables still shared with a
    /// pinned snapshot are skipped — evicting their pages would not free
    /// memory, the snapshot's clone keeps them resident. Called from the
    /// `&mut` choke points (transaction end, checkpoint, recovery); spill
    /// I/O failures make eviction a no-op rather than an error, since
    /// dropping cold pages is an optimization, never a correctness step.
    pub fn reclaim_pages(&mut self) -> usize {
        if !self.pool.over_budget() {
            return 0;
        }
        let mut evicted = 0;
        for force in [false, true] {
            for t in self.tables.values_mut() {
                if !self.pool.over_budget() {
                    return evicted;
                }
                if let Some(t) = Arc::get_mut(t) {
                    evicted += t.reclaim_pages(force).unwrap_or(0);
                }
            }
        }
        evicted
    }

    /// The current commit epoch (see the `epoch` field).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the commit epoch and return the new value. The database
    /// layer calls this once at the start of every writing transaction.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Register a new table. Fails if the name is taken or a column type
    /// nests too deep to decode.
    pub fn create_table(&mut self, mut table: Table) -> StorageResult<()> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        check_nesting(table.schema())?;
        table.bind_pool(&self.pool);
        self.structural_dirty = true;
        self.tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Remove a table, returning it. Any gathered statistics are dropped.
    /// If a pinned snapshot still shares the table, it keeps its `Arc` and
    /// the returned value is a clone.
    pub fn drop_table(&mut self, name: &str) -> StorageResult<Table> {
        let t =
            self.tables.remove(name).ok_or_else(|| StorageError::TableNotFound(name.to_string()))?;
        self.remove_stats(name);
        self.dirty_tables.remove(name);
        self.structural_dirty = true;
        Ok(Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone()))
    }

    pub fn table(&self, name: &str) -> StorageResult<&Table> {
        self.tables
            .get(name)
            .map(|t| t.as_ref())
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Mutable access to a table. Handing out `&mut` is the choke point for
    /// every CRUD path, so the bookkeeping lives here: gathered statistics
    /// are conservatively marked stale (the caller may be about to write)
    /// and the table joins the dirty set. If a snapshot still shares the
    /// table, `Arc::make_mut` detaches a private copy first (copy-on-write)
    /// — the snapshot keeps the old version.
    pub fn table_mut(&mut self, name: &str) -> StorageResult<&mut Table> {
        if !self.tables.contains_key(name) {
            return Err(StorageError::TableNotFound(name.to_string()));
        }
        self.mark_stats_stale(name);
        if !self.dirty_tables.contains(name) {
            self.dirty_tables.insert(name.to_string());
        }
        let t = cow_mut(self.tables.get_mut(name).expect("checked above"));
        t.bump_content_epoch();
        Ok(t)
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables, sorted (stable for tests and display).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Tables mutated since the last checkpoint, sorted.
    pub fn dirty_table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.dirty_tables.iter().cloned().collect();
        names.sort();
        names
    }

    /// Has the catalog's shape changed since the last checkpoint?
    pub fn structural_dirty(&self) -> bool {
        self.structural_dirty
    }

    /// Reset all dirty tracking, down to the per-page marks of every
    /// table. Called by the checkpointer once the current state is safely
    /// on disk (full snapshot or delta), and by recovery once the catalog
    /// equals the checkpoint chain. Clearing page marks needs no write
    /// access, so a table still shared with a snapshot is not copied.
    pub(crate) fn mark_checkpointed(&mut self) {
        self.dirty_tables.clear();
        self.structural_dirty = false;
        for t in self.tables.values() {
            t.mark_pages_saved();
        }
    }

    /// Replace the whole metadata area (delta-checkpoint recovery: every
    /// delta carries the full metadata map — it is tiny and versioning it
    /// per-key is not worth the bookkeeping).
    pub(crate) fn replace_meta(&mut self, meta: FxHashMap<String, serde_json::Value>) {
        self.meta = Arc::new(meta);
    }

    /// Store a metadata document under a key (overwrites).
    pub fn put_meta(&mut self, key: impl Into<String>, value: serde_json::Value) {
        Arc::make_mut(&mut self.meta).insert(key.into(), value);
    }

    /// Fetch a metadata document.
    pub fn get_meta(&self, key: &str) -> Option<&serde_json::Value> {
        self.meta.get(key)
    }

    /// Remove a metadata document.
    pub fn delete_meta(&mut self, key: &str) -> Option<serde_json::Value> {
        if !self.meta.contains_key(key) {
            return None;
        }
        Arc::make_mut(&mut self.meta).remove(key)
    }

    /// Serialize a typed document into metadata.
    pub fn put_meta_typed<T: serde::Serialize>(&mut self, key: impl Into<String>, value: &T) -> StorageResult<()> {
        let v = serde_json::to_value(value).map_err(|e| StorageError::Metadata(e.to_string()))?;
        self.put_meta(key, v);
        Ok(())
    }

    /// Deserialize a typed document from metadata.
    pub fn get_meta_typed<T: serde::de::DeserializeOwned>(&self, key: &str) -> StorageResult<Option<T>> {
        match self.meta.get(key) {
            None => Ok(None),
            Some(v) => serde_json::from_value(v.clone())
                .map(Some)
                .map_err(|e| StorageError::Metadata(e.to_string())),
        }
    }

    /// Iterate all metadata entries (checkpoint support).
    pub fn meta_entries(&self) -> impl Iterator<Item = (&String, &serde_json::Value)> {
        self.meta.iter()
    }

    /// Iterate all tables (checkpoint support).
    pub(crate) fn tables_iter(&self) -> impl Iterator<Item = (&String, &Table)> {
        self.tables.iter().map(|(n, t)| (n, t.as_ref()))
    }

    /// Mutable sweep over all tables without stats bookkeeping
    /// (WAL-redo epilogue: free-list rebuild).
    pub(crate) fn tables_iter_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        self.tables.values_mut().map(cow_mut)
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// The gathered statistics registry (empty until [`Catalog::analyze`]
    /// or [`Catalog::put_stats`] runs).
    pub fn stats(&self) -> &CatalogStats {
        &self.stats
    }

    /// Gathered statistics for one table, stale or not.
    pub fn table_stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(name)
    }

    /// Install externally computed statistics under `name`. The advisor uses
    /// this to cost candidate mappings over *synthesized* statistics without
    /// populating any data.
    pub fn put_stats(&mut self, name: impl Into<String>, stats: TableStats) {
        Arc::make_mut(&mut self.stats).put(name, stats);
    }

    /// Flag one statistics entry stale, copying the registry only when that
    /// flips a fresh entry: every commit passes through here.
    fn mark_stats_stale(&mut self, name: &str) {
        if self.stats.get(name).is_some() && !self.stats.is_stale(name) {
            Arc::make_mut(&mut self.stats).mark_stale(name);
        }
    }

    /// Drop one statistics entry, copying the registry only if it has one.
    fn remove_stats(&mut self, name: &str) {
        if self.stats.get(name).is_some() {
            Arc::make_mut(&mut self.stats).remove(name);
        }
    }

    /// Replace the whole statistics registry. Recovery uses this to restore
    /// the registry persisted in a checkpoint snapshot *before* redoing the
    /// WAL suffix, so mutations in the suffix re-derive staleness through
    /// ordinary [`Catalog::table_mut`] path.
    pub(crate) fn set_stats(&mut self, stats: CatalogStats) {
        self.stats = Arc::new(stats);
    }

    /// Recompute statistics for just the named tables. The bulk-ingest
    /// path calls this once per batch to refresh what it touched instead of
    /// re-scanning the whole catalog. Tables without an existing stats entry
    /// are skipped: the no-stats-until-ANALYZE contract stays intact (a bulk
    /// load must not flip the optimizer into cost-based mode by itself).
    /// Returns the number of entries refreshed.
    pub fn reanalyze_tables(&mut self, names: &[String]) -> usize {
        let mut written = 0;
        for name in names {
            if self.stats.get(name).is_none() {
                continue;
            }
            if let Some(t) = self.tables.get(name) {
                let fresh = t.compute_stats();
                Arc::make_mut(&mut self.stats).put(name.clone(), fresh);
                written += 1;
            }
        }
        written
    }

    /// ANALYZE: gather fresh statistics for every table in one pass each.
    /// Returns the number of statistics entries written.
    pub fn analyze(&mut self) -> usize {
        let table_stats: Vec<(String, TableStats)> =
            self.tables.iter().map(|(n, t)| (n.clone(), t.compute_stats())).collect();
        let written = table_stats.len();
        let registry = Arc::make_mut(&mut self.stats);
        for (name, stats) in table_stats {
            registry.put(name, stats);
        }
        written
    }
}

/// A stored value nests no deeper than its column type, and the shared
/// codec refuses to decode past [`erbium_model::codec::MAX_DEPTH`]: reject
/// deeper types here, so the cap can never turn a committed row into a torn
/// WAL tail or an unreadable checkpoint.
fn check_nesting(schema: &crate::schema::TableSchema) -> StorageResult<()> {
    let max = erbium_model::codec::MAX_DEPTH;
    match schema.columns.iter().find(|c| c.dtype.depth() > max) {
        None => Ok(()),
        Some(col) => Err(StorageError::TypeMismatch {
            column: col.name.clone(),
            expected: format!("a type nested at most {max} deep"),
            actual: col.dtype.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn t(name: &str) -> Table {
        Table::new(TableSchema::new(name, vec![Column::not_null("id", DataType::Int)], vec![0]))
    }

    #[test]
    fn create_and_drop_tables() {
        let mut c = Catalog::new();
        c.create_table(t("a")).unwrap();
        assert!(c.has_table("a"));
        assert!(matches!(c.create_table(t("a")), Err(StorageError::TableExists(_))));
        c.drop_table("a").unwrap();
        assert!(!c.has_table("a"));
        assert!(c.drop_table("a").is_err());
    }

    #[test]
    fn types_nested_past_the_codec_cap_are_rejected_at_creation() {
        let nested = |levels: u32| {
            let dtype = (0..levels).fold(DataType::Int, |t, _| t.array_of());
            Table::new(TableSchema::new("deep", vec![Column::new("v", dtype)], vec![]))
        };
        let mut c = Catalog::new();
        let max = erbium_model::codec::MAX_DEPTH;
        assert!(matches!(
            c.create_table(nested(max + 1)),
            Err(StorageError::TypeMismatch { .. })
        ));
        c.create_table(nested(max)).unwrap();
    }

    #[test]
    fn meta_typed_roundtrip() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct M {
            version: u32,
            tables: Vec<String>,
        }
        let mut c = Catalog::new();
        let m = M { version: 3, tables: vec!["x".into()] };
        c.put_meta_typed("mapping", &m).unwrap();
        let got: Option<M> = c.get_meta_typed("mapping").unwrap();
        assert_eq!(got, Some(m));
        assert!(c.get_meta_typed::<M>("missing").unwrap().is_none());
    }

    #[test]
    fn analyze_gathers_and_writes_invalidate() {
        use crate::value::Value;
        let mut c = Catalog::new();
        let mut a = t("a");
        for i in 0..10 {
            a.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(a).unwrap();
        assert!(c.stats().is_empty(), "no stats before ANALYZE");

        let n = c.analyze();
        assert_eq!(n, 1);
        let s = c.table_stats("a").unwrap();
        assert_eq!(s.row_count, 10);
        assert_eq!(s.columns[0].ndv, 10);
        assert!(!c.stats().is_stale("a"));

        // A write through the mutable accessor marks stats stale but keeps them.
        c.table_mut("a").unwrap().insert(vec![Value::Int(99)]).unwrap();
        assert!(c.stats().is_stale("a"));
        assert_eq!(c.table_stats("a").unwrap().row_count, 10, "stale stats still served");

        // Re-ANALYZE refreshes.
        c.analyze();
        assert!(!c.stats().is_stale("a"));
        assert_eq!(c.table_stats("a").unwrap().row_count, 11);

        // Dropping the table drops its stats.
        c.drop_table("a").unwrap();
        assert!(c.table_stats("a").is_none());
    }

    #[test]
    fn cloned_catalog_is_a_snapshot_under_cow() {
        use crate::value::Value;
        let mut c = Catalog::new();
        let mut a = t("a");
        a.insert(vec![Value::Int(1)]).unwrap();
        c.create_table(a).unwrap();

        // A clone shares table storage (shallow), then copy-on-write
        // detaches the writer's version on the first mutation.
        let snap = c.clone();
        c.advance_epoch();
        c.table_mut("a").unwrap().insert(vec![Value::Int(2)]).unwrap();
        c.table_mut("a").unwrap().delete(crate::row::RowId(0)).unwrap();
        assert_eq!(snap.table("a").unwrap().len(), 1, "snapshot still sees the old version");
        assert_eq!(c.table("a").unwrap().len(), 1);
        assert!(snap.table("a").unwrap().get(crate::row::RowId(0)).is_some());
        assert!(c.table("a").unwrap().get(crate::row::RowId(0)).is_none());

        // Dropping a shared table hands the snapshot's copy back by clone.
        let dropped = c.drop_table("a").unwrap();
        assert_eq!(dropped.len(), 1);
        assert_eq!(snap.table("a").unwrap().len(), 1);
    }

    #[test]
    fn dirty_tracking_follows_write_choke_points() {
        use crate::value::Value;
        let mut c = Catalog::new();
        c.create_table(t("a")).unwrap();
        c.create_table(t("b")).unwrap();
        assert!(c.structural_dirty(), "creation is structural");
        c.mark_checkpointed();
        assert!(!c.structural_dirty());
        assert!(c.dirty_table_names().is_empty());

        let e0 = c.table("a").unwrap().content_epoch();
        c.table_mut("a").unwrap().insert(vec![Value::Int(1)]).unwrap();
        c.table_mut("a").unwrap().insert(vec![Value::Int(2)]).unwrap();
        assert_eq!(c.dirty_table_names(), vec!["a".to_string()], "b untouched");
        assert!(c.table("a").unwrap().content_epoch() > e0, "content epoch advanced");
        assert!(!c.structural_dirty(), "CRUD is not structural");

        c.mark_checkpointed();
        assert!(c.dirty_table_names().is_empty());
        c.drop_table("b").unwrap();
        assert!(c.structural_dirty(), "drop is structural");
    }

    #[test]
    fn table_names_sorted() {
        let mut c = Catalog::new();
        c.create_table(t("zeta")).unwrap();
        c.create_table(t("alpha")).unwrap();
        assert_eq!(c.table_names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
