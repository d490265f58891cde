//! Table and column statistics.
//!
//! Consumed by the engine's estimator, cost-based passes and `plan_cost`;
//! the mapping advisor synthesizes the same type for candidate mappings
//! that hold no data. Statistics are recomputed on demand via
//! [`crate::table::Table::compute_stats`]; they are estimates, not
//! transactionally maintained truths.

use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

/// Per-column NDV sets stop growing at this many distinct values: exact
/// NDV up to the cap, saturating beyond it (good enough for costing;
/// avoids unbounded memory on wide text columns). Shared with the
/// columnar one-pass gather in [`crate::table::Table::compute_stats`].
pub(crate) const NDV_CAP: usize = 1 << 20;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Estimated number of distinct values.
    pub ndv: u64,
    /// Number of NULLs.
    pub null_count: u64,
    /// Minimum non-null value, if any.
    pub min: Option<Value>,
    /// Maximum non-null value, if any.
    pub max: Option<Value>,
    /// Average value width in bytes.
    pub avg_width: f64,
    /// For array columns: average element count of non-null arrays.
    pub avg_array_len: f64,
}

impl Default for ColumnStats {
    fn default() -> Self {
        ColumnStats { ndv: 0, null_count: 0, min: None, max: None, avg_width: 0.0, avg_array_len: 0.0 }
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
    /// Total approximate bytes of live row data.
    pub total_bytes: u64,
}

impl TableStats {
    /// Compute stats over an iterator of rows. Exact NDV up to `ndv_cap`
    /// distinct values per column, saturating beyond it (good enough for
    /// costing; avoids unbounded memory on wide text columns).
    ///
    /// Accepts anything row-shaped (`&[Value]`, `Vec<Value>`, …) so callers
    /// can stream borrowed slots or lazily assembled join rows without
    /// materializing them first.
    pub fn compute<R: AsRef<[Value]>>(rows: impl Iterator<Item = R>, arity: usize) -> TableStats {
        let mut row_count = 0u64;
        let mut total_bytes = 0u64;
        let mut sets: Vec<FxHashSet<Value>> = (0..arity).map(|_| FxHashSet::default()).collect();
        let mut saturated = vec![false; arity];
        let mut cols = vec![ColumnStats::default(); arity];
        let mut width_sums = vec![0f64; arity];
        let mut arr_sums = vec![0f64; arity];
        let mut arr_counts = vec![0u64; arity];

        for row in rows {
            row_count += 1;
            for (i, v) in row.as_ref().iter().enumerate() {
                let sz = v.approx_size();
                total_bytes += sz as u64;
                width_sums[i] += sz as f64;
                if v.is_null() {
                    cols[i].null_count += 1;
                    continue;
                }
                if let Value::Array(vs) = v {
                    arr_sums[i] += vs.len() as f64;
                    arr_counts[i] += 1;
                }
                match (&cols[i].min, v) {
                    (None, v) => cols[i].min = Some(v.clone()),
                    (Some(m), v) if v < m => cols[i].min = Some(v.clone()),
                    _ => {}
                }
                match (&cols[i].max, v) {
                    (None, v) => cols[i].max = Some(v.clone()),
                    (Some(m), v) if v > m => cols[i].max = Some(v.clone()),
                    _ => {}
                }
                if !saturated[i] {
                    sets[i].insert(v.clone());
                    if sets[i].len() >= NDV_CAP {
                        saturated[i] = true;
                    }
                }
            }
        }
        for i in 0..arity {
            cols[i].ndv = sets[i].len() as u64;
            cols[i].avg_width = if row_count > 0 { width_sums[i] / row_count as f64 } else { 0.0 };
            cols[i].avg_array_len =
                if arr_counts[i] > 0 { arr_sums[i] / arr_counts[i] as f64 } else { 0.0 };
        }
        TableStats { row_count, columns: cols, total_bytes }
    }

    /// Selectivity estimate for an equality predicate on column `col`.
    pub fn eq_selectivity(&self, col: usize) -> f64 {
        match self.columns.get(col) {
            Some(c) if c.ndv > 0 => 1.0 / c.ndv as f64,
            _ => 0.1,
        }
    }

    /// Average row width in bytes (0.0 when empty).
    pub fn avg_row_bytes(&self) -> f64 {
        if self.row_count == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.row_count as f64
        }
    }
}

/// One registry entry: gathered statistics plus a staleness flag flipped by
/// CRUD writes after the gather.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StatsEntry {
    stats: TableStats,
    stale: bool,
}

/// Per-table statistics registry held on the
/// [`crate::catalog::Catalog`].
///
/// Entries are keyed by table name, matching the plan-level naming the
/// engine and advisor use.
///
/// Writes through the catalog's mutable accessors mark entries **stale**
/// rather than dropping them: slightly-off statistics still beat none for
/// costing, and `stale_tables()` tells callers what a re-ANALYZE would
/// refresh.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CatalogStats {
    entries: FxHashMap<String, StatsEntry>,
}

impl CatalogStats {
    /// Gathered statistics for `table`, if any. Stale entries are still
    /// returned — check [`CatalogStats::is_stale`] when freshness matters.
    pub fn get(&self, table: &str) -> Option<&TableStats> {
        self.entries.get(table).map(|e| &e.stats)
    }

    /// Install fresh statistics for `table` (clears any staleness).
    pub fn put(&mut self, table: impl Into<String>, stats: TableStats) {
        self.entries.insert(table.into(), StatsEntry { stats, stale: false });
    }

    /// Flag `table`'s statistics as out of date (no-op when none gathered).
    pub fn mark_stale(&mut self, table: &str) {
        if let Some(e) = self.entries.get_mut(table) {
            e.stale = true;
        }
    }

    /// Whether `table` has statistics that predate a write.
    pub fn is_stale(&self, table: &str) -> bool {
        self.entries.get(table).map(|e| e.stale).unwrap_or(false)
    }

    /// Drop statistics for `table` (e.g. when the table itself is dropped).
    pub fn remove(&mut self, table: &str) {
        self.entries.remove(table);
    }

    /// True when no table has gathered statistics — the optimizer's
    /// cost-based passes disable themselves in that case.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of tables with gathered statistics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Sorted names of tables whose statistics are stale.
    pub fn stale_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.stale)
            .map(|(k, _)| k.clone())
            .collect();
        names.sort();
        names
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_basic_stats() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::str("a"), Value::Array(vec![Value::Int(1), Value::Int(2)])],
            vec![Value::Int(2), Value::str("a"), Value::Array(vec![Value::Int(3)])],
            vec![Value::Int(3), Value::Null, Value::Null],
        ];
        let stats = TableStats::compute(rows.iter().map(|r| r.as_slice()), 3);
        assert_eq!(stats.row_count, 3);
        assert_eq!(stats.columns[0].ndv, 3);
        assert_eq!(stats.columns[1].ndv, 1);
        assert_eq!(stats.columns[1].null_count, 1);
        assert_eq!(stats.columns[0].min, Some(Value::Int(1)));
        assert_eq!(stats.columns[0].max, Some(Value::Int(3)));
        assert!((stats.columns[2].avg_array_len - 1.5).abs() < 1e-9);
    }

    #[test]
    fn eq_selectivity_uses_ndv() {
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i % 5)]).collect();
        let stats = TableStats::compute(rows.iter().map(|r| r.as_slice()), 1);
        assert!((stats.eq_selectivity(0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn catalog_stats_staleness_lifecycle() {
        let mut reg = CatalogStats::default();
        assert!(reg.is_empty());
        reg.put("t", TableStats { row_count: 5, ..TableStats::default() });
        assert_eq!(reg.get("t").unwrap().row_count, 5);
        assert!(!reg.is_stale("t"));
        reg.mark_stale("t");
        assert!(reg.is_stale("t"), "write flags stats stale");
        assert_eq!(reg.get("t").unwrap().row_count, 5, "stale stats still served");
        assert_eq!(reg.stale_tables(), vec!["t".to_string()]);
        reg.put("t", TableStats { row_count: 6, ..TableStats::default() });
        assert!(!reg.is_stale("t"), "re-analyze clears staleness");
        reg.mark_stale("never-analyzed"); // no-op
        assert!(!reg.is_stale("never-analyzed"));
        reg.remove("t");
        assert!(reg.is_empty());
    }

    #[test]
    fn empty_table_stats() {
        let stats = TableStats::compute(std::iter::empty::<&[Value]>(), 2);
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.columns.len(), 2);
        assert_eq!(stats.columns[0].ndv, 0);
    }
}
