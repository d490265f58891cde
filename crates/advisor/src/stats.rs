//! Mapping-independent statistics and per-candidate projection.

use erbium_engine::cost::BYTES_PER_VALUE;
use erbium_mapping::lower::weak_col;
use erbium_mapping::{
    EntityStore, Fragment, HierarchyLayout, Lowering, MappingResult, RelHome,
};
use erbium_model::ErSchema;
use erbium_storage::{Catalog, Column, ColumnStats, TableStats};
use rustc_hash::FxHashMap;

/// Build a [`TableStats`] for a structure that does not physically exist
/// yet: a projected row count, a total byte volume of `width` values per
/// row, and one [`ColumnStats`] per column of `columns`, in order.
///
/// Every column is taken to be as distinct as the structure has rows, and
/// never less than 1: a zero NDV on both keys of a join would leave the
/// engine's join estimate with a denominator of 1 — a cartesian product.
/// Array columns named in `fanouts` carry that average element count.
fn projected<'a>(
    rows: f64,
    width: f64,
    columns: impl IntoIterator<Item = &'a Column>,
    fanouts: &[(String, f64)],
) -> TableStats {
    let rows = rows.max(0.0);
    let row_count = rows.round() as u64;
    let columns = columns
        .into_iter()
        .map(|c| ColumnStats {
            ndv: row_count.max(1),
            avg_array_len: fanouts.iter().find(|(n, _)| *n == c.name).map_or(0.0, |(_, f)| *f),
            ..ColumnStats::default()
        })
        .collect();
    TableStats { row_count, columns, total_bytes: (rows * width * BYTES_PER_VALUE).round() as u64 }
}

/// Logical statistics of a database instance — properties of the data, not
/// of any physical layout.
#[derive(Debug, Clone, Default)]
pub struct LogicalStats {
    /// Extent size per entity set (instances whose most-specific type is in
    /// the entity's subtree).
    pub extent: FxHashMap<String, u64>,
    /// Instances whose *most specific* type is exactly this entity.
    pub exact: FxHashMap<String, u64>,
    /// Average number of values per instance for each multi-valued
    /// attribute, keyed by `(entity, attribute)`.
    pub mv_fanout: FxHashMap<(String, String), f64>,
    /// Number of instances per relationship.
    pub rel_count: FxHashMap<String, u64>,
}

impl LogicalStats {
    /// Gather logical stats by probing the current database through its
    /// lowering.
    pub fn gather(cat: &Catalog, lw: &Lowering) -> MappingResult<LogicalStats> {
        let store = EntityStore::new(lw);
        let mut s = LogicalStats::default();
        for e in lw.schema.entities() {
            let keys = store.extent_keys(cat, &e.name)?;
            s.extent.insert(e.name.clone(), keys.len() as u64);
        }
        // exact counts: extent minus children extents.
        for e in lw.schema.entities() {
            let mine = s.extent.get(&e.name).copied().unwrap_or(0);
            let children: u64 = lw
                .schema
                .subclasses(&e.name)
                .iter()
                .map(|c| s.extent.get(&c.name).copied().unwrap_or(0))
                .sum();
            s.exact.insert(e.name.clone(), mine.saturating_sub(children));
        }
        // Multi-valued fan-outs: sample up to 500 instances per entity.
        for e in lw.schema.entities() {
            let mv_attrs: Vec<String> = e
                .attributes
                .iter()
                .filter(|a| a.multi_valued)
                .map(|a| a.name.clone())
                .collect();
            if mv_attrs.is_empty() {
                continue;
            }
            let keys = store.extent_keys(cat, &e.name)?;
            let sample: Vec<_> = keys.iter().take(500).collect();
            let mut sums: FxHashMap<&str, (f64, u64)> = FxHashMap::default();
            for key in &sample {
                if let Some(data) = store.get(cat, &e.name, key)? {
                    for a in &mv_attrs {
                        let n = data
                            .get(a)
                            .and_then(|v| v.as_array().map(|x| x.len()))
                            .unwrap_or(0);
                        let entry = sums.entry(a.as_str()).or_insert((0.0, 0));
                        entry.0 += n as f64;
                        entry.1 += 1;
                    }
                }
            }
            for a in &mv_attrs {
                let (sum, n) = sums.get(a.as_str()).copied().unwrap_or((0.0, 0));
                let avg = if n > 0 { sum / n as f64 } else { 1.0 };
                s.mv_fanout.insert((e.name.clone(), a.clone()), avg);
            }
        }
        for r in lw.schema.relationships() {
            let count = match store.extract_relationship(cat, &r.name) {
                Ok(insts) => insts.len() as u64,
                Err(_) => 0,
            };
            s.rel_count.insert(r.name.clone(), count);
        }
        Ok(s)
    }

    fn extent(&self, e: &str) -> u64 {
        self.extent.get(e).copied().unwrap_or(0)
    }

    fn exact(&self, e: &str) -> u64 {
        self.exact.get(e).copied().unwrap_or(0)
    }

    fn fanout(&self, e: &str, a: &str) -> f64 {
        self.mv_fanout.get(&(e.to_string(), a.to_string())).copied().unwrap_or(1.0)
    }
}

/// Project physical table statistics for every structure of a candidate
/// lowering, from logical statistics alone — the only costing code the
/// advisor owns. Entries are keyed, and their columns ordered, exactly as
/// `Catalog::analyze` would gather them from the installed lowering, so
/// installed with `Catalog::put_stats` they let the engine's optimizer and
/// `erbium_engine::cost::plan_cost` treat the candidate as an ANALYZEd
/// database.
pub fn synthesize(
    lw: &Lowering,
    schema: &ErSchema,
    ls: &LogicalStats,
) -> MappingResult<FxHashMap<String, TableStats>> {
    let mut out = FxHashMap::default();
    for frag in &lw.mapping.fragments {
        let spec = lw.tables.iter().find(|t| t.name() == frag.table());
        // Array columns of the structure, with their average element count.
        let mut fanouts: Vec<(String, f64)> = Vec::new();
        let (rows, width) = match frag {
            Fragment::Entity {
                entity,
                layout,
                merged_subclasses,
                inline_multivalued,
                folded_weak,
                folded_relationships,
                ..
            } => {
                let rows = match layout {
                    HierarchyLayout::Full => ls.exact(entity) as f64,
                    HierarchyLayout::Delta => ls.extent(entity) as f64,
                };
                let mut width = 0.0;
                let mut covered: Vec<&str> = vec![entity.as_str()];
                if *layout == HierarchyLayout::Full {
                    covered =
                        schema.ancestry(entity)?.iter().map(|e| e.name.as_str()).collect();
                }
                covered.extend(merged_subclasses.iter().map(String::as_str));
                for ce in covered {
                    let es = schema.require_entity(ce)?;
                    for a in &es.attributes {
                        if a.multi_valued {
                            if inline_multivalued.contains(&a.name) {
                                let fanout = ls.fanout(ce, &a.name);
                                width += fanout;
                                fanouts.push((a.name.clone(), fanout));
                            }
                        } else {
                            width += 1.0;
                        }
                    }
                }
                for w in folded_weak {
                    let wes = schema.require_entity(w)?;
                    let per_owner = if rows > 0.0 {
                        ls.extent(w) as f64 / rows
                    } else {
                        0.0
                    };
                    width += per_owner * wes.attributes.len() as f64;
                    fanouts.push((weak_col(w), per_owner));
                }
                width += folded_relationships.len() as f64;
                (rows, width)
            }
            Fragment::MultiValued { entity, attribute, .. } => {
                let rows = ls.extent(entity) as f64 * ls.fanout(entity, attribute);
                (rows, 2.0)
            }
            Fragment::Relationship { relationship, .. } => {
                let rows = ls.rel_count.get(relationship).copied().unwrap_or(0) as f64;
                (rows, 3.0)
            }
            Fragment::CoLocated { relationship, .. } => {
                let rel = schema.require_relationship(relationship)?;
                let pairs = ls.rel_count.get(relationship).copied().unwrap_or(0) as f64;
                let l = ls.extent(&rel.from.entity) as f64;
                let r = ls.extent(&rel.to.entity) as f64;
                match lw.rel_home(relationship)? {
                    // Factorized: a member table per end, one row per
                    // instance, and the fragment's table is the link table,
                    // one row-id pair per relationship instance.
                    RelHome::Linked { left, right, .. } => {
                        for (member, rows) in [(left, l), (right, r)] {
                            let columns = lw.table_schema(member).map_or(&[][..], |s| &s.columns);
                            let width = columns.len() as f64;
                            out.insert(member.clone(), projected(rows, width, columns, &[]));
                        }
                        (pairs, 2.0)
                    }
                    // Denormalized: one row per pair plus dangling rows.
                    _ => (pairs.max(l).max(r), 8.0),
                }
            }
        };
        let columns = spec.map_or(&[][..], |s| &s.schema.columns);
        out.insert(frag.table().to_string(), projected(rows, width, columns, &fanouts));
    }
    Ok(out)
}
