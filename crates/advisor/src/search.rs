//! Candidate enumeration and greedy search over the design space.
//!
//! A physical design is an assignment to independent **design dimensions**
//! (the same local moves [`erbium_mapping::presets`] exposes):
//!
//! * per multi-valued attribute: side table vs. inline array;
//! * per hierarchy root: delta tables vs. single merged table vs. disjoint
//!   full tables;
//! * per weak entity set: own table vs. folded into the owner;
//! * per eligible relationship: separate vs. co-located (factorized or
//!   denormalized).
//!
//! The advisor runs greedy coordinate descent: starting from the fully
//! normalized design, it repeatedly re-optimizes one dimension at a time
//! (keeping the others fixed) until no single change improves the
//! estimated workload cost. Invalid combinations are skipped via the
//! mapping validator — the search can only ever propose covers that
//! satisfy the paper's reversibility/CRUD requirements.

use crate::stats::{synthesize, LogicalStats};
use crate::workload::Workload;
use erbium_engine::cost::plan_cost;
use erbium_mapping::{presets, CoFormat, Lowering, Mapping, MappingResult, QueryRewriter};
use erbium_model::ErSchema;
use erbium_storage::Catalog;

/// One design dimension with its options.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignChoice {
    /// `(entity, attribute)`; `true` = inline array.
    MvInline(String, String, bool),
    /// Hierarchy root layout.
    Hierarchy(String, HierarchyChoice),
    /// Weak entity folded into its owner?
    WeakFolded(String, bool),
    /// Relationship co-location.
    CoLocate(String, CoChoice),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyChoice {
    Delta,
    Merged,
    Full,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoChoice {
    Separate,
    Factorized,
    Denormalized,
}

/// A complete assignment of the design dimensions.
#[derive(Debug, Clone, PartialEq)]
struct Design {
    mv_inline: Vec<((String, String), bool)>,
    hierarchies: Vec<(String, HierarchyChoice)>,
    weak_folded: Vec<(String, bool)>,
    colocate: Vec<(String, CoChoice)>,
}

impl Design {
    fn normalized(schema: &ErSchema) -> Design {
        let mut d = Design {
            mv_inline: Vec::new(),
            hierarchies: Vec::new(),
            weak_folded: Vec::new(),
            colocate: Vec::new(),
        };
        for e in schema.entities() {
            for a in e.attributes.iter().filter(|a| a.multi_valued) {
                d.mv_inline.push(((e.name.clone(), a.name.clone()), false));
            }
            if !e.is_subclass() && !schema.subclasses(&e.name).is_empty() {
                d.hierarchies.push((e.name.clone(), HierarchyChoice::Delta));
            }
            if e.is_weak() {
                d.weak_folded.push((e.name.clone(), false));
            }
        }
        for r in schema.relationships() {
            let identifying = schema.entities().iter().any(|e| {
                e.weak.as_ref().map(|w| w.identifying_relationship == r.name).unwrap_or(false)
            });
            if !identifying && r.from.entity != r.to.entity {
                d.colocate.push((r.name.clone(), CoChoice::Separate));
            }
        }
        d
    }

    /// Materialize the design as a mapping via the preset transformations.
    fn to_mapping(&self, schema: &ErSchema) -> MappingResult<Mapping> {
        let mut m = presets::normalized(schema);
        for (root, choice) in &self.hierarchies {
            m = match choice {
                HierarchyChoice::Delta => m,
                HierarchyChoice::Merged => presets::merge_hierarchy(m, schema, root),
                HierarchyChoice::Full => presets::split_hierarchy_full(m, schema, root),
            };
        }
        for (weak, folded) in &self.weak_folded {
            if *folded {
                m = presets::fold_weak(m, schema, weak)?;
            }
        }
        for (rel, choice) in &self.colocate {
            m = match choice {
                CoChoice::Separate => m,
                CoChoice::Factorized => presets::colocate(m, schema, rel, CoFormat::Factorized)?,
                CoChoice::Denormalized => {
                    presets::colocate(m, schema, rel, CoFormat::Denormalized)?
                }
            };
        }
        for ((entity, attr), inline) in &self.mv_inline {
            if *inline {
                m = presets::inline_multivalued(m, schema, entity, attr);
            }
        }
        m.name = "advisor".into();
        Ok(m)
    }

    fn describe(&self) -> Vec<DesignChoice> {
        let mut out = Vec::new();
        for ((e, a), v) in &self.mv_inline {
            out.push(DesignChoice::MvInline(e.clone(), a.clone(), *v));
        }
        for (r, c) in &self.hierarchies {
            out.push(DesignChoice::Hierarchy(r.clone(), *c));
        }
        for (w, v) in &self.weak_folded {
            out.push(DesignChoice::WeakFolded(w.clone(), *v));
        }
        for (r, c) in &self.colocate {
            out.push(DesignChoice::CoLocate(r.clone(), *c));
        }
        out
    }
}

/// Coordinate-descent sweeps before the search stops even if a sweep still
/// improved the design.
const MAX_SWEEPS: usize = 4;

const HIERARCHY_OPTIONS: [HierarchyChoice; 3] =
    [HierarchyChoice::Delta, HierarchyChoice::Merged, HierarchyChoice::Full];
const CO_OPTIONS: [CoChoice; 3] =
    [CoChoice::Separate, CoChoice::Factorized, CoChoice::Denormalized];

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct Recommendation {
    pub mapping: Mapping,
    pub cost: f64,
    pub baseline_cost: f64,
    /// `(sql, estimated cost under the recommendation)`.
    pub per_query: Vec<(String, f64)>,
    pub choices: Vec<DesignChoice>,
    pub candidates_evaluated: usize,
}

/// The workload-aware mapping advisor.
pub struct Advisor {
    schema: ErSchema,
    stats: LogicalStats,
}

impl Advisor {
    /// Create an advisor from the current database state (used only to
    /// gather logical statistics — the search itself moves no data).
    pub fn from_database(cat: &Catalog, lw: &Lowering) -> MappingResult<Advisor> {
        Ok(Advisor {
            schema: lw.schema.clone(),
            stats: LogicalStats::gather(cat, lw)?,
        })
    }

    /// Create an advisor from explicit logical statistics (e.g. projected
    /// future data volumes).
    pub fn from_stats(schema: ErSchema, stats: LogicalStats) -> Advisor {
        Advisor { schema, stats }
    }

    /// Estimated total workload cost under one candidate mapping; `None`
    /// if the mapping is invalid or cannot serve some workload query.
    ///
    /// A what-if run of the engine: the candidate is installed schema-only
    /// into a phantom catalog that carries [`synthesize`]d statistics in
    /// place of data, each query is rewritten and optimized exactly as on
    /// an ANALYZEd database (so the cost-based passes shape the plan), and
    /// the plan is priced with the engine's [`plan_cost`].
    pub fn cost_of(
        &self,
        mapping: &Mapping,
        workload: &Workload,
    ) -> Option<(f64, Vec<(String, f64)>)> {
        let lw = Lowering::build(&self.schema, mapping).ok()?;
        let mut cat = Catalog::new();
        lw.install(&mut cat).ok()?;
        for (name, stats) in synthesize(&lw, &self.schema, &self.stats).ok()? {
            cat.put_stats(name, stats);
        }
        let rewriter = QueryRewriter::new(&lw, &cat);
        let mut total = 0.0;
        let mut per_query = Vec::new();
        for q in &workload.queries {
            let plan = rewriter.rewrite_optimized(&q.stmt).ok()?;
            let cost = plan_cost(&plan, &cat)?;
            total += cost * q.weight;
            per_query.push((q.sql.clone(), cost));
        }
        Some((total, per_query))
    }

    /// Run the search and return the best design found.
    pub fn recommend(&self, workload: &Workload) -> MappingResult<Recommendation> {
        let design = Design::normalized(&self.schema);
        let baseline_mapping = design.to_mapping(&self.schema)?;
        let (baseline_cost, _) = self
            .cost_of(&baseline_mapping, workload)
            .ok_or_else(|| erbium_mapping::MappingError::Unsupported(
                "workload cannot run under the normalized mapping".into(),
            ))?;
        let mut s = Search { advisor: self, workload, design, best: baseline_cost, evaluated: 1 };

        for _sweep in 0..MAX_SWEEPS {
            let mut improved = false;
            for i in 0..s.design.hierarchies.len() {
                improved |= s.try_options(|d| &mut d.hierarchies[i].1, &HIERARCHY_OPTIONS);
            }
            for i in 0..s.design.mv_inline.len() {
                let flip = [!s.design.mv_inline[i].1];
                improved |= s.try_options(|d| &mut d.mv_inline[i].1, &flip);
            }
            for i in 0..s.design.weak_folded.len() {
                let flip = [!s.design.weak_folded[i].1];
                improved |= s.try_options(|d| &mut d.weak_folded[i].1, &flip);
            }
            for i in 0..s.design.colocate.len() {
                improved |= s.try_options(|d| &mut d.colocate[i].1, &CO_OPTIONS);
            }
            if !improved {
                break;
            }
        }
        let mapping = s.design.to_mapping(&self.schema)?;
        let (cost, per_query) = self
            .cost_of(&mapping, workload)
            .expect("winning design was evaluated during the search");
        Ok(Recommendation {
            mapping,
            cost,
            baseline_cost,
            per_query,
            choices: s.design.describe(),
            candidates_evaluated: s.evaluated,
        })
    }
}

/// One run of [`Advisor::recommend`]: the current design, the workload cost
/// of the cheapest design seen, and how many candidates were costed.
struct Search<'a> {
    advisor: &'a Advisor,
    workload: &'a Workload,
    design: Design,
    best: f64,
    evaluated: usize,
}

impl Search<'_> {
    /// One coordinate-descent move on the dimension `slot` selects: set it
    /// to each of `options` in turn (skipping its current value), keep an
    /// option that makes the workload cheaper than the best so far, and
    /// restore the previous value otherwise. Returns whether any option
    /// was kept.
    fn try_options<T: Copy + PartialEq>(
        &mut self,
        slot: impl Fn(&mut Design) -> &mut T,
        options: &[T],
    ) -> bool {
        let mut improved = false;
        for &option in options {
            let old = *slot(&mut self.design);
            if old == option {
                continue;
            }
            *slot(&mut self.design) = option;
            self.evaluated += 1;
            let mapping = self.design.to_mapping(&self.advisor.schema).ok();
            match mapping.and_then(|m| self.advisor.cost_of(&m, self.workload)) {
                Some((c, _)) if c < self.best => {
                    self.best = c;
                    improved = true;
                }
                _ => *slot(&mut self.design) = old,
            }
        }
        improved
    }
}
