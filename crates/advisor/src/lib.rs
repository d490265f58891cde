//! # erbium-advisor
//!
//! The workload-aware mapping advisor — the paper's "natural optimization
//! problem ...: automatically identify the best mapping for a given schema
//! and data and query workload".
//!
//! The advisor searches the space of graph covers the mapping layer can
//! express, driven by:
//!
//! * [`stats::LogicalStats`] — mapping-independent statistics gathered once
//!   from the current database (entity extent sizes, average multi-valued
//!   fan-outs, relationship cardinalities);
//! * [`stats::synthesize`] — projected physical table statistics, per
//!   column, for *any* candidate mapping, derived analytically (no data
//!   movement while searching) — the advisor's only costing code;
//! * [`Advisor::cost_of`] — a what-if client of the engine: each candidate
//!   mapping is installed schema-only into a phantom catalog carrying the
//!   synthesized statistics, the workload queries are rewritten with the
//!   real [`erbium_mapping::QueryRewriter`] and optimized as on an ANALYZEd
//!   database (so candidate costs reflect exactly the plans that would
//!   run), and each plan is priced with `erbium_engine::cost::plan_cost`;
//! * [`search`] — the design dimensions (multi-valued placement, hierarchy
//!   layout, weak-entity folding, relationship co-location) and a greedy
//!   coordinate-descent search with restarts over them.
//!
//! The result is a [`search::Recommendation`]: the winning mapping, its
//! estimated workload cost, the per-query breakdown, and an explanation of
//! each design choice.

pub mod search;
pub mod stats;
pub mod workload;

pub use search::{Advisor, DesignChoice, Recommendation};
pub use stats::{synthesize, LogicalStats};
pub use workload::{Workload, WorkloadQuery};
