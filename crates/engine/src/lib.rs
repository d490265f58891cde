//! # erbium-engine
//!
//! The relational query engine running over [`erbium_storage`].
//!
//! This is the execution half of the substrate that replaces PostgreSQL in
//! the paper's prototype. It evaluates [`Plan`]s — logical operator trees —
//! against a [`erbium_storage::Catalog`]:
//!
//! * typed scalar [`expr`]essions with SQL three-valued logic, array
//!   functions (`unnest` support, containment, intersection) and struct
//!   field access, because the E/R mappings produce physical tables with
//!   array and composite columns;
//! * [`agg`]regates including `array_agg` + struct packing, which is how
//!   the ERQL `NEST(...)` hierarchical output clause is lowered;
//! * [`plan`] nodes: scans (with pushed-down filters and index lookups),
//!   hash joins (inner / left outer / semi), aggregation, unnest, union,
//!   sort/limit/distinct, and **fetch**, which follows the row ids of a
//!   link table into a member table (stored pointers, not a join);
//! * a rule-based [`optimizer`] (constant folding, filter splitting and
//!   pushdown, filter cost-rank ordering, index-lookup selection,
//!   trivial-projection elision) with **cost-based passes** layered on top
//!   when the catalog has ANALYZE-gathered statistics: hash-join build-side
//!   selection, greedy join reordering and selectivity-ranked filters, all
//!   driven by the [`cost`] cardinality estimator;
//! * a pull-based [`stream`]ing [`exec`]utor: every operator is a
//!   [`stream::RowStream`] pulling batches from its children and `LIMIT`
//!   terminates its input early. Parallel work — morsel-parallel leaf scans
//!   with Filter/Project chains *fused* into the scan workers, hash-join
//!   build and probe, and partial aggregation — is dispatched in waves to a
//!   shared persistent [`pool::WorkerPool`] (lazily spawned, reused across
//!   pulls and queries; no per-wave thread spawn), with bit-identical
//!   results at any thread count; every operator node records
//!   [`metrics::ExecMetrics`] (`EXPLAIN ANALYZE`-style, including workers /
//!   waves / fusion markers) as it runs.

pub mod agg;
pub mod cost;
pub mod error;
pub mod exec;
pub mod expr;
pub mod metrics;
pub mod optimizer;
pub mod plan;
pub mod plan_cache;
pub mod pool;
pub mod stream;
pub mod vector;
pub mod vplan;

pub use agg::{AggCall, AggFunc};
pub use cost::{annotate_metrics, estimate, explain_with_estimates, ColEst, Estimate};
pub use error::{EngineError, EngineResult};
pub use exec::{default_threads, execute, execute_streaming, ExecContext, QueryStream};
pub use expr::{BinOp, Expr, ScalarFunc, UnOp};
pub use metrics::{ExecMetrics, OpMetrics};
pub use plan::{bind_params, param_count, Field, JoinKind, Plan, PlanKind, SortKey};
pub use plan_cache::{normalize_sql, PlanCache, PlanCacheStats};
pub use pool::WorkerPool;
pub use stream::{BoxedRowStream, RowStream};
