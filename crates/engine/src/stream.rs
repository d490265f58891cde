//! Streaming (pull-based) operator implementations.
//!
//! Every [`crate::plan::PlanKind`] compiles to a [`RowStream`]: a cursor
//! that yields small batches of rows on demand. Operators pull from their
//! children, so pipeline-friendly nodes (filter, project, join probe,
//! unnest, limit, union) never materialize their input, and `Limit` stops
//! pulling as soon as it is satisfied. Pipeline breakers (sort, distinct's
//! seen-set, the join build side) buffer exactly the state their semantics
//! require and nothing more.
//!
//! ## Morsel parallelism on the persistent worker pool
//!
//! With [`crate::exec::ExecContext::threads`] `> 1`, parallel work runs as
//! *waves* of jobs on the shared, long-lived [`crate::pool::WorkerPool`] —
//! no thread is ever spawned per pull (the pool is the engine's only
//! thread-spawn site). Four operator families engage the pool:
//!
//! * **leaf scans** — the slot space is split into contiguous morsels;
//!   each pull runs one wave of up to `threads` morsels, reassembled in
//!   morsel order;
//! * **fused pipelines** — `Filter`/`Project` chains sitting directly
//!   above a leaf execute *inside* the scan's morsel jobs instead of as
//!   serial post-passes (chosen by plan shape alone);
//! * **hash joins** — the build side is hashed in parallel over contiguous
//!   chunks merged in chunk order, and the probe side is morsel-partitioned
//!   against the shared read-only build table, outputs concatenated in
//!   chunk order;
//! * **aggregation** — input rows are folded through fixed-size chunks
//!   ([`AGG_CHUNK`]) whose partial hash tables merge into the global state
//!   in chunk order.
//!
//! ## Columnar (vectorized) execution
//!
//! Every leaf table scan runs over the table's typed column vectors: each
//! morsel builds a *selection vector* of live slot ids, applies the
//! vectorizable prefix of the pushed-down filters (and of the fused
//! Filter/Project chain) as tight per-column kernels compiled by
//! [`crate::vplan`], row-evaluates any residual predicates against
//! borrowed rows in the original order, and only then materializes the
//! surviving rows — restricted to the scan's pruned projection — via a
//! column-at-a-time gather ([`crate::vector`]). This scan is the one
//! kernel: every other operator, hash-join builds and aggregates
//! included, consumes the row batches it (or its fused chain) emits. The
//! columnar work is observable via the `engine_columnar_batches_total` /
//! `engine_columnar_cells_total` counters and the `[columnar]` marker on
//! the scan and on every fused node that compiled to a vector predicate
//! or a column remap. The kernels replicate `Value` comparison semantics
//! (including NULL and cross-type ordering) exactly, and selection order
//! is slot order, so a scan yields the same rows in the same order as
//! filtering `Table::scan` row by row — the row-store twin
//! `tests/parallel_invariance.rs` checks against.
//!
//! ## Determinism
//!
//! Parallel execution is **bit-identical** to single-threaded execution:
//! every parallel decomposition above is a pure function of the input row
//! order (never of the thread count or scheduling), and every merge happens
//! in submission order. Aggregation chunk boundaries in particular depend
//! only on the global input row index, so even float accumulation applies
//! the exact same reduction tree at every `threads`/`batch_size`/
//! `morsel_size` setting.
//!
//! Every compiled operator is wrapped in a metering shim that feeds the
//! [`crate::metrics::ExecMetrics`] tree and honours cooperative
//! cancellation; pool-engaged operators additionally record waves and the
//! number of distinct worker threads used.

use crate::agg::{Accumulator, AggCall};
use crate::error::{EngineError, EngineResult};
use crate::exec::ExecContext;
use crate::expr::Expr;
use crate::metrics::OpMetrics;
use crate::plan::{JoinKind, Plan, PlanKind, SortKey};
use crate::pool::WorkerPool;
use crate::vector;
use crate::vplan::{self, VecPred};
use erbium_storage::{Catalog, Row, RowId, Table, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;
use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Batches produced by columnar (vectorized) kernels: one per
/// selection-vector scan morsel.
fn m_columnar_batches() -> &'static erbium_obs::Counter {
    static H: OnceLock<Arc<erbium_obs::Counter>> = OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "engine_columnar_batches_total",
            "batches produced by columnar (vectorized) kernels",
        )
    })
}

/// Cells (row x column values) materialized by columnar kernels. With
/// projection pruning this grows by `rows x pruned_arity`, not
/// `rows x table_arity` — the direct evidence that untouched columns are
/// never materialized.
fn m_columnar_cells() -> &'static erbium_obs::Counter {
    static H: OnceLock<Arc<erbium_obs::Counter>> = OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "engine_columnar_cells_total",
            "cells materialized by columnar kernels (rows x columns gathered)",
        )
    })
}

/// A pull-based cursor over row batches.
///
/// `Ok(Some(batch))` carries a non-empty batch; `Ok(None)` means the stream
/// is exhausted (and stays exhausted). Batch sizes are *approximately*
/// [`crate::exec::ExecContext::batch_size`]: operators may emit smaller
/// batches, and expanding operators (join, unnest) may emit larger ones.
pub trait RowStream {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>>;
}

/// An owned, borrowing stream (operators borrow the plan and catalog).
pub type BoxedRowStream<'a> = Box<dyn RowStream + 'a>;

// ---- compilation -----------------------------------------------------------

/// Compile a plan node into a metered operator stream plus its metrics node.
pub(crate) fn compile<'a>(
    plan: &'a Plan,
    cat: &'a Catalog,
    ctx: &ExecContext,
) -> EngineResult<(BoxedRowStream<'a>, Arc<OpMetrics>)> {
    if let Some((inner, metrics)) = compile_fused(plan, cat, ctx)? {
        return Ok((
            Box::new(MeterStream {
                inner,
                metrics: Arc::clone(&metrics),
                cancel: ctx.cancel_flag(),
            }),
            metrics,
        ));
    }
    let (inner, metrics): (BoxedRowStream<'a>, Arc<OpMetrics>) = match &plan.kind {
        PlanKind::Scan { table, filters, projection } => {
            let t = cat.table(table)?;
            let m = OpMetrics::new(format!("Scan {table}"), vec![]);
            (table_scan_stream(t, filters, projection.as_deref(), Arc::clone(&m), Vec::new(), ctx), m)
        }
        PlanKind::IndexLookup { table, columns, keys, residual } => {
            let t = cat.table(table)?;
            let m = OpMetrics::new(format!("IndexLookup {table}"), vec![]);
            (
                Box::new(IndexLookupStream {
                    t,
                    table_name: table,
                    columns,
                    keys,
                    residual,
                    next_key: 0,
                    batch: ctx.batch_size,
                    metrics: Arc::clone(&m),
                }),
                m,
            )
        }
        PlanKind::IndexRange { table, column, lo, hi, residual } => {
            let t = cat.table(table)?;
            let idx = t
                .indexes()
                .iter()
                .find(|i| i.columns == [*column])
                .ok_or_else(|| EngineError::Plan(format!("no index on #{column} of '{table}'")))?;
            // NULL sorts first in the index's total order, so excluding it
            // from below keeps an open-ended range to the non-NULL entries
            // the comparison it replaces would pass.
            let null = Value::Null;
            let lo_b = range_bound(lo, Bound::Excluded(&null))?;
            let rids = match (lo_b, range_bound(hi, Bound::Unbounded)?) {
                (Some(lo_b), Some(hi_b)) => idx.lookup_range(lo_b, hi_b).ok_or_else(|| {
                    EngineError::Plan(format!("index on #{column} of '{table}' is not ordered"))
                })?,
                _ => Vec::new(),
            };
            let m = OpMetrics::new(format!("IndexRange {table}"), vec![]);
            (
                Box::new(IndexRangeStream {
                    t,
                    rids,
                    pos: 0,
                    residual,
                    batch: ctx.batch_size,
                    metrics: Arc::clone(&m),
                }),
                m,
            )
        }
        PlanKind::Fetch { input, table, rid, columns } => {
            let t = cat.table(table)?;
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new(format!("Fetch {table}"), vec![cm]);
            (Box::new(FetchStream { input: child, t, rid: *rid, columns }), m)
        }
        PlanKind::Filter { input, predicate } => {
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new("Filter", vec![cm]);
            (Box::new(FilterStream { input: child, predicate }), m)
        }
        PlanKind::Project { input, exprs } => {
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new("Project", vec![cm]);
            (Box::new(ProjectStream { input: child, exprs }), m)
        }
        PlanKind::Join { left, right, kind, left_keys, right_keys } => {
            if left_keys.len() != right_keys.len() {
                return Err(EngineError::Plan("join key arity mismatch".into()));
            }
            let (l, lm) = compile(left, cat, ctx)?;
            let (r, rm) = compile(right, cat, ctx)?;
            let m = OpMetrics::new(format!("Join {kind:?}"), vec![lm, rm]);
            (
                Box::new(JoinStream {
                    left: l,
                    right: r,
                    kind: *kind,
                    left_keys,
                    right_keys,
                    right_arity: right.fields.len(),
                    threads: ctx.threads.max(1),
                    metrics: Arc::clone(&m),
                    build: None,
                }),
                m,
            )
        }
        PlanKind::Aggregate { input, group, aggs } => {
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new("Aggregate", vec![cm]);
            (
                Box::new(AggregateStream {
                    input: child,
                    group,
                    aggs,
                    batch: ctx.batch_size,
                    threads: ctx.threads.max(1),
                    metrics: Arc::clone(&m),
                    out: None,
                }),
                m,
            )
        }
        PlanKind::Unnest { input, column, keep_empty } => {
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new(format!("Unnest #{column}"), vec![cm]);
            (
                Box::new(UnnestStream { input: child, column: *column, keep_empty: *keep_empty }),
                m,
            )
        }
        PlanKind::Sort { input, keys } => {
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new("Sort", vec![cm]);
            (Box::new(SortStream { input: child, keys, batch: ctx.batch_size, out: None }), m)
        }
        PlanKind::Limit { input, limit } => {
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new(format!("Limit {limit}"), vec![cm]);
            (Box::new(LimitStream { input: child, remaining: *limit }), m)
        }
        PlanKind::Distinct { input } => {
            let (child, cm) = compile(input, cat, ctx)?;
            let m = OpMetrics::new("Distinct", vec![cm]);
            (Box::new(DistinctStream { input: child, seen: FxHashSet::default() }), m)
        }
        PlanKind::Union { inputs } => {
            let mut children = Vec::with_capacity(inputs.len());
            let mut cms = Vec::with_capacity(inputs.len());
            for p in inputs {
                let (c, cm) = compile(p, cat, ctx)?;
                children.push(c);
                cms.push(cm);
            }
            let m = OpMetrics::new("UnionAll", cms);
            (Box::new(UnionStream { children, idx: 0 }), m)
        }
        PlanKind::Values { rows } => {
            let m = OpMetrics::new("Values", vec![]);
            m.add_rows_in(rows.len() as u64);
            (Box::new(ValuesStream { rows, cursor: 0, batch: ctx.batch_size }), m)
        }
    };
    Ok((
        Box::new(MeterStream {
            inner,
            metrics: Arc::clone(&metrics),
            cancel: ctx.cancel_flag(),
        }),
        metrics,
    ))
}

// ---- pipeline fusion -------------------------------------------------------

/// One operator fused into a leaf's morsel jobs.
enum FusedOp<'a> {
    Filter(&'a Expr),
    Project(&'a [Expr]),
}

/// A fused operator plus its metrics node. Interior operators record their
/// own rows/batches from inside the morsel job (one "batch" per morsel);
/// the chain's *top* operator records nothing here (`record: false`), its
/// rows and batches are the enclosing [`MeterStream`]'s.
struct FusedStep<'a> {
    op: FusedOp<'a>,
    metrics: Arc<OpMetrics>,
    record: bool,
}

impl FusedStep<'_> {
    fn record_batch(&self, rows: usize) {
        if self.record {
            self.metrics.record_batch(rows as u64);
        }
    }
}

/// Run the fused operator chain over one morsel's rows, in place.
fn apply_fused(steps: &[FusedStep<'_>], rows: &mut Vec<Row>) -> EngineResult<()> {
    for step in steps {
        match step.op {
            FusedOp::Filter(pred) => {
                // Stable in-place compaction: survivors keep their order,
                // dropped rows are truncated away.
                let mut kept = 0;
                for i in 0..rows.len() {
                    if pred.eval_predicate(&rows[i])? {
                        rows.swap(kept, i);
                        kept += 1;
                    }
                }
                rows.truncate(kept);
            }
            FusedOp::Project(exprs) => {
                for row in rows.iter_mut() {
                    let mut new_row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        new_row.push(e.eval(row)?);
                    }
                    *row = new_row;
                }
            }
        }
        step.record_batch(rows.len());
    }
    Ok(())
}

/// Try to compile `plan` as a fused leaf pipeline: a chain of
/// `Filter`/`Project` nodes sitting directly above a morsel-driven `Scan`
/// executes inside the scan's morsel jobs instead of as serial post-passes.
/// The metrics tree keeps one node per plan operator (same shape as
/// unfused execution) with each node marked `[fused]`.
fn compile_fused<'a>(
    plan: &'a Plan,
    cat: &'a Catalog,
    ctx: &ExecContext,
) -> EngineResult<Option<(BoxedRowStream<'a>, Arc<OpMetrics>)>> {
    // Collect the Filter/Project chain (top-down) above the leaf.
    let mut chain: Vec<&'a Plan> = Vec::new();
    let mut base = plan;
    while let PlanKind::Filter { input, .. } | PlanKind::Project { input, .. } = &base.kind {
        chain.push(base);
        base = input;
    }
    if chain.is_empty() {
        return Ok(None);
    }
    // The base must be a morsel-driven scan.
    let PlanKind::Scan { table, filters, projection } = &base.kind else {
        return Ok(None);
    };
    let t = cat.table(table)?;
    // Build the plan-shaped metrics chain bottom-up plus the fused steps.
    let scan_m = OpMetrics::new(format!("Scan {table}"), vec![]);
    scan_m.mark_fused();
    let mut steps: Vec<FusedStep<'a>> = Vec::with_capacity(chain.len());
    let mut top_m = Arc::clone(&scan_m);
    for node in chain.iter().rev() {
        let (op, name) = match &node.kind {
            PlanKind::Filter { predicate, .. } => (FusedOp::Filter(predicate), "Filter"),
            PlanKind::Project { exprs, .. } => (FusedOp::Project(exprs), "Project"),
            _ => unreachable!("chain holds only Filter/Project nodes"),
        };
        let m = OpMetrics::new(name, vec![top_m]);
        m.mark_fused();
        steps.push(FusedStep { op, metrics: Arc::clone(&m), record: true });
        top_m = m;
    }
    // The chain's top node is metered by the enclosing MeterStream.
    steps.last_mut().expect("chain is non-empty").record = false;
    let stream = table_scan_stream(t, filters, projection.as_deref(), scan_m, steps, ctx);
    Ok(Some((stream, top_m)))
}

// ---- metering shim ---------------------------------------------------------

struct MeterStream<'a> {
    inner: BoxedRowStream<'a>,
    metrics: Arc<OpMetrics>,
    cancel: Arc<AtomicBool>,
}

impl RowStream for MeterStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(EngineError::Cancelled);
        }
        let start = Instant::now();
        let out = self.inner.next_batch();
        self.metrics.add_elapsed_ns(start.elapsed().as_nanos() as u64);
        if let Ok(Some(batch)) = &out {
            self.metrics.record_batch(batch.len() as u64);
        }
        out
    }
}

// ---- morsel-driven leaf scans ----------------------------------------------

/// A morsel job: process the slot range, appending output rows to `out`
/// (a reusable per-worker buffer that arrives cleared, with its previous
/// wave's capacity intact).
type MorselWork<'a> = Box<dyn Fn(Range<usize>, &mut Vec<Row>) -> EngineResult<()> + Sync + 'a>;

/// Leaf stream over a slot space `0..total`, processed in contiguous
/// morsels. With `threads > 1` each pull runs one wave of up to `threads`
/// morsels on the shared [`WorkerPool`]; outputs are buffered in morsel
/// order, so results are deterministic regardless of thread count. The
/// stream is lazy between waves: a `Limit` upstream that stops pulling
/// stops the scan.
struct MorselStream<'a> {
    work: MorselWork<'a>,
    total: usize,
    next: usize,
    threads: usize,
    morsel: usize,
    batch: usize,
    cancel: Arc<AtomicBool>,
    buffer: VecDeque<Vec<Row>>,
    /// Per-worker output buffers, reused (capacity and all) across waves
    /// instead of allocating a fresh `Vec<Row>` per morsel per pull.
    scratch: Vec<Vec<Row>>,
    /// Node that records pool waves / workers used.
    metrics: Arc<OpMetrics>,
}

impl<'a> MorselStream<'a> {
    fn new(
        work: MorselWork<'a>,
        total: usize,
        ctx: &ExecContext,
        metrics: Arc<OpMetrics>,
    ) -> MorselStream<'a> {
        MorselStream {
            work,
            total,
            next: 0,
            threads: ctx.threads.max(1),
            morsel: ctx.morsel_size.max(1),
            batch: ctx.batch_size.max(1),
            cancel: ctx.cancel_flag(),
            buffer: VecDeque::new(),
            scratch: Vec::new(),
            metrics,
        }
    }
}

impl RowStream for MorselStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        loop {
            if let Some(b) = self.buffer.pop_front() {
                debug_assert!(!b.is_empty());
                return Ok(Some(b));
            }
            if self.next >= self.total {
                return Ok(None);
            }
            if self.cancel.load(Ordering::Relaxed) {
                return Err(EngineError::Cancelled);
            }
            // One wave: up to `threads` contiguous morsels.
            let mut ranges: Vec<Range<usize>> = Vec::new();
            while ranges.len() < self.threads && self.next < self.total {
                let end = (self.next + self.morsel).min(self.total);
                ranges.push(self.next..end);
                self.next = end;
            }
            let mut bufs = std::mem::take(&mut self.scratch);
            if bufs.len() < ranges.len() {
                bufs.resize_with(ranges.len(), Vec::new);
            }
            for b in &mut bufs {
                b.clear();
            }
            if self.threads <= 1 || ranges.len() <= 1 {
                for (r, buf) in ranges.into_iter().zip(&mut bufs) {
                    (self.work)(r, buf)?;
                }
            } else {
                let work = &self.work;
                let tasks: Vec<_> = ranges
                    .into_iter()
                    .zip(bufs.iter_mut())
                    .map(|(r, buf)| move || work(r, buf))
                    .collect();
                let (results, workers) = WorkerPool::global().run_scoped(tasks);
                self.metrics.record_wave(workers as u64);
                for res in results {
                    res.map_err(|m| {
                        EngineError::Eval(format!("morsel worker panicked: {m}"))
                    })??;
                }
            }
            for buf in &mut bufs {
                drain_chunked(&mut self.buffer, buf, self.batch);
            }
            self.scratch = bufs;
        }
    }
}

/// Move rows out of `buf` into `queue` in batches of at most `batch`
/// (dropping nothing, never queueing an empty batch), preserving order.
///
/// Allocation behaviour: when the whole buffer fits one batch — the
/// common case, since morsels are sized near the batch target — the
/// buffer's allocation is handed to the queue wholesale (zero per-row
/// moves, zero copies); the scratch slot then starts the next wave empty
/// and regrows once, which costs the same single allocation the old
/// per-chunk `collect` paid but skips the row-by-row copy. Larger buffers
/// are split into exact-capacity chunks (`Drain` is an
/// `ExactSizeIterator`, so each chunk allocates exactly once) and `buf`
/// keeps its capacity for the next wave.
fn drain_chunked(queue: &mut VecDeque<Vec<Row>>, buf: &mut Vec<Row>, batch: usize) {
    if buf.is_empty() {
        return;
    }
    if buf.len() <= batch {
        queue.push_back(std::mem::take(buf));
        return;
    }
    let mut it = buf.drain(..);
    loop {
        let n = it.len().min(batch);
        if n == 0 {
            break;
        }
        let mut chunk = Vec::with_capacity(n);
        chunk.extend(it.by_ref().take(n));
        queue.push_back(chunk);
    }
}

/// Split owned `rows` into at most `batch`-sized batches on a queue.
fn push_chunked(buf: &mut VecDeque<Vec<Row>>, mut rows: Vec<Row>, batch: usize) {
    while rows.len() > batch {
        let rest = rows.split_off(batch);
        buf.push_back(std::mem::replace(&mut rows, rest));
    }
    if !rows.is_empty() {
        buf.push_back(rows);
    }
}

// ---- columnar (vectorized) kernels -----------------------------------------

/// One fused step compiled onto the columnar path: either a vector
/// predicate narrowing the selection, or a pure column remap (a
/// `Project` of bare column references, folded into the gather mapping).
enum VOp {
    Filter(VecPred),
    Remap,
}

/// Row-evaluate residual (non-vectorizable) predicates over the selected
/// slots, compacting `sel` in place in selection order — left to right,
/// row at a time, so a predicate that errors does so on the same row a
/// row-by-row filter would reach first. These reads borrow the row pages
/// (`Table::get`), so a residual predicate faults evicted pages back in.
fn apply_residual(
    t: &Table,
    residual: &[Expr],
    sel: &mut Vec<usize>,
) -> EngineResult<()> {
    if residual.is_empty() {
        return Ok(());
    }
    let mut kept = 0;
    'slots: for i in 0..sel.len() {
        let s = sel[i];
        let row = t.get(RowId(s as u64)).expect("selected slot is live");
        for f in residual {
            if !f.eval_predicate(row)? {
                continue 'slots;
            }
        }
        sel[kept] = s;
        kept += 1;
    }
    sel.truncate(kept);
    Ok(())
}

/// The morsel scan over one table: build a selection vector of live slots,
/// narrow it with compiled vector predicates (scan filters first, then the
/// vectorizable prefix of the fused chain), row-evaluate residuals, and
/// late-materialize survivors column-at-a-time through the pruned
/// projection. Bit-identical to filtering `Table::scan` row by row:
/// selection order is slot order, predicates replicate `Value` semantics,
/// and any fused suffix that could not vectorize runs via [`apply_fused`]
/// on the gathered rows.
fn table_scan_stream<'a>(
    t: &'a Table,
    filters: &'a [Expr],
    projection: Option<&'a [usize]>,
    scan_m: Arc<OpMetrics>,
    steps: Vec<FusedStep<'a>>,
    ctx: &ExecContext,
) -> BoxedRowStream<'a> {
    scan_m.mark_columnar();
    let total = t.slot_count();
    let wave_m = Arc::clone(&scan_m);
    let fused = !steps.is_empty();
    // Scan filters live in the table's own column space.
    let identity: Vec<usize> = (0..t.schema().arity()).collect();
    let (preds, residual) = vplan::split_filters(filters, t, &identity);
    // `mapping[out_col]` = table column feeding output column `out_col`.
    let mut mapping: Vec<usize> = match projection {
        Some(p) => p.to_vec(),
        None => identity,
    };
    // Compile the maximal vectorizable prefix of the fused chain; the
    // remainder runs row-shaped on the gathered output (`tail`).
    let mut vsteps: Vec<(VOp, FusedStep<'a>)> = Vec::new();
    let mut tail: Vec<FusedStep<'a>> = Vec::new();
    let mut it = steps.into_iter();
    for step in it.by_ref() {
        let compiled = match &step.op {
            FusedOp::Filter(pred) => vplan::compile_pred(pred, t, &mapping).map(VOp::Filter),
            FusedOp::Project(exprs) => vplan::compose_projection(exprs, &mapping).map(|m| {
                mapping = m;
                VOp::Remap
            }),
        };
        match compiled {
            Some(op) => {
                step.metrics.mark_columnar();
                vsteps.push((op, step));
            }
            None => {
                tail.push(step);
                break;
            }
        }
    }
    tail.extend(it);
    let work = move |range: Range<usize>, out: &mut Vec<Row>| -> EngineResult<()> {
        let mut sel: Vec<usize> = Vec::new();
        vector::live_selection(t.live_slots(), range, &mut sel);
        scan_m.add_rows_in(sel.len() as u64);
        for p in &preds {
            vector::apply_pred(p, t, &mut sel);
        }
        apply_residual(t, residual, &mut sel)?;
        if fused {
            // Fused pipeline: record the scan's own emission here (the
            // enclosing meter only sees the chain's top operator).
            scan_m.record_batch(sel.len() as u64);
        }
        for (op, step) in &vsteps {
            if let VOp::Filter(p) = op {
                vector::apply_pred(p, t, &mut sel);
            }
            step.record_batch(sel.len());
        }
        vector::gather_rows(t, &mapping, &sel, out);
        m_columnar_cells().add((sel.len() * mapping.len()) as u64);
        m_columnar_batches().inc();
        if !tail.is_empty() {
            apply_fused(&tail, out)?;
        }
        Ok(())
    };
    Box::new(MorselStream::new(Box::new(work), total, ctx, wave_m))
}

// ---- index leaves ----------------------------------------------------------

struct IndexLookupStream<'a> {
    t: &'a Table,
    table_name: &'a str,
    columns: &'a [usize],
    keys: &'a [Expr],
    residual: &'a [Expr],
    next_key: usize,
    batch: usize,
    metrics: Arc<OpMetrics>,
}

impl RowStream for IndexLookupStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        let mut out = Vec::new();
        while self.next_key < self.keys.len() && out.len() < self.batch {
            let key = self.keys[self.next_key].bound_value()?;
            self.next_key += 1;
            // `col = NULL` holds for no row, NULL-keyed entries included.
            if key.is_null() {
                continue;
            }
            let matches = self.t.index_lookup(self.columns, key).ok_or_else(|| {
                EngineError::Plan(format!(
                    "no index on {:?} of '{}'",
                    self.columns, self.table_name
                ))
            })?;
            self.metrics.add_rows_in(matches.len() as u64);
            'rows: for (_, row) in matches {
                for f in self.residual {
                    if !f.eval_predicate(row)? {
                        continue 'rows;
                    }
                }
                out.push(row.clone());
            }
        }
        Ok(if out.is_empty() { None } else { Some(out) })
    }
}

/// One end of an index range, or `None` for a NULL bound, which no entry
/// satisfies (`col < NULL` holds for no row).
fn range_bound<'v>(
    b: &'v Option<(Expr, bool)>,
    open: Bound<&'v Value>,
) -> EngineResult<Option<Bound<&'v Value>>> {
    let Some((e, inclusive)) = b else { return Ok(Some(open)) };
    let v = e.bound_value()?;
    Ok(match (v.is_null(), inclusive) {
        (true, _) => None,
        (false, true) => Some(Bound::Included(v)),
        (false, false) => Some(Bound::Excluded(v)),
    })
}

struct IndexRangeStream<'a> {
    t: &'a Table,
    rids: Vec<RowId>,
    pos: usize,
    residual: &'a [Expr],
    batch: usize,
    metrics: Arc<OpMetrics>,
}

impl RowStream for IndexRangeStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        let mut out = Vec::new();
        'rids: while self.pos < self.rids.len() && out.len() < self.batch {
            let rid = self.rids[self.pos];
            self.pos += 1;
            let Some(row) = self.t.get(rid) else { continue };
            self.metrics.add_rows_in(1);
            for f in self.residual {
                if !f.eval_predicate(row)? {
                    continue 'rids;
                }
            }
            out.push(row.clone());
        }
        Ok(if out.is_empty() { None } else { Some(out) })
    }
}

// ---- simple leaves ---------------------------------------------------------

struct ValuesStream<'a> {
    rows: &'a [Row],
    cursor: usize,
    batch: usize,
}

impl RowStream for ValuesStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        if self.cursor >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.batch.max(1)).min(self.rows.len());
        let out = self.rows[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(Some(out))
    }
}

// ---- pipelined operators ---------------------------------------------------

/// The `Fetch` operator: per input batch, check every row id against the
/// table's live-slot bitmap, then append the fetched rows to the input rows
/// column at a time from the column mirror (the gather a columnar scan
/// ends with).
struct FetchStream<'a> {
    input: BoxedRowStream<'a>,
    t: &'a Table,
    rid: usize,
    /// The columns of `t` to append, in order: the gather mapping.
    columns: &'a [usize],
}

impl RowStream for FetchStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        let Some(mut batch) = self.input.next_batch()? else { return Ok(None) };
        let live = self.t.live_slots();
        let mut slots = Vec::with_capacity(batch.len());
        for row in &batch {
            match row[self.rid] {
                Value::Int(id) if usize::try_from(id).is_ok_and(|s| live.get(s)) => {
                    slots.push(id as usize)
                }
                ref v => {
                    return Err(EngineError::Eval(format!(
                        "row id {v} names no live row of '{}'",
                        self.t.name()
                    )))
                }
            }
        }
        for row in &mut batch {
            row.reserve_exact(self.columns.len());
        }
        vector::append_columns(self.t, self.columns, &slots, &mut batch);
        Ok(Some(batch))
    }
}

struct FilterStream<'a> {
    input: BoxedRowStream<'a>,
    predicate: &'a Expr,
}

impl RowStream for FilterStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        loop {
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            let mut out = Vec::with_capacity(batch.len());
            for row in batch {
                if self.predicate.eval_predicate(&row)? {
                    out.push(row);
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

struct ProjectStream<'a> {
    input: BoxedRowStream<'a>,
    exprs: &'a [Expr],
}

impl RowStream for ProjectStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        let Some(batch) = self.input.next_batch()? else { return Ok(None) };
        let mut out = Vec::with_capacity(batch.len());
        for row in batch {
            let mut new_row = Vec::with_capacity(self.exprs.len());
            for e in self.exprs {
                new_row.push(e.eval(&row)?);
            }
            out.push(new_row);
        }
        Ok(Some(out))
    }
}

struct UnnestStream<'a> {
    input: BoxedRowStream<'a>,
    column: usize,
    keep_empty: bool,
}

impl RowStream for UnnestStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        loop {
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            let mut out = Vec::with_capacity(batch.len());
            for mut row in batch {
                match &row[self.column] {
                    Value::Null => {
                        if self.keep_empty {
                            out.push(row);
                        }
                    }
                    Value::Array(_) => {
                        let Value::Array(vs) =
                            std::mem::replace(&mut row[self.column], Value::Null)
                        else {
                            unreachable!("just matched Array")
                        };
                        if vs.is_empty() {
                            if self.keep_empty {
                                // Column already replaced with NULL.
                                out.push(row);
                            }
                            continue;
                        }
                        let last = vs.len() - 1;
                        let mut it = vs.into_iter();
                        for _ in 0..last {
                            let v = it.next().expect("length checked");
                            let mut new_row = row.clone();
                            new_row[self.column] = v;
                            out.push(new_row);
                        }
                        // Move the original row for the final element: no clone.
                        row[self.column] = it.next().expect("length checked");
                        out.push(row);
                    }
                    other => {
                        return Err(EngineError::Eval(format!(
                            "unnest over non-array value {other}"
                        )))
                    }
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

struct LimitStream<'a> {
    input: BoxedRowStream<'a>,
    remaining: usize,
}

impl RowStream for LimitStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        if self.remaining == 0 {
            // Early termination: never pull the child again.
            return Ok(None);
        }
        match self.input.next_batch()? {
            None => {
                self.remaining = 0;
                Ok(None)
            }
            Some(mut batch) => {
                if batch.len() > self.remaining {
                    batch.truncate(self.remaining);
                }
                self.remaining -= batch.len();
                Ok(Some(batch))
            }
        }
    }
}

struct DistinctStream<'a> {
    input: BoxedRowStream<'a>,
    seen: FxHashSet<Row>,
}

impl RowStream for DistinctStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        loop {
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            let mut out = Vec::new();
            for row in batch {
                // Clone only first-seen rows; duplicates are dropped without
                // the per-row clone the materializing executor paid.
                if !self.seen.contains(&row) {
                    self.seen.insert(row.clone());
                    out.push(row);
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

struct UnionStream<'a> {
    children: Vec<BoxedRowStream<'a>>,
    idx: usize,
}

impl RowStream for UnionStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        while self.idx < self.children.len() {
            match self.children[self.idx].next_batch()? {
                Some(b) if !b.is_empty() => return Ok(Some(b)),
                Some(_) => continue,
                None => self.idx += 1,
            }
        }
        Ok(None)
    }
}

// ---- hash keys -------------------------------------------------------------

/// The key of a join or group-by hash table, evaluated from a list of
/// expressions: `()` for none (a global aggregate), a bare [`Value`] for
/// one — the common case for the mapping layer's FK joins and groupings,
/// with no per-row `Vec` allocation — and `Vec<Value>` for several.
trait HashKey: Clone + Eq + Hash + Send + Sync + 'static {
    /// Evaluate `exprs` over `row`, left to right. With `null_stops` the
    /// first NULL ends evaluation with `None` (a NULL join key never
    /// matches); without it NULL is an ordinary key value (NULL group keys
    /// fall into one group).
    fn eval(exprs: &[Expr], row: &[Value], null_stops: bool) -> EngineResult<Option<Self>>;
    /// The key's values as the start of an output row with room for
    /// `extra` more.
    fn into_row(self, extra: usize) -> Row;
}

impl HashKey for () {
    fn eval(_: &[Expr], _: &[Value], _: bool) -> EngineResult<Option<()>> {
        Ok(Some(()))
    }

    fn into_row(self, extra: usize) -> Row {
        Vec::with_capacity(extra)
    }
}

impl HashKey for Value {
    fn eval(exprs: &[Expr], row: &[Value], null_stops: bool) -> EngineResult<Option<Value>> {
        let [e] = exprs else { unreachable!("a Value key has exactly one expression") };
        let v = e.eval(row)?;
        Ok(if null_stops && v.is_null() { None } else { Some(v) })
    }

    fn into_row(self, extra: usize) -> Row {
        let mut row = Vec::with_capacity(1 + extra);
        row.push(self);
        row
    }
}

impl HashKey for Vec<Value> {
    fn eval(exprs: &[Expr], row: &[Value], null_stops: bool) -> EngineResult<Option<Vec<Value>>> {
        let mut key = Vec::with_capacity(exprs.len());
        for e in exprs {
            let v = e.eval(row)?;
            if null_stops && v.is_null() {
                return Ok(None);
            }
            key.push(v);
        }
        Ok(Some(key))
    }

    fn into_row(mut self, extra: usize) -> Row {
        self.reserve(extra);
        self
    }
}

// ---- hash join -------------------------------------------------------------

/// Minimum probe-chunk size (rows) before the probe side fans out to the
/// pool; smaller batches probe inline to keep small queries cheap.
const PROBE_FANOUT_MIN: usize = 16;

struct JoinStream<'a> {
    left: BoxedRowStream<'a>,
    right: BoxedRowStream<'a>,
    kind: JoinKind,
    left_keys: &'a [Expr],
    right_keys: &'a [Expr],
    right_arity: usize,
    threads: usize,
    metrics: Arc<OpMetrics>,
    build: Option<Box<dyn Probe>>,
}

/// Build-side hash table: join key -> ascending build-row indexes.
type KeyTable<K> = FxHashMap<K, Vec<usize>>;

/// The hashed build side: the drained build rows plus their key table.
struct JoinBuild<K> {
    rows: Vec<Row>,
    table: KeyTable<K>,
}

/// A hashed build side, whatever its key type.
trait Probe: Sync {
    /// Probe one chunk of owned left rows against the build table. Pure
    /// function of the chunk's row order, so chunk outputs concatenated in
    /// chunk order are identical to a sequential probe of the whole batch.
    fn probe_batch(
        &self,
        kind: JoinKind,
        left_keys: &[Expr],
        right_arity: usize,
        batch: Vec<Row>,
    ) -> EngineResult<Vec<Row>>;
}

impl<K: HashKey> JoinBuild<K> {
    /// Hash the drained build rows on `keys`. With `threads > 1` the key
    /// evaluation + insertion runs on pool workers over contiguous chunks
    /// whose partial tables are merged in chunk order — per-key row indexes
    /// stay ascending, so probe output order matches sequential execution.
    fn hash(
        rows: Vec<Row>,
        keys: &[Expr],
        threads: usize,
        metrics: &OpMetrics,
    ) -> EngineResult<Box<dyn Probe>> {
        let table: KeyTable<K> = if threads > 1 && rows.len() >= 2 {
            parallel_hash_build(&rows, keys, threads, metrics)?
        } else {
            hash_build_range(&rows, keys, 0, rows.len())?
        };
        Ok(Box::new(JoinBuild { rows, table }))
    }
}

impl<K: HashKey> Probe for JoinBuild<K> {
    fn probe_batch(
        &self,
        kind: JoinKind,
        left_keys: &[Expr],
        right_arity: usize,
        batch: Vec<Row>,
    ) -> EngineResult<Vec<Row>> {
        let mut out = Vec::new();
        for lrow in batch {
            // NULL keys never join.
            let matches = match K::eval(left_keys, &lrow, true)? {
                Some(key) => self.table.get(&key),
                None => None,
            };
            match kind {
                JoinKind::Inner => {
                    if let Some(idxs) = matches {
                        for &i in idxs {
                            let mut row = Vec::with_capacity(lrow.len() + right_arity);
                            row.extend_from_slice(&lrow);
                            row.extend_from_slice(&self.rows[i]);
                            out.push(row);
                        }
                    }
                }
                JoinKind::Left => match matches {
                    Some(idxs) if !idxs.is_empty() => {
                        for &i in idxs {
                            let mut row = Vec::with_capacity(lrow.len() + right_arity);
                            row.extend_from_slice(&lrow);
                            row.extend_from_slice(&self.rows[i]);
                            out.push(row);
                        }
                    }
                    _ => {
                        let mut row = Vec::with_capacity(lrow.len() + right_arity);
                        row.extend_from_slice(&lrow);
                        row.extend(std::iter::repeat_n(Value::Null, right_arity));
                        out.push(row);
                    }
                },
                JoinKind::Semi => {
                    if matches.is_some_and(|m| !m.is_empty()) {
                        // Left rows are owned: emit by move, no clone.
                        out.push(lrow);
                    }
                }
            }
        }
        Ok(out)
    }
}

impl JoinStream<'_> {
    /// Drain the build (right) side and hash it on a key type chosen by
    /// the key count.
    fn build_side(&mut self) -> EngineResult<()> {
        if self.build.is_some() {
            return Ok(());
        }
        let mut rows: Vec<Row> = Vec::new();
        while let Some(b) = self.right.next_batch()? {
            rows.extend(b);
        }
        let (keys, threads, metrics) = (self.right_keys, self.threads, &self.metrics);
        self.build = Some(match keys.len() {
            1 => JoinBuild::<Value>::hash(rows, keys, threads, metrics)?,
            _ => JoinBuild::<Vec<Value>>::hash(rows, keys, threads, metrics)?,
        });
        Ok(())
    }
}

fn hash_build_range<K: HashKey>(
    rows: &[Row],
    keys: &[Expr],
    lo: usize,
    hi: usize,
) -> EngineResult<KeyTable<K>> {
    let mut table = KeyTable::<K>::default();
    for (i, row) in rows[lo..hi].iter().enumerate() {
        // NULL keys never join.
        if let Some(key) = K::eval(keys, row, true)? {
            table.entry(key).or_default().push(lo + i);
        }
    }
    Ok(table)
}

fn parallel_hash_build<K: HashKey>(
    rows: &[Row],
    keys: &[Expr],
    threads: usize,
    metrics: &OpMetrics,
) -> EngineResult<KeyTable<K>> {
    let chunk = rows.len().div_ceil(threads).max(1);
    let mut tasks = Vec::with_capacity(threads);
    let mut lo = 0;
    while lo < rows.len() {
        let hi = (lo + chunk).min(rows.len());
        tasks.push(move || hash_build_range::<K>(rows, keys, lo, hi));
        lo = hi;
    }
    let (results, workers) = WorkerPool::global().run_scoped(tasks);
    metrics.record_wave(workers as u64);
    let mut merged = KeyTable::<K>::default();
    for part in results {
        let part = part
            .map_err(|m| EngineError::Eval(format!("join build worker panicked: {m}")))??;
        for (k, mut v) in part {
            merged.entry(k).or_default().append(&mut v);
        }
    }
    Ok(merged)
}

/// Split owned `rows` into up to `parts` contiguous chunks of at least
/// `min_chunk` rows, preserving order.
fn split_owned(mut rows: Vec<Row>, parts: usize, min_chunk: usize) -> Vec<Vec<Row>> {
    let per = rows.len().div_ceil(parts.max(1)).max(min_chunk).max(1);
    let mut out = Vec::with_capacity(parts);
    while rows.len() > per {
        let tail = rows.split_off(per);
        out.push(std::mem::replace(&mut rows, tail));
    }
    out.push(rows);
    out
}

impl RowStream for JoinStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        self.build_side()?;
        loop {
            let Some(batch) = self.left.next_batch()? else { return Ok(None) };
            let build: &dyn Probe = self.build.as_deref().expect("built above");
            let (kind, keys, arity) = (self.kind, self.left_keys, self.right_arity);
            let out = if self.threads > 1 && batch.len() >= 2 * PROBE_FANOUT_MIN {
                // Morsel-partition the probe batch across the pool; chunk
                // outputs concatenate in chunk order (deterministic).
                let parts = split_owned(batch, self.threads, PROBE_FANOUT_MIN);
                let tasks: Vec<_> = parts
                    .into_iter()
                    .map(|chunk| move || build.probe_batch(kind, keys, arity, chunk))
                    .collect();
                let (results, workers) = WorkerPool::global().run_scoped(tasks);
                self.metrics.record_wave(workers as u64);
                let mut out = Vec::new();
                for r in results {
                    out.extend(r.map_err(|m| {
                        EngineError::Eval(format!("join probe worker panicked: {m}"))
                    })??);
                }
                out
            } else {
                build.probe_batch(kind, keys, arity, batch)?
            };
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

// ---- pipeline breakers -----------------------------------------------------

/// Fixed partial-aggregation chunk size (rows). Chunk boundaries are a
/// pure function of the global input row index — independent of batch
/// size, morsel size, and thread count — so the partial-merge tree (and
/// with it any float rounding) is identical across every configuration,
/// including fully sequential execution.
const AGG_CHUNK: usize = 1024;

struct AggregateStream<'a> {
    input: BoxedRowStream<'a>,
    group: &'a [Expr],
    aggs: &'a [AggCall],
    batch: usize,
    threads: usize,
    metrics: Arc<OpMetrics>,
    out: Option<VecDeque<Vec<Row>>>,
}

/// Partial (or global) aggregation state: one hash table of group keys to
/// accumulator rows, preserving first-seen group order. A global
/// aggregate (no GROUP BY) is the one group of the unit key.
struct GroupedAcc<K> {
    map: FxHashMap<K, usize>,
    states: Vec<(K, Vec<Accumulator>)>,
}

impl<K: HashKey> GroupedAcc<K> {
    fn new() -> GroupedAcc<K> {
        GroupedAcc { map: FxHashMap::default(), states: Vec::new() }
    }

    fn update(&mut self, group: &[Expr], aggs: &[AggCall], row: &Row) -> EngineResult<()> {
        let key = K::eval(group, row, false)?.expect("group keys keep NULLs");
        let slot = match self.map.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let s = self.states.len();
                self.states.push((e.key().clone(), aggs.iter().map(|a| a.accumulator()).collect()));
                e.insert(s);
                s
            }
        };
        let (_, accs) = &mut self.states[slot];
        for (acc, call) in accs.iter_mut().zip(aggs) {
            acc.update(call.arg.eval(row)?)?;
        }
        Ok(())
    }

    /// Merge a later partial into `self`. Groups first seen in `other`
    /// append in `other`'s order, so absorbing partials in chunk order
    /// reproduces the global first-seen group order (and `ARRAY_AGG`
    /// element order) of sequential execution exactly.
    fn absorb(&mut self, other: GroupedAcc<K>) -> EngineResult<()> {
        for (key, accs) in other.states {
            match self.map.get(&key) {
                Some(&s) => {
                    for (acc, part) in self.states[s].1.iter_mut().zip(accs) {
                        acc.merge(part)?;
                    }
                }
                None => {
                    self.map.insert(key.clone(), self.states.len());
                    self.states.push((key, accs));
                }
            }
        }
        Ok(())
    }

    /// Finalize into output rows (first-seen group order).
    fn finish(self) -> Vec<Row> {
        self.states
            .into_iter()
            .map(|(key, accs)| {
                let mut row = key.into_row(accs.len());
                row.extend(accs.into_iter().map(Accumulator::finish));
                row
            })
            .collect()
    }
}

impl AggregateStream<'_> {
    /// Aggregate the whole input on a key type chosen by the group-key
    /// count.
    fn run(&mut self) -> EngineResult<VecDeque<Vec<Row>>> {
        let mut rows = match self.group.len() {
            0 => self.fold_input::<()>()?,
            1 => self.fold_input::<Value>()?,
            _ => self.fold_input::<Vec<Value>>()?,
        };
        if rows.is_empty() && self.group.is_empty() {
            // A global aggregate yields its one row even over no input.
            rows.push(self.aggs.iter().map(|a| a.accumulator().finish()).collect());
        }
        let mut out = VecDeque::new();
        push_chunked(&mut out, rows, self.batch);
        Ok(out)
    }

    /// Consume the input batch-by-batch, folding fixed-size row chunks
    /// into partial hash tables that merge into the global state in chunk
    /// order. With `threads > 1`, waves of complete chunks aggregate in
    /// parallel on the pool; the chunk boundaries and merge order — and
    /// therefore the result, bit for bit — are the same either way.
    fn fold_input<K: HashKey>(&mut self) -> EngineResult<Vec<Row>> {
        let mut global = GroupedAcc::<K>::new();
        let mut pending: Vec<Row> = Vec::new();
        loop {
            let batch = self.input.next_batch()?;
            let done = batch.is_none();
            if let Some(b) = batch {
                pending.extend(b);
            }
            // Fold once `threads` complete chunks are buffered (one wave's
            // worth), or everything that remains at end of input.
            let ready = if done {
                pending.len()
            } else {
                let full = pending.len() / AGG_CHUNK;
                if full < self.threads { 0 } else { full * AGG_CHUNK }
            };
            if ready > 0 {
                let rest = pending.split_off(ready);
                let take = std::mem::replace(&mut pending, rest);
                self.fold_chunks(&mut global, &take)?;
            }
            if done {
                break;
            }
        }
        Ok(global.finish())
    }

    /// Aggregate `rows` in [`AGG_CHUNK`]-sized chunks and absorb the
    /// partials into `global` in chunk order.
    fn fold_chunks<K: HashKey>(
        &self,
        global: &mut GroupedAcc<K>,
        rows: &[Row],
    ) -> EngineResult<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let (group, aggs) = (self.group, self.aggs);
        let build = |chunk: &[Row]| -> EngineResult<GroupedAcc<K>> {
            let mut partial = GroupedAcc::new();
            for row in chunk {
                partial.update(group, aggs, row)?;
            }
            Ok(partial)
        };
        let chunks: Vec<&[Row]> = rows.chunks(AGG_CHUNK).collect();
        let partials: Vec<GroupedAcc<K>> = if self.threads > 1 && chunks.len() > 1 {
            let build = &build;
            let tasks: Vec<_> = chunks
                .iter()
                .map(|c| {
                    let c: &[Row] = c;
                    move || build(c)
                })
                .collect();
            let (results, workers) = WorkerPool::global().run_scoped(tasks);
            self.metrics.record_wave(workers as u64);
            let mut parts = Vec::with_capacity(results.len());
            for r in results {
                parts.push(r.map_err(|m| {
                    EngineError::Eval(format!("aggregate worker panicked: {m}"))
                })??);
            }
            parts
        } else {
            let mut parts = Vec::with_capacity(chunks.len());
            for c in chunks {
                parts.push(build(c)?);
            }
            parts
        };
        for p in partials {
            global.absorb(p)?;
        }
        Ok(())
    }
}

impl RowStream for AggregateStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        if self.out.is_none() {
            let out = self.run()?;
            self.out = Some(out);
        }
        Ok(self.out.as_mut().expect("just filled").pop_front())
    }
}

struct SortStream<'a> {
    input: BoxedRowStream<'a>,
    keys: &'a [SortKey],
    batch: usize,
    out: Option<VecDeque<Vec<Row>>>,
}

impl SortStream<'_> {
    fn run(&mut self) -> EngineResult<VecDeque<Vec<Row>>> {
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            for row in batch {
                let mut k = Vec::with_capacity(self.keys.len());
                for sk in self.keys {
                    k.push(sk.expr.eval(&row)?);
                }
                keyed.push((k, row));
            }
        }
        let keys = self.keys;
        keyed.sort_by(|(a, _), (b, _)| {
            for (i, sk) in keys.iter().enumerate() {
                let ord = a[i].cmp(&b[i]);
                let ord = if sk.desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
        let mut out = VecDeque::new();
        push_chunked(&mut out, rows, self.batch);
        Ok(out)
    }
}

impl RowStream for SortStream<'_> {
    fn next_batch(&mut self) -> EngineResult<Option<Vec<Row>>> {
        if self.out.is_none() {
            let out = self.run()?;
            self.out = Some(out);
        }
        Ok(self.out.as_mut().expect("just filled").pop_front())
    }
}
