//! Vectorized kernels: selection-vector construction, predicate
//! application over typed column slices, and column-at-a-time row
//! materialization (gather).
//!
//! Invariant (enforced by a check.sh grep gate): this file contains no
//! per-row `Value` enum match. Kernels branch once per *column* on the
//! slice variant, then run a tight loop over primitive data —
//! `Value`-shaped decisions all happen at compile time in
//! [`crate::vplan`]. Constructing `Value`s during gather is fine; it is
//! the per-row enum dispatch the columnar path exists to eliminate.

use crate::vplan::VecPred;
use erbium_storage::{Bitmap, ColumnSlice, RowId, Table, Value};
use std::ops::Range;
use std::sync::Arc;

/// Append the live slots of `range` to `sel`, in ascending slot order.
pub(crate) fn live_selection(live: &Bitmap, range: Range<usize>, sel: &mut Vec<usize>) {
    for s in range {
        if live.get(s) {
            sel.push(s);
        }
    }
}

/// Filter `sel` in place by one compiled predicate, preserving order.
///
/// Every arm masks by the validity bitmap first: NULL never qualifies a
/// comparison (matching row-at-a-time `Expr` evaluation, where NULL
/// operands make the predicate NULL, hence not TRUE).
pub(crate) fn apply_pred(pred: &VecPred, t: &Table, sel: &mut Vec<usize>) {
    match pred {
        VecPred::IntCmp { col, set, lit } => {
            let Some(ColumnSlice::Int { data, valid }) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| valid.get(s) && set.accepts(data[s].cmp(lit)));
        }
        VecPred::IntAsFloatCmp { col, set, lit } => {
            let Some(ColumnSlice::Int { data, valid }) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| valid.get(s) && set.accepts((data[s] as f64).total_cmp(lit)));
        }
        VecPred::FloatCmp { col, set, lit } => {
            let Some(ColumnSlice::Float { data, valid }) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| valid.get(s) && set.accepts(data[s].total_cmp(lit)));
        }
        VecPred::BoolCmp { col, set, lit } => {
            let Some(ColumnSlice::Bool { data, valid }) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| valid.get(s) && set.accepts(data[s].cmp(lit)));
        }
        VecPred::DictCmp { col, keep } => {
            let Some(ColumnSlice::Str { codes, valid, .. }) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| valid.get(s) && keep[codes[s] as usize]);
        }
        VecPred::Const { col, keep } => {
            let Some(slice) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| slice.is_valid(s) && *keep);
        }
        VecPred::IsNull { col } => {
            let Some(slice) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| !slice.is_valid(s));
        }
        VecPred::IsNotNull { col } => {
            let Some(slice) = t.column_slice(*col) else {
                sel.clear();
                return;
            };
            sel.retain(|&s| slice.is_valid(s));
        }
        VecPred::Nothing => sel.clear(),
    }
}

/// Materialize the selected slots as rows, one *column* at a time.
///
/// `mapping[out_col]` names the table column feeding output column
/// `out_col`. Scalar columns are rebuilt from their typed vectors;
/// columns without a typed slice (arrays/structs) fall back to cloning
/// from the row store. Rows are appended to `out`.
pub(crate) fn gather_rows(t: &Table, mapping: &[usize], sel: &[usize], out: &mut Vec<Vec<Value>>) {
    let base = out.len();
    out.extend(sel.iter().map(|_| Vec::with_capacity(mapping.len())));
    append_columns(t, mapping, sel, &mut out[base..]);
}

/// Append the selected slots' `mapping` columns to `rows`, one *column* at
/// a time: `rows[k]` receives slot `sel[k]`'s values. The gather behind
/// [`gather_rows`], and behind `Fetch`, which extends its input rows.
pub(crate) fn append_columns(t: &Table, mapping: &[usize], sel: &[usize], rows: &mut [Vec<Value>]) {
    debug_assert_eq!(sel.len(), rows.len(), "one selected slot per row");
    for &c in mapping {
        match t.column_slice(c) {
            Some(ColumnSlice::Int { data, valid }) => {
                for (row, &s) in rows.iter_mut().zip(sel) {
                    row.push(if valid.get(s) { Value::Int(data[s]) } else { Value::Null });
                }
            }
            Some(ColumnSlice::Float { data, valid }) => {
                for (row, &s) in rows.iter_mut().zip(sel) {
                    row.push(if valid.get(s) { Value::Float(data[s]) } else { Value::Null });
                }
            }
            Some(ColumnSlice::Bool { data, valid }) => {
                for (row, &s) in rows.iter_mut().zip(sel) {
                    row.push(if valid.get(s) { Value::Bool(data[s]) } else { Value::Null });
                }
            }
            Some(ColumnSlice::Str { codes, valid, dict }) => {
                for (row, &s) in rows.iter_mut().zip(sel) {
                    row.push(if valid.get(s) {
                        Value::Str(Arc::clone(dict.get(codes[s])))
                    } else {
                        Value::Null
                    });
                }
            }
            None => {
                for (row, &s) in rows.iter_mut().zip(sel) {
                    let stored = t.get(RowId(s as u64)).expect("selected slot is live");
                    row.push(stored[c].clone());
                }
            }
        }
    }
}
