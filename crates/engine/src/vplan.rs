//! Per-query analysis for vectorized execution: compiles row-shaped
//! predicates into the closed set of vector-predicate forms that
//! [`crate::vector`]'s kernels execute over column slices.
//!
//! This module is the *only* place on the columnar path that decomposes
//! [`Expr`] and [`Value`] — the kernels in `vector.rs` operate purely on
//! typed slices, selection vectors, and the compiled forms below (a
//! check.sh gate enforces that `vector.rs` contains no per-row `Value`
//! enum match). Everything here replicates row-at-a-time `Expr`
//! evaluation exactly: comparisons follow `Value`'s total order (i64 order for
//! Int/Int, `f64::total_cmp` for any Float operand, string order for
//! dictionary columns, constant rank order across types), and a NULL on
//! either side of a comparison yields NULL, which a predicate treats as
//! false.

use crate::expr::{BinOp, Expr};
use erbium_storage::{ColumnSlice, Table, Value};
use std::cmp::Ordering;

/// Which [`Ordering`] outcomes of a comparison a predicate accepts
/// (`Lt` = {Less}, `Ne` = {Less, Greater}, …).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CmpSet {
    lt: bool,
    eq: bool,
    gt: bool,
}

impl CmpSet {
    fn of(op: BinOp) -> Option<CmpSet> {
        Some(match op {
            BinOp::Eq => CmpSet { lt: false, eq: true, gt: false },
            BinOp::Ne => CmpSet { lt: true, eq: false, gt: true },
            BinOp::Lt => CmpSet { lt: true, eq: false, gt: false },
            BinOp::Le => CmpSet { lt: true, eq: true, gt: false },
            BinOp::Gt => CmpSet { lt: false, eq: false, gt: true },
            BinOp::Ge => CmpSet { lt: false, eq: true, gt: true },
            _ => return None,
        })
    }

    /// The acceptance set of the mirrored comparison (`lit OP col`
    /// rewritten as `col OP' lit`): Less and Greater swap.
    fn mirror(self) -> CmpSet {
        CmpSet { lt: self.gt, eq: self.eq, gt: self.lt }
    }

    #[inline]
    pub(crate) fn accepts(self, ord: Ordering) -> bool {
        match ord {
            Ordering::Less => self.lt,
            Ordering::Equal => self.eq,
            Ordering::Greater => self.gt,
        }
    }
}

/// A compiled vector predicate over one table column. All variants treat
/// NULL (invalid) slots as non-qualifying except `IsNull`.
#[derive(Debug, Clone)]
pub(crate) enum VecPred {
    /// Int column vs Int literal: i64 order.
    IntCmp { col: usize, set: CmpSet, lit: i64 },
    /// Int column vs Float literal: `(i as f64).total_cmp(lit)`, exactly
    /// `Value::cmp`'s cross-type numeric rule.
    IntAsFloatCmp { col: usize, set: CmpSet, lit: f64 },
    /// Float column vs numeric literal: `f64::total_cmp` (Int literals
    /// arrive widened to f64 here, mirroring `Value::cmp`).
    FloatCmp { col: usize, set: CmpSet, lit: f64 },
    /// Bool column vs Bool literal (false < true).
    BoolCmp { col: usize, set: CmpSet, lit: bool },
    /// Dictionary-encoded text column: `keep[code]` precomputed once per
    /// query by comparing every dictionary string against the literal, so
    /// the per-row kernel is a single table lookup.
    DictCmp { col: usize, keep: Vec<bool> },
    /// Cross-rank comparison (e.g. Int column vs Str literal): `Value`'s
    /// total order gives every non-NULL value of the column the same
    /// ordering against the literal, so the outcome is a constant
    /// (masked by validity).
    Const { col: usize, keep: bool },
    /// `col IS NULL`.
    IsNull { col: usize },
    /// `col IS NOT NULL`.
    IsNotNull { col: usize },
    /// Comparison against a NULL literal: yields NULL for every row, and
    /// NULL is not TRUE — selects nothing.
    Nothing,
}

/// Type rank of a non-null literal, mirroring `Value`'s cross-type
/// ordering (Bool=1, numerics=2, Str=3, Array=4, Struct=5).
fn lit_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Array(_) => 4,
        Value::Struct(_) => 5,
    }
}

/// Rank of the (type-pure, non-null) values held by a typed column.
fn slice_rank(s: &ColumnSlice<'_>) -> u8 {
    match s {
        ColumnSlice::Bool { .. } => 1,
        ColumnSlice::Int { .. } | ColumnSlice::Float { .. } => 2,
        ColumnSlice::Str { .. } => 3,
    }
}

/// Try to compile one predicate into a vector form over `t`'s columns.
///
/// `mapping` translates the predicate's column space into table columns
/// (identity for scan filters; the current projection for fused steps).
/// Returns `None` when the shape isn't vectorizable — the caller keeps it
/// as a row-evaluated residual, preserving evaluation order and error
/// behavior exactly.
pub(crate) fn compile_pred(e: &Expr, t: &Table, mapping: &[usize]) -> Option<VecPred> {
    match e {
        Expr::IsNull(inner) => {
            let col = mapped_col(inner, mapping)?;
            t.column_slice(col)?;
            Some(VecPred::IsNull { col })
        }
        Expr::IsNotNull(inner) => {
            let col = mapped_col(inner, mapping)?;
            t.column_slice(col)?;
            Some(VecPred::IsNotNull { col })
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let (col, lit, set) = match (&**left, &**right) {
                (Expr::Col(i), Expr::Lit(v)) => (*mapping.get(*i)?, v, CmpSet::of(*op)?),
                (Expr::Lit(v), Expr::Col(i)) => (*mapping.get(*i)?, v, CmpSet::of(*op)?.mirror()),
                _ => return None,
            };
            if lit.is_null() {
                return Some(VecPred::Nothing);
            }
            let slice = t.column_slice(col)?;
            Some(match (&slice, lit) {
                (ColumnSlice::Int { .. }, Value::Int(x)) => VecPred::IntCmp { col, set, lit: *x },
                (ColumnSlice::Int { .. }, Value::Float(x)) => {
                    VecPred::IntAsFloatCmp { col, set, lit: *x }
                }
                (ColumnSlice::Float { .. }, Value::Int(x)) => {
                    VecPred::FloatCmp { col, set, lit: *x as f64 }
                }
                (ColumnSlice::Float { .. }, Value::Float(x)) => {
                    VecPred::FloatCmp { col, set, lit: *x }
                }
                (ColumnSlice::Bool { .. }, Value::Bool(b)) => {
                    VecPred::BoolCmp { col, set, lit: *b }
                }
                (ColumnSlice::Str { dict, .. }, Value::Str(s)) => {
                    let keep = (0..dict.len() as u32)
                        .map(|c| set.accepts(dict.get(c).as_ref().cmp(s.as_ref())))
                        .collect();
                    VecPred::DictCmp { col, keep }
                }
                _ => {
                    let ord = slice_rank(&slice).cmp(&lit_rank(lit));
                    VecPred::Const { col, keep: set.accepts(ord) }
                }
            })
        }
        _ => None,
    }
}

/// Split conjunctive filters into the maximal vectorizable *prefix* plus
/// the row-evaluated residual suffix. Stopping at the first
/// non-vectorizable conjunct (rather than cherry-picking) preserves the
/// left-to-right evaluation order of a row-at-a-time filter, so
/// error-raising predicates fire for exactly the same rows.
pub(crate) fn split_filters<'a>(
    filters: &'a [Expr],
    t: &Table,
    mapping: &[usize],
) -> (Vec<VecPred>, &'a [Expr]) {
    let mut preds = Vec::new();
    let mut i = 0;
    while i < filters.len() {
        match compile_pred(&filters[i], t, mapping) {
            Some(p) => {
                preds.push(p);
                i += 1;
            }
            None => break,
        }
    }
    (preds, &filters[i..])
}

/// `Col(i)` behind an optional mapping, else `None`.
fn mapped_col(e: &Expr, mapping: &[usize]) -> Option<usize> {
    match e {
        Expr::Col(i) => mapping.get(*i).copied(),
        _ => None,
    }
}

/// If every projection expression is a bare column reference, compose it
/// with the current mapping (output column → table column); otherwise the
/// chain must materialize.
pub(crate) fn compose_projection(exprs: &[Expr], mapping: &[usize]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Col(i) => mapping.get(*i).copied(),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use erbium_storage::{Column, DataType, TableSchema};

    fn table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                Column::not_null("i", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Text),
                Column::new("a", DataType::Int.array_of()),
            ],
            vec![0],
        ));
        for (i, s) in [(1i64, "x"), (2, "y"), (3, "z")] {
            t.insert(vec![
                Value::Int(i),
                Value::Float(i as f64),
                Value::str(s),
                Value::Array(vec![Value::Int(i)]),
            ])
            .unwrap();
        }
        t
    }

    fn ident(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn compiles_typed_comparisons_and_mirrors_literal_first() {
        let t = table();
        let m = ident(4);
        let p = compile_pred(&Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(2i64)), &t, &m);
        assert!(matches!(p, Some(VecPred::IntCmp { col: 0, lit: 2, .. })));
        // `5 > col` mirrors to `col < 5`.
        let p = compile_pred(&Expr::binary(BinOp::Gt, Expr::lit(5i64), Expr::col(0)), &t, &m);
        let Some(VecPred::IntCmp { set, lit: 5, .. }) = p else { panic!("mirrored int cmp") };
        assert!(set.accepts(Ordering::Less) && !set.accepts(Ordering::Greater));
        // Int column vs float literal takes the total_cmp form.
        let p = compile_pred(&Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(1.5f64)), &t, &m);
        assert!(matches!(p, Some(VecPred::IntAsFloatCmp { .. })));
    }

    #[test]
    fn null_literal_selects_nothing_and_array_columns_stay_residual() {
        let t = table();
        let m = ident(4);
        let p = compile_pred(&Expr::binary(BinOp::Eq, Expr::col(0), Expr::Lit(Value::Null)), &t, &m);
        assert!(matches!(p, Some(VecPred::Nothing)));
        assert!(compile_pred(
            &Expr::binary(BinOp::Eq, Expr::col(3), Expr::lit(1i64)),
            &t,
            &m
        )
        .is_none());
    }

    #[test]
    fn cross_rank_comparison_is_constant() {
        let t = table();
        let m = ident(4);
        // Int column < Str literal: every non-null int ranks below strings.
        let p = compile_pred(&Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit("q")), &t, &m);
        assert!(matches!(p, Some(VecPred::Const { keep: true, .. })));
        let p = compile_pred(&Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit("q")), &t, &m);
        assert!(matches!(p, Some(VecPred::Const { keep: false, .. })));
    }

    #[test]
    fn split_stops_at_first_residual_conjunct() {
        let t = table();
        let m = ident(4);
        let filters = vec![
            Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(3i64)),
            Expr::binary(BinOp::Eq, Expr::col(3), Expr::lit(1i64)), // array: residual
            Expr::binary(BinOp::Eq, Expr::col(0), Expr::lit(1i64)), // after residual: stays residual
        ];
        let (preds, residual) = split_filters(&filters, &t, &m);
        assert_eq!(preds.len(), 1);
        assert_eq!(residual.len(), 2);
    }

    #[test]
    fn projection_composition() {
        assert_eq!(
            compose_projection(&[Expr::col(1), Expr::col(0)], &[4, 2, 7]),
            Some(vec![2, 4])
        );
        assert_eq!(
            compose_projection(&[Expr::col(0), Expr::lit(1i64)], &[4, 2, 7]),
            None
        );
    }
}
