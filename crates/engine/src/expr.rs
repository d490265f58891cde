//! Scalar expressions and their evaluation.
//!
//! Expressions follow SQL three-valued logic: comparisons and arithmetic
//! over NULL yield NULL; `AND`/`OR` use Kleene semantics; a filter keeps a
//! row only when its predicate evaluates to `TRUE` (not NULL).

use crate::error::{EngineError, EngineResult};
use erbium_storage::Value;
use rustc_hash::FxHashSet;
use std::fmt;
use std::sync::Arc;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `array_contains(arr, elem)` → bool.
    ArrayContains,
    /// `array_intersect(a, b)` → array of elements present in both
    /// (order of first argument, deduplicated).
    ArrayIntersect,
    /// `array_len(arr)` → int.
    ArrayLen,
    /// `struct_pack(v1, ..., vn)` → struct. Used to lower `NEST(...)`.
    StructPack,
    /// `coalesce(a, b, ...)` → first non-NULL argument.
    Coalesce,
    /// `concat(a, b, ...)` → text.
    Concat,
    /// `abs(x)`.
    Abs,
    /// `lower(s)` / `upper(s)`.
    Lower,
    Upper,
}

/// A scalar expression tree evaluated against a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to an input column by position.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Positional `?` placeholder of a prepared template. Substituted with
    /// a literal by [`crate::plan::bind_params`] before execution; a
    /// `Param` reaching [`Expr::eval`] is an unbound-parameter error.
    Param(u16),
    Binary { op: BinOp, left: Box<Expr>, right: Box<Expr> },
    Unary { op: UnOp, expr: Box<Expr> },
    Func { func: ScalarFunc, args: Vec<Expr> },
    /// Struct field access by position (`expr.field`).
    Field { expr: Box<Expr>, index: usize },
    /// Set membership against a prebuilt hash set — the executor-friendly
    /// form of a large `IN (...)` list (e.g. the paper's 10,000-id fetch).
    InSet { expr: Box<Expr>, set: Arc<FxHashSet<Value>> },
    /// `expr IS NULL` (never NULL itself).
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Eq, left, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::And, left, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Or, left, right)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Unary { op: UnOp::Not, expr: Box::new(e) }
    }

    pub fn func(func: ScalarFunc, args: Vec<Expr>) -> Expr {
        Expr::Func { func, args }
    }

    pub fn field(expr: Expr, index: usize) -> Expr {
        Expr::Field { expr: Box::new(expr), index }
    }

    pub fn in_set(expr: Expr, values: impl IntoIterator<Item = Value>) -> Expr {
        Expr::InSet { expr: Box::new(expr), set: Arc::new(values.into_iter().collect()) }
    }

    /// Conjunction of several predicates (`TRUE` when empty).
    pub fn conjunction(preds: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = preds.into_iter();
        match it.next() {
            None => Expr::Lit(Value::Bool(true)),
            Some(first) => it.fold(first, Expr::and),
        }
    }

    /// Split an expression into its top-level AND conjuncts.
    pub fn split_conjunction(self) -> Vec<Expr> {
        match self {
            Expr::Binary { op: BinOp::And, left, right } => {
                let mut out = left.split_conjunction();
                out.extend(right.split_conjunction());
                out
            }
            e => vec![e],
        }
    }

    /// All column indices referenced by this expression.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. }
            | Expr::Field { expr, .. }
            | Expr::InSet { expr, .. }
            | Expr::IsNull(expr)
            | Expr::IsNotNull(expr) => expr.collect_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Rewrite every column reference through `f` (e.g. to shift indices
    /// across a join or undo a projection).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Param(n) => Expr::Param(*n),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            Expr::Unary { op, expr } => {
                Expr::Unary { op: *op, expr: Box::new(expr.map_columns(f)) }
            }
            Expr::Func { func, args } => {
                Expr::Func { func: *func, args: args.iter().map(|a| a.map_columns(f)).collect() }
            }
            Expr::Field { expr, index } => {
                Expr::Field { expr: Box::new(expr.map_columns(f)), index: *index }
            }
            Expr::InSet { expr, set } => {
                Expr::InSet { expr: Box::new(expr.map_columns(f)), set: Arc::clone(set) }
            }
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_columns(f))),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(e.map_columns(f))),
        }
    }

    /// The value of a bound index key or range bound: a literal. A `Param`
    /// here means [`crate::plan::bind_params`] did not run.
    pub(crate) fn bound_value(&self) -> EngineResult<&Value> {
        match self {
            Expr::Lit(v) => Ok(v),
            Expr::Param(n) => Err(unbound(*n)),
            other => Err(EngineError::Plan(format!("index key {other} is not a literal"))),
        }
    }

    /// Is this expression free of column references (a constant)?
    pub fn is_constant(&self) -> bool {
        self.columns().is_empty()
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> EngineResult<Value> {
        match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| EngineError::Plan(format!("column #{i} out of range ({})", row.len()))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Param(n) => Err(unbound(*n)),
            Expr::Binary { op, left, right } => {
                let l = left.eval(row)?;
                // Short-circuit Kleene AND/OR.
                match op {
                    BinOp::And => {
                        if l == Value::Bool(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = right.eval(row)?;
                        return eval_and(l, r);
                    }
                    BinOp::Or => {
                        if l == Value::Bool(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = right.eval(row)?;
                        return eval_or(l, r);
                    }
                    _ => {}
                }
                let r = right.eval(row)?;
                eval_binary(*op, l, r)
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match (op, v) {
                    (_, Value::Null) => Ok(Value::Null),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                    (UnOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
                    (op, v) => Err(EngineError::Eval(format!("cannot apply {op:?} to {v}"))),
                }
            }
            Expr::Func { func, args } => {
                let vals: Vec<Value> =
                    args.iter().map(|a| a.eval(row)).collect::<EngineResult<_>>()?;
                eval_func(*func, vals)
            }
            Expr::Field { expr, index } => match expr.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Struct(vs) => vs.get(*index).cloned().ok_or_else(|| {
                    EngineError::Eval(format!("struct field #{index} out of range ({})", vs.len()))
                }),
                v => Err(EngineError::Eval(format!("field access on non-struct {v}"))),
            },
            Expr::InSet { expr, set } => match expr.eval(row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Bool(set.contains(&v))),
            },
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(row)?.is_null())),
            Expr::IsNotNull(e) => Ok(Value::Bool(!e.eval(row)?.is_null())),
        }
    }

    /// Evaluate as a filter predicate: `true` iff the result is `TRUE`.
    #[inline]
    pub fn eval_predicate(&self, row: &[Value]) -> EngineResult<bool> {
        Ok(self.eval(row)? == Value::Bool(true))
    }

    /// Static cost rank of evaluating this expression once.
    ///
    /// Used by the optimizer to order conjunctive filter lists so that the
    /// cheapest, most-likely-pruning predicates run first on every row
    /// (e.g. an integer comparison before an `array_contains` walk). The
    /// scale is unitless: literals/columns are near-free, comparisons are
    /// cheap, allocating or array-walking functions are expensive. Ties
    /// preserve the original (user/pushdown) order via stable sort.
    pub fn cost_rank(&self) -> u32 {
        match self {
            Expr::Lit(_) | Expr::Param(_) => 0,
            Expr::Col(_) => 1,
            Expr::IsNull(e) | Expr::IsNotNull(e) => 1 + e.cost_rank(),
            Expr::Field { expr, .. } => 1 + expr.cost_rank(),
            Expr::Unary { expr, .. } => 1 + expr.cost_rank(),
            Expr::Binary { left, right, .. } => 2 + left.cost_rank() + right.cost_rank(),
            // Hash-set probe: cheap, but hashes a (possibly deep) value.
            Expr::InSet { expr, .. } => 4 + expr.cost_rank(),
            Expr::Func { func, args } => {
                let base = match func {
                    ScalarFunc::Coalesce | ScalarFunc::ArrayLen => 2,
                    ScalarFunc::Abs | ScalarFunc::Lower | ScalarFunc::Upper => 4,
                    // Allocate a new string/struct per row.
                    ScalarFunc::Concat | ScalarFunc::StructPack => 8,
                    // Linear walk over an array value.
                    ScalarFunc::ArrayContains => 16,
                    // Pairwise intersection — by far the heaviest scalar.
                    ScalarFunc::ArrayIntersect => 64,
                };
                base + args.iter().map(Expr::cost_rank).sum::<u32>()
            }
        }
    }
}

fn eval_and(l: Value, r: Value) -> EngineResult<Value> {
    Ok(match (l, r) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn eval_or(l: Value, r: Value) -> EngineResult<Value> {
    Ok(match (l, r) {
        (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

fn unbound(n: u16) -> EngineError {
    EngineError::Plan(format!("unbound parameter ?{n} — bind_params must run before execution"))
}

fn eval_binary(op: BinOp, l: Value, r: Value) -> EngineResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.cmp(&r);
        let b = match op {
            BinOp::Eq => ord.is_eq(),
            BinOp::Ne => !ord.is_eq(),
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    match op {
        BinOp::And => eval_and(l, r),
        BinOp::Or => eval_or(l, r),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            match (&l, &r) {
                (Value::Int(a), Value::Int(b)) => {
                    let a = *a;
                    let b = *b;
                    Ok(match op {
                        BinOp::Add => Value::Int(a.wrapping_add(b)),
                        BinOp::Sub => Value::Int(a.wrapping_sub(b)),
                        BinOp::Mul => Value::Int(a.wrapping_mul(b)),
                        BinOp::Div => {
                            if b == 0 {
                                return Err(EngineError::Eval("division by zero".into()));
                            }
                            Value::Int(a / b)
                        }
                        BinOp::Mod => {
                            if b == 0 {
                                return Err(EngineError::Eval("modulo by zero".into()));
                            }
                            Value::Int(a % b)
                        }
                        _ => unreachable!(),
                    })
                }
                _ => {
                    let (a, b) = match (l.as_float(), r.as_float()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            // String concatenation via `+` is intentionally not
                            // supported; use concat().
                            return Err(EngineError::Eval(format!(
                                "arithmetic on non-numeric values {l} and {r}"
                            )));
                        }
                    };
                    Ok(match op {
                        BinOp::Add => Value::Float(a + b),
                        BinOp::Sub => Value::Float(a - b),
                        BinOp::Mul => Value::Float(a * b),
                        BinOp::Div => Value::Float(a / b),
                        BinOp::Mod => Value::Float(a % b),
                        _ => unreachable!(),
                    })
                }
            }
        }
        _ => unreachable!(),
    }
}

fn eval_func(func: ScalarFunc, mut vals: Vec<Value>) -> EngineResult<Value> {
    match func {
        ScalarFunc::ArrayContains => {
            let (arr, elem) = two(vals, "array_contains")?;
            match arr {
                Value::Null => Ok(Value::Null),
                Value::Array(vs) => Ok(Value::Bool(vs.contains(&elem))),
                v => Err(EngineError::Eval(format!("array_contains on non-array {v}"))),
            }
        }
        ScalarFunc::ArrayIntersect => {
            let (a, b) = two(vals, "array_intersect")?;
            match (a, b) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Array(a), Value::Array(b)) => {
                    let set: FxHashSet<&Value> = b.iter().collect();
                    let mut seen = FxHashSet::default();
                    let mut out = Vec::new();
                    for v in a {
                        if set.contains(&v) && seen.insert(v.clone()) {
                            out.push(v);
                        }
                    }
                    Ok(Value::Array(out))
                }
                (a, b) => Err(EngineError::Eval(format!("array_intersect on {a}, {b}"))),
            }
        }
        ScalarFunc::ArrayLen => {
            let v = one(vals, "array_len")?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Array(vs) => Ok(Value::Int(vs.len() as i64)),
                v => Err(EngineError::Eval(format!("array_len on non-array {v}"))),
            }
        }
        ScalarFunc::StructPack => Ok(Value::Struct(vals)),
        ScalarFunc::Coalesce => {
            Ok(vals.drain(..).find(|v| !v.is_null()).unwrap_or(Value::Null))
        }
        ScalarFunc::Concat => {
            let mut s = String::new();
            for v in &vals {
                match v {
                    Value::Null => return Ok(Value::Null),
                    Value::Str(x) => s.push_str(x),
                    other => s.push_str(&other.to_string()),
                }
            }
            Ok(Value::str(s))
        }
        ScalarFunc::Abs => {
            let v = one(vals, "abs")?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                v => Err(EngineError::Eval(format!("abs on non-numeric {v}"))),
            }
        }
        ScalarFunc::Lower | ScalarFunc::Upper => {
            let v = one(vals, "lower/upper")?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::str(if func == ScalarFunc::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                v => Err(EngineError::Eval(format!("lower/upper on non-text {v}"))),
            }
        }
    }
}

fn one(mut vals: Vec<Value>, name: &str) -> EngineResult<Value> {
    if vals.len() != 1 {
        return Err(EngineError::Eval(format!("{name} expects 1 argument, got {}", vals.len())));
    }
    Ok(vals.pop().expect("checked"))
}

fn two(mut vals: Vec<Value>, name: &str) -> EngineResult<(Value, Value)> {
    if vals.len() != 2 {
        return Err(EngineError::Eval(format!("{name} expects 2 arguments, got {}", vals.len())));
    }
    let b = vals.pop().expect("checked");
    let a = vals.pop().expect("checked");
    Ok((a, b))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Param(n) => write!(f, "?{n}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op:?} {right})"),
            Expr::Unary { op, expr } => write!(f, "({op:?} {expr})"),
            Expr::Func { func, args } => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Field { expr, index } => write!(f, "{expr}.{index}"),
            Expr::InSet { expr, set } => write!(f, "{expr} IN <set of {}>", set.len()),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(3i64));
        assert_eq!(e.eval(&[i(7)]).unwrap(), i(21));
        let c = Expr::binary(BinOp::Le, Expr::col(0), Expr::lit(5i64));
        assert_eq!(c.eval(&[i(5)]).unwrap(), Value::Bool(true));
        assert_eq!(c.eval(&[i(6)]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::binary(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        assert!(e.eval(&[]).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let null = Expr::Lit(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        assert_eq!(Expr::and(null.clone(), f.clone()).eval(&[]).unwrap(), Value::Bool(false));
        assert_eq!(Expr::and(null.clone(), t.clone()).eval(&[]).unwrap(), Value::Null);
        assert_eq!(Expr::or(null.clone(), t.clone()).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(Expr::or(null.clone(), f.clone()).eval(&[]).unwrap(), Value::Null);
        let cmp = Expr::eq(null, Expr::lit(1i64));
        assert_eq!(cmp.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn predicate_true_only_on_true() {
        let p = Expr::eq(Expr::col(0), Expr::Lit(Value::Null));
        assert!(!p.eval_predicate(&[i(1)]).unwrap());
    }

    #[test]
    fn array_functions() {
        let arr = Value::Array(vec![i(1), i(2), i(3)]);
        let e = Expr::func(ScalarFunc::ArrayContains, vec![Expr::col(0), Expr::lit(2i64)]);
        assert_eq!(e.eval(std::slice::from_ref(&arr)).unwrap(), Value::Bool(true));

        let other = Value::Array(vec![i(3), i(4), i(3)]);
        let ix = Expr::func(ScalarFunc::ArrayIntersect, vec![Expr::col(0), Expr::col(1)]);
        assert_eq!(ix.eval(&[arr.clone(), other]).unwrap(), Value::Array(vec![i(3)]));

        let ln = Expr::func(ScalarFunc::ArrayLen, vec![Expr::col(0)]);
        assert_eq!(ln.eval(&[arr]).unwrap(), i(3));
    }

    #[test]
    fn struct_pack_and_field() {
        let pack = Expr::func(ScalarFunc::StructPack, vec![Expr::col(0), Expr::col(1)]);
        let v = pack.eval(&[i(1), Value::str("x")]).unwrap();
        assert_eq!(v, Value::Struct(vec![i(1), Value::str("x")]));
        let access = Expr::field(pack, 1);
        assert_eq!(access.eval(&[i(1), Value::str("x")]).unwrap(), Value::str("x"));
    }

    #[test]
    fn in_set_membership() {
        let e = Expr::in_set(Expr::col(0), (0..100).map(Value::Int));
        assert_eq!(e.eval(&[i(42)]).unwrap(), Value::Bool(true));
        assert_eq!(e.eval(&[i(200)]).unwrap(), Value::Bool(false));
        assert_eq!(e.eval(&[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn split_and_rebuild_conjunction() {
        let p = Expr::and(
            Expr::eq(Expr::col(0), Expr::lit(1i64)),
            Expr::and(Expr::eq(Expr::col(1), Expr::lit(2i64)), Expr::eq(Expr::col(2), Expr::lit(3i64))),
        );
        let parts = p.clone().split_conjunction();
        assert_eq!(parts.len(), 3);
        let back = Expr::conjunction(parts);
        assert_eq!(back.eval(&[i(1), i(2), i(3)]).unwrap(), Value::Bool(true));
        assert_eq!(back.eval(&[i(1), i(2), i(4)]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn map_columns_shifts_references() {
        let e = Expr::eq(Expr::col(0), Expr::col(2));
        let shifted = e.map_columns(&|i| i + 5);
        assert_eq!(shifted.columns(), vec![5, 7]);
    }

    #[test]
    fn coalesce_and_concat() {
        let c = Expr::func(ScalarFunc::Coalesce, vec![Expr::Lit(Value::Null), Expr::lit(7i64)]);
        assert_eq!(c.eval(&[]).unwrap(), i(7));
        let s = Expr::func(ScalarFunc::Concat, vec![Expr::lit("a"), Expr::lit("b")]);
        assert_eq!(s.eval(&[]).unwrap(), Value::str("ab"));
    }

    #[test]
    fn null_propagation_in_functions() {
        let ln = Expr::func(ScalarFunc::ArrayLen, vec![Expr::Lit(Value::Null)]);
        assert_eq!(ln.eval(&[]).unwrap(), Value::Null);
        let abs = Expr::func(ScalarFunc::Abs, vec![Expr::Lit(Value::Null)]);
        assert_eq!(abs.eval(&[]).unwrap(), Value::Null);
    }
}
