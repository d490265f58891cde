//! Runtime values and data types.
//!
//! The E/R model requires richer values than classic 1NF relations: composite
//! attributes become [`Value::Struct`] and multi-valued attributes become
//! [`Value::Array`] (possibly arrays *of* structs, as in the paper's mapping
//! M5 where weak entity sets are folded into their owner as arrays of
//! composite types).
//!
//! `Value` implements a **total order** and a consistent `Hash` (floats are
//! ordered by IEEE total-order bits and `Null` sorts first) so values can be
//! used directly as join keys, grouping keys, and BTree index keys.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical data types for stored values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    /// Fixed-schema array of an element type (multi-valued attributes).
    Array(Box<DataType>),
    /// Composite value with named fields (composite attributes, folded weak
    /// entities). Field order is significant.
    Struct(Vec<(String, DataType)>),
}

impl DataType {
    /// An array of this type.
    pub fn array_of(self) -> DataType {
        DataType::Array(Box::new(self))
    }

    /// Returns `true` if `value` conforms to this type. `Null` conforms to
    /// every type (all columns are nullable at the storage layer; the E/R
    /// layer enforces mandatory participation separately).
    pub fn check(&self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true,
            (DataType::Bool, Value::Bool(_)) => true,
            (DataType::Int, Value::Int(_)) => true,
            (DataType::Float, Value::Float(_)) => true,
            (DataType::Float, Value::Int(_)) => true, // implicit widening
            (DataType::Text, Value::Str(_)) => true,
            (DataType::Array(elem), Value::Array(vs)) => vs.iter().all(|v| elem.check(v)),
            (DataType::Struct(fields), Value::Struct(vs)) => {
                fields.len() == vs.len()
                    && fields.iter().zip(vs.iter()).all(|((_, t), v)| t.check(v))
            }
            _ => false,
        }
    }

    /// Container nesting depth: 0 for scalars, one more than the deepest
    /// element/field type for arrays and structs. A conforming value nests
    /// no deeper (see [`crate::codec`] for why that matters).
    pub fn depth(&self) -> u32 {
        match self {
            DataType::Array(elem) => 1 + elem.depth(),
            DataType::Struct(fields) => {
                1 + fields.iter().map(|(_, t)| t.depth()).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Field index within a struct type, by name.
    pub fn struct_field(&self, name: &str) -> Option<(usize, &DataType)> {
        match self {
            DataType::Struct(fields) => fields
                .iter()
                .enumerate()
                .find(|(_, (n, _))| n == name)
                .map(|(i, (_, t))| (i, t)),
            _ => None,
        }
    }

    /// Element type if this is an array type.
    pub fn elem(&self) -> Option<&DataType> {
        match self {
            DataType::Array(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
            DataType::Array(e) => write!(f, "{e}[]"),
            DataType::Struct(fields) => {
                write!(f, "(")?;
                for (i, (n, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} {t}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A runtime value.
///
/// Strings are reference-counted (`Arc<str>`) because the executor clones
/// values freely while assembling intermediate rows; cloning must stay cheap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Array(Vec<Value>),
    Struct(Vec<Value>),
}

impl Value {
    /// Construct a text value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, if any (does not coerce).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload, coercing ints.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Bool payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// Struct payload, if any.
    pub fn as_struct(&self) -> Option<&[Value]> {
        match self {
            Value::Struct(vs) => Some(vs),
            _ => None,
        }
    }

    /// The most specific [`DataType`] describing this value, if derivable.
    /// `Null` and empty arrays have no intrinsic type.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Text),
            Value::Array(vs) => vs
                .iter()
                .find_map(|v| v.data_type())
                .map(|t| DataType::Array(Box::new(t))),
            Value::Struct(vs) => {
                let mut fields = Vec::with_capacity(vs.len());
                for (i, v) in vs.iter().enumerate() {
                    fields.push((format!("f{i}"), v.data_type()?));
                }
                Some(DataType::Struct(fields))
            }
        }
    }

    /// Rough in-memory footprint in bytes; statistics sum it into
    /// `total_bytes`, which sets the scan weight of the engine's plan cost.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 16 + s.len(),
            Value::Array(vs) => 24 + vs.iter().map(Value::approx_size).sum::<usize>(),
            Value::Struct(vs) => 8 + vs.iter().map(Value::approx_size).sum::<usize>(),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Array(_) => 4,
            Value::Struct(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: `Null` first, then by type rank; numerics compare across
    /// `Int`/`Float` numerically (NaN greatest among floats).
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(*a, *b),
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Array(a), Array(b)) | (Struct(a), Struct(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and integral floats must hash identically because they
            // compare equal across the Int/Float divide.
            Value::Int(i) => {
                state.write_u8(2);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                state.write_u8(2);
                x.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Array(vs) => {
                state.write_u8(4);
                vs.hash(state);
            }
            Value::Struct(vs) => {
                state.write_u8(5);
                vs.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Array(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Struct(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
    }

    #[test]
    fn int_float_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_is_self_equal_and_greatest_float() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn arrays_compare_lexicographically() {
        let a = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::Array(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::Array(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn type_check_nested() {
        let t = DataType::Struct(vec![
            ("street".into(), DataType::Text),
            ("cities".into(), DataType::Text.array_of()),
        ]);
        let ok = Value::Struct(vec![
            Value::str("Main St"),
            Value::Array(vec![Value::str("CP"), Value::str("DC")]),
        ]);
        let bad = Value::Struct(vec![Value::Int(5), Value::Array(vec![])]);
        assert!(t.check(&ok));
        assert!(!t.check(&bad));
        assert!(t.check(&Value::Null));
    }

    #[test]
    fn display_roundtrippable_shapes() {
        let v = Value::Array(vec![Value::Struct(vec![Value::Int(1), Value::str("x")])]);
        assert_eq!(v.to_string(), "[(1, 'x')]");
    }

    #[test]
    fn struct_field_lookup() {
        let t = DataType::Struct(vec![
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Text),
        ]);
        assert_eq!(t.struct_field("b").map(|(i, _)| i), Some(1));
        assert!(t.struct_field("z").is_none());
    }

    #[test]
    fn approx_size_monotone_in_content() {
        let small = Value::Array(vec![Value::Int(1)]);
        let big = Value::Array(vec![Value::Int(1); 100]);
        assert!(big.approx_size() > small.approx_size());
    }
}
