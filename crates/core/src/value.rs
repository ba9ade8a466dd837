//! Ground values carried by DatalogMTL facts, with the numeric coercion
//! rules used by arithmetic built-ins.

use crate::symbol::Symbol;
use mtl_temporal::Rational;
use std::cmp::Ordering;
use std::fmt;

/// A total-ordered, hashable `f64` wrapper. NaN is rejected at construction
/// and `-0.0` is normalized to `0.0`, so `Eq`/`Hash` are coherent.
#[derive(Clone, Copy)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Wraps a float. Panics on NaN (no reasoning value is ever NaN; an
    /// arithmetic built-in producing NaN is reported as an evaluation error
    /// before reaching this constructor).
    pub fn new(v: f64) -> OrdF64 {
        assert!(!v.is_nan(), "NaN cannot be a DatalogMTL value");
        OrdF64(if v == 0.0 { 0.0 } else { v })
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("NaN excluded by construction")
    }
}

impl std::hash::Hash for OrdF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Debug for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A ground value: symbolic constant, integer, float, or boolean.
///
/// Mixed `Int`/`Num` arithmetic coerces to `Num` (IEEE `f64`), matching the
/// numeric behaviour of the Vadalog runs reported in the paper (differences
/// of order 1e-12 between engines come precisely from `f64` rounding).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Interned symbolic constant (account ids, labels…).
    Sym(Symbol),
    /// 64-bit integer (timestamps, counts…).
    Int(i64),
    /// Total-ordered float (prices, margins, rates…).
    Num(OrdF64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Float constructor.
    pub fn num(v: f64) -> Value {
        Value::Num(OrdF64::new(v))
    }

    /// Symbol constructor.
    pub fn sym(s: &str) -> Value {
        Value::Sym(Symbol::new(s))
    }

    /// Numeric view (`Int` and `Num` only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(n.get()),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// `true` iff the value is numeric.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Num(_))
    }

    /// Converts a rational time point into a value: integers stay exact,
    /// non-integers are approximated as floats (documented Vadalog-style
    /// behaviour of the `@T` capture / `unix(t)` promotion).
    pub fn from_time(t: Rational) -> Value {
        match t.as_integer() {
            Some(i) => Value::Int(i),
            None => Value::num(t.to_f64()),
        }
    }

    /// Numeric equality with Int/Num coercion; falls back to structural
    /// equality for non-numeric values.
    pub fn semantic_eq(&self, other: &Value) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a == b,
            _ => self == other,
        }
    }

    /// Numeric comparison with coercion; `None` for incomparable kinds.
    pub fn semantic_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b),
            _ => {
                if std::mem::discriminant(self) == std::mem::discriminant(other) {
                    Some(self.cmp(other))
                } else {
                    None
                }
            }
        }
    }
}

/// Semantic equality of two ground tuples: pairwise [`Value::semantic_eq`]
/// (`3` and `3.0` are one value), the equivalence joins and corrections
/// match tuples under.
pub(crate) fn same_tuple(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.semantic_eq(y))
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Num(n) => {
                let v = n.get();
                if v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::num(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::sym(s)
    }
}

/// A ground tuple: the arguments of a ground atom.
pub type Tuple = Box<[Value]>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_normalizes_negative_zero() {
        assert_eq!(OrdF64::new(-0.0), OrdF64::new(0.0));
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        use std::hash::{Hash, Hasher};
        OrdF64::new(-0.0).hash(&mut h1);
        OrdF64::new(0.0).hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ordf64_rejects_nan() {
        OrdF64::new(f64::NAN);
    }

    #[test]
    fn semantic_eq_coerces_int_and_num() {
        assert!(Value::Int(3).semantic_eq(&Value::num(3.0)));
        assert!(!Value::Int(3).semantic_eq(&Value::num(3.5)));
        assert!(Value::sym("a").semantic_eq(&Value::sym("a")));
        assert!(!Value::sym("a").semantic_eq(&Value::Int(0)));
    }

    #[test]
    fn semantic_cmp_orders_numerics() {
        assert_eq!(
            Value::Int(2).semantic_cmp(&Value::num(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::sym("x").semantic_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn from_time_keeps_integers_exact() {
        assert_eq!(
            Value::from_time(Rational::integer(1664274600)),
            Value::Int(1664274600)
        );
        assert_eq!(Value::from_time(Rational::new(1, 2)), Value::num(0.5));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::sym("abc").to_string(), "abc");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::num(2.0).to_string(), "2.0");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
