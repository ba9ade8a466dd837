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

impl Value {
    /// The value as a word pair, structurally: a kind tag and the payload's
    /// bits. Two values pack alike iff they are equal (`3` and `3.0` pack
    /// apart), so packed tuples hash and compare as the store keys tuples.
    #[inline]
    pub(crate) fn pack(self) -> [u64; 2] {
        match self {
            Value::Sym(s) => [0, s.index() as u64],
            Value::Int(i) => [1, i as u64],
            Value::Num(n) => [2, n.get().to_bits()],
            Value::Bool(b) => [3, b as u64],
        }
    }

    /// The value [`Value::pack`] packed into `words`.
    pub(crate) fn unpack(words: [u64; 2]) -> Value {
        match words {
            [0, s] => Value::Sym(Symbol::from_index(s as u32)),
            [1, i] => Value::Int(i as i64),
            [2, f] => Value::num(f64::from_bits(f)),
            [3, b] => Value::Bool(b != 0),
            _ => unreachable!("not a packed value"),
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
                } else if v == v.trunc() {
                    // `{v}` would print no fraction, which reads back as an
                    // `Int`: the exponent keeps it a float.
                    write!(f, "{v:e}")
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
    fn packing_is_structural_and_round_trips() {
        let values = [
            Value::sym("acc123"),
            Value::Int(3),
            Value::num(3.0),
            Value::num(-0.0),
            Value::Int(i64::MIN),
            Value::Bool(true),
        ];
        for v in values {
            assert_eq!(Value::unpack(v.pack()), v);
        }
        assert_ne!(Value::Int(3).pack(), Value::num(3.0).pack());
        assert_eq!(Value::num(-0.0).pack(), Value::num(0.0).pack());
    }

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

    /// A float prints in a form the lexer reads back as the same float,
    /// also where it is integral and too large for a `.0` form.
    #[test]
    fn large_floats_read_back_as_floats() {
        let big = [1e15, -1e15, 1e16, 2f64.powi(63), f64::MAX, -f64::MAX];
        for x in big.into_iter().chain([1.5, 1e15 + 0.5, 1e14, -0.25]) {
            let v = Value::num(x);
            let facts = crate::parser::parse_facts(&format!("p({v})@1.")).unwrap();
            assert_eq!(facts[0].args, vec![v], "{v} read back differently");
        }
        assert_eq!(Value::num(1e16).to_string(), "1e16");
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::sym("abc").to_string(), "abc");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::num(2.0).to_string(), "2.0");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
