//! Exact rational arithmetic for the DatalogMTL timeline.
//!
//! DatalogMTL is interpreted over the rational timeline ℚ, so time points and
//! metric-interval endpoints must be exact: rounding a bound would silently
//! change which facts a rule derives. [`Rational`] stores a normalized
//! `numerator / denominator` pair of `i64`s and performs all intermediate
//! arithmetic in `i128`, which cannot overflow for products of `i64`s.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::str::FromStr;

/// An exact rational number with a positive denominator, always stored in
/// lowest terms.
///
/// ```
/// use mtl_temporal::Rational;
/// let half = Rational::new(1, 2);
/// let third = Rational::new(1, 3);
/// assert_eq!(half + third, Rational::new(5, 6));
/// assert!(half > third);
/// assert_eq!(Rational::new(4, 8), half);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i64,
    den: i64, // invariant: den > 0, gcd(|num|, den) == 1
}

/// Greatest common divisor of two non-negative `i128`s (Euclid).
pub(crate) fn gcd128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Builds `num / den`, normalizing sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0` or if the reduced fraction does not fit in `i64`.
    pub fn new(num: i64, den: i64) -> Rational {
        assert!(den != 0, "Rational with zero denominator");
        Self::from_i128(num as i128, den as i128)
    }

    /// Builds a rational from an integer.
    pub const fn integer(n: i64) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// Normalizes an `i128` fraction back into an `i64` rational.
    ///
    /// # Panics
    /// Panics if the reduced value overflows `i64` (timeline arithmetic far
    /// outside any realistic timestamp range).
    fn from_i128(num: i128, den: i128) -> Rational {
        debug_assert!(den != 0);
        let sign = if (num < 0) != (den < 0) { -1 } else { 1 };
        let (num, den) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd128(num as i128, den as i128).max(1) as u128;
        let (num, den) = (num / g, den / g);
        let num = i64::try_from(sign * num as i128)
            .expect("Rational numerator overflow: timeline value out of i64 range");
        let den =
            i64::try_from(den).expect("Rational denominator overflow: value out of i64 range");
        Rational { num, den }
    }

    /// The numerator of the reduced fraction (carries the sign).
    pub const fn numerator(self) -> i64 {
        self.num
    }

    /// The (always positive) denominator of the reduced fraction.
    pub const fn denominator(self) -> i64 {
        self.den
    }

    /// `true` iff the value is an integer.
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Converts to `i64` when the value is an integer.
    pub const fn as_integer(self) -> Option<i64> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Nearest `f64` (for reporting only; never used for reasoning decisions).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Sign of the value: -1, 0, or 1.
    pub const fn signum(self) -> i64 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i64 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i64 {
        -((-self).floor())
    }

    /// Checked addition: `None` if the reduced result overflows `i64`.
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        if let Some(sum) = self.integer_op(rhs, i64::checked_add) {
            return Some(sum);
        }
        let num = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Self::try_from_i128(num, den)
    }

    /// Checked subtraction: `None` if the reduced result overflows `i64`.
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        if let Some(diff) = self.integer_op(rhs, i64::checked_sub) {
            return Some(diff);
        }
        let num = self.num as i128 * rhs.den as i128 - rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Self::try_from_i128(num, den)
    }

    /// Checked multiplication: `None` if the reduced result overflows `i64`.
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        Self::try_from_i128(
            self.num as i128 * rhs.num as i128,
            self.den as i128 * rhs.den as i128,
        )
    }

    /// Integer fast path of `+`/`-`: unix-seconds timelines never leave ℤ,
    /// so the common case is one checked `i64` op — no `i128` products, no
    /// gcd. `None` (a fractional operand, or `i64` overflow) sends the
    /// caller down the exact path, which decides between a result, `None`
    /// and a panic exactly as it always did.
    #[inline]
    fn integer_op(self, rhs: Rational, op: fn(i64, i64) -> Option<i64>) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            op(self.num, rhs.num).map(Rational::integer)
        } else {
            None
        }
    }

    /// `num / den` reduced to lowest terms; `None` if either part of the
    /// reduced fraction leaves `i64`.
    pub(crate) fn try_from_i128(num: i128, den: i128) -> Option<Rational> {
        debug_assert!(den != 0);
        let sign: i128 = if (num < 0) != (den < 0) { -1 } else { 1 };
        let (num, den) = (num.unsigned_abs() as i128, den.unsigned_abs() as i128);
        let g = gcd128(num, den).max(1);
        let num = i64::try_from(sign * (num / g)).ok()?;
        let den = i64::try_from(den / g).ok()?;
        Some(Rational { num, den })
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::integer(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::integer(n as i64)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        if let Some(sum) = self.integer_op(rhs, i64::checked_add) {
            return sum;
        }
        let num = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Rational::from_i128(num, den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        Rational::from_i128(
            self.num as i128 * rhs.num as i128,
            self.den as i128 * rhs.den as i128,
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "Rational division by zero");
        Rational::from_i128(
            self.num as i128 * rhs.den as i128,
            self.den as i128 * rhs.num as i128,
        )
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal (positive) denominators order like their numerators — the
        // whole-seconds timeline never takes the wide path below.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Cross-multiplication keeps the comparison exact; denominators are positive.
        (self.num as i128 * other.den as i128).cmp(&(other.num as i128 * self.den as i128))
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rational`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError(pub String);

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Accepts `"5"`, `"-5"`, `"3/4"`, and decimal literals like `"2.5"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let bad = || ParseRationalError(s.to_string());
        if let Some((n, d)) = s.split_once('/') {
            let n: i64 = n.trim().parse().map_err(|_| bad())?;
            let d: i64 = d.trim().parse().map_err(|_| bad())?;
            if d == 0 {
                return Err(bad());
            }
            Ok(Rational::new(n, d))
        } else if let Some((int, frac)) = s.split_once('.') {
            let neg = int.trim_start().starts_with('-');
            let int: i64 = if int.is_empty() || int == "-" {
                0
            } else {
                int.parse().map_err(|_| bad())?
            };
            if frac.is_empty() || frac.len() > 18 || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            let scale = 10i64.pow(frac.len() as u32);
            let frac: i64 = frac.parse().map_err(|_| bad())?;
            let signed_frac = if neg { -frac } else { frac };
            Rational::integer(int)
                .checked_add(Rational::new(signed_frac, scale))
                .ok_or_else(bad)
        } else {
            let n: i64 = s.parse().map_err(|_| bad())?;
            Ok(Rational::integer(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_reduces_and_fixes_sign() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert!(Rational::new(2, -4).denominator() > 0);
    }

    #[test]
    fn arithmetic_is_exact() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::integer(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ordering_uses_cross_multiplication() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert_eq!(
            Rational::new(3, 9).cmp(&Rational::new(1, 3)),
            Ordering::Equal
        );
    }

    #[test]
    fn floor_and_ceil_match_euclidean_semantics() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::integer(5).floor(), 5);
        assert_eq!(Rational::integer(5).ceil(), 5);
    }

    #[test]
    fn parsing_accepts_int_fraction_decimal() {
        assert_eq!("5".parse::<Rational>().unwrap(), Rational::integer(5));
        assert_eq!("-5".parse::<Rational>().unwrap(), Rational::integer(-5));
        assert_eq!("3/4".parse::<Rational>().unwrap(), Rational::new(3, 4));
        assert_eq!("2.5".parse::<Rational>().unwrap(), Rational::new(5, 2));
        assert_eq!("-0.25".parse::<Rational>().unwrap(), Rational::new(-1, 4));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("abc".parse::<Rational>().is_err());
        assert!("1.2.3".parse::<Rational>().is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for r in [
            Rational::new(3, 7),
            Rational::integer(-12),
            Rational::new(-5, 2),
            Rational::ZERO,
        ] {
            assert_eq!(r.to_string().parse::<Rational>().unwrap(), r);
        }
    }

    #[test]
    fn checked_ops_detect_overflow() {
        let big = Rational::integer(i64::MAX);
        assert!(big.checked_add(Rational::ONE).is_none());
        assert!(big.checked_mul(Rational::integer(2)).is_none());
        assert_eq!(
            Rational::new(1, 2).checked_add(Rational::new(1, 2)),
            Some(Rational::ONE)
        );
    }

    /// The integer fast path of `+`, `checked_add`, `checked_sub` and `cmp`
    /// against the exact `i128` formulas it short-cuts, over mixed
    /// integer/fractional operands including the `i64` edges.
    #[test]
    fn integer_fast_path_agrees_with_the_i128_path() {
        let edges = [
            i64::MIN,
            i64::MIN + 1,
            -(1 << 40),
            -7,
            -1,
            0,
            1,
            2,
            1_664_274_600, // a unix-seconds timestamp
            1 << 40,
            i64::MAX - 1,
            i64::MAX,
        ];
        let mut rng = chronolog_obs::SmallRng::seed_from_u64(13);
        let mut operands: Vec<Rational> = edges.iter().map(|&n| Rational::integer(n)).collect();
        for &n in &edges[1..] {
            operands.push(Rational::new(n, 2));
            operands.push(Rational::new(n, 3));
        }
        for _ in 0..64 {
            let n = rng.gen_range_i64(-1_000_000, 1_000_000);
            operands.push(Rational::integer(n));
            operands.push(Rational::new(n, rng.gen_range_i64(1, 12)));
        }
        let exact = |num: i128, den: i128| Rational::try_from_i128(num, den);
        for &a in &operands {
            for &b in &operands {
                let (an, ad, bn, bd) = (a.num as i128, a.den as i128, b.num as i128, b.den as i128);
                let sum = exact(an * bd + bn * ad, ad * bd);
                assert_eq!(a.checked_add(b), sum, "{a} + {b}");
                assert_eq!(
                    a.checked_sub(b),
                    exact(an * bd - bn * ad, ad * bd),
                    "{a} - {b}"
                );
                assert_eq!(a.cmp(&b), (an * bd).cmp(&(bn * ad)), "{a} <=> {b}");
                // `+` panics exactly where the checked form is `None`.
                let added = std::panic::catch_unwind(|| a + b).ok();
                assert_eq!(added, sum, "{a} + {b} (operator)");
            }
        }
    }

    #[test]
    fn min_max_abs_signum() {
        let a = Rational::new(-3, 4);
        let b = Rational::new(1, 4);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.abs(), Rational::new(3, 4));
        assert_eq!(a.signum(), -1);
        assert_eq!(Rational::ZERO.signum(), 0);
    }
}
