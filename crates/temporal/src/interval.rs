//! Intervals over the rational timeline, with all four open/closed bound
//! combinations, and the endpoint arithmetic behind the MTL operators.
//!
//! DatalogMTL facts are annotated with intervals `⟨t1, t2⟩` where each side is
//! independently open or closed and endpoints range over ℚ ∪ {−∞, +∞}. The
//! operator transforms (`◇⁻ρ` as Minkowski sum, `⊟ρ` as erosion, and their
//! future mirrors) are implemented here on single intervals; the coalesced
//! multi-interval versions live in [`crate::IntervalSet`].

use crate::Rational;
use std::cmp::Ordering;
use std::fmt;

mod stride;

/// Endpoint arithmetic overflowed the rational timeline: a shifted endpoint
/// no longer fits an `i64` numerator/denominator after reduction.
///
/// Returned by the `checked_*` operator transforms so callers (the reasoner,
/// a live session) can reject a pathological program instead of aborting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeOverflow;

impl fmt::Display for TimeOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "temporal endpoint arithmetic overflowed the rational timeline"
        )
    }
}

impl std::error::Error for TimeOverflow {}

/// One endpoint of an interval: a finite rational or ±∞.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimeBound {
    /// Negative infinity (always an open endpoint).
    NegInf,
    /// A finite rational time point.
    Finite(Rational),
    /// Positive infinity (always an open endpoint).
    PosInf,
}

impl TimeBound {
    /// The finite value, if any.
    pub fn finite(self) -> Option<Rational> {
        match self {
            TimeBound::Finite(r) => Some(r),
            _ => None,
        }
    }

    /// `true` iff the bound is finite.
    pub fn is_finite(self) -> bool {
        matches!(self, TimeBound::Finite(_))
    }

    /// Endpoint addition for operator shifts; `None` if the finite sum
    /// overflows the rational timeline. `NegInf + PosInf` is the only
    /// undefined combination and cannot arise from valid operator transforms.
    pub fn checked_add(self, other: TimeBound) -> Option<TimeBound> {
        use TimeBound::*;
        match (self, other) {
            (Finite(a), Finite(b)) => a.checked_add(b).map(Finite),
            (NegInf, PosInf) | (PosInf, NegInf) => {
                unreachable!("indeterminate -inf + +inf in interval arithmetic")
            }
            (NegInf, _) | (_, NegInf) => Some(NegInf),
            (PosInf, _) | (_, PosInf) => Some(PosInf),
        }
    }

    /// Endpoint subtraction; `None` on overflow. `NegInf - NegInf` and
    /// `PosInf - PosInf` are the undefined combinations.
    pub fn checked_sub(self, other: TimeBound) -> Option<TimeBound> {
        use TimeBound::*;
        match (self, other) {
            (Finite(a), Finite(b)) => a.checked_sub(b).map(Finite),
            (NegInf, NegInf) | (PosInf, PosInf) => {
                unreachable!("indeterminate inf - inf in interval arithmetic")
            }
            (NegInf, _) | (_, PosInf) => Some(NegInf),
            (PosInf, _) | (_, NegInf) => Some(PosInf),
        }
    }
}

impl PartialOrd for TimeBound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeBound {
    fn cmp(&self, other: &Self) -> Ordering {
        use TimeBound::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Ordering::Equal,
            (NegInf, _) | (_, PosInf) => Ordering::Less,
            (_, NegInf) | (PosInf, _) => Ordering::Greater,
            (Finite(a), Finite(b)) => a.cmp(b),
        }
    }
}

impl From<Rational> for TimeBound {
    fn from(r: Rational) -> Self {
        TimeBound::Finite(r)
    }
}

impl From<i64> for TimeBound {
    fn from(n: i64) -> Self {
        TimeBound::Finite(Rational::integer(n))
    }
}

impl fmt::Display for TimeBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeBound::NegInf => write!(f, "-inf"),
            TimeBound::PosInf => write!(f, "+inf"),
            TimeBound::Finite(r) => write!(f, "{r}"),
        }
    }
}

/// A non-empty interval `⟨lo, hi⟩` over ℚ ∪ {±∞} — or, from the one
/// dedicated constructor [`Interval::progression`], an arithmetic progression
/// of punctual points `{lo + k·c | 0 ≤ k ≤ n}` with `hi = lo + n·c`.
///
/// Invariants (enforced by every constructor):
/// * the interval is non-empty (`lo < hi`, or `lo == hi` with both endpoints
///   closed and finite);
/// * infinite endpoints are open;
/// * a progression has `n ≥ 1`, finite closed endpoints and `lo < hi`; its
///   `lo()`/`hi()` are its first and last tooth, so the endpoint accessors
///   describe its *hull*, not a solid extent.
///
/// ```
/// use mtl_temporal::{Interval, Rational};
/// let i = Interval::closed(Rational::integer(1), Rational::integer(5));
/// assert!(i.contains(Rational::integer(5)));
/// let j = Interval::half_open_right(Rational::integer(5), Rational::integer(9));
/// assert_eq!(i.intersect(&j), Some(Interval::point(Rational::integer(5))));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: TimeBound,
    hi: TimeBound,
    lo_closed: bool,
    hi_closed: bool,
    /// `0`: the solid interval `⟨lo, hi⟩`. `n ≥ 1`: the `n + 1` punctual
    /// points `lo + k·(hi − lo)/n`. Sits in what was padding: the struct
    /// stays 56 bytes.
    steps: u32,
}

impl Interval {
    /// The whole timeline `(-inf, +inf)`.
    pub const ALL: Interval = Interval {
        lo: TimeBound::NegInf,
        hi: TimeBound::PosInf,
        lo_closed: false,
        hi_closed: false,
        steps: 0,
    };

    /// General constructor; returns `None` if the described set is empty.
    pub fn new(lo: TimeBound, lo_closed: bool, hi: TimeBound, hi_closed: bool) -> Option<Interval> {
        let lo_closed = lo_closed && lo.is_finite();
        let hi_closed = hi_closed && hi.is_finite();
        match lo.cmp(&hi) {
            Ordering::Greater => None,
            Ordering::Equal => {
                if lo_closed && hi_closed {
                    Some(Interval {
                        lo,
                        hi,
                        lo_closed,
                        hi_closed,
                        steps: 0,
                    })
                } else {
                    // Includes the degenerate infinite cases (-inf,-inf).
                    None
                }
            }
            Ordering::Less => Some(Interval {
                lo,
                hi,
                lo_closed,
                hi_closed,
                steps: 0,
            }),
        }
    }

    /// Closed interval `[lo, hi]`. Panics if `lo > hi`.
    pub fn closed(lo: Rational, hi: Rational) -> Interval {
        Interval::new(lo.into(), true, hi.into(), true).expect("empty closed interval")
    }

    /// Open interval `(lo, hi)`. Panics if empty.
    pub fn open(lo: Rational, hi: Rational) -> Interval {
        Interval::new(lo.into(), false, hi.into(), false).expect("empty open interval")
    }

    /// `[lo, hi)`. Panics if empty.
    pub fn half_open_right(lo: Rational, hi: Rational) -> Interval {
        Interval::new(lo.into(), true, hi.into(), false).expect("empty interval")
    }

    /// `(lo, hi]`. Panics if empty.
    pub fn half_open_left(lo: Rational, hi: Rational) -> Interval {
        Interval::new(lo.into(), false, hi.into(), true).expect("empty interval")
    }

    /// The punctual interval `[t, t]`.
    pub fn point(t: Rational) -> Interval {
        Interval {
            lo: t.into(),
            hi: t.into(),
            lo_closed: true,
            hi_closed: true,
            steps: 0,
        }
    }

    /// Convenience: closed interval over integers.
    pub fn closed_int(lo: i64, hi: i64) -> Interval {
        Interval::closed(Rational::integer(lo), Rational::integer(hi))
    }

    /// Convenience: `[t, t]` at an integer time point.
    pub fn at(t: i64) -> Interval {
        Interval::point(Rational::integer(t))
    }

    /// `[lo, +inf)`.
    pub fn from_instant(lo: Rational) -> Interval {
        Interval {
            lo: lo.into(),
            hi: TimeBound::PosInf,
            lo_closed: true,
            hi_closed: false,
            steps: 0,
        }
    }

    /// `(-inf, hi]`.
    pub fn up_to(hi: Rational) -> Interval {
        Interval {
            lo: TimeBound::NegInf,
            hi: hi.into(),
            lo_closed: false,
            hi_closed: true,
            steps: 0,
        }
    }

    /// Lower endpoint (of a progression: its first tooth).
    pub fn lo(&self) -> TimeBound {
        self.lo
    }

    /// Upper endpoint (of a progression: its last tooth).
    pub fn hi(&self) -> TimeBound {
        self.hi
    }

    /// Is the lower endpoint included?
    pub fn lo_closed(&self) -> bool {
        self.lo_closed
    }

    /// Is the upper endpoint included?
    pub fn hi_closed(&self) -> bool {
        self.hi_closed
    }

    /// `true` iff the interval is a single point `[t, t]` (a progression has
    /// at least two teeth and never is).
    pub fn is_punctual(&self) -> bool {
        self.lo == self.hi
    }

    /// The single time point of a punctual interval.
    pub fn punctual_value(&self) -> Option<Rational> {
        if self.is_punctual() {
            self.lo.finite()
        } else {
            None
        }
    }

    /// Membership test for a finite time point.
    pub fn contains(&self, t: Rational) -> bool {
        if self.steps > 0 {
            return self
                .index_of(t)
                .is_some_and(|k| (0..=self.steps as i128).contains(&k));
        }
        let t = TimeBound::Finite(t);
        let above = match self.lo.cmp(&t) {
            Ordering::Less => true,
            Ordering::Equal => self.lo_closed,
            Ordering::Greater => false,
        };
        let below = match t.cmp(&self.hi) {
            Ordering::Less => true,
            Ordering::Equal => self.hi_closed,
            Ordering::Greater => false,
        };
        above && below
    }

    /// `true` iff `other` is a subset of `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        if self.steps > 0 {
            // Only points and progressions fit inside a progression.
            return match other.punctual_value() {
                Some(t) => self.contains(t),
                None => other.steps > 0 && self.intersect(other) == Some(*other),
            };
        }
        // A progression's hull is closed at both teeth, so the endpoint
        // comparison below decides it like a solid `[lo, hi]`.
        let lo_ok = match self.lo.cmp(&other.lo) {
            Ordering::Less => true,
            Ordering::Equal => self.lo_closed || !other.lo_closed,
            Ordering::Greater => false,
        };
        let hi_ok = match other.hi.cmp(&self.hi) {
            Ordering::Less => true,
            Ordering::Equal => self.hi_closed || !other.hi_closed,
            Ordering::Greater => false,
        };
        lo_ok && hi_ok
    }

    /// Set intersection; `None` when disjoint. With a progression on either
    /// side the result is again one component: the teeth inside the other
    /// interval, or the common teeth of two progressions (an arithmetic
    /// progression itself).
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        match (self.steps, other.steps) {
            (0, 0) => {}
            (_, 0) => return self.clip_teeth(other),
            (0, _) => return other.clip_teeth(self),
            _ => return self.common_teeth(other),
        }
        let (lo, lo_closed) = match self.lo.cmp(&other.lo) {
            Ordering::Less => (other.lo, other.lo_closed),
            Ordering::Greater => (self.lo, self.lo_closed),
            Ordering::Equal => (self.lo, self.lo_closed && other.lo_closed),
        };
        let (hi, hi_closed) = match self.hi.cmp(&other.hi) {
            Ordering::Less => (self.hi, self.hi_closed),
            Ordering::Greater => (other.hi, other.hi_closed),
            Ordering::Equal => (self.hi, self.hi_closed && other.hi_closed),
        };
        Interval::new(lo, lo_closed, hi, hi_closed)
    }

    /// `true` iff the union of the two is a single component: solid
    /// intervals that overlap or touch without a gap, or a progression
    /// continued (or overlapped) by a congruent point or progression.
    pub fn connected(&self, other: &Interval) -> bool {
        if self.steps > 0 || other.steps > 0 {
            return self.coalesce(other).is_some();
        }
        // Gap between self.hi and other.lo?
        let no_gap_right = match self.hi.cmp(&other.lo) {
            Ordering::Greater => true,
            Ordering::Equal => self.hi_closed || other.lo_closed,
            Ordering::Less => false,
        };
        let no_gap_left = match other.hi.cmp(&self.lo) {
            Ordering::Greater => true,
            Ordering::Equal => other.hi_closed || self.lo_closed,
            Ordering::Less => false,
        };
        no_gap_right && no_gap_left
    }

    /// Union of two connected intervals; `None` when there is a gap. A
    /// progression absorbs a point or progression of the same step and phase
    /// that overlaps it or continues it by exactly one step; two isolated
    /// points never form a progression.
    pub fn union_if_connected(&self, other: &Interval) -> Option<Interval> {
        if self.steps > 0 || other.steps > 0 {
            return self.coalesce(other);
        }
        if !self.connected(other) {
            return None;
        }
        let (lo, lo_closed) = match self.lo.cmp(&other.lo) {
            Ordering::Less => (self.lo, self.lo_closed),
            Ordering::Greater => (other.lo, other.lo_closed),
            Ordering::Equal => (self.lo, self.lo_closed || other.lo_closed),
        };
        let (hi, hi_closed) = match self.hi.cmp(&other.hi) {
            Ordering::Greater => (self.hi, self.hi_closed),
            Ordering::Less => (other.hi, other.hi_closed),
            Ordering::Equal => (self.hi, self.hi_closed || other.hi_closed),
        };
        Interval::new(lo, lo_closed, hi, hi_closed)
    }

    /// `true` iff every point of `self` precedes every point of `other`
    /// (for progressions: the hulls are in that order).
    pub fn entirely_before(&self, other: &Interval) -> bool {
        match self.hi.cmp(&other.lo) {
            Ordering::Less => true,
            Ordering::Equal => !(self.hi_closed && other.lo_closed),
            Ordering::Greater => false,
        }
    }

    /// Total order by (lo, lo_closed, hi, hi_closed, teeth) for sorted
    /// interval sets.
    pub fn cmp_position(&self, other: &Interval) -> Ordering {
        self.lo
            .cmp(&other.lo)
            // closed lower bound starts earlier than open at same point
            .then_with(|| other.lo_closed.cmp(&self.lo_closed))
            .then_with(|| self.hi.cmp(&other.hi))
            .then_with(|| self.hi_closed.cmp(&other.hi_closed))
            .then_with(|| self.steps.cmp(&other.steps))
    }

    /// Both endpoints (of a progression: of its hull) as rationals, if the
    /// interval is bounded. Used by the
    /// engine's per-relation time index, which keys tuples by component
    /// endpoints (closedness is handled by the exact clip afterwards).
    pub fn finite_endpoints(&self) -> Option<(Rational, Rational)> {
        match (self.lo, self.hi) {
            (TimeBound::Finite(a), TimeBound::Finite(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Length of the interval or hull (`None` if unbounded).
    pub fn length(&self) -> Option<Rational> {
        match (self.lo, self.hi) {
            (TimeBound::Finite(a), TimeBound::Finite(b)) => Some(b - a),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // MTL operator transforms. `rho` is a metric interval: non-negative
    // bounds, validated by `MetricInterval`.
    // ------------------------------------------------------------------

    /// `◇⁻ρ`: the Minkowski sum `self ⊕ ρ`. `◇⁻ρ M` holds at `t` iff `M`
    /// holds at some `s` with `t − s ∈ ρ`, i.e. `t ∈ ι ⊕ ρ`.
    ///
    /// Errs when a shifted endpoint overflows the rational timeline.
    ///
    /// # Panics
    /// On a progression `ρ` must be punctual (the result is the shifted
    /// progression); a window of positive length smears every tooth into its
    /// own interval, which only [`crate::IntervalSet::diamond_minus`] can
    /// represent.
    pub fn checked_diamond_minus(&self, rho: &MetricInterval) -> Result<Interval, TimeOverflow> {
        if self.steps > 0 {
            return self.shifted(shift_of(rho), true);
        }
        let rho = rho.as_interval();
        let lo = self.lo.checked_add(rho.lo).ok_or(TimeOverflow)?;
        let hi = self.hi.checked_add(rho.hi).ok_or(TimeOverflow)?;
        Ok(Interval::new(
            lo,
            self.lo_closed && rho.lo_closed,
            hi,
            self.hi_closed && rho.hi_closed,
        )
        .expect("Minkowski sum of non-empty intervals is non-empty"))
    }

    /// `⊟ρ`: erosion. `⊟ρ M` holds at `t` iff `M` holds at *all* `s` with
    /// `t − s ∈ ρ`; on a single interval this is
    /// `⟨lo + ρ⁺, hi + ρ⁻⟩` with closedness
    /// `lo_closed ∨ ¬ρ.hi_closed` / `hi_closed ∨ ¬ρ.lo_closed`.
    /// Returns `None` when the interval is too short to fit the window.
    ///
    /// NOTE: on a *union* of intervals erosion is only exact after
    /// adjacency-coalescing; see [`crate::IntervalSet::checked_box_minus`].
    ///
    /// `Ok(None)` means the interval is too short for the window;
    /// `Err` means a shifted endpoint overflowed the timeline.
    pub fn checked_box_minus(
        &self,
        rho: &MetricInterval,
    ) -> Result<Option<Interval>, TimeOverflow> {
        if self.steps > 0 {
            // No window of positive length fits inside isolated points.
            return match rho.as_interval().punctual_value() {
                Some(c) => self.shifted(c, true).map(Some),
                None => Ok(None),
            };
        }
        let rho = rho.as_interval();
        // Window of obligation for candidate t: [t - rho.hi, t - rho.lo]
        // (endpoint closedness inherited from rho, reversed). It must be a
        // subset of self.
        if !rho.hi.is_finite() && self.lo != TimeBound::NegInf {
            return Ok(None);
        }
        // Infinite self.lo: any window lower end fits.
        let (lo, lo_closed) = if self.lo == TimeBound::NegInf {
            (TimeBound::NegInf, false)
        } else {
            (
                self.lo.checked_add(rho.hi).ok_or(TimeOverflow)?,
                self.lo_closed || !rho.hi_closed,
            )
        };
        let hi = self.hi.checked_add(rho.lo).ok_or(TimeOverflow)?;
        let hi_closed = self.hi_closed || !rho.lo_closed;
        Ok(Interval::new(lo, lo_closed, hi, hi_closed))
    }

    /// `◇⁺ρ` (future diamond): `t` such that `M` holds at some `s` with
    /// `s − t ∈ ρ`, i.e. `t ∈ ι ⊖ ρ` pointwise: `⟨lo − ρ⁺, hi − ρ⁻⟩`.
    ///
    /// Errs when a shifted endpoint overflows the rational timeline.
    ///
    /// # Panics
    /// On a progression `ρ` must be punctual, as for
    /// [`Interval::checked_diamond_minus`].
    pub fn checked_diamond_plus(&self, rho: &MetricInterval) -> Result<Interval, TimeOverflow> {
        if self.steps > 0 {
            return self.shifted(shift_of(rho), false);
        }
        let rho = rho.as_interval();
        let (lo, lo_closed) = if !rho.hi.is_finite() {
            (TimeBound::NegInf, false)
        } else {
            (
                self.lo.checked_sub(rho.hi).ok_or(TimeOverflow)?,
                self.lo_closed && rho.hi_closed,
            )
        };
        let hi = self.hi.checked_sub(rho.lo).ok_or(TimeOverflow)?;
        Ok(
            Interval::new(lo, lo_closed, hi, self.hi_closed && rho.lo_closed)
                .expect("diamond_plus of non-empty interval is non-empty"),
        )
    }

    /// `⊞ρ` (future box): `t` such that `M` holds at *all* `s` with
    /// `s − t ∈ ρ`. Mirror of [`Interval::checked_box_minus`].
    ///
    /// `Ok(None)` means the interval is too short for the window;
    /// `Err` means a shifted endpoint overflowed the timeline.
    pub fn checked_box_plus(&self, rho: &MetricInterval) -> Result<Option<Interval>, TimeOverflow> {
        if self.steps > 0 {
            return match rho.as_interval().punctual_value() {
                Some(c) => self.shifted(c, false).map(Some),
                None => Ok(None),
            };
        }
        let rho = rho.as_interval();
        if !rho.hi.is_finite() && self.hi != TimeBound::PosInf {
            return Ok(None);
        }
        let lo = self.lo.checked_sub(rho.lo).ok_or(TimeOverflow)?;
        let lo_closed = self.lo_closed || !rho.lo_closed;
        let (hi, hi_closed) = if self.hi == TimeBound::PosInf {
            (TimeBound::PosInf, false)
        } else {
            (
                self.hi.checked_sub(rho.hi).ok_or(TimeOverflow)?,
                self.hi_closed || !rho.hi_closed,
            )
        };
        Ok(Interval::new(lo, lo_closed, hi, hi_closed))
    }

    /// Clips the interval to a bounded horizon; `None` if disjoint.
    pub fn clip(&self, horizon: &Interval) -> Option<Interval> {
        self.intersect(horizon)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The shift of a punctual `ρ`, for the operator transforms of a progression.
fn shift_of(rho: &MetricInterval) -> Rational {
    rho.as_interval().punctual_value().expect(
        "a progression shifts by punctual windows only; IntervalSet handles windows of positive length",
    )
}

impl fmt::Display for Interval {
    /// A progression prints as its teeth, `[1] ∪ [2] ∪ [3]`: text never shows
    /// how a point set is stored.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps > 0 {
            for (k, t) in self.teeth().enumerate() {
                if k > 0 {
                    write!(f, " ∪ ")?;
                }
                write!(f, "[{t}]")?;
            }
            return Ok(());
        }
        if self.is_punctual() {
            if let Some(t) = self.punctual_value() {
                return write!(f, "[{t}]");
            }
        }
        write!(
            f,
            "{}{},{}{}",
            if self.lo_closed { '[' } else { '(' },
            self.lo,
            self.hi,
            if self.hi_closed { ']' } else { ')' },
        )
    }
}

/// A metric interval `ρ` indexing an MTL operator: a non-empty interval with
/// non-negative lower bound (per the DatalogMTL grammar, operator intervals
/// have non-negative bounds).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricInterval(Interval);

impl MetricInterval {
    /// The punctual default `[1,1]` used throughout the ETH-PERP program.
    pub fn one() -> MetricInterval {
        MetricInterval(Interval::at(1))
    }

    /// The punctual interval `[0,0]` (identity shift).
    pub fn zero() -> MetricInterval {
        MetricInterval(Interval::at(0))
    }

    /// Validating constructor: requires a non-negative lower bound.
    pub fn new(interval: Interval) -> Result<MetricInterval, String> {
        if interval.steps > 0 {
            return Err(format!("metric interval {interval} is not an interval"));
        }
        match interval.lo() {
            TimeBound::NegInf => Err(format!("metric interval {interval} has negative bound")),
            TimeBound::Finite(r) if r < Rational::ZERO => {
                Err(format!("metric interval {interval} has negative bound"))
            }
            _ => Ok(MetricInterval(interval)),
        }
    }

    /// `[lo, hi]` over rationals. Panics if invalid.
    pub fn closed(lo: Rational, hi: Rational) -> MetricInterval {
        MetricInterval::new(Interval::closed(lo, hi)).expect("invalid metric interval")
    }

    /// `[lo, hi]` over integers. Panics if invalid.
    pub fn closed_int(lo: i64, hi: i64) -> MetricInterval {
        MetricInterval::new(Interval::closed_int(lo, hi)).expect("invalid metric interval")
    }

    /// The punctual metric interval `[c, c]`.
    pub fn punctual(c: Rational) -> MetricInterval {
        MetricInterval::new(Interval::point(c)).expect("invalid metric interval")
    }

    /// The underlying interval.
    pub fn as_interval(&self) -> &Interval {
        &self.0
    }

    /// `true` iff `ρ` is a single point `[c, c]`.
    pub fn is_punctual(&self) -> bool {
        self.0.is_punctual()
    }

    /// Do the `◇ρ` images of two points `step` apart form one interval?
    pub(crate) fn bridges(&self, step: Rational) -> bool {
        // An unbounded (or unrepresentably wide) window bridges any step.
        let width = self
            .0
            .finite_endpoints()
            .and_then(|(lo, hi)| hi.checked_sub(lo));
        match width {
            None => true,
            Some(width) => match width.cmp(&step) {
                Ordering::Greater => true,
                Ordering::Equal => self.0.lo_closed || self.0.hi_closed,
                Ordering::Less => false,
            },
        }
    }
}

impl fmt::Debug for MetricInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Display for MetricInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::integer(n)
    }

    #[test]
    fn constructors_reject_empty() {
        assert!(Interval::new(r(5).into(), true, r(3).into(), true).is_none());
        assert!(Interval::new(r(5).into(), true, r(5).into(), false).is_none());
        assert!(Interval::new(r(5).into(), false, r(5).into(), true).is_none());
        assert!(Interval::new(r(5).into(), true, r(5).into(), true).is_some());
        assert!(Interval::new(TimeBound::NegInf, false, TimeBound::NegInf, false).is_none());
    }

    #[test]
    fn infinite_endpoints_are_forced_open() {
        let i = Interval::new(TimeBound::NegInf, true, r(0).into(), true).unwrap();
        assert!(!i.lo_closed());
    }

    #[test]
    fn contains_respects_closedness() {
        let i = Interval::half_open_right(r(1), r(3));
        assert!(i.contains(r(1)));
        assert!(i.contains(r(2)));
        assert!(!i.contains(r(3)));
        assert!(!i.contains(r(0)));
        assert!(Interval::ALL.contains(r(-1_000_000)));
    }

    #[test]
    fn intersect_matches_set_semantics() {
        let a = Interval::closed(r(0), r(5));
        let b = Interval::open(r(5), r(9));
        assert_eq!(a.intersect(&b), None); // [0,5] ∩ (5,9) = ∅
        let c = Interval::half_open_left(r(3), r(7));
        assert_eq!(a.intersect(&c), Some(Interval::half_open_left(r(3), r(5))));
    }

    #[test]
    fn connected_detects_touching_intervals() {
        let a = Interval::half_open_right(r(0), r(1)); // [0,1)
        let b = Interval::closed(r(1), r(2));
        assert!(a.connected(&b)); // [0,1) ∪ [1,2] = [0,2]
        assert_eq!(a.union_if_connected(&b), Some(Interval::closed(r(0), r(2))));
        let c = Interval::open(r(1), r(2)); // (1,2): gap at {1}
        assert!(!a.connected(&c));
        assert_eq!(a.union_if_connected(&c), None);
    }

    #[test]
    fn diamond_minus_is_minkowski_sum() {
        let i = Interval::closed(r(10), r(20));
        let rho = MetricInterval::closed_int(1, 3);
        assert_eq!(
            i.checked_diamond_minus(&rho),
            Ok(Interval::closed(r(11), r(23)))
        );
        // punctual [1,1] is a pure shift
        assert_eq!(
            Interval::at(7).checked_diamond_minus(&MetricInterval::one()),
            Ok(Interval::at(8))
        );
        // open bounds stay open where contributed
        let j = Interval::open(r(0), r(4));
        assert_eq!(
            j.checked_diamond_minus(&rho),
            Ok(Interval::open(r(1), r(7)))
        );
    }

    #[test]
    fn box_minus_erodes() {
        let i = Interval::closed(r(10), r(20));
        let rho = MetricInterval::closed_int(0, 3);
        // window [t-3, t] must fit inside [10,20] -> t in [13,20]
        assert_eq!(
            i.checked_box_minus(&rho),
            Ok(Some(Interval::closed(r(13), r(20))))
        );
        // too small to fit the window
        let small = Interval::closed(r(0), r(2));
        assert_eq!(small.checked_box_minus(&rho), Ok(None));
        // punctual rho = shift
        assert_eq!(
            Interval::at(7).checked_box_minus(&MetricInterval::one()),
            Ok(Some(Interval::at(8)))
        );
    }

    #[test]
    fn box_minus_open_window_boundary() {
        // rho = (0, 2]: window for t is [t-2, t). With M on [0, 4):
        // need [t-2, t) ⊆ [0,4): t-2 >= 0 and t <= 4 (t=4 ok since window open at t).
        let m = Interval::half_open_right(r(0), r(4));
        let rho = MetricInterval::new(Interval::half_open_left(r(0), r(2))).unwrap();
        let out = m.checked_box_minus(&rho).unwrap().unwrap();
        assert_eq!(out, Interval::closed(r(2), r(4)));
    }

    #[test]
    fn future_operators_mirror_past_ones() {
        let i = Interval::closed(r(10), r(20));
        let rho = MetricInterval::closed_int(1, 3);
        assert_eq!(
            i.checked_diamond_plus(&rho),
            Ok(Interval::closed(r(7), r(19)))
        );
        assert_eq!(
            i.checked_box_plus(&rho),
            Ok(Some(Interval::closed(r(9), r(17))))
        );
    }

    #[test]
    fn unbounded_rho_cases() {
        let rho = MetricInterval::new(
            Interval::new(r(0).into(), true, TimeBound::PosInf, false).unwrap(),
        )
        .unwrap();
        let i = Interval::closed(r(0), r(5));
        // diamond over [0,inf): holds from lo forever
        let dm = i.checked_diamond_minus(&rho).unwrap();
        assert_eq!(dm.lo(), TimeBound::Finite(r(0)));
        assert_eq!(dm.hi(), TimeBound::PosInf);
        // box over [0,inf) requires unbounded past
        assert_eq!(i.checked_box_minus(&rho), Ok(None));
        let past = Interval::up_to(r(5));
        assert_eq!(
            past.checked_box_minus(&rho),
            Ok(Some(Interval::up_to(r(5))))
        );
    }

    #[test]
    fn metric_interval_validation() {
        assert!(MetricInterval::new(Interval::closed(r(-1), r(2))).is_err());
        assert!(MetricInterval::new(Interval::closed(r(0), r(2))).is_ok());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Interval::at(3).to_string(), "[3]");
        assert_eq!(Interval::half_open_right(r(1), r(2)).to_string(), "[1,2)");
        assert_eq!(Interval::ALL.to_string(), "(-inf,+inf)");
    }

    #[test]
    fn contains_interval_subset_checks() {
        let outer = Interval::half_open_right(r(0), r(10));
        assert!(outer.contains_interval(&Interval::closed(r(0), r(9))));
        assert!(!outer.contains_interval(&Interval::closed(r(0), r(10))));
        assert!(outer.contains_interval(&Interval::open(r(0), r(10))));
    }

    #[test]
    fn checked_transforms_surface_overflow() {
        // 2*huge exceeds i64::MAX and -2*huge is below i64::MIN.
        let huge = Rational::integer(i64::MAX / 2 + 2);
        let rho = MetricInterval::punctual(huge);
        // Shifting towards the future past i64::MAX...
        assert_eq!(
            Interval::point(huge).checked_diamond_minus(&rho),
            Err(TimeOverflow)
        );
        assert_eq!(
            Interval::point(huge).checked_box_minus(&rho),
            Err(TimeOverflow)
        );
        // ...and towards the past below i64::MIN.
        let lo = Interval::point(-huge);
        assert_eq!(lo.checked_diamond_plus(&rho), Err(TimeOverflow));
        assert_eq!(lo.checked_box_plus(&rho), Err(TimeOverflow));
        // In-range shifts still succeed.
        let i = Interval::closed(r(0), r(5));
        let rho = MetricInterval::closed_int(1, 2);
        assert_eq!(
            i.checked_diamond_minus(&rho),
            Ok(Interval::closed(r(1), r(7)))
        );
        assert_eq!(
            i.checked_box_minus(&rho),
            Ok(Some(Interval::closed(r(2), r(6))))
        );
    }

    #[test]
    fn entirely_before_ordering() {
        let a = Interval::half_open_right(r(0), r(1));
        let b = Interval::closed(r(1), r(2));
        assert!(a.entirely_before(&b)); // [0,1) before [1,2]
        let c = Interval::closed(r(0), r(1));
        assert!(!c.entirely_before(&b)); // share point 1
    }
}
