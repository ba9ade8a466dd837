//! Arithmetic progressions of punctual points as one [`Interval`] shape.
//!
//! A persistence rule `p :- ◇⁻[c,c] p` on a rational timeline derives
//! `{s + k·c}` — a run of isolated points, not an interval. Stored as one
//! component `(lo, hi, n)` with `step = (hi − lo)/n`, the run costs what a
//! single interval costs, and every operation below answers arithmetically
//! instead of visiting the teeth.
//!
//! All tooth arithmetic happens on the progression's integer *lattice*:
//! with `d` the common denominator of `lo` and `step`, tooth `k` is
//! `(a + k·c)/d` for integers `a`, `c`. [`Interval::progression`] admits
//! only lattices whose `d`, `a` and `a + n·c` fit an `i64`, so products
//! with another `i64` rational stay inside `i128` and every tooth is a
//! representable [`Rational`].

use super::{Interval, TimeBound, TimeOverflow};
use crate::rational::gcd128;
use crate::Rational;

/// Tooth `k` of a progression is `(a + k·c)/d`, `0 ≤ k ≤ n`; `c, d > 0`.
#[derive(Clone, Copy)]
struct Lattice {
    a: i128,
    c: i128,
    d: i128,
    n: i128,
}

impl Lattice {
    /// The lattice of `first + k·step`, `0 ≤ k ≤ steps`; `None` when it
    /// leaves the range the module docs promise.
    fn new(first: Rational, step: Rational, steps: u32) -> Option<Lattice> {
        let fits = |v: i128| i64::try_from(v).is_ok();
        let (fd, sd) = (first.denominator() as i128, step.denominator() as i128);
        let d = fd / gcd128(fd, sd) * sd;
        let a = first.numerator() as i128 * (d / fd);
        let c = step.numerator() as i128 * (d / sd);
        let n = steps as i128;
        let span = c.checked_mul(n)?;
        (c > 0 && fits(d) && fits(a) && fits(span) && fits(a + span)).then_some(Lattice {
            a,
            c,
            d,
            n,
        })
    }

    fn tooth(&self, k: i128) -> Rational {
        debug_assert!((0..=self.n).contains(&k));
        let num = self.a + k * self.c;
        if self.d == 1 {
            return Rational::integer(num as i64);
        }
        Rational::try_from_i128(num, self.d)
            .expect("every tooth of a valid lattice fits a Rational")
    }

    /// `⌊t·d⌋` and `⌈t·d⌉`: the lattice values just below and above `t`.
    fn around(&self, t: Rational) -> (i128, i128) {
        let num = t.numerator() as i128 * self.d;
        let den = t.denominator() as i128;
        let floor = num.div_euclid(den);
        (floor, floor + i128::from(num.rem_euclid(den) != 0))
    }

    /// The `k` with `a + k·c = t·d` (any integer, also outside `0..=n`).
    fn index_of(&self, t: Rational) -> Option<i128> {
        let den = t.denominator() as i128;
        if self.d % den != 0 {
            return None;
        }
        let offset = t.numerator() as i128 * (self.d / den) - self.a;
        (offset % self.c == 0).then(|| offset / self.c)
    }
}

impl Interval {
    /// The arithmetic progression `{first + k·step | 0 ≤ k ≤ steps}` of
    /// punctual points — the only constructor of the strided shape
    /// (`steps == 0` is the plain point `[first, first]`). `None` when
    /// `step ≤ 0` or a tooth would leave the rational timeline.
    ///
    /// ```
    /// use mtl_temporal::{Interval, Rational};
    /// let run = Interval::progression(Rational::integer(10), Rational::integer(1), 50).unwrap();
    /// assert!(run.contains(Rational::integer(42)));
    /// assert!(!run.contains(Rational::new(85, 2)));
    /// let clip = run.intersect(&Interval::closed_int(0, 12)).unwrap();
    /// assert_eq!(clip, Interval::progression(Rational::integer(10), Rational::integer(1), 2).unwrap());
    /// ```
    pub fn progression(first: Rational, step: Rational, steps: u32) -> Option<Interval> {
        if steps == 0 {
            return Some(Interval::point(first));
        }
        let last = Lattice::new(first, step, steps)?.tooth(steps as i128);
        Some(Interval {
            lo: first.into(),
            hi: last.into(),
            lo_closed: true,
            hi_closed: true,
            steps,
        })
    }

    /// Number of steps between the first and last tooth of a progression
    /// (`teeth − 1`); `0` for an ordinary interval.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// `true` iff this component is a progression of punctual points.
    pub fn is_strided(&self) -> bool {
        self.steps > 0
    }

    /// Distance between consecutive teeth; `None` for an ordinary interval.
    pub fn step(&self) -> Option<Rational> {
        (self.steps > 0).then(|| {
            let l = self.lattice();
            Rational::try_from_i128(l.c, l.d).expect("the step of a valid lattice fits a Rational")
        })
    }

    /// The solid interval spanned by this component: `[lo, hi]` for a
    /// progression, the interval itself otherwise.
    pub fn hull(&self) -> Interval {
        Interval { steps: 0, ..*self }
    }

    /// The teeth of a progression in increasing order (empty for an
    /// ordinary interval, whose points cannot be listed).
    pub fn teeth(&self) -> impl Iterator<Item = Rational> {
        let lattice = (self.steps > 0).then(|| self.lattice());
        lattice
            .into_iter()
            .flat_map(|l| (0..=l.n).map(move |k| l.tooth(k)))
    }

    /// The component as plain intervals: itself, or one `[t, t]` per tooth.
    /// Everything that renders, compares or hashes a point set goes through
    /// here, so it never sees how the set is stored.
    pub fn atoms(&self) -> impl Iterator<Item = Interval> {
        let solid = (self.steps == 0).then_some(*self);
        solid.into_iter().chain(self.teeth().map(Interval::point))
    }

    fn lattice(&self) -> Lattice {
        let (TimeBound::Finite(lo), TimeBound::Finite(hi)) = (self.lo, self.hi) else {
            unreachable!("a progression has finite endpoints");
        };
        let n = self.steps as i128;
        if lo.is_integer() && hi.is_integer() {
            // Whole-seconds timelines: no gcd, no division.
            let span = hi.numerator() as i128 - lo.numerator() as i128;
            if span % n == 0 {
                return Lattice {
                    a: lo.numerator() as i128,
                    c: span / n,
                    d: 1,
                    n,
                };
            }
        }
        let span = hi
            .checked_sub(lo)
            .expect("the span of a valid lattice fits a Rational");
        let step = span / Rational::integer(n as i64);
        Lattice::new(lo, step, self.steps).expect("a stored progression has a valid lattice")
    }

    /// Teeth `k1..=k2` as their own component (a point when `k1 == k2`).
    pub(crate) fn sub(&self, k1: u32, k2: u32) -> Interval {
        debug_assert!(k1 <= k2 && k2 <= self.steps);
        let l = self.lattice();
        Interval {
            lo: l.tooth(k1 as i128).into(),
            hi: l.tooth(k2 as i128).into(),
            lo_closed: true,
            hi_closed: true,
            steps: k2 - k1,
        }
    }

    /// Indices of the first and last tooth inside the solid `window`.
    pub(crate) fn teeth_within(&self, window: &Interval) -> Option<(u32, u32)> {
        debug_assert!(self.steps > 0 && window.steps == 0);
        let l = self.lattice();
        let first = match window.lo {
            TimeBound::NegInf => 0,
            TimeBound::PosInf => return None,
            TimeBound::Finite(b) => {
                let (floor, ceil) = l.around(b);
                let least = if window.lo_closed { ceil } else { floor + 1 };
                // Smallest k with a + k·c ≥ least.
                (-(l.a - least).div_euclid(l.c)).max(0)
            }
        };
        let last = match window.hi {
            TimeBound::PosInf => l.n,
            TimeBound::NegInf => return None,
            TimeBound::Finite(b) => {
                let (floor, ceil) = l.around(b);
                let most = if window.hi_closed { floor } else { ceil - 1 };
                (most - l.a).div_euclid(l.c).min(l.n)
            }
        };
        (first <= last).then_some((first as u32, last as u32))
    }

    /// Position of `t` on the progression's infinite lattice: `k` with
    /// `lo + k·step = t` (negative before the first tooth, `> steps` past
    /// the last).
    pub(crate) fn index_of(&self, t: Rational) -> Option<i128> {
        self.lattice().index_of(t)
    }

    /// How many of the points `first, first + step, first + 2·step, …` lie
    /// in this component before the first one that does not — stepping a
    /// punctual chain through one guard piece, in closed form. `u64::MAX`
    /// when the component is unbounded above; `step` must be positive.
    pub fn run_length(&self, first: Rational, step: Rational) -> u64 {
        if !self.contains(first) {
            return 0;
        }
        if self.steps > 0 {
            // Two consecutive points on a progression's lattice put every
            // later one on it, up to the last tooth.
            match first.checked_add(step) {
                Some(next) if self.contains(next) => {}
                _ => return 1,
            }
        }
        let TimeBound::Finite(hi) = self.hi else {
            return u64::MAX;
        };
        // One point at a time where the points have no common lattice.
        let Some(l) = Lattice::new(first, step, 0) else {
            return 1;
        };
        let (floor, ceil) = l.around(hi);
        let most = if self.hi_closed { floor } else { ceil - 1 };
        ((most - l.a).div_euclid(l.c) + 1) as u64
    }

    /// The teeth inside the solid interval `window`.
    pub(super) fn clip_teeth(&self, window: &Interval) -> Option<Interval> {
        let (k1, k2) = self.teeth_within(window)?;
        Some(self.sub(k1, k2))
    }

    /// The common teeth of two progressions: an arithmetic progression
    /// again (its step the least common multiple of the two), a point, or
    /// nothing.
    pub(super) fn common_teeth(&self, other: &Interval) -> Option<Interval> {
        // Both clipped to the common hull start at their first tooth in it.
        let p = self.clip_teeth(&other.hull())?;
        let q = other.clip_teeth(&self.hull())?;
        let (sp, sq) = match (p.step(), q.step()) {
            (None, _) => return q.contains(p.punctual_value()?).then_some(p),
            (_, None) => return p.contains(q.punctual_value()?).then_some(q),
            (Some(sp), Some(sq)) => (sp, sq),
        };
        if sp == sq {
            // Same step: congruent iff they start on the same tooth, and
            // then the shorter one is the intersection.
            return (p.lo == q.lo).then_some(if p.steps <= q.steps { p } else { q });
        }
        // Different steps: the common teeth repeat every `period` teeth of
        // the coarser progression, so two hits determine all of them.
        let (coarse, fine) = if sp > sq { (p, q) } else { (q, p) };
        let l = coarse.lattice();
        let mut hits = (0..=coarse.steps).filter(|&k| fine.contains(l.tooth(k as i128)));
        let first = hits.next()?;
        let Some(second) = hits.next() else {
            return Some(coarse.sub(first, first));
        };
        let period = second - first;
        let count = (coarse.steps - first) / period;
        let every = Interval {
            lo: l.tooth(first as i128).into(),
            hi: l.tooth((first + count * period) as i128).into(),
            lo_closed: true,
            hi_closed: true,
            steps: count,
        };
        every.clip_teeth(&fine.hull())
    }

    /// [`Interval::union_if_connected`] with a progression on either side.
    pub(super) fn coalesce(&self, other: &Interval) -> Option<Interval> {
        let (run, x) = if self.steps > 0 {
            (self, other)
        } else {
            (other, self)
        };
        let step = run.step().expect("one side is a progression");
        let TimeBound::Finite(run_lo) = run.lo else {
            unreachable!("a progression has finite endpoints");
        };
        let n = run.steps as i128;
        if x.steps == 0 {
            // Only a point on the run's lattice, at most one step outside.
            let t = x.punctual_value()?;
            return match run.index_of(t)? {
                -1 => Interval::progression(t, step, run.steps.checked_add(1)?),
                k if (0..=n).contains(&k) => Some(*run),
                k if k == n + 1 => Interval::progression(run_lo, step, run.steps.checked_add(1)?),
                _ => None,
            };
        }
        if x.step() != Some(step) {
            return None;
        }
        let (first, second) = if run.lo <= x.lo { (run, x) } else { (x, run) };
        let (TimeBound::Finite(first_lo), TimeBound::Finite(second_lo)) = (first.lo, second.lo)
        else {
            unreachable!("a progression has finite endpoints");
        };
        let k = first.index_of(second_lo)?;
        if k > first.steps as i128 + 1 {
            return None;
        }
        let end = (k + second.steps as i128).max(first.steps as i128);
        Interval::progression(first_lo, step, u32::try_from(end).ok()?)
    }

    /// The progression moved by `by` towards the future (`forward`) or the
    /// past: what every punctual operator does to it.
    pub(super) fn shifted(&self, by: Rational, forward: bool) -> Result<Interval, TimeOverflow> {
        let TimeBound::Finite(lo) = self.lo else {
            unreachable!("a progression has finite endpoints");
        };
        let lo = if forward {
            lo.checked_add(by)
        } else {
            lo.checked_sub(by)
        };
        let step = self.step().expect("only progressions are shifted here");
        lo.and_then(|lo| Interval::progression(lo, step, self.steps))
            .ok_or(TimeOverflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::integer(n)
    }

    fn run(first: i64, step: i64, steps: u32) -> Interval {
        Interval::progression(r(first), r(step), steps).unwrap()
    }

    #[test]
    fn the_shape_costs_no_bytes() {
        assert_eq!(std::mem::size_of::<Interval>(), 56);
    }

    #[test]
    fn constructor_rejects_what_it_cannot_represent() {
        assert_eq!(Interval::progression(r(3), r(1), 0), Some(Interval::at(3)));
        assert!(Interval::progression(r(0), r(0), 5).is_none());
        assert!(Interval::progression(r(0), r(-1), 5).is_none());
        assert!(Interval::progression(r(i64::MAX - 3), r(1), 5).is_none());
        assert!(Interval::progression(r(i64::MIN + 1), r(i64::MAX), 3).is_none());
        let p = Interval::progression(Rational::new(1, 3), Rational::new(1, 2), 4).unwrap();
        assert_eq!(p.hi(), TimeBound::Finite(Rational::new(7, 3)));
        assert_eq!(p.step(), Some(Rational::new(1, 2)));
        assert_eq!(p.teeth().count(), 5);
    }

    #[test]
    fn membership_is_on_the_lattice() {
        let p = Interval::progression(Rational::new(1, 2), Rational::new(3, 2), 3).unwrap();
        for t in [(1, 2), (2, 1), (7, 2), (5, 1)] {
            assert!(p.contains(Rational::new(t.0, t.1)), "{t:?}");
        }
        for t in [(0, 1), (1, 1), (3, 2), (13, 2), (-1, 1)] {
            assert!(!p.contains(Rational::new(t.0, t.1)), "{t:?}");
        }
    }

    #[test]
    fn clip_keeps_the_teeth_inside() {
        let p = run(10, 5, 10); // 10, 15, …, 60
        assert_eq!(
            p.intersect(&Interval::closed_int(12, 31)),
            Some(run(15, 5, 3))
        );
        assert_eq!(
            p.intersect(&Interval::open(r(15), r(25))),
            Some(Interval::at(20))
        );
        assert_eq!(p.intersect(&Interval::open(r(15), r(20))), None);
        assert_eq!(p.intersect(&Interval::ALL), Some(p));
        assert_eq!(Interval::up_to(r(9)).intersect(&p), None);
    }

    #[test]
    fn common_teeth_form_a_progression() {
        // Same step, same phase: the overlap.
        assert_eq!(run(0, 2, 10).intersect(&run(6, 2, 20)), Some(run(6, 2, 7)));
        // Same step, other phase: nothing.
        assert_eq!(run(0, 2, 10).intersect(&run(5, 2, 20)), None);
        // Steps 2 and 3 meet every 6.
        assert_eq!(run(0, 2, 20).intersect(&run(3, 3, 20)), Some(run(6, 6, 5)));
        // One step a multiple of the other.
        assert_eq!(run(1, 1, 30).intersect(&run(0, 5, 4)), Some(run(5, 5, 3)));
        // A single common tooth.
        assert_eq!(
            run(0, 4, 3).intersect(&run(12, 5, 3)),
            Some(Interval::at(12))
        );
    }

    #[test]
    fn a_congruent_neighbour_coalesces() {
        let p = run(10, 2, 5); // 10 … 20
        assert_eq!(p.union_if_connected(&Interval::at(22)), Some(run(10, 2, 6)));
        assert_eq!(Interval::at(8).union_if_connected(&p), Some(run(8, 2, 6)));
        assert_eq!(p.union_if_connected(&Interval::at(14)), Some(p));
        assert_eq!(p.union_if_connected(&Interval::at(24)), None);
        assert_eq!(p.union_if_connected(&Interval::at(21)), None);
        assert_eq!(p.union_if_connected(&run(22, 2, 3)), Some(run(10, 2, 9)));
        assert_eq!(run(16, 2, 10).union_if_connected(&p), Some(run(10, 2, 13)));
        assert_eq!(p.union_if_connected(&run(24, 2, 3)), None);
        assert_eq!(p.union_if_connected(&run(22, 4, 3)), None);
        assert_eq!(p.union_if_connected(&Interval::closed_int(20, 22)), None);
        // Two lone points stay two points.
        assert_eq!(Interval::at(1).union_if_connected(&Interval::at(2)), None);
        // The tooth count saturates instead of wrapping.
        let full = run(0, 1, u32::MAX);
        assert_eq!(
            full.union_if_connected(&Interval::at(u32::MAX as i64 + 1)),
            None
        );
    }

    #[test]
    fn punctual_operators_shift() {
        use crate::MetricInterval;
        let p = run(10, 3, 4);
        let one = MetricInterval::one();
        assert_eq!(p.diamond_minus(&one), run(11, 3, 4));
        assert_eq!(p.box_minus(&one), Some(run(11, 3, 4)));
        assert_eq!(p.diamond_plus(&one), run(9, 3, 4));
        assert_eq!(p.box_plus(&one), Some(run(9, 3, 4)));
        assert_eq!(p.box_minus(&MetricInterval::closed_int(0, 1)), None);
        let far = run(i64::MAX - 20, 3, 4);
        assert_eq!(
            far.checked_diamond_minus(&MetricInterval::closed_int(9, 9)),
            Err(TimeOverflow)
        );
    }

    #[test]
    fn run_length_counts_the_points_a_piece_holds() {
        let half = Rational::new(1, 2);
        assert_eq!(Interval::closed_int(0, 10).run_length(r(3), r(2)), 4);
        assert_eq!(Interval::closed_int(0, 10).run_length(r(4), r(2)), 4);
        assert_eq!(Interval::open(r(0), r(10)).run_length(r(4), r(2)), 3);
        assert_eq!(Interval::closed_int(0, 10).run_length(r(11), r(2)), 0);
        assert_eq!(Interval::at(4).run_length(r(4), r(1)), 1);
        assert_eq!(Interval::closed_int(0, 2).run_length(r(0), half), 5);
        assert_eq!(
            Interval::from_instant(r(0)).run_length(r(5), r(1)),
            u64::MAX
        );
        // On a progression: all the way when the step fits its lattice,
        // one point when it does not.
        assert_eq!(run(0, 2, 10).run_length(r(4), r(4)), 5);
        assert_eq!(run(0, 2, 10).run_length(r(4), r(2)), 9);
        assert_eq!(run(0, 2, 10).run_length(r(4), r(3)), 1);
        assert_eq!(run(0, 2, 10).run_length(r(20), r(2)), 1);
        assert_eq!(run(0, 2, 10).run_length(r(5), r(2)), 0);
    }

    #[test]
    fn containment_between_shapes() {
        let p = run(0, 2, 10);
        assert!(p.contains_interval(&Interval::at(4)));
        assert!(!p.contains_interval(&Interval::at(5)));
        assert!(p.contains_interval(&run(4, 4, 3)));
        assert!(!p.contains_interval(&run(4, 3, 3)));
        assert!(!p.contains_interval(&Interval::closed_int(4, 6)));
        assert!(Interval::closed_int(0, 20).contains_interval(&p));
        assert!(!Interval::open(r(0), r(21)).contains_interval(&p));
    }

    #[test]
    fn display_lists_the_teeth() {
        assert_eq!(run(1, 2, 2).to_string(), "[1] ∪ [3] ∪ [5]");
    }
}
