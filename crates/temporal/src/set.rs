//! Coalesced sets of intervals: the temporal annotation of a DatalogMTL fact.
//!
//! Every ground atom in an interpretation maps to an [`IntervalSet`] — the set
//! of time points at which the atom holds, represented as a sorted vector of
//! disjoint, *non-connected* components (overlapping or merely touching
//! intervals are merged eagerly). Full coalescing is not just a space
//! optimization: erosion (the `⊟ρ` operator) distributes over components only
//! when no two components can be bridged by an obligation window, which the
//! no-touching invariant guarantees.
//!
//! A component is an interval or an arithmetic progression of points
//! ([`Interval::progression`]). The invariant, spelled out for both shapes:
//!
//! * components are sorted and their *hulls* are pairwise disjoint — whatever
//!   lands between two teeth splits the progression — so every binary search
//!   over a component slice stays valid;
//! * no two neighbouring *atoms* (an interval, or one tooth) are connected: a
//!   tooth touching an interval is absorbed by it;
//! * a progression continued by a congruent point or progression is one
//!   component wherever an operation sees the two side by side (`insert`,
//!   `union`): compactness, not correctness, rests on it.
//!
//! Which points a set holds never depends on how they are stored: equality,
//! hashing and `Display` go through [`IntervalSet::atoms`].
//!
//! Almost every set the engine builds holds one component: a tuple's
//! validity clipped to a read window, the intersection of two of those, a
//! derivation window. The first component is therefore held inline and the
//! set moves to the heap only at its second, so clipping, intersecting and
//! wrapping a single interval allocate nothing.

use crate::{Interval, MetricInterval, Rational, TimeBound, TimeOverflow};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, Range};

/// The component list of an [`IntervalSet`]: one component inline, more on
/// the heap. The empty list is an empty `Many`, which allocates nothing.
#[derive(Clone)]
enum Comps {
    One(Interval),
    Many(Vec<Interval>),
}

impl Default for Comps {
    fn default() -> Comps {
        Comps::Many(Vec::new())
    }
}

impl Deref for Comps {
    type Target = [Interval];
    fn deref(&self) -> &[Interval] {
        match self {
            Comps::One(i) => std::slice::from_ref(i),
            Comps::Many(v) => v,
        }
    }
}

impl DerefMut for Comps {
    fn deref_mut(&mut self) -> &mut [Interval] {
        match self {
            Comps::One(i) => std::slice::from_mut(i),
            Comps::Many(v) => v,
        }
    }
}

impl From<Vec<Interval>> for Comps {
    fn from(v: Vec<Interval>) -> Comps {
        match v[..] {
            [one] => Comps::One(one),
            _ => Comps::Many(v),
        }
    }
}

impl Comps {
    fn with_capacity(n: usize) -> Comps {
        if n <= 1 {
            Comps::default()
        } else {
            Comps::Many(Vec::with_capacity(n))
        }
    }

    /// The heap list, moving an inline component onto it first.
    fn spill(&mut self) -> &mut Vec<Interval> {
        if let Comps::One(i) = *self {
            let mut v = Vec::with_capacity(4);
            v.push(i);
            *self = Comps::Many(v);
        }
        match self {
            Comps::Many(v) => v,
            Comps::One(_) => unreachable!("spilled above"),
        }
    }

    /// Appends a component (no coalescing).
    fn push(&mut self, x: Interval) {
        match self {
            Comps::Many(v) if v.capacity() == 0 => *self = Comps::One(x),
            _ => self.spill().push(x),
        }
    }

    fn remove(&mut self, at: usize) {
        self.spill().remove(at);
    }

    fn splice(&mut self, range: Range<usize>, with: Comps) {
        if let (Comps::One(_), 0, 1) = (&*self, range.start, range.end) {
            *self = with;
        } else {
            self.spill().splice(range, with.iter().copied());
        }
    }
}

/// A set of rational time points stored as maximal disjoint components.
///
/// ```
/// use mtl_temporal::{Interval, IntervalSet, Rational};
/// let mut s = IntervalSet::new();
/// s.insert(Interval::closed_int(0, 2));
/// s.insert(Interval::closed_int(5, 9));
/// s.insert(Interval::closed_int(3, 3));
/// assert_eq!(s.components().len(), 3);
/// s.insert(Interval::open(Rational::integer(2), Rational::integer(3)));
/// // (2,3) glues [0,2] and [3,3] together
/// assert_eq!(s.components().len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct IntervalSet {
    /// Sorted by position, hulls disjoint, atoms pairwise non-connected.
    items: Comps,
}

impl PartialEq for IntervalSet {
    /// Equality of the point sets: `{[1] ∪ [2] ∪ [3]}` equals the three-tooth
    /// progression.
    fn eq(&self, other: &IntervalSet) -> bool {
        self.items[..] == other.items[..] || self.atoms().eq(other.atoms())
    }
}

impl Eq for IntervalSet {}

impl Hash for IntervalSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for atom in self.atoms() {
            atom.hash(state);
        }
    }
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> IntervalSet {
        IntervalSet {
            items: Comps::default(),
        }
    }

    /// A set holding a single interval.
    pub fn from_interval(i: Interval) -> IntervalSet {
        IntervalSet {
            items: Comps::One(i),
        }
    }

    /// Builds a set from arbitrary (unsorted, overlapping) intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(iter: I) -> IntervalSet {
        let mut s = IntervalSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Trusted constructor from components already sorted and pairwise
    /// non-connected — the invariant every slice handed out by
    /// [`IntervalSet::components`] satisfies. Lets arena-backed storage
    /// rebuild a set from a stored component slice without re-coalescing.
    pub fn from_sorted(items: Vec<Interval>) -> IntervalSet {
        let s = IntervalSet {
            items: items.into(),
        };
        #[cfg(debug_assertions)]
        s.check_invariant();
        s
    }

    /// [`IntervalSet::from_sorted`] over a borrowed component slice: copies
    /// it, and allocates only when it holds more than one component.
    pub fn from_sorted_slice(items: &[Interval]) -> IntervalSet {
        let s = IntervalSet {
            items: match items {
                [one] => Comps::One(*one),
                _ => Comps::Many(items.to_vec()),
            },
        };
        #[cfg(debug_assertions)]
        s.check_invariant();
        s
    }

    /// Clips a sorted, non-connected component slice against one interval —
    /// the set-level [`IntervalSet::intersect_interval`] for callers that
    /// hold raw components (arena slabs) rather than a set. Binary search:
    /// O(log n + |output|), the engine's masked-read primitive — a semi-naive
    /// delta join touches only a tiny time window of a relation whose
    /// interval set may have accumulated thousands of components.
    pub fn clip_components(items: &[Interval], interval: &Interval) -> IntervalSet {
        let start = items.partition_point(|i| i.entirely_before(interval));
        let mut out = Comps::default();
        for i in &items[start..] {
            if interval.entirely_before(i) {
                break;
            }
            if let Some(x) = i.intersect(interval) {
                out.push(x);
            }
        }
        IntervalSet { items: out }
    }

    /// The time points of a component slice that holds only points and
    /// progressions — every tooth, in order; `None` if any component has
    /// positive length or is unbounded.
    pub fn punctual_points_of(items: &[Interval]) -> Option<Vec<Rational>> {
        let mut out = Vec::with_capacity(items.len());
        for i in items {
            if i.is_strided() {
                out.extend(i.teeth());
            } else {
                out.push(i.punctual_value()?);
            }
        }
        Some(out)
    }

    /// Membership test over a raw component slice (binary search on the
    /// component ordering).
    pub fn components_contain(items: &[Interval], t: Rational) -> bool {
        let idx = items.partition_point(|i| match i.hi() {
            TimeBound::Finite(h) => h < t,
            TimeBound::NegInf => true,
            TimeBound::PosInf => false,
        });
        items.get(idx).map(|i| i.contains(t)).unwrap_or(false)
            || idx
                .checked_sub(1)
                .and_then(|j| items.get(j))
                .map(|i| i.contains(t))
                .unwrap_or(false)
    }

    /// The maximal disjoint components, in increasing order.
    pub fn components(&self) -> &[Interval] {
        &self.items
    }

    /// `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the components.
    pub fn iter(&self) -> impl Iterator<Item = &Interval> {
        self.items.iter()
    }

    /// The set as plain intervals, every tooth of a progression its own
    /// `[t, t]`: the one view that does not depend on the representation.
    pub fn atoms(&self) -> impl Iterator<Item = Interval> + '_ {
        self.items.iter().flat_map(Interval::atoms)
    }

    /// Membership test for a time point.
    pub fn contains(&self, t: Rational) -> bool {
        IntervalSet::components_contain(&self.items, t)
    }

    /// Index of the first component that is not entirely before `interval`
    /// (the first candidate for overlap/adjacency).
    fn first_candidate(&self, interval: &Interval) -> usize {
        self.items.partition_point(|i| i.entirely_before(interval))
    }

    /// `true` iff `interval` is entirely contained in the set.
    pub fn contains_interval(&self, interval: &Interval) -> bool {
        // Only one component can contain a solid interval: the first not
        // entirely before it. The teeth of a progression may spread over
        // several.
        let start = self.first_candidate(interval);
        self.items
            .get(start)
            .is_some_and(|i| i.contains_interval(interval))
            || (interval.is_strided()
                && difference_sorted(&[*interval], &self.items[start..]).is_empty())
    }

    /// Inserts an interval, merging as needed. Returns `true` iff the set of
    /// time points actually grew (used for fixpoint-change detection).
    ///
    /// The dominant reasoning pattern — facts growing monotonically towards
    /// the future — hits O(log n) paths; the general case splices in place.
    pub fn insert(&mut self, interval: Interval) -> bool {
        // Fast path: appending past the end (possibly extending the last
        // component).
        if self
            .items
            .last()
            .is_none_or(|last| last.entirely_before(&interval))
        {
            push(&mut self.items, interval);
            return true;
        }
        // Next: reaching no further back than the last component and
        // forming one component with it (overlap, or a run continued from
        // its own last tooth).
        let last = self.items.len() - 1;
        if self.items[last].cmp_position(&interval).is_le() {
            if let Some(u) = self.items[last].union_if_connected(&interval) {
                let grew = u != self.items[last];
                self.items[last] = u;
                coalesce_chain(&mut self.items, last);
                return grew;
            }
        }
        // General case: the components whose hull `interval`'s hull meets.
        let start = self.first_candidate(&interval);
        let end = start + self.items[start..].partition_point(|i| !interval.entirely_before(i));
        let met = &self.items[start..end];
        if met.len() == 1 && met[0].contains_interval(&interval) {
            return false;
        }
        if !met.is_empty() && difference_sorted(&[interval], met).is_empty() {
            return false;
        }
        // One neighbour further on each side: a point landing in the gap
        // between two congruent runs joins them.
        let (start, end) = (start.saturating_sub(1), (end + 1).min(self.items.len()));
        let merged = union_sorted(&self.items[start..end], &[interval]);
        let merged_end = start + merged.len();
        self.items.splice(start..end, merged);
        // What the merge turned into a run may now continue its neighbours.
        coalesce_chain(&mut self.items, merged_end - 1);
        coalesce_chain(&mut self.items, start);
        true
    }

    /// In-place union; returns `true` iff the set grew.
    pub fn union_with(&mut self, other: &IntervalSet) -> bool {
        let mut grew = false;
        for &i in other.items.iter() {
            grew |= self.insert(i);
        }
        grew
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Set intersection (linear merge over both component lists).
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Comps::default();
        while i < self.items.len() && j < other.items.len() {
            let a = &self.items[i];
            let b = &other.items[j];
            if let Some(x) = a.intersect(b) {
                out.push(x);
            }
            // Advance whichever ends first.
            if a.hi() < b.hi() || (a.hi() == b.hi() && !a.hi_closed()) {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { items: out }
    }

    /// Intersection with a single interval (clipping), via binary search:
    /// see [`IntervalSet::clip_components`].
    pub fn intersect_interval(&self, interval: &Interval) -> IntervalSet {
        IntervalSet::clip_components(&self.items, interval)
    }

    /// The convex hull `[min, max]` of the set, if non-empty.
    pub fn hull(&self) -> Option<Interval> {
        let first = self.items.first()?;
        let last = self.items.last()?;
        Interval::new(first.lo(), first.lo_closed(), last.hi(), last.hi_closed())
    }

    /// Set difference `self \ other` — the core of stratified negation and of
    /// semi-naive delta computation.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        if other.is_empty() {
            return self.clone();
        }
        IntervalSet {
            items: difference_sorted(&self.items, &other.items),
        }
    }

    /// Complement relative to a horizon interval: `horizon \ self`.
    pub fn complement_within(&self, horizon: &Interval) -> IntervalSet {
        IntervalSet::from_interval(*horizon).difference(self)
    }

    /// `true` iff `self ⊆ other`.
    pub fn subset_of(&self, other: &IntervalSet) -> bool {
        self.items.iter().all(|i| other.contains_interval(i))
    }

    // ------------------------------------------------------------------
    // MTL operator transforms
    // ------------------------------------------------------------------

    /// A diamond operator over every component. A progression shifts under
    /// a punctual `ρ`; a wider `ρ` turns it into one interval when the
    /// images of neighbouring teeth meet, and into one interval per tooth —
    /// the result inherently has that many — when they do not.
    fn diamond(
        &self,
        rho: &MetricInterval,
        op: fn(&Interval, &MetricInterval) -> Result<Interval, TimeOverflow>,
    ) -> Result<IntervalSet, TimeOverflow> {
        let mut out = IntervalSet::new();
        for i in self.items.iter() {
            match i.step() {
                Some(step) if !rho.is_punctual() => {
                    if rho.bridges(step) {
                        out.insert(op(&i.hull(), rho)?);
                    } else {
                        for tooth in i.atoms() {
                            out.insert(op(&tooth, rho)?);
                        }
                    }
                }
                _ => {
                    out.insert(op(i, rho)?);
                }
            }
        }
        Ok(out)
    }

    /// `◇⁻ρ`: Minkowski sum of every component with `ρ` (re-coalesced).
    /// Errs when a shifted endpoint overflows the rational timeline.
    pub fn checked_diamond_minus(&self, rho: &MetricInterval) -> Result<IntervalSet, TimeOverflow> {
        self.diamond(rho, Interval::checked_diamond_minus)
    }

    /// Panicking shorthand for [`IntervalSet::checked_diamond_minus`].
    pub fn diamond_minus(&self, rho: &MetricInterval) -> IntervalSet {
        self.checked_diamond_minus(rho)
            .expect("temporal endpoint overflow in diamond_minus")
    }

    /// `⊟ρ`: erosion. Exact per component thanks to the full-coalescing
    /// invariant — an obligation window of positive length cannot straddle a
    /// gap (nor fit between the teeth of a progression), and punctual
    /// windows reduce to shifts.
    /// Errs when a shifted endpoint overflows the rational timeline.
    pub fn checked_box_minus(&self, rho: &MetricInterval) -> Result<IntervalSet, TimeOverflow> {
        let mut out = IntervalSet::new();
        for i in self.items.iter() {
            if let Some(x) = i.checked_box_minus(rho)? {
                out.insert(x);
            }
        }
        Ok(out)
    }

    /// `◇⁺ρ`: future diamond (Minkowski sum towards the past).
    /// Errs when a shifted endpoint overflows the rational timeline.
    pub fn checked_diamond_plus(&self, rho: &MetricInterval) -> Result<IntervalSet, TimeOverflow> {
        self.diamond(rho, Interval::checked_diamond_plus)
    }

    /// `⊞ρ`: future box (erosion towards the past).
    /// Errs when a shifted endpoint overflows the rational timeline.
    pub fn checked_box_plus(&self, rho: &MetricInterval) -> Result<IntervalSet, TimeOverflow> {
        let mut out = IntervalSet::new();
        for i in self.items.iter() {
            if let Some(x) = i.checked_box_plus(rho)? {
                out.insert(x);
            }
        }
        Ok(out)
    }

    /// `self S_ρ other` (Since): holds at `t` iff there is `s` with
    /// `t − s ∈ ρ` where `other` holds, and `self` holds throughout the open
    /// interval `(s, t)`. Errs when a shifted endpoint overflows the
    /// rational timeline.
    pub fn since(
        &self,
        other: &IntervalSet,
        rho: &MetricInterval,
    ) -> Result<IntervalSet, TimeOverflow> {
        self.since_or_until(other, rho, true)
    }

    /// `self U_ρ other` (Until): mirror of [`IntervalSet::since`] towards the
    /// future: holds at `t` iff there is `s` with `s − t ∈ ρ` where `other`
    /// holds and `self` holds throughout `(t, s)`. Errs like
    /// [`IntervalSet::since`].
    pub fn until(
        &self,
        other: &IntervalSet,
        rho: &MetricInterval,
    ) -> Result<IntervalSet, TimeOverflow> {
        self.since_or_until(other, rho, false)
    }

    fn since_or_until(
        &self,
        other: &IntervalSet,
        rho: &MetricInterval,
        past: bool,
    ) -> Result<IntervalSet, TimeOverflow> {
        let mut out = IntervalSet::new();
        // s = t case: when 0 ∈ ρ the continuity obligation is vacuous.
        if metric_contains_zero(rho) {
            out.union_with(other);
        }
        // A continuity interval `(s, t)` of positive length fits no isolated
        // point, so the teeth of a progression carry only the s = t case.
        for kappa in self.items.iter().filter(|k| !k.is_strided()) {
            let closure = closure_of(kappa);
            // t must stay on kappa's side of the witness (the far endpoint
            // always allowed: `(s, hi)` ⊆ kappa).
            let cut = if past {
                Interval::new(TimeBound::NegInf, false, kappa.hi(), true)
            } else {
                Interval::new(kappa.lo(), true, TimeBound::PosInf, false)
            }
            .expect("the cut is non-empty");
            for iota in other.items.iter() {
                let Some(s_range) = iota.intersect(&closure) else {
                    continue;
                };
                // Each witness tooth reaches its own stretch of `t`.
                for witness in s_range.atoms() {
                    let t_range = if past {
                        witness.checked_diamond_minus(rho)?
                    } else {
                        witness.checked_diamond_plus(rho)?
                    };
                    if let Some(t) = t_range.intersect(&cut) {
                        out.insert(t);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The time points of a set whose components are all points or
    /// progressions — every tooth; `None` if any component has positive
    /// length or is unbounded. Used by the Vadalog-style `@T` time-capture
    /// extension.
    pub fn punctual_points(&self) -> Option<Vec<Rational>> {
        IntervalSet::punctual_points_of(&self.items)
    }

    /// The lower bound of the earliest component (`-inf` included).
    pub fn min_point(&self) -> Option<TimeBound> {
        self.items.first().map(|i| i.lo())
    }

    /// The upper bound of the latest component (`+inf` included).
    pub fn max_point(&self) -> Option<TimeBound> {
        self.items.last().map(|i| i.hi())
    }

    /// Debug helper: asserts the internal invariant (module docs): hulls in
    /// order and apart, neighbouring atoms not connected. That congruent
    /// neighbours are coalesced is best effort — it decides how compactly a
    /// point set is stored, never which points it holds.
    #[doc(hidden)]
    pub fn check_invariant(&self) {
        for w in self.items.windows(2) {
            assert!(
                w[0].entirely_before(&w[1]) && !final_atom(&w[0]).connected(&leading_atom(&w[1])),
                "IntervalSet invariant violated: {} then {}",
                w[0],
                w[1]
            );
        }
    }
}

/// `true` iff `0 ∈ ρ` (i.e. its lower bound is a closed 0).
fn metric_contains_zero(rho: &MetricInterval) -> bool {
    rho.as_interval().contains(Rational::ZERO)
}

/// The topological closure of an interval (used when picking the witness `s`
/// of a Since/Until: `s` may sit on an open endpoint of the continuity
/// component because the obligation interval `(s, t)` is open).
fn closure_of(i: &Interval) -> Interval {
    Interval::new(i.lo(), true, i.hi(), true).expect("closure of non-empty interval")
}

/// The first atom of a component: its first tooth, or the interval itself.
fn leading_atom(i: &Interval) -> Interval {
    if i.is_strided() {
        i.sub(0, 0)
    } else {
        *i
    }
}

/// The last atom of a component.
fn final_atom(i: &Interval) -> Interval {
    if i.is_strided() {
        i.sub(i.steps(), i.steps())
    } else {
        *i
    }
}

/// Appends `x` to the normalised component list `items`, keeping it
/// normalised. `x` must start at or after the start of the last component
/// and, when that one is a progression, at or after its last tooth — what a
/// left-to-right sweep over sorted pieces guarantees.
fn push(items: &mut Comps, x: Interval) {
    let Some(last) = items.last_mut() else {
        items.push(x);
        return;
    };
    // Overlapping or touching intervals, a congruent continuation, a point
    // the run already holds.
    if let Some(u) = last.union_if_connected(&x) {
        *last = u;
        // A point that just became the start of a run may continue the
        // lone point before it, and so on down the list.
        coalesce_chain(items, items.len() - 1);
        return;
    }
    match (last.is_strided(), x.is_strided()) {
        (false, false) => items.push(x),
        (false, true) => {
            // The teeth inside the closure of `last` are absorbed (one on an
            // open endpoint closes it); the rest follows.
            let Some((_, inside)) = x.teeth_within(&closure_of(last)) else {
                items.push(x);
                return;
            };
            let lo_closed = last.lo_closed() || last.lo() == x.lo();
            let hi_closed = last.hi_closed() || last.hi() == x.sub(inside, inside).hi();
            *last = Interval::new(last.lo(), lo_closed, last.hi(), hi_closed)
                .expect("closing an endpoint keeps an interval non-empty");
            if inside < x.steps() {
                push(items, x.sub(inside + 1, x.steps()));
            }
        }
        (true, _) if last.hi() != x.lo() => items.push(x),
        (true, false) => {
            // An interval starting on the last tooth takes it over.
            let x = Interval::new(x.lo(), true, x.hi(), x.hi_closed())
                .expect("closing an endpoint keeps an interval non-empty");
            *last = last.sub(0, last.steps() - 1);
            items.push(x);
        }
        // Two runs of different step sharing a tooth.
        (true, true) => push(items, x.sub(1, x.steps())),
    }
}

/// Re-coalesces around `items[at]`, which has just become or extended a
/// run: lone points chaining onto it from the right are folded into it, then
/// it into lone points chaining onto it from the left.
fn coalesce_chain(items: &mut Comps, mut at: usize) {
    if at >= items.len() {
        return;
    }
    while let Some(u) = items
        .get(at + 1)
        .and_then(|next| items[at].union_if_connected(next))
    {
        items[at] = u;
        items.remove(at + 1);
    }
    while let Some(u) = at
        .checked_sub(1)
        .and_then(|before| items[before].union_if_connected(&items[at]))
    {
        items[at - 1] = u;
        items.remove(at);
        at -= 1;
    }
}

/// Union of two normalised component lists: a left-to-right sweep that
/// hands [`push`] the pieces in order, cutting a progression where a
/// component of the other list lands between (or on) its teeth.
fn union_sorted(a: &[Interval], b: &[Interval]) -> Comps {
    let mut out = Comps::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.iter().copied(), b.iter().copied());
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        let (first, other) = match (x, y) {
            (Some(p), Some(q)) => {
                if q.cmp_position(&p).is_lt() {
                    std::mem::swap(&mut a, &mut b);
                    (q, p)
                } else {
                    (p, q)
                }
            }
            (Some(p), None) | (None, Some(p)) => {
                push(&mut out, p);
                for rest in a.by_ref().chain(b.by_ref()) {
                    push(&mut out, rest);
                }
                return out;
            }
            (None, None) => return out,
        };
        // From here `first` heads list `a` and starts no later than `other`.
        if let Some(u) = first.union_if_connected(&other) {
            // The union takes the slot of whichever reached further, so it
            // still ends before the next component of that list.
            let first_ends_last = match first.hi().cmp(&other.hi()) {
                std::cmp::Ordering::Equal => first.hi_closed() >= other.hi_closed(),
                ord => ord.is_gt(),
            };
            (x, y) = if first_ends_last {
                (Some(u), b.next())
            } else {
                (a.next(), Some(u))
            };
        } else if first.entirely_before(&other) || !first.is_strided() {
            // A solid piece goes whole: `push` absorbs what overlaps it.
            push(&mut out, first);
            (x, y) = (a.next(), Some(other));
        } else {
            // A progression reaching into `other`: emit the teeth strictly
            // before it (at least one, so the sweep advances).
            let before = Interval::new(TimeBound::NegInf, false, other.lo(), !other.lo_closed())
                .and_then(|w| first.teeth_within(&w))
                .map_or(0, |(_, k)| k);
            push(&mut out, first.sub(0, before));
            (x, y) = (Some(first.sub(before + 1, first.steps())), Some(other));
        }
    }
}

/// `a ∖ b` over normalised component lists. Linear: the cutters are sorted
/// and apart, so only what remains to the right of one can meet the next.
fn difference_sorted(a: &[Interval], b: &[Interval]) -> Comps {
    let mut out = Comps::default();
    for &a in a {
        // Skip cutters entirely before `a` in O(log n).
        let start = b.partition_point(|c| c.entirely_before(&a));
        let mut rest = Some(a);
        for cutter in &b[start..] {
            match rest {
                Some(r) if !r.entirely_before(cutter) => rest = subtract_into(&r, cutter, &mut out),
                _ => break,
            }
        }
        if let Some(r) = rest {
            out.push(r);
        }
    }
    // Pieces of one component stay sorted and non-connected (subtracting
    // re-opens gaps), and components were non-connected already, so `out`
    // satisfies the invariant directly.
    out
}

/// Appends the pieces of `a ∖ b` that end at or before `b`'s last point to
/// `out` and returns the piece after it — the only one a later cutter can
/// still meet. Everything but interval ∖ progression (inherently one piece
/// per tooth) and progression ∖ coarser progression is at most two pieces.
fn subtract_into(a: &Interval, b: &Interval, out: &mut Comps) -> Option<Interval> {
    let Some(x) = a.intersect(b) else {
        return Some(*a);
    };
    if !a.is_strided() {
        // Left remainder: ⟨a.lo, x.lo⟩ with right end open iff x.lo closed;
        // between the teeth of a strided `x`, the open gaps.
        let mut lo = (a.lo(), a.lo_closed());
        for cut in x.atoms() {
            if let Some(piece) = Interval::new(lo.0, lo.1, cut.lo(), !cut.lo_closed()) {
                out.push(piece);
            }
            lo = (cut.hi(), !cut.hi_closed());
        }
        return Interval::new(lo.0, lo.1, a.hi(), a.hi_closed());
    }
    // `x` is a point or progression on `a`'s lattice: teeth `first`,
    // `first + period`, …, `last` of `a` go.
    let index = |t: TimeBound| {
        let t = t.finite().expect("teeth are finite");
        a.index_of(t).expect("a common tooth lies on the lattice") as u32
    };
    let (first, last) = (index(x.lo()), index(x.hi()));
    let period = (last - first).checked_div(x.steps()).unwrap_or(1);
    if first > 0 {
        out.push(a.sub(0, first - 1));
    }
    if period > 1 {
        for k in (first..last).step_by(period as usize) {
            out.push(a.sub(k + 1, k + period - 1));
        }
    }
    (last < a.steps()).then(|| a.sub(last + 1, a.steps()))
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.items.is_empty() {
            return write!(f, "{{}}");
        }
        write!(f, "{{")?;
        for (k, i) in self.items.iter().enumerate() {
            if k > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::integer(n)
    }

    fn set(v: &[(i64, i64)]) -> IntervalSet {
        IntervalSet::from_intervals(v.iter().map(|&(a, b)| Interval::closed_int(a, b)))
    }

    #[test]
    fn insert_coalesces_overlapping_and_touching() {
        let mut s = IntervalSet::new();
        assert!(s.insert(Interval::closed_int(0, 2)));
        assert!(s.insert(Interval::closed_int(4, 6)));
        assert!(s.insert(Interval::closed_int(2, 4))); // glue
        assert_eq!(s.components(), &[Interval::closed_int(0, 6)]);
        assert!(!s.insert(Interval::closed_int(1, 5))); // no growth
        s.check_invariant();
    }

    #[test]
    fn insert_coalesces_adjacent_half_open() {
        let mut s = IntervalSet::new();
        s.insert(Interval::half_open_right(r(0), r(1))); // [0,1)
        s.insert(Interval::closed(r(1), r(2))); // [1,2]
        assert_eq!(s.components(), &[Interval::closed(r(0), r(2))]);
        // but (2,3) with a point gap stays separate from [0,2] minus endpoint
        s.insert(Interval::open(r(2), r(3)));
        assert_eq!(s.components(), &[Interval::half_open_right(r(0), r(3))]);
    }

    #[test]
    fn point_gap_is_preserved() {
        let mut s = IntervalSet::new();
        s.insert(Interval::half_open_right(r(0), r(1))); // [0,1)
        s.insert(Interval::open(r(1), r(2))); // (1,2): {1} missing
        assert_eq!(s.components().len(), 2);
        assert!(!s.contains(r(1)));
        s.check_invariant();
    }

    #[test]
    fn intersect_sets() {
        let a = set(&[(0, 5), (10, 15)]);
        let b = set(&[(3, 12)]);
        assert_eq!(a.intersect(&b), set(&[(3, 5), (10, 12)]));
        assert!(a.intersect(&IntervalSet::new()).is_empty());
    }

    #[test]
    fn difference_reopens_bounds() {
        let a = set(&[(0, 10)]);
        let b = set(&[(3, 5)]);
        let d = a.difference(&b);
        assert_eq!(
            d.components(),
            &[
                Interval::half_open_right(r(0), r(3)),
                Interval::half_open_left(r(5), r(10)),
            ]
        );
        d.check_invariant();
        // subtracting a point
        let e = a.difference(&IntervalSet::from_interval(Interval::at(7)));
        assert!(!e.contains(r(7)));
        assert!(e.contains(r(6)));
        assert!(e.contains(r(8)));
    }

    #[test]
    fn difference_multiple_cutters() {
        let a = set(&[(0, 20)]);
        let b = set(&[(2, 4), (6, 8), (25, 30)]);
        let d = a.difference(&b);
        assert!(d.contains(r(0)));
        assert!(!d.contains(r(3)));
        assert!(d.contains(r(5)));
        assert!(!d.contains(r(7)));
        assert!(d.contains(r(20)));
        d.check_invariant();
    }

    #[test]
    fn complement_within_horizon() {
        let s = set(&[(2, 3), (5, 6)]);
        let c = s.complement_within(&Interval::closed_int(0, 10));
        assert!(c.contains(r(0)));
        assert!(!c.contains(r(2)));
        assert!(c.contains(r(4)));
        assert!(!c.contains(r(6)));
        assert!(c.contains(r(10)));
        // complement of complement is original (within the horizon)
        let cc = c.complement_within(&Interval::closed_int(0, 10));
        assert_eq!(cc, s.intersect_interval(&Interval::closed_int(0, 10)));
    }

    #[test]
    fn diamond_minus_on_sets() {
        let s = set(&[(0, 0), (10, 10)]);
        let out = s.diamond_minus(&MetricInterval::one());
        assert_eq!(out, set(&[(1, 1), (11, 11)]));
        // widening rho can merge components
        let out = s.diamond_minus(&MetricInterval::closed_int(0, 10));
        assert_eq!(out, set(&[(0, 20)]));
    }

    #[test]
    fn box_minus_respects_gaps() {
        // M on [0,4) ∪ (4,8]: window [t-2,t] cannot cover the missing point 4.
        let s = IntervalSet::from_intervals([
            Interval::half_open_right(r(0), r(4)),
            Interval::half_open_left(r(4), r(8)),
        ]);
        let rho = MetricInterval::closed_int(0, 2);
        let out = s.checked_box_minus(&rho).unwrap();
        // per component: [2,4) and (6,8]
        assert_eq!(
            out.components(),
            &[
                Interval::half_open_right(r(2), r(4)),
                Interval::half_open_left(r(6), r(8)),
            ]
        );
    }

    #[test]
    fn since_basic() {
        // M2 at [0,0]; M1 on [0, 10]; rho = [1,1]:
        // since holds at t iff exists s=t-1 with M2(s) and M1 on (s,t):
        // t = 1 works (s=0, (0,1) ⊆ M1).
        let m1 = set(&[(0, 10)]);
        let m2 = set(&[(0, 0)]);
        let s = m1.since(&m2, &MetricInterval::one()).unwrap();
        assert_eq!(s, set(&[(1, 1)]));
        // rho = [0,5]: t in [0,5]
        let s = m1.since(&m2, &MetricInterval::closed_int(0, 5)).unwrap();
        assert_eq!(s, set(&[(0, 5)]));
    }

    #[test]
    fn since_requires_continuity() {
        // M1 missing (2,3): since over rho [0,5] can't reach past the hole.
        let m1 = set(&[(0, 2), (3, 10)]);
        let m2 = set(&[(0, 0)]);
        let s = m1.since(&m2, &MetricInterval::closed_int(0, 5)).unwrap();
        // witnesses s=0 require (0,t) ⊆ M1 -> t ≤ 2.
        assert_eq!(s, set(&[(0, 2)]));
    }

    #[test]
    fn since_zero_in_rho_includes_m2() {
        let m1 = IntervalSet::new();
        let m2 = set(&[(4, 6)]);
        let s = m1.since(&m2, &MetricInterval::closed_int(0, 2)).unwrap();
        assert_eq!(s, set(&[(4, 6)]));
        // 0 not in rho: no vacuous case, and M1 empty -> empty.
        let s = m1.since(&m2, &MetricInterval::closed_int(1, 2)).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn until_mirrors_since() {
        let m1 = set(&[(0, 10)]);
        let m2 = set(&[(10, 10)]);
        let u = m1.until(&m2, &MetricInterval::one()).unwrap();
        assert_eq!(u, set(&[(9, 9)]));
        let u = m1.until(&m2, &MetricInterval::closed_int(0, 5)).unwrap();
        assert_eq!(u, set(&[(5, 10)]));
    }

    #[test]
    fn contains_uses_binary_search_correctly() {
        let s = set(&[(0, 1), (3, 4), (6, 7), (9, 10)]);
        for t in [0, 1, 3, 4, 6, 7, 9, 10] {
            assert!(s.contains(r(t)), "should contain {t}");
        }
        for t in [-1, 2, 5, 8, 11] {
            assert!(!s.contains(r(t)), "should not contain {t}");
        }
    }

    #[test]
    fn punctual_points_extraction() {
        let s = set(&[(1, 1), (5, 5)]);
        assert_eq!(s.punctual_points(), Some(vec![r(1), r(5)]));
        assert_eq!(set(&[(1, 2)]).punctual_points(), None);
        assert_eq!(IntervalSet::new().punctual_points(), Some(vec![]));
    }

    #[test]
    fn lone_points_chain_onto_a_run_from_both_sides() {
        let run = |first, steps| Interval::progression(r(first), r(2), steps).unwrap();
        // Lone points two apart never coalesce among themselves …
        let mut s = IntervalSet::from_intervals([0, 2, 4, 10, 12].map(Interval::at));
        assert_eq!(s.components().len(), 5);
        // … until a run lands between them: everything congruent joins it.
        s.insert(run(6, 1));
        assert_eq!(s.components(), &[run(0, 6)]);
        // A point off the lattice splits the run; taking it out again
        // leaves two runs that only an insert between them rejoins.
        s.insert(Interval::at(7));
        assert_eq!(s.components(), &[run(0, 3), Interval::at(7), run(8, 2)]);
        s.check_invariant();
    }

    #[test]
    fn subset_checks() {
        let a = set(&[(1, 2), (5, 6)]);
        let b = set(&[(0, 10)]);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(IntervalSet::new().subset_of(&a));
    }

    fn inline(s: &IntervalSet) -> bool {
        matches!(s.items, Comps::One(_))
    }

    #[test]
    fn one_component_stays_inline() {
        let a = set(&[(0, 10)]);
        assert!(inline(&a));
        assert!(inline(&IntervalSet::from_interval(Interval::at(3))));
        assert!(inline(&IntervalSet::from_sorted_slice(&[
            Interval::closed_int(1, 2)
        ])));
        assert!(inline(&IntervalSet::from_sorted(vec![
            Interval::closed_int(1, 2)
        ])));
        assert!(inline(&a.intersect(&set(&[(5, 20)]))));
        assert!(inline(&a.intersect_interval(&Interval::closed_int(2, 3))));
        assert!(inline(&a.difference(&set(&[(0, 4)]))));
        // The empty set holds nothing on the heap either.
        assert!(matches!(&IntervalSet::new().items, Comps::Many(v) if v.capacity() == 0));
        assert!(std::mem::size_of::<IntervalSet>() <= 64);
    }

    #[test]
    fn a_second_component_spills_and_the_point_set_decides_equality() {
        let mut s = set(&[(0, 2)]);
        assert!(s.insert(Interval::closed_int(5, 6)));
        assert!(!inline(&s));
        assert_eq!(
            s.components(),
            &[Interval::closed_int(0, 2), Interval::closed_int(5, 6)]
        );
        // Gluing the two back into one leaves a heap list of one: equal to,
        // and hashing as, the inline set of the same points.
        s.insert(Interval::closed_int(2, 5));
        let glued = set(&[(0, 6)]);
        assert_eq!(s, glued);
        let hash = |x: &IntervalSet| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&s), hash(&glued));
        // Splicing over an inline component.
        let mut t = set(&[(4, 4)]);
        t.insert(Interval::closed_int(0, 8));
        assert_eq!(t, set(&[(0, 8)]));
        let mut u = set(&[(4, 4)]);
        u.insert(Interval::closed_int(0, 1));
        assert_eq!(
            u.components(),
            &[Interval::closed_int(0, 1), Interval::at(4)]
        );
        u.check_invariant();
    }
}
