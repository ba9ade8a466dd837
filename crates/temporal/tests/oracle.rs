//! Exhaustive small-case oracle tests for `IntervalSet` coalescing.
//!
//! The engine's correctness leans hard on the `IntervalSet` invariant
//! (sorted, pairwise non-connected components) and on `insert` /
//! `intersect_interval` agreeing with plain set semantics at every point —
//! including the edge cases the ETH-PERP windows exercise: touching
//! half-open endpoints (`[a,b)` then `[b,c]`), punctual `[t,t]` intervals,
//! and point gaps. These tests enumerate every interval over a small
//! endpoint grid and compare membership against a naive rational-sampling
//! oracle at half-step resolution, so any coalescing divergence shows up
//! as a concrete point disagreement.

use mtl_temporal::{Interval, IntervalSet, Rational};

/// Every valid interval with endpoints on the integer grid `0..=3`,
/// covering all four closedness combinations plus punctual points, and
/// every progression of step ½, 1, 1½, 2 or 3 starting on the grid and
/// ending inside it — so triples put intervals between, on and across the
/// teeth of a run, and runs of different step across each other.
fn grid_intervals() -> Vec<Interval> {
    let mut out = Vec::new();
    for lo in 0..=3i64 {
        let l = Rational::integer(lo);
        for step in [1, 2, 3, 4, 6] {
            for steps in 1..=(2 * (3 - lo) / step) {
                let run = Interval::progression(l, Rational::new(step, 2), steps as u32);
                out.push(run.expect("a small progression is representable"));
            }
        }
        out.push(Interval::point(l));
        for hi in lo + 1..=3 {
            let h = Rational::integer(hi);
            out.push(Interval::closed(l, h));
            out.push(Interval::open(l, h));
            out.push(Interval::half_open_right(l, h));
            out.push(Interval::half_open_left(l, h));
        }
    }
    out
}

/// Sample points at half-step resolution spanning past both grid ends.
/// Half steps sit strictly between any two distinct grid endpoints, so
/// they distinguish open from closed bounds and detect swallowed gaps.
fn sample_points() -> Vec<Rational> {
    (-2..=8).map(|k| Rational::new(k, 2)).collect()
}

fn assert_pointwise_eq(
    set: &IntervalSet,
    oracle: impl Fn(Rational) -> bool,
    context: &dyn std::fmt::Display,
) {
    set.check_invariant();
    for t in sample_points() {
        assert_eq!(
            set.contains(t),
            oracle(t),
            "divergence at t={t} for {context}: set is {set}"
        );
    }
}

#[test]
fn insert_matches_sampling_oracle_for_all_triples() {
    let grid = grid_intervals();
    for a in &grid {
        for b in &grid {
            for c in &grid {
                let set = IntervalSet::from_intervals([*a, *b, *c]);
                let oracle = |t| a.contains(t) || b.contains(t) || c.contains(t);
                assert_pointwise_eq(&set, oracle, &format!("insert {a}, {b}, {c}"));
            }
        }
    }
}

#[test]
fn insert_is_order_independent() {
    let grid = grid_intervals();
    for a in &grid {
        for b in &grid {
            for c in &grid {
                let abc = IntervalSet::from_intervals([*a, *b, *c]);
                let cab = IntervalSet::from_intervals([*c, *a, *b]);
                assert_eq!(abc, cab, "order dependence inserting {a}, {b}, {c}");
            }
        }
    }
}

#[test]
fn intersect_interval_matches_sampling_oracle() {
    let grid = grid_intervals();
    for a in &grid {
        for b in &grid {
            let set = IntervalSet::from_intervals([*a, *b]);
            for w in &grid {
                let clipped = set.intersect_interval(w);
                let oracle = |t| set.contains(t) && w.contains(t);
                assert_pointwise_eq(&clipped, oracle, &format!("({a} ∪ {b}) ∩ {w}"));
            }
        }
    }
}

#[test]
fn difference_matches_sampling_oracle() {
    let grid = grid_intervals();
    for a in &grid {
        for b in &grid {
            let base = IntervalSet::from_intervals([*a, *b]);
            for c in &grid {
                let cut = IntervalSet::from_interval(*c);
                let diff = base.difference(&cut);
                let oracle = |t| base.contains(t) && !c.contains(t);
                assert_pointwise_eq(&diff, oracle, &format!("({a} ∪ {b}) \\ {c}"));
            }
        }
    }
}

#[test]
fn touching_half_open_chains_coalesce_exactly() {
    let r = Rational::integer;
    // [0,1) then [1,2]: the closed left end of the second supplies the
    // missing point, so the union is one component.
    let s = IntervalSet::from_intervals([
        Interval::half_open_right(r(0), r(1)),
        Interval::closed(r(1), r(2)),
    ]);
    assert_eq!(s.components(), &[Interval::closed(r(0), r(2))]);

    // [0,1) then (1,2]: the point 1 is genuinely missing.
    let s = IntervalSet::from_intervals([
        Interval::half_open_right(r(0), r(1)),
        Interval::half_open_left(r(1), r(2)),
    ]);
    assert_eq!(s.components().len(), 2);
    assert!(!s.contains(r(1)));

    // ... until the punctual [1,1] arrives and glues all three.
    let mut s = s;
    assert!(s.insert(Interval::point(r(1))));
    assert_eq!(s.components(), &[Interval::closed(r(0), r(2))]);
}
