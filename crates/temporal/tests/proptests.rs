//! Property-based validation of the interval algebra.
//!
//! Strategy: generate random interval sets with endpoints on the half-integer
//! grid (so open/closed distinctions matter at sample points), then check
//! every operation pointwise against its set-theoretic definition evaluated
//! by brute force over a grid of sample points. Three draws in ten are
//! arithmetic progressions (rational steps, 2–41 teeth) whose hulls overlap
//! their neighbours, so every suite below also covers the strided shape
//! meeting intervals between, on and across its teeth.
//!
//! Randomness comes from the deterministic in-repo `SmallRng`, one seed per
//! case, so failures reproduce from the printed case number.

use chronolog_obs::SmallRng;
use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational};

const CASES: u64 = 96;

fn r(num: i64, den: i64) -> Rational {
    Rational::new(num, den)
}

/// Sample points: integers and half-integers in [-2, 42] (in halves).
fn sample_points() -> Vec<Rational> {
    (-4..=84).map(|k| r(k, 2)).collect()
}

/// Random interval with integer endpoints in [0, 40] and random closedness,
/// or a progression with teeth on the half-integer grid inside [0, 40].
fn gen_interval(rng: &mut SmallRng) -> Interval {
    if rng.gen_bool(0.3) {
        let first = rng.gen_range_i64(0, 70);
        let step = rng.gen_range_i64(1, 7);
        let room = (80 - first) / step;
        let steps = rng.gen_range_i64(1, 41).min(room.max(1));
        return Interval::progression(r(first, 2), r(step, 2), steps as u32)
            .expect("a small progression is representable");
    }
    loop {
        let lo = rng.gen_range_i64(0, 40);
        let len = rng.gen_range_i64(0, 6);
        let lc = rng.gen_bool(0.5);
        let hc = rng.gen_bool(0.5);
        if let Some(i) = Interval::new(
            Rational::integer(lo).into(),
            lc,
            Rational::integer(lo + len).into(),
            hc,
        ) {
            return i;
        }
    }
}

fn gen_set(rng: &mut SmallRng) -> IntervalSet {
    let n = rng.gen_range_usize(0, 6);
    IntervalSet::from_intervals((0..n).map(|_| gen_interval(rng)))
}

/// Random metric interval with small non-negative integer bounds.
fn gen_rho(rng: &mut SmallRng) -> MetricInterval {
    loop {
        let lo = rng.gen_range_i64(0, 4);
        let len = rng.gen_range_i64(0, 4);
        let lc = rng.gen_bool(0.5);
        let hc = rng.gen_bool(0.5);
        let i = Interval::new(
            Rational::integer(lo).into(),
            lc,
            Rational::integer(lo + len).into(),
            hc,
        );
        if let Some(i) = i {
            if let Ok(m) = MetricInterval::new(i) {
                return m;
            }
        }
    }
}

fn for_each_case(test: &str, f: impl Fn(&mut SmallRng)) {
    for case in 0..CASES {
        // Distinct streams per test: hash the test name into the seed.
        let tag = test.bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100000001b3).wrapping_add(b as u64)
        });
        let mut rng = SmallRng::seed_from_u64(tag ^ (case.wrapping_mul(0x9E3779B9)));
        f(&mut rng);
    }
}

#[test]
fn invariant_holds_after_inserts() {
    for_each_case("invariant", |rng| {
        let set = gen_set(rng);
        set.check_invariant();
        // Built by inserts, no two neighbours are left that would coalesce.
        for w in set.components().windows(2) {
            assert!(!w[0].connected(&w[1]), "{} then {} in {set}", w[0], w[1]);
        }
    });
}

#[test]
fn union_is_pointwise_or() {
    for_each_case("union", |rng| {
        let (a, b) = (gen_set(rng), gen_set(rng));
        let u = a.union(&b);
        u.check_invariant();
        for t in sample_points() {
            assert_eq!(u.contains(t), a.contains(t) || b.contains(t), "at {t}");
        }
    });
}

#[test]
fn intersection_is_pointwise_and() {
    for_each_case("intersection", |rng| {
        let (a, b) = (gen_set(rng), gen_set(rng));
        let x = a.intersect(&b);
        x.check_invariant();
        for t in sample_points() {
            assert_eq!(x.contains(t), a.contains(t) && b.contains(t), "at {t}");
        }
        // Containment, whichever shapes cover which.
        assert!(x.subset_of(&a) && x.subset_of(&b));
        assert_eq!(a.subset_of(&x), a == x);
        assert!(x.iter().all(|i| a.contains_interval(i)));
    });
}

#[test]
fn difference_is_pointwise_and_not() {
    for_each_case("difference", |rng| {
        let (a, b) = (gen_set(rng), gen_set(rng));
        let d = a.difference(&b);
        d.check_invariant();
        for t in sample_points() {
            assert_eq!(d.contains(t), a.contains(t) && !b.contains(t), "at {t}");
        }
    });
}

#[test]
fn complement_is_pointwise_not() {
    for_each_case("complement", |rng| {
        let a = gen_set(rng);
        let horizon = Interval::closed_int(-2, 42);
        let c = a.complement_within(&horizon);
        c.check_invariant();
        for t in sample_points() {
            assert_eq!(c.contains(t), !a.contains(t), "at {t}");
        }
    });
}

/// ◇⁻ρ M holds at t iff ∃s: t − s ∈ ρ and M(s). We verify via the grid:
/// witnesses, if any exist, exist on the grid closure (endpoints are
/// grid-aligned and ρ endpoints are integers), but to be safe we check
/// both directions with quarter-step witnesses.
#[test]
fn diamond_minus_pointwise() {
    for_each_case("diamond_minus", |rng| {
        let a = gen_set(rng);
        let rho = gen_rho(rng);
        let out = a.diamond_minus(&rho);
        out.check_invariant();
        let witnesses: Vec<Rational> = (-80..=400).map(|k| r(k, 8)).collect();
        for t in sample_points() {
            let expected = witnesses
                .iter()
                .any(|&s| rho.as_interval().contains(t - s) && a.contains(s));
            assert_eq!(out.contains(t), expected, "◇⁻{rho} at {t}");
        }
    });
}

/// ⊟ρ M holds at t iff ∀s with t − s ∈ ρ: M(s). Brute-force check over
/// sixteenth-step obligation points (sufficient: all endpoints lie on the
/// eighth-grid, so truth is constant between consecutive grid points).
#[test]
fn box_minus_pointwise() {
    for_each_case("box_minus", |rng| {
        let a = gen_set(rng);
        let rho = gen_rho(rng);
        let out = a.checked_box_minus(&rho).unwrap();
        out.check_invariant();
        let obligations: Vec<Rational> = (-160..=800).map(|k| r(k, 16)).collect();
        for t in sample_points() {
            let expected = obligations
                .iter()
                .filter(|&&s| rho.as_interval().contains(t - s))
                .all(|&s| a.contains(s));
            assert_eq!(out.contains(t), expected, "⊟{rho} at {t}");
        }
    });
}

#[test]
fn future_operators_are_time_mirrors() {
    for_each_case("mirrors", |rng| {
        let a = gen_set(rng);
        let rho = gen_rho(rng);
        // Mirror the set around 0, apply the past operator, mirror back:
        // must equal the future operator.
        let mirrored = IntervalSet::from_intervals(a.iter().map(mirror_interval));
        let dm =
            IntervalSet::from_intervals(mirrored.diamond_minus(&rho).iter().map(mirror_interval));
        assert_eq!(dm, a.checked_diamond_plus(&rho).unwrap());
        let bm = IntervalSet::from_intervals(
            mirrored
                .checked_box_minus(&rho)
                .unwrap()
                .iter()
                .map(mirror_interval),
        );
        assert_eq!(bm, a.checked_box_plus(&rho).unwrap());
    });
}

/// Since, checked against its definition with grid witnesses and grid
/// continuity obligations.
#[test]
fn since_pointwise() {
    for_each_case("since", |rng| {
        let m1 = gen_set(rng);
        let m2 = gen_set(rng);
        let rho = gen_rho(rng);
        let out = m1.since(&m2, &rho).unwrap();
        out.check_invariant();
        let witnesses: Vec<Rational> = (-80..=400).map(|k| r(k, 8)).collect();
        for t in sample_points() {
            let expected = witnesses.iter().any(|&s| {
                s <= t
                    && rho.as_interval().contains(t - s)
                    && m2.contains(s)
                    && continuity_holds(&m1, s, t)
            });
            assert_eq!(out.contains(t), expected, "S_{rho} at {t}");
        }
    });
}

#[test]
fn until_pointwise() {
    for_each_case("until", |rng| {
        let m1 = gen_set(rng);
        let m2 = gen_set(rng);
        let rho = gen_rho(rng);
        let out = m1.until(&m2, &rho).unwrap();
        out.check_invariant();
        let witnesses: Vec<Rational> = (-80..=400).map(|k| r(k, 8)).collect();
        for t in sample_points() {
            let expected = witnesses.iter().any(|&s| {
                s >= t
                    && rho.as_interval().contains(s - t)
                    && m2.contains(s)
                    && continuity_holds(&m1, t, s)
            });
            assert_eq!(out.contains(t), expected, "U_{rho} at {t}");
        }
    });
}

/// Coalescing must never change set membership: building from the raw
/// interval list and from pre-unioned pieces agree everywhere.
#[test]
fn coalescing_preserves_membership() {
    for_each_case("coalescing", |rng| {
        let n = rng.gen_range_usize(0, 8);
        let intervals: Vec<Interval> = (0..n).map(|_| gen_interval(rng)).collect();
        let set = IntervalSet::from_intervals(intervals.clone());
        for t in sample_points() {
            let raw = intervals.iter().any(|i| i.contains(t));
            assert_eq!(set.contains(t), raw, "at {t}");
        }
    });
}

/// Does `m1` hold on the whole open interval `(a, b)`? Checked on the
/// sixteenth-step grid, which refines every endpoint in play.
fn continuity_holds(m1: &IntervalSet, a: Rational, b: Rational) -> bool {
    if b <= a {
        return true; // empty obligation
    }
    let step = r(1, 16);
    let mut t = a + step;
    while t < b {
        if !m1.contains(t) {
            return false;
        }
        t = t + step;
    }
    true
}

fn mirror_interval(i: &Interval) -> Interval {
    use mtl_temporal::TimeBound;
    let flip = |b: TimeBound| match b {
        TimeBound::Finite(x) => TimeBound::Finite(-x),
        TimeBound::NegInf => TimeBound::PosInf,
        TimeBound::PosInf => TimeBound::NegInf,
    };
    if let (Some(step), TimeBound::Finite(first)) = (i.step(), flip(i.hi())) {
        return Interval::progression(first, step, i.steps())
            .expect("mirror of a progression is a progression");
    }
    Interval::new(flip(i.hi()), i.hi_closed(), flip(i.lo()), i.lo_closed())
        .expect("mirror of non-empty interval is non-empty")
}

/// A set is its points: built tooth by tooth, as one progression, or cut
/// and re-joined, it compares and hashes the same — and the stored shape
/// costs no bytes over a plain interval.
#[test]
fn equality_and_hash_ignore_the_representation() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    assert_eq!(std::mem::size_of::<Interval>(), 56);
    let hash = |s: &IntervalSet| {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    };
    for_each_case("representation", |rng| {
        let run = loop {
            let i = gen_interval(rng);
            // Four teeth or more: whichever one is cut out, a run remains
            // for it to rejoin (two lone points never form one).
            if i.steps() >= 3 {
                break i;
            }
        };
        let strided = IntervalSet::from_interval(run);
        let pointwise = IntervalSet::from_intervals(run.teeth().map(Interval::point));
        assert_eq!(pointwise.components().len(), run.steps() as usize + 1);
        assert_eq!(strided, pointwise);
        assert_eq!(hash(&strided), hash(&pointwise));
        assert_eq!(strided.to_string(), pointwise.to_string());
        // Cutting a tooth out and putting it back restores one component.
        let tooth = Interval::point(
            run.teeth()
                .nth(rng.gen_range_usize(0, run.steps() as usize + 1))
                .unwrap(),
        );
        let mut cut = strided.difference(&IntervalSet::from_interval(tooth));
        assert_ne!(cut, strided);
        assert!(cut.insert(tooth));
        assert_eq!(cut.components(), strided.components());
        // A set that differs in one point differs.
        let other = gen_set(rng);
        assert_eq!(
            strided == other,
            sample_points()
                .iter()
                .all(|&t| strided.contains(t) == other.contains(t)),
        );
    });
}
