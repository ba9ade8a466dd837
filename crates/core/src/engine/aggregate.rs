//! Temporal aggregation (Vadalog-style stratified semantics).
//!
//! All rules feeding the same aggregate head predicate pool their
//! contributions; at every time point the aggregate ranges over the
//! contributions active there. Exactness over the continuous timeline is
//! obtained by event-point decomposition: the timeline is cut at every
//! contribution endpoint into punctual and open elementary pieces, on each
//! of which the active set — and hence the aggregate — is constant.

use crate::ast::{AggFn, Rule, Term};
use crate::engine::eval::{execute_rows, EvalCtx, Slot};
use crate::engine::plan::{RulePlan, Slots};
use crate::error::{Error, Result};
use crate::value::{Tuple, Value};
use mtl_temporal::{Interval, IntervalSet, Rational, TimeBound};
use std::collections::{BTreeMap, BTreeSet};

/// One pooled contribution: the aggregated value and when it is active.
struct Contribution {
    value: Value,
    active: IntervalSet,
}

/// Evaluates a group of aggregate rules sharing one head predicate, each
/// with its compiled (full-evaluation) plan. Returns derived
/// `(tuple, interval)` pairs (tuple includes the computed aggregate at its
/// argument position).
pub(crate) fn eval_aggregate_rules(
    rules: &[(&Rule, &RulePlan)],
    ctx: &EvalCtx<'_>,
) -> Result<Vec<(Tuple, Interval)>> {
    let (first, _) = rules.first().expect("non-empty aggregate group");
    let (fun, pos) = first
        .head
        .aggregate
        .expect("aggregate group contains aggregate rules");
    let arity = first.head.atom.arity();
    for (r, _) in rules {
        let (f2, p2) = r.head.aggregate.expect("aggregate rule");
        if f2 != fun || p2 != pos || r.head.atom.arity() != arity {
            return Err(Error::Eval(format!(
                "inconsistent aggregate specifications for predicate {}",
                first.head.atom.pred
            )));
        }
    }

    // Pool contributions per group key (the non-aggregated argument values).
    // Ordered by key: the groups' output is merged in this order, and with
    // it the head relation's insertion order is fixed.
    let mut groups: BTreeMap<Vec<Value>, Vec<Contribution>> = BTreeMap::new();
    for (rule, plan) in rules {
        let ground = |term: &Term, row: &[Slot]| ground_term(term, &plan.slots, row);
        for (row, ivs) in execute_rows(rule, plan, ctx, &[])?.iter() {
            let mut key = Vec::with_capacity(arity - 1);
            for (i, term) in rule.head.atom.args.iter().enumerate() {
                if i == pos {
                    continue;
                }
                key.push(ground(term, row)?);
            }
            let value = ground(&rule.head.atom.args[pos], row)?;
            groups.entry(key).or_default().push(Contribution {
                value,
                active: ivs.intersect_interval(&ctx.horizon),
            });
        }
    }

    let mut out = Vec::new();
    for (key, contribs) in groups {
        for (agg_value, piece) in decompose_and_aggregate(&contribs, fun)? {
            let mut tuple = Vec::with_capacity(arity);
            let mut key_iter = key.iter();
            for i in 0..arity {
                if i == pos {
                    tuple.push(agg_value);
                } else {
                    tuple.push(*key_iter.next().expect("key arity"));
                }
            }
            out.push((tuple.into_boxed_slice(), piece));
        }
    }
    Ok(out)
}

fn ground_term(term: &Term, slots: &Slots, row: &[Slot]) -> Result<Value> {
    match term {
        Term::Val(v) => Ok(*v),
        Term::Var(x) => slots
            .value(row, *x)
            .ok_or_else(|| Error::Eval(format!("unbound aggregate head variable {x}"))),
    }
}

/// Cuts the timeline at all contribution endpoints and aggregates the active
/// contributions on each elementary piece.
fn decompose_and_aggregate(
    contribs: &[Contribution],
    fun: AggFn,
) -> Result<Vec<(Value, Interval)>> {
    // Collect finite boundary points.
    let mut points: Vec<Rational> = Vec::new();
    let mut has_neg_inf = false;
    let mut has_pos_inf = false;
    for c in contribs {
        // Every tooth of a persisted (strided) contribution is a boundary of
        // its own: between two teeth the contribution is not active.
        for iv in c.active.atoms() {
            match iv.lo() {
                TimeBound::Finite(r) => points.push(r),
                TimeBound::NegInf => has_neg_inf = true,
                TimeBound::PosInf => unreachable!("lower bound cannot be +inf"),
            }
            match iv.hi() {
                TimeBound::Finite(r) => points.push(r),
                TimeBound::PosInf => has_pos_inf = true,
                TimeBound::NegInf => unreachable!("upper bound cannot be -inf"),
            }
        }
    }
    points.sort();
    points.dedup();

    // Elementary pieces: [p,p] for each boundary, (p,q) between consecutive
    // boundaries, and unbounded tails where contributions extend to ±inf.
    // Piece `base + 2i` is the point `points[i]`, piece `base + 2i + 1` the
    // open gap after it (or the unbounded tail after the last point).
    let mut pieces: Vec<Interval> = Vec::new();
    // No contribution has a finite endpoint: each holds on the whole line,
    // which is the one piece.
    if points.is_empty() && has_neg_inf {
        pieces.push(Interval::ALL);
    }
    if let (Some(&first), true) = (points.first(), has_neg_inf) {
        pieces.push(
            Interval::new(TimeBound::NegInf, false, first.into(), false).expect("non-empty tail"),
        );
    }
    for (i, &p) in points.iter().enumerate() {
        pieces.push(Interval::point(p));
        if let Some(&q) = points.get(i + 1) {
            pieces.push(Interval::open(p, q));
        }
    }
    if let (Some(&last), true) = (points.last(), has_pos_inf) {
        pieces.push(
            Interval::new(last.into(), false, TimeBound::PosInf, false).expect("non-empty tail"),
        );
    }

    // Every atom's endpoints are boundary points, so an atom covers a
    // contiguous run of whole pieces. Sweep the pieces in order with the
    // set of contributions active on each, entered and left at the ends of
    // those runs.
    let base = usize::from(has_neg_inf && !points.is_empty());
    let at = |r: Rational| points.binary_search(&r).expect("an endpoint is a boundary");
    let mut events: Vec<(usize, bool, usize)> = Vec::new(); // (piece, enters, contribution)
    for (k, c) in contribs.iter().enumerate() {
        for iv in c.active.atoms() {
            let first = match iv.lo() {
                TimeBound::Finite(r) => base + 2 * at(r) + usize::from(!iv.lo_closed()),
                _ => 0,
            };
            let end = match iv.hi() {
                TimeBound::Finite(r) => base + 2 * at(r) + usize::from(iv.hi_closed()),
                _ => pieces.len(),
            };
            events.push((first, true, k));
            events.push((end, false, k));
        }
    }
    events.sort_unstable();
    let mut events = events.into_iter().peekable();
    let mut active: BTreeSet<usize> = BTreeSet::new();
    let mut out: Vec<(Value, Interval)> = Vec::new();
    for (i, piece) in pieces.into_iter().enumerate() {
        while let Some((_, enters, k)) = events.next_if(|e| e.0 == i) {
            if enters {
                active.insert(k);
            } else {
                active.remove(&k);
            }
        }
        if active.is_empty() {
            continue;
        }
        // Pool order: the order the f64 sums have always been taken in.
        let pooled: Vec<&Contribution> = active.iter().map(|&k| &contribs[k]).collect();
        out.push((aggregate(&pooled, fun)?, piece));
    }
    Ok(out)
}

fn aggregate(active: &[&Contribution], fun: AggFn) -> Result<Value> {
    match fun {
        AggFn::Count => Ok(Value::Int(active.len() as i64)),
        AggFn::Sum => {
            let mut acc = Value::Int(0);
            for c in active {
                acc = add_values(acc, c.value)?;
            }
            Ok(acc)
        }
        AggFn::Avg => {
            let mut acc = Value::Int(0);
            for c in active {
                acc = add_values(acc, c.value)?;
            }
            let total = acc
                .as_f64()
                .ok_or_else(|| Error::Eval("avg over non-numeric values".into()))?;
            Ok(Value::num(total / active.len() as f64))
        }
        AggFn::Min | AggFn::Max => {
            let mut best = active[0].value;
            for c in &active[1..] {
                let ord = c.value.semantic_cmp(&best).ok_or_else(|| {
                    Error::Eval(format!("cannot order {} and {best} in aggregate", c.value))
                })?;
                let replace = match fun {
                    AggFn::Min => ord.is_lt(),
                    AggFn::Max => ord.is_gt(),
                    _ => unreachable!("outer match restricts to min/max"),
                };
                if replace {
                    best = c.value;
                }
            }
            Ok(best)
        }
    }
}

/// Integer-preserving addition with float coercion.
fn add_values(a: Value, b: Value) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match x.checked_add(y) {
            Some(v) => Ok(Value::Int(v)),
            None => Ok(Value::num(x as f64 + y as f64)),
        },
        _ => {
            let (x, y) = (
                a.as_f64()
                    .ok_or_else(|| Error::Eval(format!("sum over non-numeric value {a}")))?,
                b.as_f64()
                    .ok_or_else(|| Error::Eval(format!("sum over non-numeric value {b}")))?,
            );
            Ok(Value::num(x + y))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::engine::plan::{build_plan, persisted_predicates};
    use crate::parser::{parse_facts, parse_program};

    fn run_agg(rules_src: &str, facts: &str) -> Vec<(Tuple, Interval)> {
        let program = parse_program(rules_src).unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        let ctx = EvalCtx::new(
            &db,
            Interval::closed_int(0, 100),
            Interval::closed_int(0, 100),
            None,
        );
        let persisted = persisted_predicates(&program);
        let plans: Vec<RulePlan> = program
            .rules
            .iter()
            .map(|r| build_plan(r, None, &persisted, &mut Default::default()))
            .collect();
        let rules: Vec<(&Rule, &RulePlan)> = program.rules.iter().zip(&plans).collect();
        let mut out = eval_aggregate_rules(&rules, &ctx).unwrap();
        out.sort_by(|a, b| a.1.cmp_position(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The decomposition the sweep replaced: every piece rescans every
    /// contribution for the ones holding a point inside it.
    fn decompose_by_rescan(contribs: &[Contribution], fun: AggFn) -> Vec<(Value, Interval)> {
        let mut points: Vec<Rational> = Vec::new();
        let (mut neg_inf, mut pos_inf) = (false, false);
        for iv in contribs.iter().flat_map(|c| c.active.atoms()) {
            match iv.lo() {
                TimeBound::Finite(r) => points.push(r),
                _ => neg_inf = true,
            }
            match iv.hi() {
                TimeBound::Finite(r) => points.push(r),
                _ => pos_inf = true,
            }
        }
        points.sort();
        points.dedup();
        let mut pieces: Vec<(Interval, Rational)> = Vec::new();
        if let (Some(&first), true) = (points.first(), neg_inf) {
            let tail = Interval::new(TimeBound::NegInf, false, first.into(), false).unwrap();
            pieces.push((tail, first - Rational::ONE));
        }
        for (i, &p) in points.iter().enumerate() {
            pieces.push((Interval::point(p), p));
            if let Some(&q) = points.get(i + 1) {
                pieces.push((Interval::open(p, q), (p + q) / Rational::integer(2)));
            }
        }
        if let (Some(&last), true) = (points.last(), pos_inf) {
            let tail = Interval::new(last.into(), false, TimeBound::PosInf, false).unwrap();
            pieces.push((tail, last + Rational::ONE));
        }
        let mut out = Vec::new();
        for (piece, rep) in pieces {
            let active: Vec<&Contribution> =
                contribs.iter().filter(|c| c.active.contains(rep)).collect();
            if !active.is_empty() {
                out.push((aggregate(&active, fun).unwrap(), piece));
            }
        }
        out
    }

    #[test]
    fn sweep_matches_the_rescanning_decomposition() {
        let r = Rational::integer;
        let run = |first, step, steps| Interval::progression(r(first), r(step), steps).unwrap();
        let mut sets: Vec<IntervalSet> = vec![
            IntervalSet::from_interval(
                Interval::new(TimeBound::NegInf, false, r(5).into(), true).unwrap(),
            ),
            IntervalSet::from_interval(
                Interval::new(r(12).into(), false, TimeBound::PosInf, false).unwrap(),
            ),
            IntervalSet::from_interval(run(0, 3, 8)),
            IntervalSet::from_intervals([run(1, 2, 4), Interval::closed_int(14, 20)]),
            IntervalSet::from_interval(Interval::open(r(2), r(9))),
            IntervalSet::new(),
        ];
        // Overlapping windows of every shape, from a fixed pseudo-random walk.
        let mut x: u64 = 7;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for _ in 0..40 {
            let lo = next(30) as i64;
            let len = next(6) as i64;
            sets.push(match next(4) {
                0 => IntervalSet::from_interval(Interval::closed_int(lo, lo + len)),
                1 => IntervalSet::from_interval(Interval::at(lo)),
                2 => IntervalSet::from_interval(run(lo, 1 + next(3) as i64, 1 + len as u32)),
                _ => IntervalSet::from_interval(Interval::half_open_right(r(lo), r(lo + len + 1))),
            });
        }
        // Float values whose sums depend on the order they are added in.
        let values = [0.1, 0.2, 0.3, 1e16, -1e16, 7.0, 1.0 / 3.0];
        let contribs: Vec<Contribution> = (sets.into_iter().enumerate())
            .map(|(i, active)| Contribution {
                value: if i % 5 == 4 {
                    Value::Int(i as i64)
                } else {
                    Value::num(values[i % values.len()])
                },
                active,
            })
            .collect();
        for fun in [AggFn::Sum, AggFn::Avg, AggFn::Count, AggFn::Min, AggFn::Max] {
            let swept = decompose_and_aggregate(&contribs, fun).unwrap();
            let rescanned = decompose_by_rescan(&contribs, fun);
            assert!(swept.len() > 60, "{fun:?}: {} pieces", swept.len());
            assert_eq!(swept.len(), rescanned.len(), "{fun:?}");
            for ((v1, p1), (v2, p2)) in swept.iter().zip(&rescanned) {
                assert_eq!(p1, p2, "{fun:?}");
                // Bit for bit: the same contributions summed in the same order.
                assert_eq!(v1.pack(), v2.pack(), "{fun:?} on {p1}");
            }
        }
    }

    #[test]
    fn sum_pools_across_rules_and_time() {
        let out = run_agg(
            "event(sum(S)) :- modPos(A, S).\nevent(sum(S)) :- tranM(A, M), S = 0.",
            "modPos(a, 3)@5.\nmodPos(b, 4)@5.\ntranM(c, 100)@5.\nmodPos(a, 9)@8.",
        );
        // at t=5: 3 + 4 + 0 = 7; at t=8: 9
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0[0], Value::Int(7));
        assert_eq!(out[0].1, Interval::at(5));
        assert_eq!(out[1].0[0], Value::Int(9));
        assert_eq!(out[1].1, Interval::at(8));
    }

    #[test]
    fn overlapping_intervals_decompose() {
        let out = run_agg(
            "load(sum(S)) :- job(J, S).",
            "job(a, 1)@[0, 10].\njob(b, 2)@[5, 15].",
        );
        // [0,5): 1 at [0,5) minus endpoints... decomposition: [0], (0,5), [5], (5,10), [10], (10,15), [15]
        // values: 1,1,3,3,3,2,2
        let find = |t: i64| -> Option<Value> {
            out.iter()
                .find(|(_, iv)| iv.contains(Rational::integer(t)))
                .map(|(tup, _)| tup[0])
        };
        assert_eq!(find(0), Some(Value::Int(1)));
        assert_eq!(find(5), Some(Value::Int(3)));
        assert_eq!(find(10), Some(Value::Int(3)));
        assert_eq!(find(12), Some(Value::Int(2)));
        assert_eq!(find(16), None);
    }

    #[test]
    fn group_by_keys_split_aggregation() {
        let out = run_agg(
            "tally(G, count(S)) :- obs(G, S).",
            "obs(g1, 10)@3.\nobs(g1, 20)@3.\nobs(g2, 30)@3.",
        );
        let mut counts: Vec<(Value, Value)> = out.iter().map(|(t, _)| (t[0], t[1])).collect();
        counts.sort();
        assert_eq!(
            counts,
            vec![
                (Value::sym("g1"), Value::Int(2)),
                (Value::sym("g2"), Value::Int(1)),
            ]
        );
    }

    #[test]
    fn min_max_avg() {
        let out = run_agg(
            "lo(min(S)) :- p(A, S).",
            "p(a, 5)@1.\np(b, 2)@1.\np(c, 9)@1.",
        );
        assert_eq!(out[0].0[0], Value::Int(2));
        let out = run_agg("hi(max(S)) :- p(A, S).", "p(a, 5)@1.\np(b, 2)@1.");
        assert_eq!(out[0].0[0], Value::Int(5));
        let out = run_agg("mean(avg(S)) :- p(A, S).", "p(a, 5)@1.\np(b, 2)@1.");
        assert_eq!(out[0].0[0], Value::num(3.5));
    }

    #[test]
    fn duplicate_values_from_distinct_derivations_both_count() {
        // Two accounts each contribute S = 0: bag semantics must yield 2 contributions.
        let out = run_agg(
            "event(count(S)) :- tranM(A, M), S = 0.",
            "tranM(a, 10)@4.\ntranM(b, 20)@4.",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0[0], Value::Int(2));
    }

    #[test]
    fn contributions_pool_in_binding_order() {
        // Facts stored out of order; the pool follows the bindings sorted
        // by `(variable, value)`, so the f64 sum is (0.1 + 0.2) + 0.3,
        // which differs from (0.3 + 0.2) + 0.1 in the last bit.
        let out = run_agg(
            "s(sum(S)) :- p(A, S).",
            "p(3, 0.3)@1.\np(1, 0.1)@1.\np(2, 0.2)@1.",
        );
        assert_eq!(out[0].0[0], Value::num(0.1 + 0.2 + 0.3));
        assert_ne!(out[0].0[0], Value::num(0.3 + 0.2 + 0.1));
    }

    #[test]
    fn mixed_int_float_sum_coerces() {
        let out = run_agg("s(sum(S)) :- p(A, S).", "p(a, 1)@1.\np(b, 0.5)@1.");
        assert_eq!(out[0].0[0], Value::num(1.5));
    }
}
