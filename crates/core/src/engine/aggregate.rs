//! Temporal aggregation (Vadalog-style stratified semantics).
//!
//! All rules feeding the same aggregate head predicate pool their
//! contributions; at every time point the aggregate ranges over the
//! contributions active there. Exactness over the continuous timeline is
//! obtained by event-point decomposition: the timeline is cut at every
//! contribution endpoint into punctual and open elementary pieces, on each
//! of which the active set — and hence the aggregate — is constant.

use crate::ast::{AggFn, Rule};
use crate::engine::eval::{execute_plan, Bindings, EvalCtx};
use crate::engine::plan::RulePlan;
use crate::error::{Error, Result};
use crate::value::{Tuple, Value};
use mtl_temporal::{Interval, IntervalSet, Rational, TimeBound};
use std::collections::BTreeMap;

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
        for (binding, ivs) in execute_plan(rule, plan, ctx, Bindings::default())? {
            let mut key = Vec::with_capacity(arity - 1);
            for (i, term) in rule.head.atom.args.iter().enumerate() {
                if i == pos {
                    continue;
                }
                key.push(ground_term(term, &binding)?);
            }
            let value = ground_term(&rule.head.atom.args[pos], &binding)?;
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

fn ground_term(term: &crate::ast::Term, b: &Bindings) -> Result<Value> {
    match term {
        crate::ast::Term::Val(v) => Ok(*v),
        crate::ast::Term::Var(x) => b
            .get(x)
            .copied()
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
    let mut pieces: Vec<(Interval, Rational)> = Vec::new(); // (piece, representative)
    if let (Some(&first), true) = (points.first(), has_neg_inf) {
        let piece =
            Interval::new(TimeBound::NegInf, false, first.into(), false).expect("non-empty tail");
        pieces.push((piece, first - Rational::ONE));
    }
    for (i, &p) in points.iter().enumerate() {
        pieces.push((Interval::point(p), p));
        if let Some(&q) = points.get(i + 1) {
            let piece = Interval::open(p, q);
            pieces.push((piece, (p + q) / Rational::integer(2)));
        }
    }
    if let (Some(&last), true) = (points.last(), has_pos_inf) {
        let piece =
            Interval::new(last.into(), false, TimeBound::PosInf, false).expect("non-empty tail");
        pieces.push((piece, last + Rational::ONE));
    }

    let mut out: Vec<(Value, Interval)> = Vec::new();
    for (piece, rep) in pieces {
        let active: Vec<&Contribution> =
            contribs.iter().filter(|c| c.active.contains(rep)).collect();
        if active.is_empty() {
            continue;
        }
        let value = aggregate(&active, fun)?;
        out.push((value, piece));
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
        let counters = crate::engine::eval::JoinCounters::default();
        let ctx = EvalCtx {
            total: &db,
            delta: None,
            horizon: Interval::closed_int(0, 100),
            top: Interval::closed_int(0, 100),
            counters: &counters,
            profiler: None,
        };
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
    fn mixed_int_float_sum_coerces() {
        let out = run_agg("s(sum(S)) :- p(A, S).", "p(a, 1)@1.\np(b, 0.5)@1.");
        assert_eq!(out[0].0[0], Value::num(1.5));
    }
}
