//! A brute-force DatalogMTL evaluator over a discrete integer timeline,
//! used as a *test oracle* for the interval-based engine.
//!
//! Scope: the **integer-punctual fragment** — every fact holds at single
//! integer time points and every `⊟`/`⊞` operator is punctual (`[c,c]`),
//! while `◇⁻`/`◇⁺` may carry closed integer windows. On this fragment the
//! continuous rational semantics and the pointwise integer semantics
//! coincide (shifts map integer points to integer points, and a diamond
//! witness exists in the continuum iff one exists on the integers), so the
//! oracle's output must match the engine's *exactly*. The ETH-PERP program
//! of the paper lives entirely in this fragment.
//!
//! The implementation maximizes obviousness, not speed: truth is a set of
//! `(predicate, tuple, time)` triples and rules are evaluated by exhaustive
//! grounding at every time point until fixpoint. It shares no planning or
//! join code with the engine — only the built-in arithmetic and comparison
//! semantics (`eval_expr`, `compare`): bodies run on the oracle's own
//! [`schedule`], textual order, no indexes, no cost model.

use crate::analysis::{check_program, Stratification};
use crate::ast::{AggFn, Atom, CmpOp, Expr, HeadOp, Literal, MetricAtom, Program, Rule, Term};
use crate::database::Database;
use crate::engine::{compare, eval_expr};
use crate::error::{Error, Result};
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use mtl_temporal::{IntervalSet, MetricInterval, TimeBound};
use std::collections::{BTreeSet, HashMap, HashSet};

type Bindings = crate::hash::FxHashMap<Symbol, Value>;

/// Brute-force interpretation: per (pred, tuple), the set of integer times.
#[derive(Default)]
pub struct NaiveInterpretation {
    truth: HashMap<Symbol, HashMap<Tuple, BTreeSet<i64>>>,
}

impl NaiveInterpretation {
    /// Does `pred(args)` hold at `t`?
    pub fn holds_at(&self, pred: &str, args: &[Value], t: i64) -> bool {
        self.holds(Symbol::new(pred), args, t)
    }

    fn holds(&self, pred: Symbol, args: &[Value], t: i64) -> bool {
        self.truth
            .get(&pred)
            .and_then(|m| {
                m.iter()
                    .find(|(tuple, _)| tuples_eq(tuple, args))
                    .map(|(_, ts)| ts.contains(&t))
            })
            .unwrap_or(false)
    }

    fn insert(&mut self, pred: Symbol, tuple: Tuple, t: i64) -> bool {
        self.truth
            .entry(pred)
            .or_default()
            .entry(tuple)
            .or_default()
            .insert(t)
    }

    /// All `(pred, tuple, time)` triples, sorted, as display text — used to
    /// diff oracle and engine outputs in tests.
    pub fn to_text(&self) -> String {
        let mut lines = Vec::new();
        for (p, m) in &self.truth {
            for (tuple, ts) in m {
                for t in ts {
                    let args = tuple
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    lines.push(format!("{p}({args})@{t}"));
                }
            }
        }
        lines.sort();
        lines.join("\n")
    }
}

fn tuples_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.semantic_eq(y))
}

/// Runs the oracle over integer timeline `[t_min, t_max]`.
///
/// Fails with [`Error::Eval`] when the input leaves the supported fragment
/// (non-punctual facts, non-punctual box windows, since/until, fractional
/// interval bounds).
pub fn naive_materialize(
    program: &Program,
    input: &Database,
    t_min: i64,
    t_max: i64,
) -> Result<NaiveInterpretation> {
    check_program(program)?;
    let strat = Stratification::compute(program)?;
    let mut interp = NaiveInterpretation::default();

    // Load punctual EDB facts.
    for (pred, tuple, ivs) in input.iter() {
        let points = IntervalSet::punctual_points_of(ivs)
            .ok_or_else(|| Error::Eval("naive oracle requires punctual facts".to_string()))?;
        for p in points {
            let t = p
                .as_integer()
                .ok_or_else(|| Error::Eval("naive oracle requires integer times".to_string()))?;
            interp.insert(pred, tuple.to_tuple(), t);
        }
    }

    for rule_indices in &strat.rules_by_stratum {
        let (agg, normal): (Vec<_>, Vec<_>) = rule_indices
            .iter()
            .map(|&i| &program.rules[i])
            .partition(|r| r.head.aggregate.is_some());

        // Aggregates: pooled per head predicate, once per stratum.
        let mut groups: HashMap<Symbol, Vec<&Rule>> = HashMap::new();
        for r in agg {
            groups.entry(r.head.atom.pred).or_default().push(r);
        }
        for (pred, rules) in groups {
            let (fun, pos) = rules[0].head.aggregate.expect("aggregate rule");
            let schedules: Vec<Vec<Step>> =
                rules.iter().map(|r| schedule(r)).collect::<Result<_>>()?;
            for t in t_min..=t_max {
                let mut contribs: Vec<(Vec<Value>, Value)> = Vec::new();
                for (rule, steps) in rules.iter().zip(&schedules) {
                    for b in satisfy_body(steps, &interp, t)? {
                        let mut key = Vec::new();
                        for (i, term) in rule.head.atom.args.iter().enumerate() {
                            if i != pos {
                                key.push(ground(term, &b)?);
                            }
                        }
                        contribs.push((key, ground(&rule.head.atom.args[pos], &b)?));
                    }
                }
                let mut by_key: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
                for (k, v) in contribs {
                    by_key.entry(k).or_default().push(v);
                }
                for (key, vals) in by_key {
                    let agg_val = fold_aggregate(fun, &vals)?;
                    let mut tuple = Vec::new();
                    let mut it = key.into_iter();
                    for i in 0..rules[0].head.atom.arity() {
                        if i == pos {
                            tuple.push(agg_val);
                        } else {
                            tuple.push(it.next().expect("key arity"));
                        }
                    }
                    insert_head(
                        &mut interp,
                        pred,
                        tuple.into_boxed_slice(),
                        t,
                        &rules[0].head.ops,
                        t_min,
                        t_max,
                    )?;
                }
            }
        }

        // Normal rules: exhaustive fixpoint. Schedules depend on the rule
        // text alone, so compile once per stratum.
        let schedules: Vec<Vec<Step>> =
            normal.iter().map(|r| schedule(r)).collect::<Result<_>>()?;
        loop {
            let mut changed = false;
            for (rule, steps) in normal.iter().zip(&schedules) {
                for t in t_min..=t_max {
                    for b in satisfy_body(steps, &interp, t)? {
                        let tuple: Vec<Value> = rule
                            .head
                            .atom
                            .args
                            .iter()
                            .map(|term| ground(term, &b))
                            .collect::<Result<_>>()?;
                        changed |= insert_head(
                            &mut interp,
                            rule.head.atom.pred,
                            tuple.into_boxed_slice(),
                            t,
                            &rule.head.ops,
                            t_min,
                            t_max,
                        )?;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(interp)
}

fn ground(term: &Term, b: &Bindings) -> Result<Value> {
    match term {
        Term::Val(v) => Ok(*v),
        Term::Var(x) => b
            .get(x)
            .copied()
            .ok_or_else(|| Error::Eval(format!("unbound variable {x}"))),
    }
}

fn insert_head(
    interp: &mut NaiveInterpretation,
    pred: Symbol,
    tuple: Tuple,
    t: i64,
    ops: &[HeadOp],
    t_min: i64,
    t_max: i64,
) -> Result<bool> {
    // Punctual head operators are pure shifts.
    let mut times = vec![t];
    for op in ops {
        let (rho, sign) = match op {
            HeadOp::BoxMinus(r) => (r, -1),
            HeadOp::BoxPlus(r) => (r, 1),
        };
        let c = punctual_int(rho).ok_or_else(|| {
            Error::Eval("naive oracle supports only punctual head operators".to_string())
        })?;
        times = times.into_iter().map(|x| x + sign * c).collect();
    }
    let mut changed = false;
    for t in times {
        if t >= t_min && t <= t_max {
            changed |= interp.insert(pred, tuple.clone(), t);
        }
    }
    Ok(changed)
}

fn punctual_int(rho: &MetricInterval) -> Option<i64> {
    rho.as_interval().punctual_value()?.as_integer()
}

fn closed_int_bounds(rho: &MetricInterval) -> Result<(i64, i64)> {
    let iv = rho.as_interval();
    let (lo, hi) = match (iv.lo(), iv.hi()) {
        (TimeBound::Finite(a), TimeBound::Finite(b)) => (a, b),
        _ => return Err(Error::Eval("naive oracle requires finite windows".into())),
    };
    if !iv.lo_closed() || !iv.hi_closed() {
        return Err(Error::Eval("naive oracle requires closed windows".into()));
    }
    match (lo.as_integer(), hi.as_integer()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(Error::Eval("naive oracle requires integer windows".into())),
    }
}

/// One step of the oracle's body schedule.
enum Step<'r> {
    /// Extend every binding with the matches of a positive literal.
    Join(&'r MetricAtom),
    /// Bind a variable to the value of an expression over bound variables.
    Assign(Symbol, &'r Expr),
    /// Keep the bindings satisfying a comparison over bound variables.
    Filter(&'r Expr, CmpOp, &'r Expr),
    /// Drop the bindings under which a negated literal has a match.
    Negate(&'r MetricAtom),
}

/// Moves every constraint of `waiting` that is runnable under `bound` into
/// the schedule — a filter when all its variables are bound; for `=` with a
/// single unbound variable alone on one side, an assignment — repeating
/// while an assignment binds a variable another constraint was waiting for.
fn run_ready<'r>(
    waiting: &mut Vec<(&'r Expr, CmpOp, &'r Expr)>,
    steps: &mut Vec<Step<'r>>,
    bound: &mut HashSet<Symbol>,
) {
    loop {
        let before = waiting.len();
        waiting.retain(|&(lhs, op, rhs)| {
            let is_bound = |e: &Expr| e.variables().iter().all(|v| bound.contains(v));
            let unbound_var = |e: &Expr| match e {
                Expr::Term(Term::Var(x)) if !bound.contains(x) => Some(*x),
                _ => None,
            };
            if is_bound(lhs) && is_bound(rhs) {
                steps.push(Step::Filter(lhs, op, rhs));
            } else if let (CmpOp::Eq, Some(x), true) = (op, unbound_var(lhs), is_bound(rhs)) {
                steps.push(Step::Assign(x, rhs));
                bound.insert(x);
            } else if let (CmpOp::Eq, Some(x), true) = (op, unbound_var(rhs), is_bound(lhs)) {
                steps.push(Step::Assign(x, lhs));
                bound.insert(x);
            } else {
                return true;
            }
            false
        });
        if waiting.len() == before {
            return;
        }
    }
}

/// The oracle's own body schedule: positive literals in textual order, each
/// constraint as soon as it is runnable ([`run_ready`]), negations last. A
/// constraint that never becomes runnable makes the rule [`Error::Unsafe`],
/// whatever the data.
fn schedule(rule: &Rule) -> Result<Vec<Step<'_>>> {
    let mut steps = Vec::new();
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut waiting: Vec<(&Expr, CmpOp, &Expr)> = Vec::new();
    for lit in &rule.body {
        if let Literal::Constraint(lhs, op, rhs) = lit {
            waiting.push((lhs, *op, rhs));
        }
    }
    run_ready(&mut waiting, &mut steps, &mut bound);
    for lit in &rule.body {
        if let Literal::Pos(m) = lit {
            steps.push(Step::Join(m));
            bound.extend(m.variables());
            run_ready(&mut waiting, &mut steps, &mut bound);
        }
    }
    if let Some(&(lhs, op, rhs)) = waiting.first() {
        return Err(Error::Unsafe(format!(
            "constraint `{}` could not be scheduled",
            Literal::Constraint(lhs.clone(), op, rhs.clone())
        )));
    }
    for lit in &rule.body {
        if let Literal::Neg(m) = lit {
            steps.push(Step::Negate(m));
        }
    }
    Ok(steps)
}

/// All bindings making the body true at time `t`, by running the rule's
/// [`schedule`] against the brute-force interpretation.
fn satisfy_body(steps: &[Step<'_>], interp: &NaiveInterpretation, t: i64) -> Result<Vec<Bindings>> {
    let mut acc: Vec<Bindings> = vec![Bindings::default()];
    for step in steps {
        let mut out = Vec::new();
        for mut b in acc {
            match step {
                Step::Join(m) => out.extend(sat_matom(m, interp, t, &b)?),
                Step::Assign(x, expr) => {
                    let v = eval_expr(expr, &b)?;
                    b.insert(*x, v);
                    out.push(b);
                }
                Step::Filter(lhs, op, rhs) => {
                    if compare(eval_expr(lhs, &b)?, *op, eval_expr(rhs, &b)?)? {
                        out.push(b);
                    }
                }
                Step::Negate(m) => {
                    if sat_matom(m, interp, t, &b)?.is_empty() {
                        out.push(b);
                    }
                }
            }
        }
        acc = match step {
            Step::Join(_) => dedup(out),
            _ => out,
        };
    }
    Ok(acc)
}

fn sat_matom(
    m: &MetricAtom,
    interp: &NaiveInterpretation,
    t: i64,
    b: &Bindings,
) -> Result<Vec<Bindings>> {
    match m {
        MetricAtom::Top => Ok(vec![b.clone()]),
        MetricAtom::Bottom => Ok(vec![]),
        MetricAtom::Rel(atom) => Ok(sat_rel(atom, interp, t, b)),
        MetricAtom::DiamondMinus(rho, inner) => {
            let (lo, hi) = closed_int_bounds(rho)?;
            let mut out = Vec::new();
            for s in (t - hi)..=(t - lo) {
                out.extend(sat_matom(inner, interp, s, b)?);
            }
            Ok(dedup(out))
        }
        MetricAtom::DiamondPlus(rho, inner) => {
            let (lo, hi) = closed_int_bounds(rho)?;
            let mut out = Vec::new();
            for s in (t + lo)..=(t + hi) {
                out.extend(sat_matom(inner, interp, s, b)?);
            }
            Ok(dedup(out))
        }
        MetricAtom::BoxMinus(rho, inner) => {
            let c = punctual_int(rho).ok_or_else(|| {
                Error::Eval(
                    "naive oracle supports only punctual box operators (non-punctual \
                     boxes are vacuously false on punctual facts)"
                        .to_string(),
                )
            })?;
            sat_matom(inner, interp, t - c, b)
        }
        MetricAtom::BoxPlus(rho, inner) => {
            let c = punctual_int(rho).ok_or_else(|| {
                Error::Eval("naive oracle supports only punctual box operators".to_string())
            })?;
            sat_matom(inner, interp, t + c, b)
        }
        MetricAtom::Since(..) | MetricAtom::Until(..) => Err(Error::Eval(
            "naive oracle does not support since/until".to_string(),
        )),
    }
}

fn sat_rel(atom: &Atom, interp: &NaiveInterpretation, t: i64, b: &Bindings) -> Vec<Bindings> {
    let Some(rel) = interp.truth.get(&atom.pred) else {
        return vec![];
    };
    let mut out = Vec::new();
    for (tuple, times) in rel {
        if !times.contains(&t) {
            continue;
        }
        let Some(mut b2) = unify(atom, tuple, b) else {
            continue;
        };
        if let Some(tv) = atom.time_var {
            let tval = Value::Int(t);
            match b2.get(&tv) {
                Some(existing) if !existing.semantic_eq(&tval) => continue,
                _ => {}
            }
            b2.insert(tv, tval);
        }
        out.push(b2);
    }
    out
}

fn unify(atom: &Atom, tuple: &[Value], binding: &Bindings) -> Option<Bindings> {
    if atom.args.len() != tuple.len() {
        return None;
    }
    let mut b = binding.clone();
    for (term, v) in atom.args.iter().zip(tuple.iter()) {
        match term {
            Term::Val(c) => {
                if !c.semantic_eq(v) {
                    return None;
                }
            }
            Term::Var(x) => match b.get(x) {
                Some(bound) => {
                    if !bound.semantic_eq(v) {
                        return None;
                    }
                }
                None => {
                    b.insert(*x, *v);
                }
            },
        }
    }
    Some(b)
}

fn dedup(bs: Vec<Bindings>) -> Vec<Bindings> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for b in bs {
        let mut key: Vec<(Symbol, Value)> = b.iter().map(|(k, v)| (*k, *v)).collect();
        key.sort();
        if seen.insert(key) {
            out.push(b);
        }
    }
    out
}

fn fold_aggregate(fun: AggFn, vals: &[Value]) -> Result<Value> {
    let nums = || -> Result<Vec<f64>> {
        vals.iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| Error::Eval(format!("non-numeric aggregate value {v}")))
            })
            .collect()
    };
    let all_int = vals.iter().all(|v| matches!(v, Value::Int(_)));
    Ok(match fun {
        AggFn::Count => Value::Int(vals.len() as i64),
        AggFn::Sum => {
            if all_int {
                Value::Int(vals.iter().map(|v| v.as_int().expect("all ints")).sum())
            } else {
                Value::num(nums()?.iter().sum())
            }
        }
        AggFn::Avg => Value::num(nums()?.iter().sum::<f64>() / vals.len() as f64),
        AggFn::Min | AggFn::Max => {
            let mut best = vals[0];
            for v in &vals[1..] {
                let ord = v
                    .semantic_cmp(&best)
                    .ok_or_else(|| Error::Eval("incomparable aggregate values".into()))?;
                if (fun == AggFn::Min && ord.is_lt()) || (fun == AggFn::Max && ord.is_gt()) {
                    best = *v;
                }
            }
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_facts, parse_program};

    fn run(rules: &str, facts: &str, span: (i64, i64)) -> NaiveInterpretation {
        let program = parse_program(rules).unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        naive_materialize(&program, &db, span.0, span.1).unwrap()
    }

    #[test]
    fn recursion_with_negation_matches_expectation() {
        let i = run(
            "isOpen(A) :- tranM(A, M).\n\
             isOpen(A) :- boxminus isOpen(A), not withdraw(A).",
            "tranM(acc, 20)@3.\nwithdraw(acc)@7.",
            (0, 12),
        );
        for t in 3..=6 {
            assert!(i.holds_at("isOpen", &[Value::sym("acc")], t));
        }
        assert!(!i.holds_at("isOpen", &[Value::sym("acc")], 7));
        assert!(!i.holds_at("isOpen", &[Value::sym("acc")], 8));
    }

    #[test]
    fn diamond_window_semantics() {
        let i = run("h(A) :- diamondminus[0, 3] p(A).", "p(x)@5.", (0, 12));
        for t in 5..=8 {
            assert!(i.holds_at("h", &[Value::sym("x")], t), "t={t}");
        }
        assert!(!i.holds_at("h", &[Value::sym("x")], 4));
        assert!(!i.holds_at("h", &[Value::sym("x")], 9));
    }

    #[test]
    fn aggregation_per_time_point() {
        let i = run(
            "event(sum(S)) :- modPos(A, S).\nevent(sum(S)) :- tranM(A, M), S = 0.",
            "modPos(a, 3)@5.\nmodPos(b, 4)@5.\ntranM(c, 9)@5.\nmodPos(a, 2)@6.",
            (0, 10),
        );
        assert!(i.holds_at("event", &[Value::Int(7)], 5));
        assert!(i.holds_at("event", &[Value::Int(2)], 6));
        assert!(!i.holds_at("event", &[Value::Int(7)], 6));
    }

    #[test]
    fn rejects_unsupported_fragment() {
        let program = parse_program("h(A) :- boxminus[0, 2] p(A).").unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts("p(x)@5.").unwrap()).unwrap();
        assert!(naive_materialize(&program, &db, 0, 10).is_err());
        let program = parse_program("h(A) :- p(A).").unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts("p(x)@[0, 5].").unwrap())
            .unwrap();
        assert!(naive_materialize(&program, &db, 0, 10).is_err());
    }

    #[test]
    fn time_capture_binds_integer() {
        let i = run("h(A, T) :- p(A)@T.", "p(x)@7.", (0, 10));
        assert!(i.holds_at("h", &[Value::sym("x"), Value::Int(7)], 7));
    }
}
