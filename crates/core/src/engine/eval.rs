//! Rule-body evaluation: temporal joins, operator application, stratified
//! negation, built-in constraints, and the `@T` time capture.
//!
//! A body evaluates to a set of `(binding, interval set)` pairs: the variable
//! assignments satisfying the relational/constraint part, each with the time
//! points at which the whole conjunction holds. The fixpoint never sees
//! those pairs: [`execute_heads`] unions them into one row per head tuple as
//! the last join emits them.
//!
//! What an evaluation counted is part of what it returns. Its context
//! counts the lookups ([`LookupCounts`]), and [`execute_heads`] hands back
//! the rows each plan step produced. Nothing is written to the shared plan
//! or to another thread. The fixpoint's merge, which runs in fixed task
//! order, adds both to the run's stats.

use crate::ast::{Atom, CmpOp, Expr, Literal, MetricAtom, Rule, Term};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use crate::intern::{self, NONE_VID};
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use chronolog_obs::{SpanGuard, SpanRecorder};
use mtl_temporal::{Interval, IntervalSet, MetricInterval};
use std::cell::Cell;
use std::collections::BTreeMap;

use super::plan::{AccessPath, ConstraintMode, PlanStep, RulePlan, StepKind};

/// A variable assignment. Fx-hashed: binding maps are cloned once per
/// emitted tuple, which makes rehash speed a join-throughput term.
pub(crate) type Bindings = FxHashMap<Symbol, Value>;

/// What one evaluation's lookups did. Plain integers: a task counts into
/// its own [`EvalCtx`], hands the counts back with its result, and the
/// fixpoint's ordered merge adds them to the run's stats.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct LookupCounts {
    /// `eval_rel` calls answered through an index probe (value, time, or
    /// both). Every `eval_rel` call counts exactly one of `index_probes` /
    /// `full_scans`, so the two always account for every call.
    pub index_probes: u64,
    /// Tuples a probe did *not* visit compared to a full scan.
    pub index_scan_avoided: u64,
    /// `eval_rel` calls that fell back to a full relation scan (including
    /// missing-relation lookups, which scan zero tuples).
    pub full_scans: u64,
    /// Tuples visited by full scans.
    pub scanned_tuples: u64,
    /// Candidate tuples visited by index probes. Together with the other
    /// two tuple counters this partitions every lookup: per `eval_rel`
    /// call on a present relation, `scanned + probed + avoided` equals the
    /// relation's size.
    pub probed_tuples: u64,
    /// `eval_rel` calls that consulted the sorted-endpoint time index.
    pub time_index_probes: u64,
    /// Candidate tuples the time index excluded before their interval sets
    /// were clipped against the read mask.
    pub interval_clips_avoided: u64,
}

impl LookupCounts {
    /// Tuples the lookups visited, by scan or by probe.
    pub(crate) fn visited(&self) -> u64 {
        self.scanned_tuples + self.probed_tuples
    }
}

/// Evaluation context for one rule application.
pub(crate) struct EvalCtx<'a> {
    /// Everything derived so far (EDB + all strata up to the current point).
    pub total: &'a Database,
    /// Per-iteration delta of current-stratum predicates (semi-naive).
    pub delta: Option<&'a Database>,
    /// The derivation window: bodies are evaluated and heads clipped inside
    /// it. The whole reasoning horizon for a batch run; a session re-derives
    /// only the part of its horizon that can still change.
    pub horizon: Interval,
    /// Where `top` holds: the whole reasoning horizon, even when `horizon`
    /// is a narrower re-derivation window — a past operator over `top`
    /// reads below the window like one over any other atom.
    pub top: Interval,
    /// What the lookups made through this context did: the context's own,
    /// never shared with another thread.
    pub lookups: Cell<LookupCounts>,
    /// Span profiler for per-step timing; `None` (the default) records
    /// nothing and allocates nothing.
    pub profiler: Option<&'a SpanRecorder>,
}

impl<'a> EvalCtx<'a> {
    /// A context over `total` with no delta and nothing counted yet.
    pub(crate) fn new(
        total: &'a Database,
        horizon: Interval,
        top: Interval,
        profiler: Option<&'a SpanRecorder>,
    ) -> EvalCtx<'a> {
        EvalCtx {
            total,
            delta: None,
            horizon,
            top,
            lookups: Cell::default(),
            profiler,
        }
    }

    fn horizon_set(&self) -> IntervalSet {
        IntervalSet::from_interval(self.horizon)
    }

    fn count(&self, f: impl FnOnce(&mut LookupCounts)) {
        let mut counts = self.lookups.get();
        f(&mut counts);
        self.lookups.set(counts);
    }
}

/// What the delta variant of a positive literal reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DeltaRead {
    /// The last round's new points: a chain of diamonds and punctual boxes
    /// over one atom distributes over union.
    Points,
    /// The tuples that grew last round, each with its whole validity: a box
    /// of positive length or a `since`/`until` combines time points, but
    /// its value for a binding is a function of the validities of the
    /// tuples the binding matched, so nothing new comes of unchanged ones.
    Tuples,
}

/// Classifies what the delta variant of positive literal `m` reads.
pub(crate) fn delta_read(m: &MetricAtom) -> DeltaRead {
    match m {
        MetricAtom::Rel(_) => DeltaRead::Points,
        MetricAtom::DiamondMinus(_, inner) | MetricAtom::DiamondPlus(_, inner) => delta_read(inner),
        MetricAtom::BoxMinus(rho, inner) | MetricAtom::BoxPlus(rho, inner) if rho.is_punctual() => {
            delta_read(inner)
        }
        _ => DeltaRead::Tuples,
    }
}

/// Executes a compiled rule-body plan down to its bindings: the executor
/// of the two callers that need the body variables — aggregate groups,
/// which pool one contribution per distinct binding, and explanations,
/// which ground premises from them. The fixpoint runs [`execute_heads`].
///
/// Starts from `binding` (empty, or an explanation's head variables bound).
/// Returns deduplicated `(binding, intervals)` pairs with non-empty interval
/// sets.
pub(crate) fn execute_plan(
    rule: &Rule,
    plan: &RulePlan,
    ctx: &EvalCtx<'_>,
    binding: Bindings,
) -> Result<Vec<(Bindings, IntervalSet)>> {
    let mut step_rows = vec![0; plan.steps.len()];
    let acc = run_steps(rule, plan, &plan.steps, ctx, binding, &mut step_rows)?;
    // Deduplicate bindings, merging interval sets. The ordered map makes
    // the result order — and with it the order in which aggregates pool
    // and explanations try candidates — deterministic across runs and
    // thread counts.
    let mut merged: BTreeMap<Vec<(Symbol, Value)>, IntervalSet> = BTreeMap::new();
    for (b, ivs) in acc {
        if ivs.is_empty() {
            continue;
        }
        let mut key: Vec<(Symbol, Value)> = b.iter().map(|(k, v)| (*k, *v)).collect();
        key.sort();
        merged.entry(key).or_default().union_with(&ivs);
    }
    Ok(merged
        .into_iter()
        .map(|(k, ivs)| (k.into_iter().collect(), ivs))
        .collect())
}

/// Executes a compiled rule-body plan down to its head rows: one
/// `(head tuple, intervals)` row per distinct head tuple, its intervals the
/// union over every binding that grounds the head to it, sorted by tuple so
/// that merge order, stats and facts do not depend on scan order or thread
/// count. Head operators and the derivation window are the caller's.
/// Returns the rows the plan's steps produced alongside, one entry per step.
///
/// When the plan ends in a join, that join is fused with the union: each
/// matching tuple writes its head values — read from the binding and the
/// tuple's own columns — straight into the head table, so no binding map
/// is built for it and a key is allocated only for a tuple new to the
/// table. The fused step still counts its binding rows.
pub(crate) fn execute_heads(
    rule: &Rule,
    plan: &RulePlan,
    ctx: &EvalCtx<'_>,
) -> Result<(HeadRows, Vec<u64>)> {
    let mut table = HeadTable::default();
    let mut step_rows = vec![0; plan.steps.len()];
    match plan.steps.split_last() {
        Some((last, rest)) if matches!(last.kind, StepKind::Join { .. }) => {
            let acc = run_steps(rule, plan, rest, ctx, Bindings::default(), &mut step_rows)?;
            if acc.is_empty() {
                return Ok((vec![], step_rows));
            }
            let mut span = step_span(ctx, last);
            let Literal::Pos(m) = &rule.body[last.literal] else {
                unreachable!("join step on a non-positive literal");
            };
            let use_delta = plan.delta_literal == Some(last.literal);
            let rows = join_heads(&acc, m, ctx, use_delta, rule, &mut table)?;
            step_rows[rest.len()] = rows as u64;
            if let Some(s) = span.as_mut() {
                s.add("rows", rows as u64);
            }
        }
        _ => {
            let mut values = Vec::with_capacity(rule.head.atom.args.len());
            let acc = run_steps(
                rule,
                plan,
                &plan.steps,
                ctx,
                Bindings::default(),
                &mut step_rows,
            )?;
            for (b, ivs) in acc {
                if ivs.is_empty() {
                    continue;
                }
                head_values(rule, |x| b.get(&x).copied(), &mut values)?;
                table.add(&values, ivs);
            }
        }
    }
    Ok((table.into_sorted(), step_rows))
}

/// One rule evaluation's head rows, sorted by tuple.
pub(crate) type HeadRows = Vec<(Tuple, IntervalSet)>;

/// One rule evaluation's head rows, keyed by head tuple (structurally: `3`
/// and `3.0` are two tuples, as the store keeps them).
#[derive(Default)]
struct HeadTable {
    rows: FxHashMap<Tuple, IntervalSet>,
}

impl HeadTable {
    /// Unions `ivs` into the row of `tuple`, allocating the key only when
    /// the tuple is new to the table.
    fn add(&mut self, tuple: &[Value], ivs: IntervalSet) {
        match self.rows.get_mut(tuple) {
            Some(row) => {
                row.union_with(&ivs);
            }
            None => {
                self.rows.insert(tuple.into(), ivs);
            }
        }
    }

    fn into_sorted(self) -> HeadRows {
        let mut rows: Vec<(Tuple, IntervalSet)> = self.rows.into_iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

/// Grounds `rule`'s head into `out`, reading variables through `get`.
fn head_values(
    rule: &Rule,
    get: impl Fn(Symbol) -> Option<Value>,
    out: &mut Vec<Value>,
) -> Result<()> {
    out.clear();
    for t in &rule.head.atom.args {
        out.push(match t {
            Term::Val(v) => *v,
            Term::Var(x) => get(*x).ok_or_else(|| {
                Error::Eval(format!(
                    "unbound head variable {x} in rule `{}`",
                    rule.label.as_deref().unwrap_or("<unlabeled>")
                ))
            })?,
        });
    }
    Ok(())
}

/// One span per plan step: static names so folded stacks collapse across
/// iterations; the literal index and row counts travel as counters.
fn step_span(ctx: &EvalCtx<'_>, step: &PlanStep) -> Option<SpanGuard> {
    ctx.profiler.map(|p| {
        let name = match &step.kind {
            StepKind::Join { .. } => "join",
            StepKind::Constraint { .. } => "constraint",
            StepKind::Negation => "negate",
        };
        let mut s = p.span(name);
        s.add("literal", step.literal as u64);
        s
    })
}

/// Runs `steps` of `plan` from `binding`: the delta-restricted literal is
/// taken from the plan, joins push the accumulated interval hull down as a
/// read mask, and constraints run in their statically scheduled modes.
/// Writes the rows each step produced to `step_rows`, in step order.
fn run_steps(
    rule: &Rule,
    plan: &RulePlan,
    steps: &[PlanStep],
    ctx: &EvalCtx<'_>,
    binding: Bindings,
    step_rows: &mut [u64],
) -> Result<Vec<(Bindings, IntervalSet)>> {
    let mut acc: Vec<(Bindings, IntervalSet)> = vec![(binding, ctx.horizon_set())];
    for (step, rows) in steps.iter().zip(step_rows) {
        let mut span = step_span(ctx, step);
        match &step.kind {
            StepKind::Join { .. } => {
                let Literal::Pos(m) = &rule.body[step.literal] else {
                    unreachable!("join step on a non-positive literal");
                };
                let use_delta = plan.delta_literal == Some(step.literal);
                acc = join_chunk(&acc, m, ctx, use_delta)?;
            }
            StepKind::Constraint { mode } => {
                let Literal::Constraint(lhs, op, rhs) = &rule.body[step.literal] else {
                    unreachable!("constraint step on a non-constraint literal");
                };
                acc = apply_constraint(acc, lhs, *op, rhs, *mode)?;
            }
            StepKind::Negation => {
                let Literal::Neg(m) = &rule.body[step.literal] else {
                    unreachable!("negation step on a non-negated literal");
                };
                acc = apply_negation(acc, m, ctx)?;
            }
        }
        *rows = acc.len() as u64;
        if let Some(s) = span.as_mut() {
            s.add("rows", acc.len() as u64);
        }
        // An empty accumulator is absorbing for every remaining step.
        if acc.is_empty() && matches!(step.kind, StepKind::Join { .. }) {
            return Ok(vec![]);
        }
    }
    Ok(acc)
}

/// Applies a constraint to every binding in its scheduled mode: assignments
/// extend the binding, filters keep or drop it.
fn apply_constraint(
    acc: Vec<(Bindings, IntervalSet)>,
    lhs: &Expr,
    op: CmpOp,
    rhs: &Expr,
    mode: ConstraintMode,
) -> Result<Vec<(Bindings, IntervalSet)>> {
    let lone_var = |e: &Expr| match e {
        Expr::Term(Term::Var(x)) => *x,
        _ => unreachable!("mode implies lone variable"),
    };
    let mut out = Vec::with_capacity(acc.len());
    for (mut b, ivs) in acc {
        match mode {
            ConstraintMode::AssignLeft => {
                let v = eval_expr(rhs, &b)?;
                b.insert(lone_var(lhs), v);
            }
            ConstraintMode::AssignRight => {
                let v = eval_expr(lhs, &b)?;
                b.insert(lone_var(rhs), v);
            }
            ConstraintMode::Filter => {
                if !compare(eval_expr(lhs, &b)?, op, eval_expr(rhs, &b)?)? {
                    continue;
                }
            }
        }
        out.push((b, ivs));
    }
    Ok(out)
}

/// The comparison built-ins: `=`/`!=` are semantic (`3 = 3.0`), the order
/// comparisons fail on incomparable values.
pub(crate) fn compare(l: Value, op: CmpOp, r: Value) -> Result<bool> {
    match op {
        CmpOp::Eq => Ok(l.semantic_eq(&r)),
        CmpOp::Ne => Ok(!l.semantic_eq(&r)),
        _ => {
            let ord = l
                .semantic_cmp(&r)
                .ok_or_else(|| Error::Eval(format!("cannot compare {l} and {r}")))?;
            Ok(match op {
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
                CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
            })
        }
    }
}

/// Evaluates an arithmetic expression under a binding. Integer arithmetic
/// stays exact; mixing with floats coerces to `f64`.
pub(crate) fn eval_expr(expr: &Expr, b: &Bindings) -> Result<Value> {
    fn num2(
        a: Value,
        bb: Value,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        f_op: impl Fn(f64, f64) -> f64,
        what: &str,
    ) -> Result<Value> {
        match (a, bb) {
            (Value::Int(x), Value::Int(y)) => match int_op(x, y) {
                Some(v) => Ok(Value::Int(v)),
                None => Ok(Value::num(f_op(x as f64, y as f64))),
            },
            _ => {
                let (x, y) = (
                    a.as_f64()
                        .ok_or_else(|| Error::Eval(format!("non-numeric operand {a} in {what}")))?,
                    bb.as_f64().ok_or_else(|| {
                        Error::Eval(format!("non-numeric operand {bb} in {what}"))
                    })?,
                );
                let v = f_op(x, y);
                if v.is_nan() {
                    return Err(Error::Eval(format!("NaN from {what}({x}, {y})")));
                }
                Ok(Value::num(v))
            }
        }
    }
    match expr {
        Expr::Term(Term::Val(v)) => Ok(*v),
        Expr::Term(Term::Var(v)) => b
            .get(v)
            .copied()
            .ok_or_else(|| Error::Eval(format!("unbound variable {v} in expression"))),
        Expr::Add(x, y) => num2(
            eval_expr(x, b)?,
            eval_expr(y, b)?,
            i64::checked_add,
            |a, c| a + c,
            "+",
        ),
        Expr::Sub(x, y) => num2(
            eval_expr(x, b)?,
            eval_expr(y, b)?,
            i64::checked_sub,
            |a, c| a - c,
            "-",
        ),
        Expr::Mul(x, y) => num2(
            eval_expr(x, b)?,
            eval_expr(y, b)?,
            i64::checked_mul,
            |a, c| a * c,
            "*",
        ),
        Expr::Div(x, y) => {
            let (xv, yv) = (eval_expr(x, b)?, eval_expr(y, b)?);
            if yv.as_f64() == Some(0.0) {
                return Err(Error::Eval("division by zero".into()));
            }
            num2(
                xv,
                yv,
                |a, c| {
                    if c != 0 && a % c == 0 {
                        Some(a / c)
                    } else {
                        None
                    }
                },
                |a, c| a / c,
                "/",
            )
        }
        Expr::Neg(x) => match eval_expr(x, b)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Num(n) => Ok(Value::num(-n.get())),
            other => Err(Error::Eval(format!("cannot negate {other}"))),
        },
        Expr::Abs(x) => match eval_expr(x, b)? {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Num(n) => Ok(Value::num(n.get().abs())),
            other => Err(Error::Eval(format!("abs of non-number {other}"))),
        },
        Expr::Min(x, y) => {
            let (a, c) = (eval_expr(x, b)?, eval_expr(y, b)?);
            Ok(if compare(a, CmpOp::Le, c)? { a } else { c })
        }
        Expr::Max(x, y) => {
            let (a, c) = (eval_expr(x, b)?, eval_expr(y, b)?);
            Ok(if compare(a, CmpOp::Ge, c)? { a } else { c })
        }
    }
}

/// Joins the accumulator with a positive metric atom, one binding per
/// joined row (see [`join_each`]).
fn join_chunk(
    acc: &[(Bindings, IntervalSet)],
    m: &MetricAtom,
    ctx: &EvalCtx<'_>,
    use_delta: bool,
) -> Result<Vec<(Bindings, IntervalSet)>> {
    let mut out = Vec::new();
    join_each(acc, m, ctx, use_delta, &mut |hit, joined| {
        out.push((hit.to_bindings(), joined));
        Ok(())
    })?;
    Ok(out)
}

/// The fused last join of [`execute_heads`]: joins the accumulator with a
/// positive metric atom and unions each joined row into `table` under its
/// head tuple. Returns the binding rows the join made.
fn join_heads(
    acc: &[(Bindings, IntervalSet)],
    m: &MetricAtom,
    ctx: &EvalCtx<'_>,
    use_delta: bool,
    rule: &Rule,
    table: &mut HeadTable,
) -> Result<usize> {
    let mut values = Vec::with_capacity(rule.head.atom.args.len());
    let mut rows = 0;
    join_each(acc, m, ctx, use_delta, &mut |hit, joined| {
        rows += 1;
        head_values(rule, |x| hit.get(x), &mut values)?;
        table.add(&values, joined);
        Ok(())
    })?;
    Ok(rows)
}

/// Calls `f` with every non-empty joined row of `acc` and a positive
/// metric atom, the accumulated interval hull pushed down as a read mask.
fn join_each(
    acc: &[(Bindings, IntervalSet)],
    m: &MetricAtom,
    ctx: &EvalCtx<'_>,
    use_delta: bool,
    f: &mut Emit<'_>,
) -> Result<()> {
    for (b, ivs) in acc {
        eval_matom_masked(m, ctx, use_delta, b, ivs.hull(), &mut |hit, ivs2| {
            let joined = ivs.intersect(&ivs2);
            if joined.is_empty() {
                Ok(())
            } else {
                f(hit, joined)
            }
        })?;
    }
    Ok(())
}

/// Subtracts the (existentially closed) intervals of a negated metric atom.
fn apply_negation(
    acc: Vec<(Bindings, IntervalSet)>,
    m: &MetricAtom,
    ctx: &EvalCtx<'_>,
) -> Result<Vec<(Bindings, IntervalSet)>> {
    let mut out = Vec::with_capacity(acc.len());
    for (b, ivs) in acc {
        let mut neg = IntervalSet::new();
        eval_matom_masked(m, ctx, false, &b, ivs.hull(), &mut |_, nivs| {
            neg.union_with(&nivs);
            Ok(())
        })?;
        let rest = ivs.difference(&neg);
        if !rest.is_empty() {
            out.push((b, rest));
        }
    }
    Ok(out)
}

/// One result of a metric-atom evaluation, handed to the caller's [`Emit`]
/// callback before any binding map is built: the binding the evaluation
/// started from, plus what the result binds on top of it.
pub(crate) struct Hit<'h> {
    base: &'h Bindings,
    /// The matched tuple's fresh argument variables, then the `@T` capture
    /// (which overrides a semantically equal earlier value).
    binds: &'h [(Symbol, Value)],
}

impl Hit<'_> {
    /// A result that binds nothing beyond `base`.
    fn of(base: &Bindings) -> Hit<'_> {
        Hit { base, binds: &[] }
    }

    /// The value `var` has in this result.
    fn get(&self, var: Symbol) -> Option<Value> {
        match self.binds.iter().rev().find(|(v, _)| *v == var) {
            Some(&(_, value)) => Some(value),
            None => self.base.get(&var).copied(),
        }
    }

    /// The result as an extended binding.
    fn to_bindings(&self) -> Bindings {
        let mut b = self.base.clone();
        b.extend(self.binds.iter().copied());
        b
    }
}

/// What a metric-atom evaluation calls with each of its results and the
/// (operator-transformed, non-empty) interval set at which it holds.
pub(crate) type Emit<'e> = dyn FnMut(&Hit<'_>, IntervalSet) -> Result<()> + 'e;

type TransformResult = std::result::Result<IntervalSet, mtl_temporal::TimeOverflow>;

/// Evaluates a metric atom under a binding, returning extended bindings with
/// the (operator-transformed) interval sets.
fn eval_matom(
    m: &MetricAtom,
    ctx: &EvalCtx<'_>,
    use_delta: bool,
    binding: &Bindings,
) -> Result<Vec<(Bindings, IntervalSet)>> {
    let mut out = Vec::new();
    eval_matom_masked(m, ctx, use_delta, binding, None, &mut |hit, ivs| {
        out.push((hit.to_bindings(), ivs));
        Ok(())
    })?;
    Ok(out)
}

/// Masked evaluation: `mask`, when present, is a time window such that only
/// output points inside it will be used by the caller. It is pushed through
/// the operator tree (inversely transformed at each unary operator) and
/// applied as a binary-searched clip at the relation leaves — exact, since
/// the base points relevant to outputs in `mask` lie inside the pushed-down
/// window. Every result goes to `emit`, in evaluation order.
pub(crate) fn eval_matom_masked(
    m: &MetricAtom,
    ctx: &EvalCtx<'_>,
    use_delta: bool,
    binding: &Bindings,
    mask: Option<Interval>,
    emit: &mut Emit<'_>,
) -> Result<()> {
    // Base times contributing to past-operator outputs in `mask` lie in
    // mask ⊕ mirrored-ρ, which is exactly the hull transform below. All
    // endpoint shifts are checked: a window near the timeline extremes
    // surfaces `Error::TimeOverflow` instead of aborting the process.
    let past_mask = |rho| -> Result<Option<Interval>> {
        mask.as_ref()
            .map(|w| w.checked_diamond_plus(rho))
            .transpose()
            .map_err(Error::from)
    };
    let future_mask = |rho| -> Result<Option<Interval>> {
        mask.as_ref()
            .map(|w| w.checked_diamond_minus(rho))
            .transpose()
            .map_err(Error::from)
    };
    // Evaluates the operand over `mask` and applies a checked interval-set
    // transform to every result, dropping results whose transformed set is
    // empty.
    let mut transform = |inner: &MetricAtom,
                         mask: Option<Interval>,
                         f: fn(&IntervalSet, &MetricInterval) -> TransformResult,
                         rho: &MetricInterval| {
        eval_matom_masked(inner, ctx, use_delta, binding, mask, &mut |hit, ivs| {
            let t = f(&ivs, rho)?;
            if t.is_empty() {
                Ok(())
            } else {
                emit(hit, t)
            }
        })
    };
    match m {
        MetricAtom::Top => emit(&Hit::of(binding), IntervalSet::from_interval(ctx.top)),
        MetricAtom::Bottom => Ok(()),
        MetricAtom::Rel(atom) => eval_rel(atom, ctx, use_delta, binding, mask, emit),
        MetricAtom::DiamondMinus(rho, inner) => transform(
            inner,
            past_mask(rho)?,
            IntervalSet::checked_diamond_minus,
            rho,
        ),
        MetricAtom::DiamondPlus(rho, inner) => transform(
            inner,
            future_mask(rho)?,
            IntervalSet::checked_diamond_plus,
            rho,
        ),
        MetricAtom::BoxMinus(rho, inner) => {
            transform(inner, past_mask(rho)?, IntervalSet::checked_box_minus, rho)
        }
        MetricAtom::BoxPlus(rho, inner) => {
            transform(inner, future_mask(rho)?, IntervalSet::checked_box_plus, rho)
        }
        MetricAtom::Since(m1, rho, m2) | MetricAtom::Until(m1, rho, m2) => {
            let op = match m {
                MetricAtom::Since(..) => IntervalSet::since,
                _ => IntervalSet::until,
            };
            // Every left result joins every right one. Under a delta read
            // the operand loops run twice — the left operand from the delta
            // and the right one from `total`, then the other way round — so
            // every pair with a tuple that grew is met.
            let passes: &[(bool, bool)] = if use_delta {
                &[(true, false), (false, true)]
            } else {
                &[(false, false)]
            };
            for &(delta1, delta2) in passes {
                for (b1, iv1) in eval_matom(m1, ctx, delta1, binding)? {
                    for (b2, iv2) in eval_matom(m2, ctx, delta2, &b1)? {
                        let s = op(&iv1, &iv2, rho)?;
                        if !s.is_empty() {
                            emit(&Hit::of(&b2), s)?;
                        }
                    }
                }
            }
            // The operator can also fire from the right operand alone when
            // 0 ∈ ρ, even where the left one has no matching tuples: cover
            // the empty-left case explicitly.
            if rho.as_interval().contains(mtl_temporal::Rational::ZERO) {
                for (b2, iv2) in eval_matom(m2, ctx, use_delta, binding)? {
                    let s = op(&IntervalSet::new(), &iv2, rho)?;
                    if !s.is_empty() {
                        emit(&Hit::of(&b2), s)?;
                    }
                }
            }
            Ok(())
        }
    }
}

/// Reused per-thread probe buffers: `eval_rel` runs once per accumulated
/// binding, so a fresh `Vec` per ground-position list and candidate set
/// would put an allocator round-trip on the innermost join loop.
#[derive(Default)]
struct ProbeScratch {
    ground: Vec<(usize, Value)>,
    value: Vec<u32>,
    time: Vec<u32>,
    both: Vec<u32>,
    /// What the tuple being visited binds: the [`Hit::binds`] of its
    /// results.
    binds: Vec<(Symbol, Value)>,
}

thread_local! {
    static PROBE_SCRATCH: std::cell::Cell<ProbeScratch> =
        std::cell::Cell::new(ProbeScratch::default());
}

/// Base-relation lookup with unification and optional `@T` time capture.
///
/// The access path is chosen per lookup by [`AccessPath::choose`] from what
/// is observed here — the relation's size, whether any argument is ground
/// under the current binding, whether a read mask restricts the window.
/// Candidates still pass through full unification, so the path is purely an
/// optimization. Each match goes to `emit` as a [`Hit`] that reads the
/// variables it binds straight off the decoded columns; a caller that
/// wants a binding map builds one.
fn eval_rel(
    atom: &Atom,
    ctx: &EvalCtx<'_>,
    use_delta: bool,
    binding: &Bindings,
    mask: Option<Interval>,
    emit: &mut Emit<'_>,
) -> Result<()> {
    let db = if use_delta {
        ctx.delta
            .expect("delta variant evaluated without a delta database")
    } else {
        ctx.total
    };
    let Some(rel) = db.relation(atom.pred) else {
        // Still an eval_rel call: account for it as a zero-tuple full scan
        // so `index_probes + full_scans` covers every call.
        ctx.count(|c| c.full_scans += 1);
        return Ok(());
    };

    // On the (cold) error paths below the scratch is simply dropped and
    // the thread-local reverts to empty defaults — correct, just without
    // capacity reuse.
    let mut scr = PROBE_SCRATCH.take();

    // Argument positions that are ground under the current binding: the
    // probe keys, and below the semantic-id checks of the visit loop.
    scr.ground.clear();
    for (i, t) in atom.args.iter().enumerate() {
        match t {
            Term::Val(c) => scr.ground.push((i, *c)),
            Term::Var(x) => {
                if let Some(v) = binding.get(x) {
                    scr.ground.push((i, *v));
                }
            }
        }
    }

    // `None` means full scan. Value and time candidate lists both come back
    // in ascending id (= insertion) order, so their intersection visits
    // tuples in scan order and determinism is preserved.
    let path = AccessPath::choose(rel.len(), !scr.ground.is_empty(), mask.is_some());
    let candidates: Option<&[u32]> = match path {
        AccessPath::Scan => {
            ctx.count(|c| {
                c.full_scans += 1;
                c.scanned_tuples += rel.len() as u64;
            });
            None
        }
        AccessPath::ValueProbe => {
            rel.probe_into(&scr.ground, &mut scr.value);
            Some(&scr.value)
        }
        AccessPath::TimeProbe => {
            let w = mask.as_ref().expect("a time probe implies a mask");
            rel.probe_time_into(w, &mut scr.time);
            ctx.count(|c| {
                c.time_index_probes += 1;
                c.interval_clips_avoided += (rel.len() - scr.time.len()) as u64;
            });
            Some(&scr.time)
        }
        AccessPath::ValueTimeProbe => {
            rel.probe_into(&scr.ground, &mut scr.value);
            if scr.value.len() <= rel.len() / 8 {
                // A small (or empty) value bucket: clipping a handful
                // of candidates directly is cheaper than walking the
                // time index's window range (which costs a sort of
                // every overlapping id).
                Some(&scr.value)
            } else {
                let w = mask.as_ref().expect("a time probe implies a mask");
                rel.probe_time_into(w, &mut scr.time);
                intersect_sorted_into(&scr.value, &scr.time, &mut scr.both);
                ctx.count(|c| {
                    c.time_index_probes += 1;
                    c.interval_clips_avoided += (scr.value.len() - scr.both.len()) as u64;
                });
                Some(&scr.both)
            }
        }
    };
    if let Some(found) = candidates {
        ctx.count(|c| {
            c.index_probes += 1;
            c.probed_tuples += found.len() as u64;
            c.index_scan_avoided += (rel.len() - found.len()) as u64;
        });
    }

    // Unification: compile the atom's argument pattern into per-position
    // checks ONCE, then run every candidate through dense `u32`
    // semantic-id compares — no per-tuple Value materialization, no
    // hashing. One interner read guard covers the whole loop.
    enum Chk<'c> {
        /// Stored value's semantic class must equal this id. A constant
        /// absent from the interner gets the `NONE_VID` sentinel, which
        /// matches nothing.
        Sid { col: &'c [u32], sid: u32 },
        /// Repeated fresh variable: positions must agree pairwise.
        Repeat { col: &'c [u32], first: &'c [u32] },
        /// First occurrence of a fresh variable: bind on success.
        Bind { col: &'c [u32], var: Symbol },
    }
    let s = rel.store();
    let g = intern::read();
    let arity = atom.args.len();
    // Column slices are hoisted into the checks once: the visit loop then
    // runs on flat `&[u32]` indexing with no outer-vector lookups. A
    // missing column means no stored tuple reaches this arity, so nothing
    // can match and the visit loop is skipped outright (candidate counters
    // were already charged above).
    let mut checks: Vec<Chk> = Vec::with_capacity(arity);
    let mut unmatchable = false;
    let mut ground = scr.ground.iter().peekable();
    for (i, t) in atom.args.iter().enumerate() {
        let Some(col) = s.col(i) else {
            unmatchable = true;
            break;
        };
        if let Some((_, v)) = ground.next_if(|(pos, _)| *pos == i) {
            checks.push(Chk::Sid {
                col,
                sid: g.sid_of(v).unwrap_or(NONE_VID),
            });
        } else if let Some(first) = atom.args[..i].iter().position(|t2| t2 == t) {
            checks.push(Chk::Repeat {
                col,
                first: s.col(first).expect("earlier position has a column"),
            });
        } else {
            let Term::Var(var) = t else {
                unreachable!("constants are ground positions");
            };
            checks.push(Chk::Bind { col, var: *var });
        }
    }
    let lens = s.lens();
    let arity_u32 = arity as u32;
    let binds = &mut scr.binds;
    let mut visit = |id: u32| -> Result<()> {
        if lens[id as usize] != arity_u32 {
            return Ok(());
        }
        for c in &checks {
            match *c {
                Chk::Sid { col, sid } => {
                    if g.sid(col[id as usize]) != sid {
                        return Ok(());
                    }
                }
                Chk::Repeat { col, first } => {
                    if g.sid(col[id as usize]) != g.sid(first[id as usize]) {
                        return Ok(());
                    }
                }
                Chk::Bind { .. } => {}
            }
        }
        let comps = s.comps_of(id);
        let clipped = match &mask {
            Some(w) => IntervalSet::clip_components(comps, w),
            None => IntervalSet::from_sorted(comps.to_vec()),
        };
        if clipped.is_empty() {
            return Ok(());
        }
        binds.clear();
        for c in &checks {
            if let Chk::Bind { col, var } = *c {
                binds.push((var, g.decode(col[id as usize])));
            }
        }
        match atom.time_var {
            None => emit(
                &Hit {
                    base: binding,
                    binds: binds.as_slice(),
                },
                clipped,
            )?,
            Some(tv) => {
                // The capture refers to the base fact's own time points, so
                // the fact must be punctual.
                let points = clipped.punctual_points().ok_or_else(|| {
                    let vals: Vec<Value> = (0..arity).map(|p| g.decode(s.vid_at(p, id))).collect();
                    Error::Eval(format!(
                        "time capture @{tv} on non-punctual fact {}{:?}",
                        atom.pred,
                        vals.into_boxed_slice()
                    ))
                })?;
                let existing = Hit {
                    base: binding,
                    binds: binds.as_slice(),
                }
                .get(tv);
                for p in points {
                    let tval = Value::from_time(p);
                    if existing.is_some_and(|e| !e.semantic_eq(&tval)) {
                        continue;
                    }
                    binds.push((tv, tval));
                    let at = IntervalSet::from_interval(Interval::point(p));
                    emit(
                        &Hit {
                            base: binding,
                            binds: binds.as_slice(),
                        },
                        at,
                    )?;
                    binds.pop();
                }
            }
        }
        Ok(())
    };
    if !unmatchable {
        match candidates {
            None => {
                for id in 0..s.len() as u32 {
                    visit(id)?;
                }
            }
            Some(c) => {
                for &id in c {
                    visit(id)?;
                }
            }
        }
    }
    PROBE_SCRATCH.set(scr);
    Ok(())
}

/// Intersection of two ascending-sorted id lists into a reused buffer,
/// preserving order.
fn intersect_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::plan::build_plan;
    use crate::parser::{parse_facts, parse_rule};
    use std::collections::HashSet;

    /// Plans `rule` in isolation (no program, so nothing is persisted) and
    /// executes it in full.
    fn eval_body(rule: &Rule, ctx: &EvalCtx<'_>) -> Result<Vec<(Bindings, IntervalSet)>> {
        let plan = build_plan(rule, None, &HashSet::new(), &mut Default::default());
        execute_plan(rule, &plan, ctx, Bindings::default())
    }

    fn ctx_db(facts: &str) -> Database {
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        db
    }

    fn eval(rule_src: &str, facts: &str) -> Vec<(Bindings, IntervalSet)> {
        let rule = parse_rule(rule_src).unwrap();
        let db = ctx_db(facts);
        let ctx = EvalCtx::new(
            &db,
            Interval::closed_int(0, 100),
            Interval::closed_int(0, 100),
            None,
        );
        eval_body(&rule, &ctx).unwrap()
    }

    #[test]
    fn simple_join_intersects_time() {
        let out = eval(
            "h(A) :- p(A), q(A).",
            "p(x)@[0, 10].\nq(x)@[5, 20].\np(y)@[0, 10].",
        );
        assert_eq!(out.len(), 1);
        let (b, ivs) = &out[0];
        assert_eq!(b[&Symbol::new("A")], Value::sym("x"));
        assert_eq!(ivs.components(), &[Interval::closed_int(5, 10)]);
    }

    #[test]
    fn diamond_shifts_join() {
        let out = eval("h(A) :- diamondminus p(A).", "p(x)@3.");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.components(), &[Interval::at(4)]);
    }

    #[test]
    fn negation_subtracts() {
        let out = eval("h(A) :- p(A), not q(A).", "p(x)@[0, 10].\nq(x)@[4, 6].");
        assert_eq!(out.len(), 1);
        let ivs = &out[0].1;
        assert!(ivs.contains(3.into()));
        assert!(!ivs.contains(5.into()));
        assert!(ivs.contains(7.into()));
    }

    #[test]
    fn negation_is_existential_over_wildcards() {
        let out = eval(
            "h(A) :- p(A), not q(A, _).",
            "p(x)@[0, 10].\nq(x, 1)@[2, 3].\nq(x, 2)@[5, 6].",
        );
        assert_eq!(out.len(), 1);
        let ivs = &out[0].1;
        assert!(ivs.contains(0.into()));
        assert!(!ivs.contains(2.into()));
        assert!(ivs.contains(4.into()));
        assert!(!ivs.contains(6.into()));
    }

    #[test]
    fn constraints_assign_and_filter() {
        let out = eval(
            "h(A, M) :- p(A, X), q(A, Y), M = X + Y, M > 10.",
            "p(x, 4)@1.\nq(x, 7)@1.\np(y, 1)@1.\nq(y, 2)@1.",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0[&Symbol::new("M")], Value::Int(11));
    }

    #[test]
    fn assignment_chains_resolve_out_of_order() {
        let out = eval("h(A, M) :- M = Z * 2, Z = X + 1, p(A, X).", "p(x, 4)@1.");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0[&Symbol::new("M")], Value::Int(10));
    }

    #[test]
    fn time_capture_binds_event_time() {
        let out = eval("h(T) :- p(A)@T.", "p(x)@7.\np(y)@9.");
        let mut times: Vec<Value> = out.iter().map(|(b, _)| b[&Symbol::new("T")]).collect();
        times.sort();
        assert_eq!(times, vec![Value::Int(7), Value::Int(9)]);
    }

    #[test]
    fn time_capture_on_long_interval_errors() {
        let rule = parse_rule("h(T) :- p(A)@T.").unwrap();
        let db = ctx_db("p(x)@[0, 5].");
        let ctx = EvalCtx::new(
            &db,
            Interval::closed_int(0, 100),
            Interval::closed_int(0, 100),
            None,
        );
        assert!(eval_body(&rule, &ctx).is_err());
    }

    #[test]
    fn semantic_unification_joins_int_and_float() {
        let out = eval("h(A) :- p(A, S), q(A, S).", "p(x, 0)@1.\nq(x, 0.0)@1.");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn delta_eligibility_rules() {
        let read = |src: &str| {
            let rule = parse_rule(src).unwrap();
            let Literal::Pos(m) = &rule.body[0] else {
                unreachable!("a positive first literal")
            };
            delta_read(m)
        };
        assert_eq!(read("h(X) :- p(X)."), DeltaRead::Points);
        assert_eq!(read("h(X) :- boxminus p(X)."), DeltaRead::Points);
        assert_eq!(read("h(X) :- diamondminus[0, 5] p(X)."), DeltaRead::Points);
        // A box of positive length is not union-distributive.
        assert_eq!(read("h(X) :- boxminus[0, 5] p(X)."), DeltaRead::Tuples);
        assert_eq!(
            read("h(X) :- diamondminus boxplus[1, 2] p(X)."),
            DeltaRead::Tuples
        );
        assert_eq!(read("h(X) :- since(p(X), q(X))."), DeltaRead::Tuples);
    }

    #[test]
    fn expr_integer_exactness() {
        let b = Bindings::default();
        let e = crate::parser::parse_rule("h(X) :- p(Y), X = 6 / 3.").unwrap();
        drop(e);
        assert_eq!(
            eval_expr(
                &Expr::Div(Box::new(Expr::val(6i64)), Box::new(Expr::val(3i64))),
                &b
            )
            .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_expr(
                &Expr::Div(Box::new(Expr::val(7i64)), Box::new(Expr::val(2i64))),
                &b
            )
            .unwrap(),
            Value::num(3.5)
        );
        assert!(eval_expr(
            &Expr::Div(Box::new(Expr::val(1i64)), Box::new(Expr::val(0i64))),
            &b
        )
        .is_err());
    }

    #[test]
    fn indexed_probe_matches_full_scan_and_counts() {
        let mut facts = String::new();
        for i in 0..50 {
            facts.push_str(&format!("p(a{i}, {i})@{i}.\n"));
        }
        facts.push_str("q(a7)@[0, 100].");
        let rule = parse_rule("h(X, N) :- q(X), p(X, N).").unwrap();
        let db = ctx_db(&facts);
        let ctx = EvalCtx::new(
            &db,
            Interval::closed_int(0, 100),
            Interval::closed_int(0, 100),
            None,
        );
        let indexed = eval_body(&rule, &ctx).unwrap();
        // The full scan: `Database::query` walks every tuple of `p`.
        let pattern = Atom::new("p", vec![Term::Val(Value::sym("a7")), Term::var("N")]);
        let scanned = db.query(&pattern, None);
        assert_eq!(indexed.len(), 1);
        assert_eq!(indexed.len(), scanned.len());
        assert_eq!(indexed[0].0[&Symbol::new("N")], scanned[0].0[1]);
        assert_eq!(indexed[0].1.components(), scanned[0].1.components());
        // `q` (one tuple) was scanned; `p(X, N)` with X bound was probed and
        // 49 of its 50 tuples skipped.
        let counts = ctx.lookups.get();
        assert_eq!(counts.full_scans, 1);
        assert_eq!(counts.index_probes, 1);
        assert_eq!(counts.probed_tuples, 1);
        assert_eq!(counts.index_scan_avoided, 49);
    }

    #[test]
    fn since_in_body() {
        let out = eval("h(A) :- since[0, 5](p(A), q(A)).", "p(x)@[0, 10].\nq(x)@0.");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.components(), &[Interval::closed_int(0, 5)]);
    }

    #[test]
    fn top_and_bottom_literals() {
        let out = eval("h(A) :- p(A), top.", "p(x)@[0, 10].");
        assert_eq!(out.len(), 1);
        let out = eval("h(A) :- p(A), bottom.", "p(x)@[0, 10].");
        assert!(out.is_empty());
    }
}
