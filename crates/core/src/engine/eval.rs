//! Rule-body evaluation: temporal joins, operator application, stratified
//! negation, built-in constraints, and the `@T` time capture.
//!
//! A body evaluates to a set of `(binding, interval set)` pairs: the variable
//! assignments satisfying the relational/constraint part, each with the time
//! points at which the whole conjunction holds. The fixpoint never sees
//! those pairs: [`execute_heads`] unions them into one row per head tuple as
//! the last join emits them.

use crate::ast::{Atom, CmpOp, Expr, Literal, MetricAtom, Rule, Term};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use crate::intern::{self, NONE_VID};
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use chronolog_obs::{SpanGuard, SpanRecorder};
use mtl_temporal::{Interval, IntervalSet, MetricInterval};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use super::plan::{AccessPath, ConstraintMode, PlanStep, RulePlan, StepKind};
use super::pool::WorkerPool;

/// A variable assignment. Fx-hashed: binding maps are cloned once per
/// emitted tuple, which makes rehash speed a join-throughput term.
pub(crate) type Bindings = FxHashMap<Symbol, Value>;

/// Minimum accumulated bindings before `join_positive` fans the
/// per-binding work across the worker pool: below it, chunking and hand-off
/// cost more than the lookups they spread.
const PAR_FANOUT_MIN: usize = 4096;

/// Join-path counters, shared across evaluation threads (relaxed atomics:
/// these are statistics, not synchronization).
#[derive(Default, Debug)]
pub(crate) struct JoinCounters {
    /// `eval_rel` calls answered through an index probe (value, time, or
    /// both). Every `eval_rel` call bumps exactly one of `index_probes` /
    /// `full_scans`, so the two always account for every call.
    pub index_probes: AtomicU64,
    /// Tuples a probe did *not* visit compared to a full scan.
    pub index_scan_avoided: AtomicU64,
    /// `eval_rel` calls that fell back to a full relation scan (including
    /// missing-relation lookups, which scan zero tuples).
    pub full_scans: AtomicU64,
    /// Tuples visited by full scans.
    pub scanned_tuples: AtomicU64,
    /// Candidate tuples visited by index probes. Together with the other
    /// two tuple counters this partitions every lookup: per `eval_rel`
    /// call on a present relation, `scanned + probed + avoided` equals the
    /// relation's size.
    pub probed_tuples: AtomicU64,
    /// `eval_rel` calls that consulted the sorted-endpoint time index.
    pub time_index_probes: AtomicU64,
    /// Candidate tuples the time index excluded before their interval sets
    /// were clipped against the read mask.
    pub interval_clips_avoided: AtomicU64,
}

impl JoinCounters {
    fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
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
    /// Worker budget for the binding fan-out inside [`join_positive`];
    /// `1` keeps body evaluation single-threaded.
    pub threads: usize,
    /// Persistent worker pool backing the fan-out; `None` keeps body
    /// evaluation on the calling thread regardless of `threads`.
    pub pool: Option<&'a WorkerPool>,
    /// Join-path statistics sink.
    pub counters: &'a JoinCounters,
    /// Span profiler for per-step and per-chunk timing; `None` (the
    /// default) records nothing and allocates nothing.
    pub profiler: Option<&'a SpanRecorder>,
}

impl EvalCtx<'_> {
    fn horizon_set(&self) -> IntervalSet {
        IntervalSet::from_interval(self.horizon)
    }
}

/// Is this literal eligible to be the delta-restricted literal of a
/// semi-naive variant? Requires a unary operator chain over a single
/// relational atom where every box operator is punctual (box with a
/// positive-length window is not union-distributive, so reading only the
/// delta would miss derivations that combine old and new time points).
pub(crate) fn delta_eligible(lit: &Literal) -> Option<Symbol> {
    fn chain(m: &MetricAtom) -> Option<Symbol> {
        match m {
            MetricAtom::Rel(a) => Some(a.pred),
            MetricAtom::DiamondMinus(_, inner) | MetricAtom::DiamondPlus(_, inner) => chain(inner),
            MetricAtom::BoxMinus(rho, inner) | MetricAtom::BoxPlus(rho, inner) => {
                if rho.is_punctual() {
                    chain(inner)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
    match lit {
        Literal::Pos(m) => chain(m),
        _ => None,
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
    plan.note_execution();
    let acc = run_steps(rule, plan, &plan.steps, ctx, binding)?;
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
///
/// When the plan ends in a join, that join is fused with the union: each
/// matching tuple writes its head values — read from the binding and the
/// tuple's own columns — straight into the head table, so no binding map
/// is built for it and a key is allocated only for a tuple new to the
/// table. The fused step still counts its binding rows, and runs on the
/// calling thread (the binding fan-out serves the joins before it).
pub(crate) fn execute_heads(
    rule: &Rule,
    plan: &RulePlan,
    ctx: &EvalCtx<'_>,
) -> Result<Vec<(Tuple, IntervalSet)>> {
    plan.note_execution();
    let mut table = HeadTable::default();
    match plan.steps.split_last() {
        Some((last, rest)) if matches!(last.kind, StepKind::Join { .. }) => {
            let acc = run_steps(rule, plan, rest, ctx, Bindings::default())?;
            if acc.is_empty() {
                return Ok(vec![]);
            }
            let mut span = step_span(ctx, last);
            let Literal::Pos(m) = &rule.body[last.literal] else {
                unreachable!("join step on a non-positive literal");
            };
            let use_delta = plan.delta_literal == Some(last.literal);
            let rows = join_heads(&acc, m, ctx, use_delta, rule, &mut table)?;
            last.note_actual(rows);
            if let Some(s) = span.as_mut() {
                s.add("rows", rows as u64);
            }
        }
        _ => {
            let mut values = Vec::with_capacity(rule.head.atom.args.len());
            for (b, ivs) in run_steps(rule, plan, &plan.steps, ctx, Bindings::default())? {
                if ivs.is_empty() {
                    continue;
                }
                head_values(rule, |x| b.get(&x).copied(), &mut values)?;
                table.add(&values, ivs);
            }
        }
    }
    Ok(table.into_sorted())
}

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

    fn into_sorted(self) -> Vec<(Tuple, IntervalSet)> {
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
/// read mask, and constraints run in their statically scheduled modes. An
/// unschedulable-constraint step raises [`Error::Unsafe`] when reached.
fn run_steps(
    rule: &Rule,
    plan: &RulePlan,
    steps: &[PlanStep],
    ctx: &EvalCtx<'_>,
    binding: Bindings,
) -> Result<Vec<(Bindings, IntervalSet)>> {
    let mut acc: Vec<(Bindings, IntervalSet)> = vec![(binding, ctx.horizon_set())];
    for step in steps {
        let mut span = step_span(ctx, step);
        match &step.kind {
            StepKind::Join { .. } => {
                let Literal::Pos(m) = &rule.body[step.literal] else {
                    unreachable!("join step on a non-positive literal");
                };
                let use_delta = plan.delta_literal == Some(step.literal);
                acc = join_positive(acc, m, ctx, use_delta)?;
            }
            StepKind::Constraint { mode: Some(mode) } => {
                let Literal::Constraint(lhs, op, rhs) = &rule.body[step.literal] else {
                    unreachable!("constraint step on a non-constraint literal");
                };
                acc = apply_constraint(acc, lhs, *op, rhs, *mode)?;
            }
            StepKind::Constraint { mode: None } => {
                return Err(Error::Unsafe(format!(
                    "constraint `{}` could not be scheduled (unbound variable)",
                    rule.body[step.literal]
                )));
            }
            StepKind::Negation => {
                let Literal::Neg(m) = &rule.body[step.literal] else {
                    unreachable!("negation step on a non-negated literal");
                };
                acc = apply_negation(acc, m, ctx)?;
            }
        }
        step.note_actual(acc.len());
        if let Some(s) = span.as_mut() {
            s.add("rows", acc.len() as u64);
        }
        // An empty accumulator is absorbing for every remaining step
        // except the unschedulable-constraint error.
        if acc.is_empty() && matches!(step.kind, StepKind::Join { .. }) && !plan.has_unschedulable {
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

/// Joins the accumulator with a positive metric atom. The accumulated
/// interval hull is pushed down as a read mask: only the time window that
/// can still contribute is pulled out of (possibly huge) base relations.
///
/// Skewed rules accumulate thousands of bindings before a join; with
/// `ctx.threads > 1` and at least [`PAR_FANOUT_MIN`] of them, the
/// per-binding work is fanned across the persistent worker pool in
/// contiguous chunks and re-concatenated in chunk order, so the output is
/// identical to the sequential pass.
fn join_positive(
    acc: Vec<(Bindings, IntervalSet)>,
    m: &MetricAtom,
    ctx: &EvalCtx<'_>,
    use_delta: bool,
) -> Result<Vec<(Bindings, IntervalSet)>> {
    if let (Some(pool), true) = (ctx.pool, ctx.threads > 1 && acc.len() >= PAR_FANOUT_MIN) {
        let chunk_size = acc.len().div_ceil(ctx.threads);
        let chunks: Vec<&[(Bindings, IntervalSet)]> = acc.chunks(chunk_size).collect();
        let run = pool.run(chunks.len(), |i| {
            // On a worker lane: probe spans land on the worker's own track.
            let mut chunk_span = ctx.profiler.map(|p| {
                let mut s = p.span("join chunk");
                s.add("bindings", chunks[i].len() as u64);
                s
            });
            let r = join_chunk(chunks[i], m, ctx, use_delta);
            if let (Some(s), Ok(rows)) = (chunk_span.as_mut(), &r) {
                s.add("rows", rows.len() as u64);
            }
            r
        });
        let mut out = Vec::new();
        for r in run.results {
            out.extend(r?);
        }
        Ok(out)
    } else {
        join_chunk(&acc, m, ctx, use_delta)
    }
}

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
/// head tuple, on the calling thread. Returns the binding rows the join
/// made.
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
        MetricAtom::Since(m1, rho, m2) => {
            debug_assert!(!use_delta, "delta never designates multi-atom literals");
            for (b1, iv1) in eval_matom(m1, ctx, false, binding)? {
                for (b2, iv2) in eval_matom(m2, ctx, false, &b1)? {
                    let s = iv1.since(&iv2, rho);
                    if !s.is_empty() {
                        emit(&Hit::of(&b2), s)?;
                    }
                }
            }
            // `since` can also fire from M2 alone when 0 ∈ ρ even if M1 has
            // no matching tuples; cover the empty-M1 case explicitly.
            if rho.as_interval().contains(mtl_temporal::Rational::ZERO) {
                for (b2, iv2) in eval_matom(m2, ctx, false, binding)? {
                    let s = IntervalSet::new().since(&iv2, rho);
                    if !s.is_empty() {
                        emit(&Hit::of(&b2), s)?;
                    }
                }
            }
            Ok(())
        }
        MetricAtom::Until(m1, rho, m2) => {
            debug_assert!(!use_delta, "delta never designates multi-atom literals");
            for (b1, iv1) in eval_matom(m1, ctx, false, binding)? {
                for (b2, iv2) in eval_matom(m2, ctx, false, &b1)? {
                    let s = iv1.until(&iv2, rho);
                    if !s.is_empty() {
                        emit(&Hit::of(&b2), s)?;
                    }
                }
            }
            if rho.as_interval().contains(mtl_temporal::Rational::ZERO) {
                for (b2, iv2) in eval_matom(m2, ctx, false, binding)? {
                    let s = IntervalSet::new().until(&iv2, rho);
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
        JoinCounters::bump(&ctx.counters.full_scans, 1);
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
            JoinCounters::bump(&ctx.counters.full_scans, 1);
            JoinCounters::bump(&ctx.counters.scanned_tuples, rel.len() as u64);
            None
        }
        AccessPath::ValueProbe => {
            rel.probe_into(&scr.ground, &mut scr.value);
            Some(&scr.value)
        }
        AccessPath::TimeProbe => {
            let w = mask.as_ref().expect("a time probe implies a mask");
            rel.probe_time_into(w, &mut scr.time);
            JoinCounters::bump(&ctx.counters.time_index_probes, 1);
            JoinCounters::bump(
                &ctx.counters.interval_clips_avoided,
                (rel.len() - scr.time.len()) as u64,
            );
            Some(&scr.time)
        }
        AccessPath::ValueTimeProbe => {
            rel.probe_into(&scr.ground, &mut scr.value);
            if scr.value.len() <= rel.len() / 8 {
                // A small (or empty) value bucket: clipping a handful
                // of candidates directly is cheaper than walking the
                // time index's window range (which costs a sort of
                // every overlapping id); skipping also means an empty
                // bucket neither builds the time index nor re-counts
                // its pending tail against the clip counters.
                Some(&scr.value)
            } else {
                let w = mask.as_ref().expect("a time probe implies a mask");
                rel.probe_time_into(w, &mut scr.time);
                JoinCounters::bump(&ctx.counters.time_index_probes, 1);
                intersect_sorted_into(&scr.value, &scr.time, &mut scr.both);
                JoinCounters::bump(
                    &ctx.counters.interval_clips_avoided,
                    (scr.value.len() - scr.both.len()) as u64,
                );
                Some(&scr.both)
            }
        }
    };
    if let Some(c) = candidates {
        JoinCounters::bump(&ctx.counters.index_probes, 1);
        JoinCounters::bump(&ctx.counters.probed_tuples, c.len() as u64);
        JoinCounters::bump(
            &ctx.counters.index_scan_avoided,
            (rel.len() - c.len()) as u64,
        );
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
        let plan = build_plan(rule, None, &HashSet::new());
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
        let counters = JoinCounters::default();
        let ctx = EvalCtx {
            total: &db,
            delta: None,
            horizon: Interval::closed_int(0, 100),
            top: Interval::closed_int(0, 100),
            threads: 1,
            pool: None,
            counters: &counters,
            profiler: None,
        };
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
        let counters = JoinCounters::default();
        let ctx = EvalCtx {
            total: &db,
            delta: None,
            horizon: Interval::closed_int(0, 100),
            top: Interval::closed_int(0, 100),
            threads: 1,
            pool: None,
            counters: &counters,
            profiler: None,
        };
        assert!(eval_body(&rule, &ctx).is_err());
    }

    #[test]
    fn semantic_unification_joins_int_and_float() {
        let out = eval("h(A) :- p(A, S), q(A, S).", "p(x, 0)@1.\nq(x, 0.0)@1.");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn delta_eligibility_rules() {
        assert!(delta_eligible(&parse_rule("h(X) :- p(X).").unwrap().body[0]).is_some());
        assert!(delta_eligible(&parse_rule("h(X) :- boxminus p(X).").unwrap().body[0]).is_some());
        assert!(
            delta_eligible(&parse_rule("h(X) :- diamondminus[0, 5] p(X).").unwrap().body[0])
                .is_some()
        );
        // non-punctual box is not union-distributive
        assert!(
            delta_eligible(&parse_rule("h(X) :- boxminus[0, 5] p(X).").unwrap().body[0]).is_none()
        );
        assert!(
            delta_eligible(&parse_rule("h(X) :- since(p(X), q(X)).").unwrap().body[0]).is_none()
        );
        assert!(delta_eligible(&parse_rule("h(X) :- p(X), not q(X).").unwrap().body[1]).is_none());
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
        let counters = JoinCounters::default();
        let ctx = EvalCtx {
            total: &db,
            delta: None,
            horizon: Interval::closed_int(0, 100),
            top: Interval::closed_int(0, 100),
            threads: 1,
            pool: None,
            counters: &counters,
            profiler: None,
        };
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
        assert_eq!(counters.full_scans.load(Ordering::Relaxed), 1);
        assert_eq!(counters.index_probes.load(Ordering::Relaxed), 1);
        assert_eq!(counters.probed_tuples.load(Ordering::Relaxed), 1);
        assert_eq!(counters.index_scan_avoided.load(Ordering::Relaxed), 49);
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
