//! Physical plans: each rule body is compiled — once per cardinality
//! fingerprint, cached on the reasoner — into an ordered list of
//! [`PlanStep`]s that the executor runs.
//!
//! A plan fixes two decisions, and labels a third:
//!
//! 1. **Join order.** The delta-restricted literal always goes first (that is
//!    what makes semi-naive evaluation pay off); the remaining positive
//!    literals are ordered greedily by estimated output rows. Ties break
//!    toward textual order, so a plan built with no cardinality information
//!    ([`NoCardinalities`](crate::engine::cost::NoCardinalities)) keeps the
//!    textual order.
//! 2. **Constraint scheduling.** Constraints are batched after the join that
//!    binds their variables, statically from the rule text alone. A
//!    constraint whose variables can never be bound compiles to an explicit
//!    unschedulable step that raises [`Error::Unsafe`](crate::Error::Unsafe)
//!    when reached — even behind an empty accumulator.
//! 3. **Access path (a label).** The executor picks scan / value probe /
//!    time probe / both per lookup, from what it observes at that moment,
//!    through [`AccessPath::choose`]. The planner calls the same function on
//!    its plan-time cardinalities only to label each join step for
//!    `--explain-plans` and the stats-json `access_path` field. Composite
//!    (`since` / `until`) steps resolve per leaf and are labelled `scan`.
//!
//! Plans are cheap to build (linear passes over the body) and are cached
//! under a [`fingerprint`] over coarse (power-of-two bucketed) relation
//! sizes, so the stratum loop only plans when a relation crosses into a
//! magnitude combination it has not met before, not on every delta tick. On
//! top of that fingerprint gate the stratum loop *forces* a replan when a
//! plan's observed rows drift a sustained factor from its estimate (see
//! [`RulePlan::observed_error`]), feeding per-literal correction factors
//! back into [`build_plan`] — the self-tuning loop described in
//! `docs/PERFORMANCE.md`.

use crate::ast::{CmpOp, Expr, Literal, MetricAtom, Rule, Term};
use crate::engine::cost::{estimate_rows, size_bucket, CardinalitySource};
use crate::symbol::Symbol;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Relations smaller than this are scanned directly: probing (and possibly
/// building) an index costs more than walking a handful of tuples. Sits on
/// a [`size_bucket`] edge, so every size sharing a plan's fingerprint is on
/// the same side of it.
pub(crate) const INDEX_MIN_TUPLES: usize = 8;

/// How a lookup reaches a relation's tuples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AccessPath {
    /// Full relation scan (small relation, or no usable index).
    Scan,
    /// Value-index probe on the most selective ground position.
    ValueProbe,
    /// Sorted-endpoint time-index probe on the read mask.
    TimeProbe,
    /// Value probe intersected with a time probe.
    ValueTimeProbe,
}

impl AccessPath {
    /// The one access-path decision: what a lookup over `len` stored tuples
    /// does given whether any argument position is ground and whether a read
    /// mask restricts the time window. `eval_rel` calls it on what it
    /// observes at lookup time; the planner calls it on plan-time
    /// cardinalities to label the step.
    pub(crate) fn choose(len: usize, any_ground: bool, masked: bool) -> AccessPath {
        if len < INDEX_MIN_TUPLES {
            return AccessPath::Scan;
        }
        match (any_ground, masked) {
            (false, false) => AccessPath::Scan,
            (true, false) => AccessPath::ValueProbe,
            (false, true) => AccessPath::TimeProbe,
            (true, true) => AccessPath::ValueTimeProbe,
        }
    }

    pub(crate) fn tag(self) -> &'static str {
        match self {
            AccessPath::Scan => "scan",
            AccessPath::ValueProbe => "value-probe",
            AccessPath::TimeProbe => "time-probe",
            AccessPath::ValueTimeProbe => "value+time-probe",
        }
    }
}

/// How a scheduled constraint executes: the planner decides the mode
/// statically, the executor applies it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum ConstraintMode {
    /// All variables bound: evaluate and filter.
    Filter,
    /// `X = expr` with X unbound: bind X (left side).
    AssignLeft,
    /// `expr = X` with X unbound: bind X (right side).
    AssignRight,
}

/// One executable step of a rule-body plan.
#[derive(Debug)]
pub(crate) enum StepKind {
    /// Join the accumulator with the positive literal.
    Join { access: AccessPath },
    /// Subtract the negated literal's intervals.
    Negation,
    /// Apply a constraint in the scheduled mode; `None` means the
    /// constraint can never be scheduled and executing it is an error.
    Constraint { mode: Option<ConstraintMode> },
}

/// A plan step: which body literal to process, how, and what the planner
/// expected it to produce. `actual_rows` accumulates accumulator sizes
/// observed at execution time (relaxed: statistics, not synchronization).
#[derive(Debug)]
pub(crate) struct PlanStep {
    /// Index into `rule.body`.
    pub literal: usize,
    pub kind: StepKind,
    /// Estimated accumulator rows after this step, per plan build. Only
    /// meaningful for join steps; filters and negations carry `0`.
    pub est_rows: u64,
    /// Total accumulator rows observed after this step across executions.
    pub actual_rows: AtomicU64,
}

impl PlanStep {
    pub(crate) fn note_actual(&self, rows: usize) {
        self.actual_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }
}

/// A compiled rule body: ordered steps plus the metadata the stratum loop
/// needs to decide when the plan has gone stale.
#[derive(Debug)]
pub(crate) struct RulePlan {
    /// The delta-restricted literal of this semi-naive variant, if any.
    pub delta_literal: Option<usize>,
    pub steps: Vec<PlanStep>,
    /// Product of the join steps' row estimates: the planner's guess at
    /// total bindings flowing out of the join pipeline.
    pub est_total: u64,
    /// `true` iff cost-based ordering chose a join order different from
    /// the delta-first textual order.
    pub reordered: bool,
    /// `true` iff some constraint can never be scheduled; executing the
    /// plan then raises [`Unsafe`](crate::Error::Unsafe) instead of
    /// silently returning an empty result.
    pub has_unschedulable: bool,
    /// Misestimate correction factors applied to this build, as
    /// `(literal index, factor)` pairs — empty until runtime feedback has
    /// forced a replan of this variant. Surfaced by `--explain-plans` and
    /// the stats-json `planner.plans[].corrections` field.
    pub corrections: Vec<(usize, f64)>,
    /// Times this plan has been executed (relaxed: statistics). Divides
    /// the steps' accumulated `actual_rows` back into per-execution
    /// averages for the misestimate report.
    pub executions: AtomicU64,
}

/// A reading of a plan's execution counters: `executions`, and per step the
/// accumulated `actual_rows`. Plans are shared and keep counting; a reading
/// does not.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanCounts {
    pub executions: u64,
    pub step_rows: Vec<u64>,
}

impl PlanCounts {
    /// `self += later − earlier`: what the plan did between two readings.
    pub(crate) fn add_since(&mut self, later: &PlanCounts, earlier: &PlanCounts) {
        self.executions += later.executions - earlier.executions;
        self.step_rows.resize(later.step_rows.len(), 0);
        for (i, rows) in self.step_rows.iter_mut().enumerate() {
            *rows += later.step_rows[i] - earlier.step_rows[i];
        }
    }
}

impl RulePlan {
    pub(crate) fn note_execution(&self) {
        self.executions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn counts(&self) -> PlanCounts {
        PlanCounts {
            executions: self.executions.load(Ordering::Relaxed),
            step_rows: self
                .steps
                .iter()
                .map(|s| s.actual_rows.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// The plan's observed symmetric error factor — how far the average
    /// bindings out of the join pipeline sit from `est_total`, as a ratio
    /// `>= 1` — together with the execution count it was averaged over.
    /// `None` until the plan has executed (or when it has no join steps).
    /// The `+1` smoothing matches `RunStats::plan_feedback`, so the replan
    /// trigger and the misestimate report agree on what "off" means.
    pub(crate) fn observed_error(&self) -> Option<(f64, u64)> {
        let execs = self.executions.load(Ordering::Relaxed);
        if execs == 0 {
            return None;
        }
        let last_join = self
            .steps
            .iter()
            .rev()
            .find(|s| matches!(s.kind, StepKind::Join { .. }))?;
        let avg = last_join.actual_rows.load(Ordering::Relaxed) as f64 / execs as f64;
        let f = (avg + 1.0) / (self.est_total as f64 + 1.0);
        Some((f.max(1.0 / f), execs))
    }

    /// Per-literal correction factors learned from this plan's execution
    /// history, blended into `prior` (the factors this plan was built
    /// with): for each join step, the incremental drift of the observed
    /// cumulative row count against the estimated one is attributed to that
    /// step's literal, then geometrically averaged with the prior factor so
    /// one noisy window cannot whipsaw the estimates. Factors are clamped
    /// to `[1/1024, 1024]`; the product over all join steps reproduces the
    /// plan-level drift [`RulePlan::observed_error`] reports.
    pub(crate) fn corrected_factors(&self, prior: &[(usize, f64)]) -> Vec<(usize, f64)> {
        let execs = self.executions.load(Ordering::Relaxed);
        if execs == 0 {
            return prior.to_vec();
        }
        let mut out: Vec<(usize, f64)> = Vec::new();
        let mut cum_est: f64 = 1.0;
        let mut prev_ratio: f64 = 1.0;
        for step in &self.steps {
            let StepKind::Join { .. } = step.kind else {
                continue;
            };
            cum_est *= step.est_rows as f64;
            let avg = step.actual_rows.load(Ordering::Relaxed) as f64 / execs as f64;
            let ratio = (avg + 1.0) / (cum_est + 1.0);
            let drift = ratio / prev_ratio;
            prev_ratio = ratio;
            let old = prior
                .iter()
                .find(|(l, _)| *l == step.literal)
                .map_or(1.0, |&(_, c)| c);
            // `est_rows` already carries `old`, so the residual drift moves
            // the factor toward `old * drift`; the geometric mean with the
            // current factor halves the step (in log space) for damping.
            let blended = (old * drift.sqrt()).clamp(1.0 / 1024.0, 1024.0);
            out.push((step.literal, blended));
        }
        out
    }
}

/// Hash over the body's predicates and power-of-two-bucketed relation
/// sizes (total, plus delta for the delta literal). Stable across runs —
/// `DefaultHasher` with default keys is deterministic — and intentionally
/// coarse: a plan is only invalidated when a relation crosses a magnitude
/// boundary, not on every single-tuple change.
pub(crate) fn fingerprint(
    rule: &Rule,
    delta_literal: Option<usize>,
    cards: &dyn CardinalitySource,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (i, lit) in rule.body.iter().enumerate() {
        if let Literal::Pos(m) = lit {
            for a in m.atoms() {
                a.pred.hash(&mut h);
                size_bucket(cards.relation_size(a.pred)).hash(&mut h);
                if delta_literal == Some(i) {
                    size_bucket(cards.delta_size(a.pred)).hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

/// Estimated rows a positive literal produces per outer binding, given the
/// variables already bound. Single-atom operator chains estimate from the
/// base relation's size and the selectivity of its ground positions;
/// composite atoms (`since`/`until`) fall back to the sum of their base
/// relation sizes; `⊤` is one row, `⊥` none.
fn est_positive(
    m: &MetricAtom,
    is_delta: bool,
    bound: &HashSet<Symbol>,
    cards: &dyn CardinalitySource,
) -> u64 {
    let atoms = m.atoms();
    match atoms.as_slice() {
        [] => u64::from(!matches!(m, MetricAtom::Bottom)),
        [a] => {
            let size = if is_delta {
                cards.delta_size(a.pred)
            } else {
                cards.relation_size(a.pred)
            };
            let bound_positions: Vec<usize> = a
                .args
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t {
                    Term::Val(_) => Some(i),
                    Term::Var(x) => bound.contains(x).then_some(i),
                })
                .collect();
            estimate_rows(cards, a.pred, size, &bound_positions)
        }
        many => many
            .iter()
            .map(|a| cards.relation_size(a.pred) as u64)
            .sum(),
    }
}

/// The access-path label of a join step: [`AccessPath::choose`] on the
/// plan-time size, with a read mask assumed (joins after the first always
/// carry a hull mask, and the first carries the horizon).
fn access_for(
    m: &MetricAtom,
    is_delta: bool,
    bound: &HashSet<Symbol>,
    cards: &dyn CardinalitySource,
) -> AccessPath {
    let atoms = m.atoms();
    let [a] = atoms.as_slice() else {
        return AccessPath::Scan;
    };
    let size = if is_delta {
        cards.delta_size(a.pred)
    } else {
        cards.relation_size(a.pred)
    };
    let any_ground = a.args.iter().any(|t| match t {
        Term::Val(_) => true,
        Term::Var(x) => bound.contains(x),
    });
    AccessPath::choose(size, any_ground, true)
}

/// Scheduling mode for a constraint under a set of bound variables, or
/// `None` when it cannot run yet.
fn constraint_mode(
    lhs: &Expr,
    op: CmpOp,
    rhs: &Expr,
    bound: &HashSet<Symbol>,
) -> Option<ConstraintMode> {
    let lv = lhs.variables();
    let rv = rhs.variables();
    let l_bound = lv.iter().all(|v| bound.contains(v));
    let r_bound = rv.iter().all(|v| bound.contains(v));
    if l_bound && r_bound {
        return Some(ConstraintMode::Filter);
    }
    if op == CmpOp::Eq {
        if let Expr::Term(Term::Var(v)) = lhs {
            if !bound.contains(v) && r_bound {
                return Some(ConstraintMode::AssignLeft);
            }
        }
        if let Expr::Term(Term::Var(v)) = rhs {
            if !bound.contains(v) && l_bound {
                return Some(ConstraintMode::AssignRight);
            }
        }
    }
    None
}

/// Appends every not-yet-planned constraint that is schedulable under the
/// current bound set, repeating in passes: within one pass the bound set
/// is frozen, so an assignment only enables later constraints from the
/// next pass on.
fn schedule_constraints(
    rule: &Rule,
    done: &mut [bool],
    bound: &mut HashSet<Symbol>,
    steps: &mut Vec<PlanStep>,
) {
    loop {
        let mut progressed = false;
        let mut newly_bound: Vec<Symbol> = Vec::new();
        #[allow(clippy::needless_range_loop)] // index drives both body and done
        for i in 0..rule.body.len() {
            if done[i] {
                continue;
            }
            if let Literal::Constraint(lhs, op, rhs) = &rule.body[i] {
                if let Some(mode) = constraint_mode(lhs, *op, rhs, bound) {
                    match (mode, lhs, rhs) {
                        (ConstraintMode::AssignLeft, Expr::Term(Term::Var(x)), _)
                        | (ConstraintMode::AssignRight, _, Expr::Term(Term::Var(x))) => {
                            newly_bound.push(*x);
                        }
                        _ => {}
                    }
                    steps.push(PlanStep {
                        literal: i,
                        kind: StepKind::Constraint { mode: Some(mode) },
                        est_rows: 0,
                        actual_rows: AtomicU64::new(0),
                    });
                    done[i] = true;
                    progressed = true;
                }
            }
        }
        bound.extend(newly_bound);
        if !progressed {
            return;
        }
    }
}

/// Multiplies a literal's row estimate by its learned correction factor
/// (identity when no feedback has been recorded for it). A zero estimate
/// stays zero — corrections scale what the cost model believes, they do
/// not resurrect empty relations — and a corrected non-zero estimate stays
/// at least 1 so ordering comparisons keep their sign.
fn corrected(est: u64, literal: usize, corrections: &[(usize, f64)]) -> u64 {
    if est == 0 {
        return 0;
    }
    match corrections.iter().find(|(l, _)| *l == literal) {
        Some(&(_, c)) => ((est as f64 * c).round()).max(1.0) as u64,
        None => est,
    }
}

/// Compiles one rule body (for one semi-naive variant) into a plan.
///
/// `corrections` holds per-literal misestimate correction factors for this
/// rule (from [`RulePlan::corrected_factors`] of the variant's previous
/// incarnation); pass an empty slice for a cold build.
pub(crate) fn build_plan(
    rule: &Rule,
    delta_literal: Option<usize>,
    cards: &dyn CardinalitySource,
    corrections: &[(usize, f64)],
) -> RulePlan {
    let n = rule.body.len();
    let positives: Vec<usize> = (0..n)
        .filter(|&i| matches!(rule.body[i], Literal::Pos(_)))
        .collect();

    // The baseline order: delta first, then textual order.
    let base_order: Vec<usize> = match delta_literal {
        Some(d) => std::iter::once(d)
            .chain(positives.iter().copied().filter(|&i| i != d))
            .collect(),
        None => positives.clone(),
    };

    let join_order: Vec<usize> = if positives.len() <= 1 {
        base_order.clone()
    } else {
        // Greedy: repeatedly pick the cheapest remaining literal under the
        // variables bound so far. Strict `<` breaks ties toward the lowest
        // literal index, so equal estimates reproduce the base order.
        let mut order = Vec::with_capacity(positives.len());
        let mut bound: HashSet<Symbol> = HashSet::new();
        let mut remaining = positives.clone();
        if let Some(d) = delta_literal {
            order.push(d);
            remaining.retain(|&i| i != d);
            if let Literal::Pos(m) = &rule.body[d] {
                bound.extend(m.variables());
            }
        }
        while !remaining.is_empty() {
            let mut best = 0usize;
            let mut best_est = u64::MAX;
            for (k, &i) in remaining.iter().enumerate() {
                let Literal::Pos(m) = &rule.body[i] else {
                    unreachable!("positives contains only positive literals");
                };
                let est = corrected(est_positive(m, false, &bound, cards), i, corrections);
                if est < best_est {
                    best_est = est;
                    best = k;
                }
            }
            let i = remaining.remove(best);
            order.push(i);
            if let Literal::Pos(m) = &rule.body[i] {
                bound.extend(m.variables());
            }
        }
        order
    };
    let reordered = join_order != base_order;

    let mut steps: Vec<PlanStep> = Vec::with_capacity(n);
    let mut done = vec![false; n];
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut est_total: u64 = 1;

    for &i in &join_order {
        let Literal::Pos(m) = &rule.body[i] else {
            unreachable!("join order contains only positive literals");
        };
        let is_delta = delta_literal == Some(i);
        let est = corrected(est_positive(m, is_delta, &bound, cards), i, corrections);
        est_total = est_total.saturating_mul(est);
        steps.push(PlanStep {
            literal: i,
            kind: StepKind::Join {
                access: access_for(m, is_delta, &bound, cards),
            },
            est_rows: est,
            actual_rows: AtomicU64::new(0),
        });
        done[i] = true;
        bound.extend(m.variables());
        schedule_constraints(rule, &mut done, &mut bound, &mut steps);
    }
    // Trailing pass: assignment chains in positive-free rules.
    schedule_constraints(rule, &mut done, &mut bound, &mut steps);

    // Remaining literals in textual order: negations, then any constraint
    // that never became schedulable (an explicit error step).
    let mut has_unschedulable = false;
    #[allow(clippy::needless_range_loop)] // index drives both body and done
    for i in 0..n {
        if done[i] {
            continue;
        }
        match &rule.body[i] {
            Literal::Neg(_) => steps.push(PlanStep {
                literal: i,
                kind: StepKind::Negation,
                est_rows: 0,
                actual_rows: AtomicU64::new(0),
            }),
            Literal::Constraint(..) => {
                has_unschedulable = true;
                steps.push(PlanStep {
                    literal: i,
                    kind: StepKind::Constraint { mode: None },
                    est_rows: 0,
                    actual_rows: AtomicU64::new(0),
                });
            }
            Literal::Pos(_) => unreachable!("planned in the join loop"),
        }
    }

    // Only corrections for literals this variant actually joins are carried
    // (a factor learned for a literal that became a negation-only variant
    // would be noise in the explain output).
    let applied: Vec<(usize, f64)> = corrections
        .iter()
        .copied()
        .filter(|(l, _)| {
            steps
                .iter()
                .any(|s| s.literal == *l && matches!(s.kind, StepKind::Join { .. }))
        })
        .collect();

    RulePlan {
        delta_literal,
        steps,
        est_total,
        reordered,
        has_unschedulable,
        corrections: applied,
        executions: AtomicU64::new(0),
    }
}

/// A rendered plan for one rule variant: what `--explain-plans` prints and
/// what the stats-json `planner.plans` array carries.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanExplain {
    /// Rule index in the program.
    pub rule: usize,
    /// Rule label (or `r{idx}`).
    pub label: String,
    /// Delta-restricted literal of this semi-naive variant, if any.
    pub delta_literal: Option<usize>,
    /// Whether cost-based ordering changed the join order.
    pub reordered: bool,
    /// Estimated bindings out of the join pipeline.
    pub est_rows: u64,
    /// Times this plan executed.
    pub executions: u64,
    /// Accumulated bindings out of the join pipeline across executions
    /// (the last join step's observed accumulator total; equals
    /// `executions` seed rows for join-free plans).
    pub actual_rows: u64,
    /// Misestimate correction factors this build applied, as
    /// `(literal index, factor)` pairs (empty until adaptive feedback has
    /// forced a replan of this variant).
    pub corrections: Vec<(usize, f64)>,
    /// Steps in execution order.
    pub steps: Vec<PlanStepExplain>,
}

/// One rendered plan step.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanStepExplain {
    /// Human-readable step description, e.g. `join Δprice(S, P)`.
    pub desc: String,
    /// The planner's access-path label for join steps (`scan`,
    /// `value-probe`, `time-probe`, `value+time-probe`); `-` for
    /// constraints and negations.
    pub access: &'static str,
    /// Estimated rows after this step (join steps only; else 0).
    pub est_rows: u64,
    /// Accumulated rows observed after this step across executions.
    pub actual_rows: u64,
}

/// Renders a plan for explain output / stats-json, with the execution and
/// row counts of `counts` (a reading of `plan`'s counters, or a difference
/// of two).
pub(crate) fn explain(
    rule_idx: usize,
    label: &str,
    rule: &Rule,
    plan: &RulePlan,
    counts: &PlanCounts,
) -> PlanExplain {
    let steps = plan
        .steps
        .iter()
        .zip(&counts.step_rows)
        .map(|(s, &actual_rows)| {
            let lit = &rule.body[s.literal];
            let (desc, access) = match &s.kind {
                StepKind::Join { access } => {
                    let delta = if plan.delta_literal == Some(s.literal) {
                        "Δ"
                    } else {
                        ""
                    };
                    (format!("join {delta}{lit}"), access.tag())
                }
                StepKind::Negation => (format!("negate {lit}"), "-"),
                StepKind::Constraint { mode: Some(m) } => (
                    match m {
                        ConstraintMode::Filter => format!("filter {lit}"),
                        ConstraintMode::AssignLeft | ConstraintMode::AssignRight => {
                            format!("assign {lit}")
                        }
                    },
                    "-",
                ),
                StepKind::Constraint { mode: None } => (format!("unschedulable {lit}"), "-"),
            };
            PlanStepExplain {
                desc,
                access,
                est_rows: s.est_rows,
                actual_rows,
            }
        })
        .collect();
    let executions = counts.executions;
    // Bindings out of the join pipeline: the accumulated rows after the
    // last join step. A join-free plan seeds one row per execution.
    let actual_rows = plan
        .steps
        .iter()
        .zip(&counts.step_rows)
        .rev()
        .find(|(s, _)| matches!(s.kind, StepKind::Join { .. }))
        .map_or(executions, |(_, &rows)| rows);
    PlanExplain {
        rule: rule_idx,
        label: label.to_string(),
        delta_literal: plan.delta_literal,
        reordered: plan.reordered,
        est_rows: plan.est_total,
        executions,
        actual_rows,
        corrections: plan.corrections.clone(),
        steps,
    }
}
