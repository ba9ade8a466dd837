//! Physical plans: each `(rule, delta literal)` variant of a rule body is
//! compiled once, when the [`Reasoner`](crate::Reasoner) is built, into an
//! ordered list of [`PlanStep`]s that the executor runs.
//!
//! A plan is a function of the program text alone. It fixes two decisions,
//! and labels a third:
//!
//! 1. **Join order.** The delta-restricted literal always goes first (that is
//!    what makes semi-naive evaluation pay off); then, repeatedly, the
//!    remaining positive literal with the smallest [`JoinKey`]: one with a
//!    ground argument position before one without, an event-like predicate
//!    before a *persisted* one ([`persisted_predicates`]), more ground
//!    positions before fewer, and textual order last. Composite
//!    (`since` / `until`) atoms, `⊤` and `⊥` go after every single-atom
//!    literal. A rule author who wants a different order writes the body
//!    in that order.
//! 2. **Constraint scheduling.** Constraints are batched after the join that
//!    binds their variables. Only rules that passed
//!    [`check_program`](crate::analysis::check_program) are planned, and it
//!    rejects a constraint whose variables can never be bound by the same
//!    assignment closure, so every constraint is scheduled.
//! 3. **Access path (a label).** The executor picks scan / value probe /
//!    time probe / both per lookup, from what it observes at that moment,
//!    through [`AccessPath::choose`]. The label a plan step carries for
//!    `--explain-plans` and the stats-json `access_path` field is the same
//!    function of boundness alone: what the executor does once the relation
//!    is large enough to index. Composite steps resolve per leaf and are
//!    labelled `scan`.
//!
//! A plan also numbers the rule's variables ([`Slots`]): the executor's
//! bindings are fixed-width rows with one slot per variable.
//!
//! A plan holds no counters, so the reasoner's plans are shared by every
//! run, thread and explanation as they are. An execution hands the rows
//! each step produced back with its result, and the fixpoint's ordered
//! merge adds them to the run's [`PlanCounts`].

use crate::ast::{CmpOp, Expr, Literal, MetricAtom, Program, Rule, Term};
use crate::database::{IndexSpec, INDEX_MIN_TUPLES};
use crate::symbol::Symbol;
use crate::value::Value;
use std::cmp::Reverse;
use std::collections::HashSet;

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
    /// observes at lookup time; the planner calls it with `len` at the
    /// index threshold to label the step.
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
    /// Apply a constraint in the scheduled mode.
    Constraint { mode: ConstraintMode },
}

/// A plan step: which body literal to process and how.
#[derive(Debug)]
pub(crate) struct PlanStep {
    /// Index into `rule.body`.
    pub literal: usize,
    pub kind: StepKind,
}

impl PlanStep {
    fn new(literal: usize, kind: StepKind) -> PlanStep {
        PlanStep { literal, kind }
    }
}

/// The numbering of a rule's variables: slot `i` of every row the executor
/// builds for the rule holds the value of `vars[i]`. Variables are numbered
/// in order of first occurrence, body literals first, then the head.
#[derive(Clone, Debug, Default)]
pub(crate) struct Slots {
    vars: Box<[Symbol]>,
    /// Slot indices in ascending variable order: the order a row's
    /// `(variable, value)` pairs sort in.
    by_var: Box<[usize]>,
}

impl Slots {
    /// Numbers every variable of `rule`.
    pub(crate) fn of(rule: &Rule) -> Slots {
        let mut vars: Vec<Symbol> = Vec::new();
        let mut note = |found: Vec<Symbol>| {
            for x in found {
                if !vars.contains(&x) {
                    vars.push(x);
                }
            }
        };
        for lit in &rule.body {
            match lit {
                Literal::Pos(m) | Literal::Neg(m) => note(m.variables()),
                Literal::Constraint(lhs, _, rhs) => {
                    note(lhs.variables());
                    note(rhs.variables());
                }
            }
        }
        note(rule.head.atom.variables());
        let mut by_var: Vec<usize> = (0..vars.len()).collect();
        by_var.sort_by_key(|&i| vars[i]);
        Slots {
            vars: vars.into(),
            by_var: by_var.into(),
        }
    }

    /// Slots per row.
    pub(crate) fn width(&self) -> usize {
        self.vars.len()
    }

    /// The slot of variable `x`. Rules have a handful of variables, so a
    /// scan beats hashing.
    pub(crate) fn slot(&self, x: Symbol) -> Option<usize> {
        self.vars.iter().position(|&v| v == x)
    }

    /// The value `x` has in `row`, if bound.
    pub(crate) fn value(&self, row: &[Option<Value>], x: Symbol) -> Option<Value> {
        self.slot(x).and_then(|s| row[s])
    }

    /// The bound `(variable, value)` pairs of `row`, in variable order.
    pub(crate) fn pairs<'r>(
        &'r self,
        row: &'r [Option<Value>],
    ) -> impl Iterator<Item = (Symbol, Value)> + 'r {
        (self.by_var.iter()).filter_map(move |&s| row[s].map(|v| (self.vars[s], v)))
    }
}

/// A compiled rule body: ordered steps. Immutable once built — what its
/// executions produced travels with their results, not in the plan.
#[derive(Debug)]
pub(crate) struct RulePlan {
    /// The delta-restricted literal of this semi-naive variant, if any.
    pub delta_literal: Option<usize>,
    pub steps: Vec<PlanStep>,
    /// The rule's variables, one row slot each.
    pub slots: Slots,
    /// `true` iff the join order differs from the delta-first textual
    /// order.
    pub reordered: bool,
}

/// What a plan's executions in one run produced: how many there were, and
/// per step the rows it produced, summed over them.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanCounts {
    pub executions: u64,
    pub step_rows: Vec<u64>,
}

impl PlanCounts {
    /// Adds one execution whose steps produced `step_rows`.
    pub(crate) fn add_execution(&mut self, step_rows: &[u64]) {
        self.executions += 1;
        self.step_rows.resize(step_rows.len(), 0);
        for (rows, more) in self.step_rows.iter_mut().zip(step_rows) {
            *rows += more;
        }
    }
}

impl RulePlan {
    /// Bindings out of the join pipeline of `executions` executions whose
    /// steps produced `step_rows` in all: the rows after the last join
    /// step. A join-free plan seeds one row per execution.
    pub(crate) fn bindings(&self, executions: u64, step_rows: &[u64]) -> u64 {
        self.steps
            .iter()
            .zip(step_rows)
            .rev()
            .find(|(s, _)| matches!(s.kind, StepKind::Join { .. }))
            .map_or(executions, |(_, &rows)| rows)
    }
}

/// The *persisted* predicates of a program: heads of a rule whose body reads
/// the same predicate through a temporal operator in a positive literal —
/// the frame / update rules (`position`, `margin`, `skew` … in the paper's
/// program). They hold on long runs, while event-like predicates (`modPos`,
/// `order`) hold at isolated points, so a join reaches the event first.
/// A property of the whole program, not of a stratum: bodies read persisted
/// predicates of lower strata.
pub(crate) fn persisted_predicates(program: &Program) -> HashSet<Symbol> {
    program
        .rules
        .iter()
        .filter(|rule| {
            rule.body.iter().any(|lit| match lit {
                Literal::Pos(MetricAtom::Rel(_)) => false,
                Literal::Pos(m) => m.atoms().iter().any(|a| a.pred == rule.head.atom.pred),
                _ => false,
            })
        })
        .map(|rule| rule.head.atom.pred)
        .collect()
}

/// Is `t` ground under `bound`: a constant, or a variable an earlier step
/// binds?
fn is_ground(t: &Term, bound: &HashSet<Symbol>) -> bool {
    t.as_var().is_none_or(|x| bound.contains(&x))
}

/// Number of argument positions of a single-atom literal that are ground
/// under `bound`; `None` for a composite (`since` / `until`) atom and for
/// `⊤` / `⊥`.
fn ground_positions(m: &MetricAtom, bound: &HashSet<Symbol>) -> Option<usize> {
    let [a] = m.atoms()[..] else { return None };
    Some(a.args.iter().filter(|t| is_ground(t, bound)).count())
}

/// Notes in `spec` the indexes a lookup of `m` under `bound` can probe: per
/// leaf atom, its ground positions. A `since` / `until` evaluates its right
/// operand with the left one's variables bound.
fn note_reads(m: &MetricAtom, bound: &HashSet<Symbol>, spec: &mut IndexSpec) {
    match m {
        MetricAtom::Top | MetricAtom::Bottom => {}
        MetricAtom::Rel(a) => {
            let positions = spec.entry(a.pred).or_default();
            for (i, t) in a.args.iter().enumerate().take(u64::BITS as usize) {
                if is_ground(t, bound) {
                    *positions |= 1 << i;
                }
            }
        }
        MetricAtom::BoxMinus(_, inner)
        | MetricAtom::BoxPlus(_, inner)
        | MetricAtom::DiamondMinus(_, inner)
        | MetricAtom::DiamondPlus(_, inner) => note_reads(inner, bound, spec),
        MetricAtom::Since(m1, _, m2) | MetricAtom::Until(m1, _, m2) => {
            note_reads(m1, bound, spec);
            let left = bound.iter().copied().chain(m1.variables()).collect();
            note_reads(m2, &left, spec);
        }
    }
}

/// What the join order sorts the remaining positive literals by, smallest
/// first: anything but a single atom last, then no ground position, then a
/// persisted predicate, then fewer ground positions, then the textual index.
type JoinKey = (bool, bool, bool, Reverse<usize>, usize);

fn join_key(
    m: &MetricAtom,
    literal: usize,
    bound: &HashSet<Symbol>,
    persisted: &HashSet<Symbol>,
) -> JoinKey {
    let ground = ground_positions(m, bound);
    (
        ground.is_none(),
        ground.unwrap_or(0) == 0,
        m.atoms().iter().any(|a| persisted.contains(&a.pred)),
        Reverse(ground.unwrap_or(0)),
        literal,
    )
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
                    steps.push(PlanStep::new(i, StepKind::Constraint { mode }));
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

/// Compiles one rule body (for one semi-naive variant) into a plan, from
/// the rule text and the program's [`persisted_predicates`] alone, and
/// notes in `spec` the indexes its joins and negations can probe. The rule
/// must have passed `check_program`.
pub(crate) fn build_plan(
    rule: &Rule,
    delta_literal: Option<usize>,
    persisted: &HashSet<Symbol>,
    spec: &mut IndexSpec,
) -> RulePlan {
    let n = rule.body.len();
    let mut remaining: Vec<(usize, &MetricAtom)> = rule
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, lit)| match lit {
            Literal::Pos(m) => Some((i, m)),
            _ => None,
        })
        .collect();
    // The baseline the `reordered` flag compares against: delta first,
    // then textual order.
    let mut base_order: Vec<usize> = remaining.iter().map(|&(i, _)| i).collect();
    base_order.sort_by_key(|&i| (delta_literal != Some(i), i));

    // The join order looks only at what the literals joined so far bind —
    // not at what a constraint scheduled between them may assign.
    let mut join_order: Vec<(usize, &MetricAtom)> = Vec::with_capacity(remaining.len());
    let mut joined: HashSet<Symbol> = HashSet::new();
    while let Some(k) = (0..remaining.len()).min_by_key(|&k| {
        let (i, m) = remaining[k];
        (delta_literal != Some(i), join_key(m, i, &joined, persisted))
    }) {
        let (i, m) = remaining.remove(k);
        joined.extend(m.variables());
        join_order.push((i, m));
    }
    let reordered = !join_order.iter().map(|&(i, _)| i).eq(base_order);

    let mut steps: Vec<PlanStep> = Vec::with_capacity(n);
    let mut done = vec![false; n];
    let mut bound: HashSet<Symbol> = HashSet::new();
    for (i, m) in join_order {
        let access = match ground_positions(m, &bound) {
            None => AccessPath::Scan,
            Some(ground) => AccessPath::choose(INDEX_MIN_TUPLES, ground > 0, true),
        };
        note_reads(m, &bound, spec);
        steps.push(PlanStep::new(i, StepKind::Join { access }));
        done[i] = true;
        bound.extend(m.variables());
        schedule_constraints(rule, &mut done, &mut bound, &mut steps);
    }
    // Trailing pass: assignment chains in positive-free rules.
    schedule_constraints(rule, &mut done, &mut bound, &mut steps);

    // Remaining literals in textual order: the negations.
    #[allow(clippy::needless_range_loop)] // index drives both body and done
    for i in 0..n {
        if done[i] {
            continue;
        }
        match &rule.body[i] {
            Literal::Neg(m) => {
                note_reads(m, &bound, spec);
                steps.push(PlanStep::new(i, StepKind::Negation));
            }
            Literal::Constraint(..) => unreachable!("check_program binds every constraint"),
            Literal::Pos(_) => unreachable!("planned in the join loop"),
        }
    }

    RulePlan {
        delta_literal,
        steps,
        reordered,
        slots: Slots::of(rule),
    }
}

/// The plan of what round 0's frame phase reads for frame rule `rule`
/// (`engine/chain.rs`): the chain literal `chain`, then the positive
/// guards, then the negated ones, in `guards` order, each read with nothing
/// bound. The phase runs no plan and applies the guards as one set per head
/// tuple; this one describes its reads, so that they declare their indexes
/// in `spec` and count as the rule's execution, the rows of each step those
/// the guards so far leave non-empty.
pub(crate) fn frame_read_plan(
    rule: &Rule,
    chain: usize,
    guards: impl Iterator<Item = usize>,
    spec: &mut IndexSpec,
) -> RulePlan {
    let unbound = HashSet::new();
    let steps = std::iter::once(chain)
        .chain(guards)
        .map(|literal| match &rule.body[literal] {
            Literal::Pos(m) => {
                note_reads(m, &unbound, spec);
                let access = match ground_positions(m, &unbound) {
                    None => AccessPath::Scan,
                    Some(ground) => AccessPath::choose(INDEX_MIN_TUPLES, ground > 0, true),
                };
                PlanStep::new(literal, StepKind::Join { access })
            }
            Literal::Neg(m) => {
                note_reads(m, &unbound, spec);
                PlanStep::new(literal, StepKind::Negation)
            }
            Literal::Constraint(..) => unreachable!("a frame rule has no constraint"),
        })
        .collect();
    RulePlan {
        delta_literal: None,
        steps,
        slots: Slots::of(rule),
        reordered: false,
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
    /// Whether the join order differs from the delta-first textual order.
    pub reordered: bool,
    /// Times this plan executed.
    pub executions: u64,
    /// Accumulated bindings out of the join pipeline across executions
    /// (the last join step's observed accumulator total; equals
    /// `executions` seed rows for join-free plans).
    pub actual_rows: u64,
    /// Steps in execution order.
    pub steps: Vec<PlanStepExplain>,
}

/// One rendered plan step.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanStepExplain {
    /// Human-readable step description, e.g. `join Δprice(S, P)`.
    pub desc: String,
    /// The access path a join step takes once its relation is large
    /// enough to index (`scan`, `time-probe`, `value+time-probe`); `-` for
    /// constraints and negations.
    pub access: &'static str,
    /// Accumulated rows observed after this step across executions.
    pub actual_rows: u64,
}

/// Renders a plan for explain output / stats-json, with the execution and
/// row counts of `counts`.
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
                StepKind::Constraint { mode } => (
                    match mode {
                        ConstraintMode::Filter => format!("filter {lit}"),
                        ConstraintMode::AssignLeft | ConstraintMode::AssignRight => {
                            format!("assign {lit}")
                        }
                    },
                    "-",
                ),
            };
            PlanStepExplain {
                desc,
                access,
                actual_rows,
            }
        })
        .collect();
    PlanExplain {
        rule: rule_idx,
        label: label.to_string(),
        delta_literal: plan.delta_literal,
        reordered: plan.reordered,
        executions: counts.executions,
        actual_rows: plan.bindings(counts.executions, &counts.step_rows),
        steps,
    }
}
