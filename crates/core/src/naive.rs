//! A brute-force DatalogMTL evaluator on the half-integer grid, used as the
//! *test oracle* for the interval-based engine.
//!
//! Scope: the **closed integer-endpoint fragment**. Every input fact holds
//! on intervals whose finite endpoints are integers — punctual,
//! non-punctual or unbounded — and every metric operator, in a body or a
//! head, carries a closed window `[a, b]` with integer bounds. Such
//! operators map sets with integer endpoints to sets with integer
//! endpoints, and so does the clip to an integer horizon, so every interval
//! of the least model has integer endpoints and truth is constant on each
//! open unit `(k, k + 1)`. The oracle therefore doubles time: cell `2k` is
//! the point `k`, cell `2k + 1` stands for the open unit `(k, k + 1)`, and
//! rules are evaluated cell by cell. On this fragment the continuous
//! rational semantics and the cell semantics coincide, so the oracle's
//! output must match the engine's *exactly*; [`grid_text`] samples an engine
//! model on the same cells, in the same format as
//! [`NaiveInterpretation::to_text`]. The ETH-PERP program of the paper lives
//! in this fragment.
//!
//! Input facts are read by containment in the input [`Database`], as the
//! engine reads them, so a fact before or after the horizon feeds a window
//! reaching over its edge; derived facts are clipped to the horizon. A
//! `@T` capture must match a punctual fact. Rational or open operator
//! bounds, unbounded windows, rational fact endpoints and a capture over a
//! non-punctual fact fail with [`Error::Eval`].
//!
//! The implementation maximizes obviousness, not speed: truth is a set of
//! `(predicate, tuple, cell)` triples and rules are evaluated by exhaustive
//! grounding at every cell until fixpoint. It shares no planning or join
//! code with the engine — only the built-in arithmetic and comparison
//! semantics (`eval_expr`, `compare`): bodies run on the oracle's own
//! schedule (positive literals in textual order, each constraint as soon as
//! it is runnable, negations last) and a relation is looked up by scanning
//! the tuples that hold at a cell, prefiltered on the first argument.

use crate::analysis::{check_program, Stratification};
use crate::ast::{AggFn, Atom, CmpOp, Expr, HeadOp, Literal, MetricAtom, Program, Rule, Term};
use crate::database::Database;
use crate::engine::{compare, eval_expr};
use crate::error::{Error, Result};
use crate::hash::{FxHashMap, FxHashSet};
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational, TimeBound};
use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;

/// A variable binding, sorted by variable: cheap to copy and to compare,
/// which is most of what a brute-force join does.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Bindings(Vec<(Symbol, Value)>);

impl Bindings {
    fn get(&self, x: &Symbol) -> Option<&Value> {
        let i = self.0.binary_search_by_key(x, |&(k, _)| k).ok()?;
        Some(&self.0[i].1)
    }

    fn contains_key(&self, x: &Symbol) -> bool {
        self.get(x).is_some()
    }

    fn insert(&mut self, x: Symbol, v: Value) {
        match self.0.binary_search_by_key(&x, |&(k, _)| k) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (x, v)),
        }
    }

    /// Evaluates a built-in expression under this binding.
    fn eval(&self, expr: &Expr) -> Result<Value> {
        eval_expr(expr, &|x| self.get(&x).copied())
    }
}

/// The time a cell stands for: the point `k` for cell `2k`, and for cell
/// `2k + 1` the midpoint of `(k, k + 1)` — on a model with integer
/// endpoints, truth there is truth on the whole open unit.
fn cell_time(cell: i64) -> Rational {
    Rational::new(cell, 2)
}

/// A cell as text: `k` for a point, `k.5` for an open unit.
fn cell_label(cell: i64) -> String {
    if cell % 2 == 0 {
        (cell / 2).to_string()
    } else {
        let sign = if cell < 0 { "-" } else { "" };
        format!("{sign}{}.5", cell.unsigned_abs() / 2)
    }
}

/// One line of [`NaiveInterpretation::to_text`] and [`grid_text`].
fn fact_line(pred: Symbol, args: impl Iterator<Item = Value>, cell: i64) -> String {
    let args = args.map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    format!("{pred}({args})@{}", cell_label(cell))
}

/// Samples an engine model on the oracle's grid over `[t_min, t_max]` — at
/// every integer `k` and every `k + ½` — as sorted lines in the format of
/// [`NaiveInterpretation::to_text`], so the two compare line for line.
pub fn grid_text(db: &Database, t_min: i64, t_max: i64) -> String {
    let mut lines = Vec::new();
    for (pred, tuple, ivs) in db.iter() {
        for cell in 2 * t_min..=2 * t_max {
            if IntervalSet::components_contain(ivs, cell_time(cell)) {
                lines.push(fact_line(
                    pred,
                    (0..tuple.len()).map(|i| tuple.value(i)),
                    cell,
                ));
            }
        }
    }
    lines.sort();
    lines.join("\n")
}

/// The key a tuple is filed under at a cell: its first argument, with
/// numbers keyed by their value so that `3` and `3.0` — equal under
/// [`Value::semantic_eq`] — share a bucket.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    None,
    Num(u64),
    Other(Value),
}

impl Key {
    fn of(first: Option<&Value>) -> Key {
        match first {
            None => Key::None,
            Some(v) => match v.as_f64() {
                Some(f) => Key::Num(if f == 0.0 { 0.0f64 } else { f }.to_bits()),
                None => Key::Other(*v),
            },
        }
    }
}

/// Brute-force interpretation on the half-integer grid.
pub struct NaiveInterpretation {
    /// Per predicate and horizon cell, the tuples that hold there, by
    /// [`Key`].
    truth: FxHashMap<Symbol, FxHashMap<i64, FxHashMap<Key, FxHashSet<Tuple>>>>,
    /// The input facts, read by containment at cells outside the horizon.
    input: HashMap<Symbol, Vec<(Tuple, Vec<Interval>)>>,
    /// The horizon's first and last cell.
    cells: RangeInclusive<i64>,
}

impl NaiveInterpretation {
    /// Does `pred(args)` hold at the integer time `t`?
    pub fn holds_at(&self, pred: &str, args: &[Value], t: i64) -> bool {
        self.tuples_at(Symbol::new(pred), 2 * t, args.first())
            .iter()
            .any(|tuple| tuples_eq(tuple, args))
    }

    /// The tuples of `pred` holding at `cell`; with `first`, at least those
    /// whose first argument is semantically equal to it.
    fn tuples_at(&self, pred: Symbol, cell: i64, first: Option<&Value>) -> Vec<&Tuple> {
        if !self.cells.contains(&cell) {
            let t = cell_time(cell);
            return self
                .input
                .get(&pred)
                .into_iter()
                .flatten()
                .filter(|(_, ivs)| IntervalSet::components_contain(ivs, t))
                .map(|(tuple, _)| tuple)
                .collect();
        }
        let Some(buckets) = self.truth.get(&pred).and_then(|m| m.get(&cell)) else {
            return Vec::new();
        };
        match first {
            Some(v) => buckets
                .get(&Key::of(Some(v)))
                .into_iter()
                .flatten()
                .collect(),
            None => buckets.values().flatten().collect(),
        }
    }

    /// Records `pred(tuple)` at `cell`; false when it held already or the
    /// cell is outside the horizon.
    fn insert(&mut self, pred: Symbol, tuple: &[Value], cell: i64) -> bool {
        if !self.cells.contains(&cell) {
            return false;
        }
        let bucket = self
            .truth
            .entry(pred)
            .or_default()
            .entry(cell)
            .or_default()
            .entry(Key::of(tuple.first()))
            .or_default();
        !bucket.contains(tuple) && bucket.insert(tuple.into())
    }

    /// All `(pred, tuple, cell)` triples, sorted, as display text — `k` for
    /// a point, `k.5` for the open unit `(k, k + 1)` — used to diff oracle
    /// and engine outputs ([`grid_text`]) in tests.
    pub fn to_text(&self) -> String {
        let mut lines = Vec::new();
        for (&p, by_cell) in &self.truth {
            for (&cell, buckets) in by_cell {
                for tuple in buckets.values().flatten() {
                    lines.push(fact_line(p, tuple.iter().copied(), cell));
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

/// Does every finite endpoint of `iv` — and every tooth of a progression —
/// fall on an integer?
fn integer_endpoints(iv: &Interval) -> bool {
    let integral = |b: TimeBound| b.finite().is_none_or(|r| r.is_integer());
    integral(iv.lo()) && integral(iv.hi()) && iv.step().is_none_or(|s| s.is_integer())
}

/// Runs the oracle over the horizon `[t_min, t_max]`, on every integer and
/// half-integer point of it.
///
/// Fails with [`Error::Eval`] when the input leaves the supported fragment
/// (rational fact endpoints; rational, open or unbounded operator windows;
/// a `@T` capture over a non-punctual fact).
pub fn naive_materialize(
    program: &Program,
    input: &Database,
    t_min: i64,
    t_max: i64,
) -> Result<NaiveInterpretation> {
    check_program(program)?;
    let strat = Stratification::compute(program)?;
    let double = |t: i64| {
        t.checked_mul(2)
            .ok_or_else(|| Error::Eval(format!("naive oracle cannot double time {t}")))
    };
    let mut interp = NaiveInterpretation {
        truth: FxHashMap::default(),
        input: HashMap::new(),
        cells: double(t_min)?..=double(t_max)?,
    };

    // Input facts: sampled on every horizon cell, and kept whole for the
    // cells outside it.
    for (pred, tuple, ivs) in input.iter() {
        if let Some(iv) = ivs.iter().find(|iv| !integer_endpoints(iv)) {
            return Err(Error::Eval(format!(
                "naive oracle requires integer fact endpoints, got {pred}@{iv}"
            )));
        }
        let tuple = tuple.to_tuple();
        for cell in interp.cells.clone() {
            if IntervalSet::components_contain(ivs, cell_time(cell)) {
                interp.insert(pred, &tuple, cell);
            }
        }
        interp
            .input
            .entry(pred)
            .or_default()
            .push((tuple, ivs.to_vec()));
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
            for cell in interp.cells.clone() {
                let mut contribs: Vec<(Vec<Value>, Value)> = Vec::new();
                for (rule, steps) in rules.iter().zip(&schedules) {
                    // One contribution per distinct body solution.
                    for b in dedup(satisfy_body(steps, &interp, cell)?) {
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
                    insert_head(&mut interp, pred, &tuple, cell, &rules[0].head.ops)?;
                }
            }
        }

        // Normal rules: exhaustive fixpoint — the stratum's rules applied at
        // every cell, pass after pass, until a whole pass derives nothing; a
        // rule that reads its own head is reapplied within a pass until it
        // derives nothing new. Schedules depend on the rule text alone, so
        // compile once per stratum.
        let schedules: Vec<Vec<Step>> =
            normal.iter().map(|r| schedule(r)).collect::<Result<_>>()?;
        loop {
            let mut changed = false;
            for (rule, steps) in normal.iter().zip(&schedules) {
                let reads_head = rule.body.iter().any(|lit| match lit {
                    Literal::Pos(m) | Literal::Neg(m) => {
                        m.atoms().iter().any(|a| a.pred == rule.head.atom.pred)
                    }
                    Literal::Constraint(..) => false,
                });
                while apply_rule(rule, steps, &mut interp)? {
                    changed = true;
                    if !reads_head {
                        break;
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

/// Evaluates a non-aggregate rule at every horizon cell and records its
/// heads; true when it derived anything new.
fn apply_rule(rule: &Rule, steps: &[Step<'_>], interp: &mut NaiveInterpretation) -> Result<bool> {
    let mut changed = false;
    let mut head = Vec::with_capacity(rule.head.atom.arity());
    for cell in interp.cells.clone() {
        for b in satisfy_body(steps, interp, cell)? {
            head.clear();
            for term in &rule.head.atom.args {
                head.push(ground(term, &b)?);
            }
            changed |= insert_head(interp, rule.head.atom.pred, &head, cell, &rule.head.ops)?;
        }
    }
    Ok(changed)
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

/// Records a head derived at `cell`: a head `⊟[a, b]` makes it hold on
/// cells `cell − 2b ..= cell − 2a`, a head `⊞[a, b]` on
/// `cell + 2a ..= cell + 2b`. Cells outside the horizon are dropped.
fn insert_head(
    interp: &mut NaiveInterpretation,
    pred: Symbol,
    tuple: &[Value],
    cell: i64,
    ops: &[HeadOp],
) -> Result<bool> {
    if ops.is_empty() {
        return Ok(interp.insert(pred, tuple, cell));
    }
    let mut cells = vec![cell];
    for op in ops {
        let mut reached = Vec::new();
        for &c in &cells {
            reached.extend(match op {
                HeadOp::BoxMinus(rho) => past_window(c, rho)?,
                HeadOp::BoxPlus(rho) => future_window(c, rho)?,
            });
        }
        reached.sort_unstable();
        reached.dedup();
        cells = reached;
    }
    let mut changed = false;
    for cell in cells {
        changed |= interp.insert(pred, tuple, cell);
    }
    Ok(changed)
}

/// A closed integer window `[a, b]`, in cells: `(2a, 2b)`.
fn cell_bounds(rho: &MetricInterval) -> Result<(i64, i64)> {
    let iv = rho.as_interval();
    let (lo, hi) = match (iv.lo(), iv.hi()) {
        (TimeBound::Finite(a), TimeBound::Finite(b)) => (a, b),
        _ => return Err(Error::Eval("naive oracle requires finite windows".into())),
    };
    if !iv.lo_closed() || !iv.hi_closed() {
        return Err(Error::Eval("naive oracle requires closed windows".into()));
    }
    let doubled = |r: Rational| r.as_integer().and_then(|x| x.checked_mul(2));
    match (doubled(lo), doubled(hi)) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(Error::Eval("naive oracle requires integer windows".into())),
    }
}

/// The cells the past window `rho` reaches from `cell`: for `rho = [a, b]`,
/// `cell − 2b ..= cell − 2a`. On a point and on an open unit alike, these
/// are exactly the cells the real window meets.
fn past_window(cell: i64, rho: &MetricInterval) -> Result<RangeInclusive<i64>> {
    let (a, b) = cell_bounds(rho)?;
    Ok(cell.saturating_sub(b)..=cell.saturating_sub(a))
}

/// The cells the future window `rho` reaches from `cell`.
fn future_window(cell: i64, rho: &MetricInterval) -> Result<RangeInclusive<i64>> {
    let (a, b) = cell_bounds(rho)?;
    Ok(cell.saturating_add(a)..=cell.saturating_add(b))
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

/// All bindings making the body true at `cell`, by running the rule's
/// [`schedule`] against the brute-force interpretation.
fn satisfy_body(
    steps: &[Step<'_>],
    interp: &NaiveInterpretation,
    cell: i64,
) -> Result<Vec<Bindings>> {
    let mut acc: Vec<Bindings> = vec![Bindings::default()];
    for step in steps {
        let mut out = Vec::new();
        for mut b in acc {
            match step {
                Step::Join(m) => out.extend(sat_matom(m, interp, cell, &b)?),
                Step::Assign(x, expr) => {
                    let v = b.eval(expr)?;
                    b.insert(*x, v);
                    out.push(b);
                }
                Step::Filter(lhs, op, rhs) => {
                    if compare(b.eval(lhs)?, *op, b.eval(rhs)?)? {
                        out.push(b);
                    }
                }
                Step::Negate(m) => {
                    if sat_matom(m, interp, cell, &b)?.is_empty() {
                        out.push(b);
                    }
                }
            }
        }
        acc = out;
    }
    Ok(acc)
}

/// All extensions of `b` under which `m` holds at `cell`.
fn sat_matom(
    m: &MetricAtom,
    interp: &NaiveInterpretation,
    cell: i64,
    b: &Bindings,
) -> Result<Vec<Bindings>> {
    match m {
        MetricAtom::Top if interp.cells.contains(&cell) => Ok(vec![b.clone()]),
        MetricAtom::Top | MetricAtom::Bottom => Ok(vec![]),
        MetricAtom::Rel(atom) => sat_rel(atom, interp, cell, b),
        MetricAtom::DiamondMinus(rho, inner) => {
            sat_somewhere(inner, interp, past_window(cell, rho)?, b)
        }
        MetricAtom::DiamondPlus(rho, inner) => {
            sat_somewhere(inner, interp, future_window(cell, rho)?, b)
        }
        MetricAtom::BoxMinus(rho, inner) => {
            sat_throughout(inner, interp, past_window(cell, rho)?, b)
        }
        MetricAtom::BoxPlus(rho, inner) => {
            sat_throughout(inner, interp, future_window(cell, rho)?, b)
        }
        MetricAtom::Since(held, rho, witness) => {
            sat_since_until(held, witness, interp, cell, past_window(cell, rho)?, b)
        }
        MetricAtom::Until(held, rho, witness) => {
            sat_since_until(held, witness, interp, cell, future_window(cell, rho)?, b)
        }
    }
}

/// `◇`: the extensions under which `inner` holds at some cell of `window`.
fn sat_somewhere(
    inner: &MetricAtom,
    interp: &NaiveInterpretation,
    window: RangeInclusive<i64>,
    b: &Bindings,
) -> Result<Vec<Bindings>> {
    let mut out = Vec::new();
    for s in window {
        out.extend(sat_matom(inner, interp, s, b)?);
    }
    Ok(dedup(out))
}

/// `⊟`/`⊞`: the extensions under which `inner` holds at every cell of
/// `window`.
fn sat_throughout(
    inner: &MetricAtom,
    interp: &NaiveInterpretation,
    window: RangeInclusive<i64>,
    b: &Bindings,
) -> Result<Vec<Bindings>> {
    let mut out = Vec::new();
    for candidate in sat_matom(inner, interp, *window.start(), b)? {
        if holds_throughout(inner, interp, window.clone(), &candidate)? {
            out.push(candidate);
        }
    }
    Ok(out)
}

/// Does `m` hold under `b` at every cell of `cells`?
fn holds_throughout(
    m: &MetricAtom,
    interp: &NaiveInterpretation,
    cells: RangeInclusive<i64>,
    b: &Bindings,
) -> Result<bool> {
    for c in cells {
        if sat_matom(m, interp, c, b)?.is_empty() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `held S witness` / `held U witness` at `cell`: the extensions under
/// which `witness` holds at some cell `w` of `window` and `held` holds
/// throughout the open interval between `w` and `cell`. In cells, that
/// interval is empty for `w = cell`; otherwise it is every cell strictly
/// between the two, plus each end that is an open unit — a point end lies
/// outside an open interval, an open-unit end partly inside it.
fn sat_since_until(
    held: &MetricAtom,
    witness: &MetricAtom,
    interp: &NaiveInterpretation,
    cell: i64,
    window: RangeInclusive<i64>,
    b: &Bindings,
) -> Result<Vec<Bindings>> {
    let mut out = Vec::new();
    for w in window {
        let between = (w != cell).then(|| {
            let (lo, hi) = (w.min(cell), w.max(cell));
            lo + i64::from(!unit_cell(lo))..=hi - i64::from(!unit_cell(hi))
        });
        for candidate in sat_matom(witness, interp, w, b)? {
            if let Some(x) = held
                .variables()
                .into_iter()
                .find(|x| !candidate.contains_key(x))
            {
                return Err(Error::Eval(format!(
                    "naive oracle requires the witness of since/until to bind {x}"
                )));
            }
            let held_between = match &between {
                Some(cells) => holds_throughout(held, interp, cells.clone(), &candidate)?,
                None => true,
            };
            if held_between {
                out.push(candidate);
            }
        }
    }
    Ok(dedup(out))
}

fn sat_rel(
    atom: &Atom,
    interp: &NaiveInterpretation,
    cell: i64,
    b: &Bindings,
) -> Result<Vec<Bindings>> {
    let first = atom.args.first().and_then(|term| match term {
        Term::Val(v) => Some(*v),
        Term::Var(x) => b.get(x).copied(),
    });
    let mut out = Vec::new();
    for tuple in interp.tuples_at(atom.pred, cell, first.as_ref()) {
        let Some(mut b2) = unify(atom, tuple, b) else {
            continue;
        };
        if let Some(tv) = atom.time_var {
            // A capture names the time point of a punctual fact: one that
            // holds at a point cell and on neither open unit next to it.
            let holds = |c: i64| {
                interp
                    .tuples_at(atom.pred, c, tuple.first())
                    .iter()
                    .any(|other| tuples_eq(other, tuple))
            };
            if unit_cell(cell) || holds(cell - 1) || holds(cell + 1) {
                return Err(Error::Eval(format!(
                    "time capture @{tv} on non-punctual fact {}{:?}",
                    atom.pred, tuple
                )));
            }
            let tval = Value::Int(cell / 2);
            if b2
                .get(&tv)
                .is_some_and(|existing| !existing.semantic_eq(&tval))
            {
                continue;
            }
            b2.insert(tv, tval);
        }
        out.push(b2);
    }
    Ok(out)
}

/// Is `cell` an open unit `(k, k + 1)` rather than a point?
fn unit_cell(cell: i64) -> bool {
    cell % 2 != 0
}

fn unify(atom: &Atom, tuple: &[Value], binding: &Bindings) -> Option<Bindings> {
    if atom.args.len() != tuple.len() {
        return None;
    }
    let mut b = Bindings(Vec::with_capacity(binding.0.len() + tuple.len()));
    b.0.extend_from_slice(&binding.0);
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

fn dedup(mut bs: Vec<Bindings>) -> Vec<Bindings> {
    bs.sort_unstable();
    bs.dedup();
    bs
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

    fn try_run(rules: &str, facts: &str, span: (i64, i64)) -> Result<NaiveInterpretation> {
        let program = parse_program(rules).unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        naive_materialize(&program, &db, span.0, span.1)
    }

    fn run(rules: &str, facts: &str, span: (i64, i64)) -> NaiveInterpretation {
        try_run(rules, facts, span).unwrap()
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
        // A diamond over a point fills the open units between: `h` holds
        // throughout [5, 8].
        assert!(i.to_text().contains("h(x)@7.5"));
        assert!(!i.to_text().contains("h(x)@8.5"));
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
        for (rules, facts) in [
            ("h(A) :- boxminus[0, 1.5] p(A).", "p(x)@5."),
            ("h(A) :- diamondminus(0, 2] p(A).", "p(x)@5."),
            ("h(A) :- diamondminus[0, inf) p(A).", "p(x)@5."),
            ("h(A) :- p(A).", "p(x)@[0, 2.5]."),
            ("h(A, T) :- p(A)@T.", "p(x)@[0, 5]."),
        ] {
            assert!(
                matches!(try_run(rules, facts, (0, 10)), Err(Error::Eval(_))),
                "{rules} over {facts}"
            );
        }
    }

    #[test]
    fn non_punctual_facts_and_windows_on_the_grid() {
        // Input read by containment, including before the horizon: the
        // box needs `p` on all of [t - 2, t].
        let i = run(
            "h(A) :- boxminus[0, 2] p(A).\n\
             s(A) :- since[0, 3](p(A), q(A)).",
            "p(x)@[-5, 6].\nq(x)@3.",
            (0, 10),
        );
        let text = i.to_text();
        assert!(i.holds_at("h", &[Value::sym("x")], 0));
        assert!(i.holds_at("h", &[Value::sym("x")], 6));
        assert!(!i.holds_at("h", &[Value::sym("x")], 7));
        assert!(text.contains("h(x)@5.5"));
        // `s` holds on [3, 6]: `p` covers (3, t) up to 6, and the witness
        // is at most 3 s back.
        for t in 3..=6 {
            assert!(i.holds_at("s", &[Value::sym("x")], t), "t={t}");
        }
        assert!(text.contains("s(x)@5.5"));
        assert!(!text.contains("s(x)@6.5"));
        assert!(!text.contains("s(x)@2.5"));
    }

    #[test]
    fn time_capture_binds_integer() {
        let i = run("h(A, T) :- p(A)@T.", "p(x)@7.", (0, 10));
        assert!(i.holds_at("h", &[Value::sym("x"), Value::Int(7)], 7));
    }
}
