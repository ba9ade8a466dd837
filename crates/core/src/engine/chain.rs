//! The persistence jump: self-chain (frame) rules are closed over their
//! guard set inside one fixpoint round.
//!
//! A *self-chain* rule has the shape
//!
//! ```text
//! p(x̄) :- op p(x̄), g₁, …, not h₁, …
//! ```
//!
//! where `op` is a strictly-past unary operator chain (`◇⁻ρ` with `ρ.lo > 0`,
//! or a punctual `⊟ρ`) over an atom syntactically identical to the head, and
//! every other literal is a positive or negated metric atom over predicates
//! of lower strata whose non-head variables are local to it. The ETH-PERP
//! persistence rules (`margin(A, M) :- ◇⁻ margin(A, M), not changeM(A)`) are
//! the motivating case: evaluated round by round they advance one second per
//! semi-naive iteration.
//!
//! Soundness of closing a derived head row `(p(x̄), T)` locally — the union
//! of every binding that grounds the head to `p(x̄)` in one evaluation:
//!
//! * the guards read only lower strata, which are complete (for the current
//!   horizon) before the stratum starts and never change while it runs, so
//!   for one binding of the head variables the *guard set*
//!   `P = horizon ∩ ⋂ gᵢ ∖ ⋃ hⱼ` is a constant of the stratum run;
//! * the body atom equals the head atom, so `p(x̄)` holding on `T` entails,
//!   by this rule alone, `p(x̄)` on `op(T) ∩ P` — for the same tuple;
//! * `◇⁻ρ` distributes over union and a punctual `⊟ρ` is a plain shift, so
//!   applying `op` to only the newest piece never misses a derivation that
//!   combines old and new time points. A `⊟` of positive length would, so
//!   detection admits none: such a literal takes the ordinary path, whose
//!   delta variant reads the grown tuples with their whole validity.
//!
//! Iterating `cur ← op(cur) ∩ P` until nothing new therefore derives exactly
//! what the round-by-round fixpoint derives for that tuple through this rule,
//! and the surrounding fixpoint loop still runs to quiescence, so the least
//! model — which is unique — is unchanged. Rules that do not match take the
//! ordinary path.
//!
//! When every operator of the chain is punctual — a plain shift by `c` — and
//! the row holds only points, that iteration has a closed form: from a seed
//! `s` it derives `s + c, s + 2c, …` for as long as each point lies in `P`,
//! and how long that is inside one component of `P` is a division
//! ([`Interval::run_length`]). [`Chains::close`] then emits one arithmetic
//! progression per guard piece the run crosses instead of one point per
//! step; only chains with a window of positive length, and rows with
//! components of positive length, are stepped.
//!
//! The same argument makes everything the rule merges (`fresh ∪ closure`)
//! *closed under the rule*: `op(fresh ∪ closure) ∩ P` lies inside what the
//! tuple stores afterwards. The fixpoint driver therefore hands a self-chain
//! rule, as its semi-naive delta, only what *other* rules added to its head
//! predicate — re-entering its own closed run could derive nothing.
//!
//! Round 0 runs the self-chain rules first, in a frame phase of their own
//! ([`Reasoner::frame_phase`]), and no plan of theirs runs there. Each rule
//! reads its guards once over the window, key variables unbound, into one
//! interval set per key ([`GuardReads`]), and reads the head tuples whose
//! validity meets the chain's look-back of the window through the time
//! index, as its plan's first step would. A tuple whose last stored
//! component is a point or a run of the chain's step, with nothing else
//! stored in the look-back, continues exactly as far as its guard set
//! `P(k)` lets the chain step through the window from that last tooth on.
//! When `P(k)` holds at every point the chain reaches in the window —
//! the window's closed lower end included — the tuple's last component is
//! widened to the window's end in place ([`continuation`]): the closure, the
//! merge and their shape are then known without computing them. Every
//! other tuple's row `op(stored) ∩ P(k)` is closed and merged as a delta
//! round's row is. What the frame phase merges enters no other rule's delta
//! either, because every other rule's round-0 full evaluation runs after it
//! and reads it. A session advance in which only the frame rules derive
//! anything therefore ends the stratum after one round, and costs one
//! in-place write per open run its guards do not interrupt.
//!
//! The shape a run is stored in must not depend on which rule merged a
//! tooth first. Two lone points never coalesce, so [`jump`] anchors a lone
//! new tooth on the lone stored tooth it was derived from. When another
//! rule stored both teeth first, the row adds nothing, and [`links`] hands
//! the merge the same anchored progression to rebuild them into
//! (`Database::relink`).
//!
//! Detection is static ([`Chains::detect`] runs once per stratum in
//! `Reasoner::new`); only the guard reads are per stratum run.

use super::eval::{eval_matom_masked, EvalCtx};
use super::plan::{frame_read_plan, RulePlan, Slots};
use super::{budget_exceeded_components, budget_exceeded_iterations, rule_span_name};
use super::{merge_row, CompiledStratum, Reasoner, ReasonerConfig, RunStats};
use crate::ast::{Atom, Literal, MetricAtom, Rule, Term};
use crate::database::{Database, IndexSpec};
use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use crate::intern::SemKey;
use crate::symbol::Symbol;
use crate::value::Value;
use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational, TimeBound};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// One guard literal of a self-chain rule.
struct Guard {
    positive: bool,
    /// Body index of the literal.
    literal: usize,
    /// The head variables the literal mentions, in variable order, each as
    /// its row slot and its head position: their values key the guard's
    /// sets.
    key: Vec<(usize, usize)>,
}

/// The statically recognised parts of a self-chain rule, as indices into
/// the rule's body (the rule itself stays in the program).
struct SelfChain {
    /// Head predicate — the one relation the rule both reads and writes.
    head: Symbol,
    /// Body index of the chain literal (`op p(x̄)`).
    chain: usize,
    /// The frozen literals: the positive ones, then the negated ones, each
    /// in body order (the order of the steps of `read_plan`).
    guards: Vec<Guard>,
    /// The chain's total shift when all its operators are punctual.
    shift: Option<Rational>,
    /// The head's arguments are distinct variables: every head tuple is
    /// the stored tuple the chain literal matched, so a run can be extended
    /// where it is stored.
    plain: bool,
    /// The rule's variables, numbered as its plans number them.
    slots: Slots,
    /// What round 0 reads for the rule in place of its full plan, which is
    /// never built: counted as that plan's execution would be.
    read_plan: Arc<RulePlan>,
}

/// The self-chain rules of one stratum, by rule index.
pub(crate) struct Chains {
    rules: BTreeMap<usize, SelfChain>,
}

/// One guard literal read over a stratum run's window.
struct GuardRead {
    positive: bool,
    /// The head positions of the key variables the literal mentions, in
    /// the order of the keys of `sets`.
    positions: Vec<usize>,
    /// Per value of those variables, by semantic class (the equivalence
    /// unification matches under): where the literal holds.
    sets: FxHashMap<Vec<SemKey>, IntervalSet>,
    /// Results that leave some key variable unbound — a `since` that holds
    /// through its right operand alone — with the classes of those they
    /// bind: they hold for every value of the unbound ones.
    wild: Vec<(Vec<Option<SemKey>>, IntervalSet)>,
}

/// The guards of one self-chain rule, read once over a stratum run's
/// window with the key variables unbound.
struct RuleGuards {
    window: Interval,
    guards: Vec<GuardRead>,
    /// Every head position some guard keys on, in order: the classes of a
    /// tuple's values there decide its guard set.
    positions: Vec<usize>,
    /// The guard sets the closures asked for, by those classes. A batch
    /// run's delta rounds close the same key again and again over the
    /// whole horizon; combining its sets anew for every row more than
    /// doubles `fig3_batch`'s `batch_s` (docs/PERFORMANCE.md).
    memo: FxHashMap<Vec<SemKey>, IntervalSet>,
}

impl RuleGuards {
    /// The guard set `P(k)` of head tuple `tuple`, for a closure:
    /// [`RuleGuards::set`], combined once per key.
    fn of(&mut self, tuple: &[Value]) -> &IntervalSet {
        let key: Vec<SemKey> = (self.positions.iter())
            .map(|&at| SemKey::of(&tuple[at]))
            .collect();
        if !self.memo.contains_key(&key) {
            let set = self.set(tuple, |_| {});
            self.memo.insert(key.clone(), set);
        }
        &self.memo[&key]
    }

    /// The guard set `P(k) = window ∩ ⋂ gᵢ(k) ∖ ⋃ hⱼ(k)` of head tuple
    /// `tuple`, handing `each` the set after every guard it applies.
    fn set(&self, tuple: &[Value], mut each: impl FnMut(&IntervalSet)) -> IntervalSet {
        let mut set = IntervalSet::from_interval(self.window);
        let mut key = Vec::new();
        for g in &self.guards {
            key.clear();
            key.extend(g.positions.iter().map(|&at| SemKey::of(&tuple[at])));
            let mut wild = (g.wild.iter())
                .filter(|(w, _)| w.iter().zip(&key).all(|(w, v)| w.is_none_or(|w| w == *v)))
                .map(|(_, at)| at);
            let holds = match (g.sets.get(key.as_slice()), wild.next()) {
                (None, None) => None,
                (Some(at), None) => Some(Cow::Borrowed(at)),
                (exact, first) => {
                    let mut all = exact.cloned().unwrap_or_default();
                    for at in first.into_iter().chain(wild) {
                        all.union_with(at);
                    }
                    Some(Cow::Owned(all))
                }
            };
            set = match (g.positive, holds) {
                (true, None) => IntervalSet::new(),
                (true, Some(at)) => set.intersect(&at),
                (false, None) => set,
                (false, Some(at)) => set.difference(&at),
            };
            each(&set);
            if set.is_empty() {
                break;
            }
        }
        set
    }
}

/// What one stratum run has read of its self-chain rules' guards, by rule:
/// each rule's guards are read once, on first use, and serve every row the
/// run closes — round 0's and the delta rounds' alike.
#[derive(Default)]
pub(crate) struct GuardReads {
    rules: BTreeMap<usize, RuleGuards>,
}

impl GuardReads {
    /// Reads the guards of self-chain rule `rule_idx` unless this stratum
    /// run already has; returns whether it had.
    fn read(
        &mut self,
        chain: &SelfChain,
        rule_idx: usize,
        rule: &Rule,
        ctx: &EvalCtx<'_>,
    ) -> Result<bool> {
        if self.rules.contains_key(&rule_idx) {
            return Ok(true);
        }
        self.rules.insert(rule_idx, chain.read_guards(rule, ctx)?);
        Ok(false)
    }
}

/// What closing one row produced.
pub(crate) struct Closed {
    /// The part of the row not yet stored plus everything the closure
    /// derived from it — disjoint from the stored intervals but for the one
    /// stored second a lone new one is anchored to (see [`jump`]).
    pub out: IntervalSet,
    /// Closure steps that derived something new (each stands for one head
    /// row of the round-by-round path).
    pub steps: usize,
    /// Two-tooth progressions over stored lone teeth the row derived one
    /// from the other (see [`links`]): nothing new, only a shape for the
    /// merge to rebuild.
    pub links: IntervalSet,
}

fn strictly_past(rho: &MetricInterval) -> bool {
    matches!(rho.as_interval().lo(), TimeBound::Finite(lo) if lo > Rational::ZERO)
}

/// `m` is `op … op head` with at least one operator, every operator a
/// strictly-past `◇⁻ρ` or punctual `⊟ρ`.
fn is_past_chain_over(m: &MetricAtom, head: &Atom, depth: usize) -> bool {
    match m {
        MetricAtom::Rel(a) => depth > 0 && a == head,
        MetricAtom::DiamondMinus(rho, inner) => {
            strictly_past(rho) && is_past_chain_over(inner, head, depth + 1)
        }
        MetricAtom::BoxMinus(rho, inner) => {
            rho.is_punctual() && strictly_past(rho) && is_past_chain_over(inner, head, depth + 1)
        }
        _ => false,
    }
}

/// The metric atom of a positive or negated body literal.
fn matom(rule: &Rule, literal: usize) -> &MetricAtom {
    match &rule.body[literal] {
        Literal::Pos(m) | Literal::Neg(m) => m,
        Literal::Constraint(..) => unreachable!("detection admits no constraints"),
    }
}

/// The total backward shift of a unary operator chain whose operators are
/// all punctual: `⊟[c]`/`◇⁻[c]` look `c` into the past (a positive shift),
/// the future operators the opposite. `None` when the chain has a window of
/// positive length or a binary operator, or the sum overflows.
pub(super) fn punctual_shift(m: &MetricAtom) -> Option<Rational> {
    match m {
        MetricAtom::Rel(_) => Some(Rational::ZERO),
        MetricAtom::DiamondMinus(rho, inner) | MetricAtom::BoxMinus(rho, inner) => {
            punctual_shift(inner)?.checked_add(rho.as_interval().punctual_value()?)
        }
        MetricAtom::DiamondPlus(rho, inner) | MetricAtom::BoxPlus(rho, inner) => {
            punctual_shift(inner)?.checked_sub(rho.as_interval().punctual_value()?)
        }
        _ => None,
    }
}

/// Applies the chain's operators, innermost first, to the time points `at`
/// at which the atom holds.
fn apply_chain(m: &MetricAtom, at: IntervalSet) -> Result<IntervalSet> {
    Ok(match m {
        MetricAtom::Rel(_) => at,
        MetricAtom::DiamondMinus(rho, inner) => {
            apply_chain(inner, at)?.checked_diamond_minus(rho)?
        }
        MetricAtom::BoxMinus(rho, inner) => apply_chain(inner, at)?.checked_box_minus(rho)?,
        _ => unreachable!("detection admits only ◇⁻/⊟ chains"),
    })
}

/// `set ∖ stored`, reading only the stored components `set` can overlap.
fn minus_stored(set: IntervalSet, stored: &[Interval]) -> IntervalSet {
    match set.hull() {
        Some(hull) if !stored.is_empty() => {
            set.difference(&IntervalSet::clip_components(stored, &hull))
        }
        _ => set,
    }
}

/// What one closure may still spend: its steps count against
/// `max_iterations` on top of the `iteration`s the stratum already ran, its
/// components against `max_components`, so an unbounded horizon errs after
/// O(budget) work instead of never returning.
struct Budget<'c> {
    steps: usize,
    components: usize,
    config: &'c ReasonerConfig,
}

impl Budget<'_> {
    fn charge(&self, steps: u64, out: &IntervalSet) -> Result<()> {
        if steps >= self.steps as u64 {
            return Err(budget_exceeded_iterations(self.config));
        }
        if out.components().len() > self.components {
            return Err(budget_exceeded_components(self.config));
        }
        Ok(())
    }
}

/// The closure of `fresh` under a chain that shifts by `shift`, in closed
/// form: every seed is [`follow`]ed through the guard set. Returns the
/// closure with `fresh` and the length of the longest run — the number of
/// steps the round-by-round iteration would have taken.
fn jump(
    shift: Rational,
    fresh: IntervalSet,
    stored: &[Interval],
    guard: &[Interval],
    budget: &Budget<'_>,
) -> Result<(IntervalSet, usize)> {
    let overflow = || Error::from(mtl_temporal::TimeOverflow);
    let mut out = fresh.clone();
    let mut longest = 0u64;
    for seed in fresh.components() {
        // Within a run of the chain's own step every tooth but the last is
        // followed by the next one: only the last starts something new.
        let settled = if seed.step() == Some(shift) {
            seed.steps() as usize
        } else {
            0
        };
        for start in seed.atoms().skip(settled) {
            let from = start.punctual_value().expect("the row holds only points");
            longest = longest.max(follow(from, shift, stored, guard, budget, &mut out)?);
        }
    }
    // A lone new second next to the lone stored second it was derived from
    // would stay a component of its own for ever — two points never
    // coalesce, and a session advancing one second at a time only ever
    // delivers points. Handed over as one two-tooth run (the merge drops the
    // tooth it already stores), every later second extends it.
    let lone = |i: &Interval| i.punctual_value();
    if let (Some(new), Some(old)) = (
        out.components().first().and_then(lone),
        stored.last().and_then(lone),
    ) {
        if old.checked_add(shift) == Some(new) {
            out.insert(Interval::progression(old, shift, 1).ok_or_else(overflow)?);
        }
    }
    Ok((out, longest as usize))
}

/// The progressions `{a, b}` over every pair of consecutive stored
/// components that are lone points `a` and `b = a + shift` with `b` in
/// `row`: the row derived `b` from `a`, but another rule stored both teeth
/// first, so [`jump`] never saw `b` as new and could not anchor it on `a`.
/// Had this rule merged `b` first, the two would be one run; rebuilding
/// them into it keeps the stored shape independent of merge order — and
/// therefore the same in a session as in a batch run.
fn links(shift: Rational, row: &IntervalSet, stored: &[Interval]) -> Result<IntervalSet> {
    let mut links = IntervalSet::new();
    let Some(hull) = row.hull() else {
        return Ok(links);
    };
    let from = stored.partition_point(|s| s.entirely_before(&hull));
    for pair in stored[from.saturating_sub(1)..].windows(2) {
        if hull.entirely_before(&pair[1]) {
            break;
        }
        let (Some(a), Some(b)) = (pair[0].punctual_value(), pair[1].punctual_value()) else {
            continue;
        };
        if a.checked_add(shift) == Some(b) && row.contains(b) {
            let run = Interval::progression(a, shift, 1);
            links.insert(run.ok_or(mtl_temporal::TimeOverflow)?);
        }
    }
    Ok(links)
}

/// Adds to `out` the run `from + shift, from + 2·shift, …` for as long as
/// each point lies in the guard set, and returns its length: one progression
/// per guard piece the run crosses, its tooth count a division
/// ([`Interval::run_length`]) and charged against the budget before the
/// piece is built. The run ends early at the first point already known for
/// the tuple (in `stored`, or derived here) — that point's own consequences
/// are, or were, derived from it.
fn follow(
    mut from: Rational,
    shift: Rational,
    stored: &[Interval],
    guard: &[Interval],
    budget: &Budget<'_>,
    out: &mut IntervalSet,
) -> Result<u64> {
    let overflow = || Error::from(mtl_temporal::TimeOverflow);
    let mut length = 0u64;
    // The run only moves forward, so one binary search finds its first
    // guard piece (a cached guard set can start far before the row) and the
    // cursor walks on from there.
    let mut at = guard.partition_point(|p| p.entirely_before(&Interval::point(from)));
    while at < guard.len() {
        let next = from.checked_add(shift).ok_or_else(overflow)?;
        let here = Interval::point(next);
        at += guard[at..].partition_point(|p| p.entirely_before(&here));
        let mut teeth = guard.get(at).map_or(0, |p| p.run_length(next, shift));
        if teeth == 0 {
            break;
        }
        budget.charge(length.saturating_add(teeth), out)?;
        // A progression holds at most 2³² teeth; a longer stretch becomes
        // several.
        while teeth > 0 {
            let count = teeth.min(u32::MAX as u64) as u32;
            // Anchored on the tooth it continues (which `out` holds), so
            // that even a single new second joins its run: two lone points
            // would never coalesce.
            let piece = Interval::progression(from, shift, count).ok_or_else(overflow)?;
            let new = Interval::new(from.into(), false, TimeBound::PosInf, false)
                .and_then(|after| piece.intersect(&after))
                .expect("the piece has a tooth past its anchor");
            let known = [out.components(), stored]
                .iter()
                .filter_map(|k| IntervalSet::clip_components(k, &new).min_point())
                .min();
            let piece = match known {
                None => piece,
                Some(k) => Interval::new(TimeBound::NegInf, false, k, false)
                    .and_then(|before| piece.intersect(&before))
                    .expect("the anchor lies before every new tooth"),
            };
            length += piece.steps() as u64;
            out.insert(piece);
            if known.is_some() {
                return Ok(length);
            }
            teeth -= count as u64;
            from = piece
                .hi()
                .finite()
                .expect("a progression has finite endpoints");
        }
    }
    Ok(length)
}

/// The closure of `fresh` by iterating `cur ← op(cur) ∩ P` until nothing new
/// appears: for the shapes [`jump`] has no closed form for. Returns the
/// closure with `fresh` and the number of steps that derived something.
fn step(
    op: &MetricAtom,
    fresh: IntervalSet,
    stored: &[Interval],
    guard: &[Interval],
    budget: &Budget<'_>,
) -> Result<(IntervalSet, usize)> {
    let mut out = fresh.clone();
    let mut cur = fresh;
    let mut steps = 0usize;
    loop {
        budget.charge(steps as u64, &out)?;
        cur = apply_chain(op, cur)?;
        let Some(hull) = cur.hull() else {
            break;
        };
        // The chain is strictly past, so the piece only moves forward and
        // mostly lands past everything known for the tuple.
        let inside = cur.intersect(&IntervalSet::clip_components(guard, &hull));
        let next = minus_stored(inside.difference(&out), stored);
        if next.is_empty() {
            break;
        }
        steps += 1;
        out.union_with(&next);
        cur = next;
    }
    Ok((out, steps))
}

/// A derived head row of a self-chain rule, to be closed.
pub(crate) struct ChainRow<'t> {
    pub tuple: &'t [Value],
    /// The row's validity.
    pub set: IntervalSet,
    /// The tuple's guard set, when the caller has it at hand.
    pub guard: Option<IntervalSet>,
}

/// How round 0 continues one stored run, decided without building its row.
enum Continuation {
    /// The chain reaches no new point in the window.
    Held,
    /// The run's last component widens to `last`: the teeth of `new` past
    /// it, `steps + 1` of them, are what the closure derives.
    Extended {
        last: Interval,
        new: Interval,
        steps: u64,
    },
}

/// How a chain that shifts by `shift` continues the run `stored` over
/// `window` under the guard set `guard`, when that follows from the stored
/// shape alone; `None` sends the row down the close-and-merge path.
///
/// It does when the last stored component is a point or a run of the
/// chain's own step, ending at tooth `e`, and nothing else is stored where
/// the chain reads the window from (`window ⊖ shift`). The row is then the
/// run's own teeth moved one step along, all stored, plus `e + shift`, so
/// the closure is the run `e + shift, e + 2·shift, …` for as long as its
/// points lie in `guard`. When they do up to the window's end — checked
/// from `e + shift`, which may be the window's closed lower end itself —
/// that run is what [`jump`] derives, charged as it charges it, and what
/// the merge makes of it is the last component widened in place: it
/// neither anchors on nor relinks another component, and the widened
/// component does not coalesce with the one before it.
fn continuation(
    shift: Rational,
    stored: &[Interval],
    guard: &IntervalSet,
    window: Interval,
    budget: &Budget<'_>,
) -> Option<Continuation> {
    let (last, before) = stored.split_last()?;
    if !(last.is_punctual() || last.step() == Some(shift)) {
        return None;
    }
    let back = TimeBound::Finite(shift);
    let lookback = Interval::new(
        window.lo().checked_sub(back)?,
        window.lo_closed(),
        window.hi().checked_sub(back)?,
        window.hi_closed(),
    )?;
    if before.last().is_some_and(|p| !p.entirely_before(&lookback)) {
        return None;
    }
    let first = last.hi().finite()?.checked_add(shift)?;
    let teeth = window.run_length(first, shift);
    if teeth == 0 {
        return window
            .entirely_before(&Interval::point(first))
            .then_some(Continuation::Held);
    }
    let pieces = guard.components();
    let at = pieces.partition_point(|p| p.entirely_before(&Interval::point(first)));
    if teeth == u64::MAX || pieces.get(at).map_or(0, |p| p.run_length(first, shift)) < teeth {
        return None;
    }
    let steps = teeth - 1;
    if steps > 0 && (steps >= budget.steps as u64 || budget.components == 0) {
        return None;
    }
    let widened = Interval::progression(
        last.lo().finite()?,
        shift,
        u32::try_from(teeth).ok()?.checked_add(last.steps())?,
    )?;
    if before
        .last()
        .is_some_and(|p| p.union_if_connected(&widened).is_some())
    {
        return None;
    }
    Some(Continuation::Extended {
        last: widened,
        new: Interval::progression(first, shift, steps as u32)?,
        steps,
    })
}

/// What round 0 of a frame rule read: per head tuple, in tuple order, the
/// row of its chain literal, `op(stored) ∩ window`, and for a plain head
/// the id of the stored tuple.
struct FrameRows {
    rule: usize,
    /// The head tuples' values, one tuple after the other.
    values: Vec<Value>,
    /// Per head tuple: where its values start, the stored tuple, the row.
    rows: Vec<(usize, Option<u32>, IntervalSet)>,
    /// The tuples the read matched: its plan's bindings.
    bindings: u64,
}

impl SelfChain {
    /// Recognises a self-chain rule of the stratum whose head predicates
    /// are `current`, noting in `spec` what its frame phase reads; `None`
    /// sends the rule down the ordinary path.
    fn detect(rule: &Rule, current: &HashSet<Symbol>, spec: &mut IndexSpec) -> Option<SelfChain> {
        let head = &rule.head;
        if !head.ops.is_empty() || head.aggregate.is_some() || head.atom.time_var.is_some() {
            return None;
        }
        let mut chain = None;
        let mut guards = Vec::new();
        for (li, lit) in rule.body.iter().enumerate() {
            let (positive, m) = match lit {
                Literal::Pos(m) => (true, m),
                Literal::Neg(m) => (false, m),
                Literal::Constraint(..) => return None,
            };
            let atoms = m.atoms();
            if atoms.iter().any(|a| current.contains(&a.pred)) {
                if !positive || chain.is_some() || !is_past_chain_over(m, &head.atom, 0) {
                    return None;
                }
                chain = Some(li);
            } else if atoms.iter().any(|a| a.time_var.is_some()) {
                return None;
            } else {
                guards.push((positive, li));
            }
        }
        let chain = chain?;
        guards.sort_by_key(|&(positive, li)| (!positive, li));
        let slots = Slots::of(rule);
        let head_vars = head.atom.variables();
        let mut locals: HashSet<Symbol> = HashSet::new();
        let mut read = Vec::with_capacity(guards.len());
        for (positive, li) in guards {
            let mut key: Vec<Symbol> = Vec::new();
            for v in matom(rule, li).variables() {
                if head_vars.contains(&v) {
                    if !key.contains(&v) {
                        key.push(v);
                    }
                } else if !locals.insert(v) {
                    // Shared between two guards: a join variable, not an
                    // existential — the guard set would not factor.
                    return None;
                }
            }
            key.sort();
            let key = (key.into_iter())
                .map(|v| {
                    let at = head.atom.args.iter().position(|t| *t == Term::Var(v));
                    let at = at.expect("a head variable has a head position");
                    (slots.slot(v).expect("every variable has a slot"), at)
                })
                .collect();
            read.push(Guard {
                positive,
                literal: li,
                key,
            });
        }
        let mut seen = HashSet::new();
        let plain = (head.atom.args.iter()).all(|t| t.as_var().is_some_and(|v| seen.insert(v)));
        let plan = frame_read_plan(rule, chain, read.iter().map(|g| g.literal), spec);
        Some(SelfChain {
            head: head.atom.pred,
            chain,
            guards: read,
            shift: punctual_shift(matom(rule, chain)),
            plain,
            slots,
            read_plan: Arc::new(plan),
        })
    }

    /// Reads every guard literal over the window of `ctx` with the key
    /// variables unbound: a positive guard's sets say where it holds, a
    /// negated one's where it excludes. O(guard tuples meeting the window).
    fn read_guards(&self, rule: &Rule, ctx: &EvalCtx<'_>) -> Result<RuleGuards> {
        let row = vec![None; self.slots.width()];
        let mut guards = Vec::with_capacity(self.guards.len());
        for g in &self.guards {
            let mut sets: FxHashMap<Vec<SemKey>, IntervalSet> = FxHashMap::default();
            let mut wild = Vec::new();
            let mut key = Vec::with_capacity(g.key.len());
            let m = matom(rule, g.literal);
            eval_matom_masked(
                m,
                ctx,
                false,
                &self.slots,
                &row,
                Some(ctx.horizon),
                &mut |hit, at| {
                    key.clear();
                    key.extend(
                        g.key
                            .iter()
                            .map_while(|&(slot, _)| hit.get(slot))
                            .map(|v| SemKey::of(&v)),
                    );
                    if key.len() < g.key.len() {
                        let of =
                            |&(slot, _): &(usize, usize)| hit.get(slot).map(|v| SemKey::of(&v));
                        wild.push((g.key.iter().map(of).collect(), at));
                    } else if let Some(set) = sets.get_mut(key.as_slice()) {
                        set.union_with(&at);
                    } else {
                        sets.insert(key.clone(), at);
                    }
                    Ok(())
                },
            )?;
            guards.push(GuardRead {
                positive: g.positive,
                positions: g.key.iter().map(|&(_, at)| at).collect(),
                sets,
                wild,
            });
        }
        let mut positions: Vec<usize> = (self.guards.iter())
            .flat_map(|g| g.key.iter().map(|&(_, at)| at))
            .collect();
        positions.sort_unstable();
        positions.dedup();
        Ok(RuleGuards {
            window: ctx.horizon,
            guards,
            positions,
            memo: FxHashMap::default(),
        })
    }
}

impl Chains {
    /// Recognises the self-chain rules among `rules` (index, rule) of the
    /// stratum whose head predicates are `current`, noting in `spec` the
    /// indexes their frame phase reads: the head relation and every guard,
    /// nothing bound, through their time indexes.
    pub(crate) fn detect<'r>(
        rules: impl Iterator<Item = (usize, &'r Rule)>,
        current: &HashSet<Symbol>,
        spec: &mut IndexSpec,
    ) -> Chains {
        Chains {
            rules: rules
                .filter_map(|(i, rule)| SelfChain::detect(rule, current, spec).map(|c| (i, c)))
                .collect(),
        }
    }

    /// Is rule `rule_idx` closed by [`Chains::merge_closed`]?
    pub(crate) fn contains(&self, rule_idx: usize) -> bool {
        self.rules.contains_key(&rule_idx)
    }

    /// The self-chain rules over head predicate `head` other than `except`:
    /// the rules whose delta a row merged into `head` by `except` belongs to.
    fn others_over(&self, head: Symbol, except: usize) -> impl Iterator<Item = usize> + '_ {
        self.rules
            .iter()
            .filter(move |(&i, c)| i != except && c.head == head)
            .map(|(&i, _)| i)
    }

    /// Hands what a merge into `head` by rule `rule_idx` added to the next
    /// delta of every other self-chain rule over `head`; returns whether
    /// there was one.
    pub(crate) fn feed_others(
        &self,
        next: &mut BTreeMap<usize, Database>,
        indexes: &Arc<IndexSpec>,
        rule_idx: usize,
        head: Symbol,
        tuple: &[Value],
        added: &IntervalSet,
    ) -> Result<bool> {
        let mut fed = false;
        for other in self.others_over(head, rule_idx) {
            fed = true;
            next.entry(other)
                .or_insert_with(|| Database::new().declare(indexes))
                .merge(head, tuple, added)?;
        }
        Ok(fed)
    }

    /// Closes one derived head row of self-chain rule `rule_idx` (`rule`):
    /// drops the part of `row` the head `tuple` already stores (its
    /// consequences were, or are being, derived through the delta), then
    /// iterates `cur ← op(cur) ∩ P` from the rest until nothing new
    /// appears. `None` when the row held nothing new.
    ///
    /// Every step is charged against `max_iterations` (on top of the
    /// `iteration`s the stratum already ran) and the accumulated components
    /// against `max_components`, so an unbounded horizon errs after
    /// O(budget) work instead of never returning.
    #[allow(clippy::too_many_arguments)]
    fn close(
        &self,
        reads: &mut GuardReads,
        rule_idx: usize,
        rule: &Rule,
        row: ChainRow<'_>,
        stored: &[Interval],
        ctx: &EvalCtx<'_>,
        config: &ReasonerConfig,
        iteration: usize,
    ) -> Result<Option<Closed>> {
        let chain = &self.rules[&rule_idx];
        let links = match chain.shift {
            Some(shift) => links(shift, &row.set, stored)?,
            None => IntervalSet::new(),
        };
        let fresh = minus_stored(row.set, stored);
        if fresh.is_empty() {
            return Ok((!links.is_empty()).then(|| Closed {
                out: IntervalSet::new(),
                steps: 0,
                links,
            }));
        }
        let _rule_span = ctx.profiler.map(|p| p.span(rule_span_name(rule, rule_idx)));
        let mut span = ctx.profiler.map(|p| p.span("chain"));
        let (guard, guard_cached) = match row.guard {
            Some(guard) => (Cow::Owned(guard), true),
            None => {
                let cached = reads.read(chain, rule_idx, rule, ctx)?;
                let guards = reads.rules.get_mut(&rule_idx).expect("just read");
                (Cow::Borrowed(guards.of(row.tuple)), cached)
            }
        };
        let guard = guard.components();
        let budget = Budget {
            steps: config.max_iterations.saturating_sub(iteration),
            components: config
                .max_components
                .saturating_sub(ctx.total.component_count()),
            config,
        };
        let only_points = fresh
            .components()
            .iter()
            .all(|i| i.is_strided() || i.is_punctual());
        let (out, steps) = match chain.shift {
            Some(shift) if only_points => jump(shift, fresh, stored, guard, &budget)?,
            _ => step(matom(rule, chain.chain), fresh, stored, guard, &budget)?,
        };
        if let Some(s) = span.as_mut() {
            s.add("steps", steps as u64);
            s.add("components", out.components().len() as u64);
            s.add("guard_cached", guard_cached as u64);
        }
        Ok(Some(Closed { out, steps, links }))
    }

    /// Closes row `row` of self-chain rule `rule_idx` for head `tuple`
    /// ([`Chains::close`]) and merges the closure into `total`, charging the
    /// rule's stats; returns what the merge added. The guards read the
    /// finished lower strata of `total`, and rows are merged one at a time
    /// in a fixed order, so the closure is identical for every thread count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn merge_closed(
        &self,
        reads: &mut GuardReads,
        rule_idx: usize,
        rule: &Rule,
        row: ChainRow<'_>,
        total: &mut Database,
        stats: &mut RunStats,
        (window, top): (Interval, Interval),
        config: &ReasonerConfig,
        iteration: usize,
    ) -> Result<IntervalSet> {
        let (head, tuple) = (rule.head.atom.pred, row.tuple);
        let closed = {
            let stored = (total.relation(head))
                .and_then(|r| r.components_of(tuple))
                .unwrap_or(&[]);
            let ctx = EvalCtx::new(total, window, top, config.profiler.as_ref());
            let closed = self.close(reads, rule_idx, rule, row, stored, &ctx, config, iteration);
            stats.add_lookups(&ctx.lookups.get());
            closed?
        };
        let Some(closed) = closed else {
            return Ok(IntervalSet::new());
        };
        stats.rules[rule_idx].derivations += closed.steps;
        if !closed.links.is_empty() {
            total.relink(head, tuple, &closed.links);
        }
        if closed.out.is_empty() {
            return Ok(IntervalSet::new());
        }
        merge_row(total, &mut stats.rules[rule_idx], head, tuple, closed.out)
    }

    /// Round 0 of frame rule `rule_idx`, its read: the head tuples whose
    /// validity meets the chain's look-back of the window, through the time
    /// index, each with the row `op(stored) ∩ window` — what the rule's
    /// plan read first. Sorted by tuple, the order its head rows merged in;
    /// a head with constants or a repeated variable unions the rows of the
    /// stored tuples that ground it to one tuple.
    fn read_runs(&self, rule_idx: usize, rule: &Rule, ctx: &EvalCtx<'_>) -> Result<FrameRows> {
        let chain = &self.rules[&rule_idx];
        let args = &rule.head.atom.args;
        let (mut values, mut rows) = (Vec::new(), Vec::new());
        let row = vec![None; chain.slots.width()];
        let m = matom(rule, chain.chain);
        eval_matom_masked(
            m,
            ctx,
            false,
            &chain.slots,
            &row,
            Some(ctx.horizon),
            &mut |hit, at| {
                let at = at.intersect_interval(&ctx.horizon);
                if at.is_empty() {
                    return Ok(());
                }
                let start = values.len();
                values.extend(args.iter().map(|t| {
                    match *t {
                        Term::Val(v) => v,
                        Term::Var(x) => (chain.slots.slot(x))
                            .and_then(|s| hit.get(s))
                            .expect("the chain atom binds every head variable"),
                    }
                }));
                rows.push((start, hit.tuple.filter(|_| chain.plain), at));
                Ok(())
            },
        )?;
        let (n, bindings) = (args.len(), rows.len() as u64);
        rows.sort_by(|a, b| values[a.0..a.0 + n].cmp(&values[b.0..b.0 + n]));
        rows.dedup_by(|later, kept| {
            let same = values[later.0..later.0 + n] == values[kept.0..kept.0 + n];
            if same {
                kept.2.union_with(&later.2);
            }
            same
        });
        Ok(FrameRows {
            rule: rule_idx,
            values,
            rows,
            bindings,
        })
    }
}

/// What the frame phase tells of every merge: `(rule, tuple, added)`.
pub(crate) type Fed<'f> = dyn FnMut(usize, &[Value], &IntervalSet) -> Result<()> + 'f;

impl Reasoner {
    /// Round 0's frame phase of one stratum run over `window`: every frame
    /// rule reads its head tuples from the phase-start model, as its plan
    /// did; then, rule by rule and tuple by tuple, a run its guards do not
    /// interrupt is extended in place ([`continuation`]) and every other
    /// row is closed and merged ([`Chains::merge_closed`]). A rule counts
    /// one body evaluation and one head row per non-empty row, as its plan
    /// did. `fed(rule, tuple, added)` hears of everything merged. Returns
    /// the tuples the reads visited.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn frame_phase(
        &self,
        compiled: &CompiledStratum,
        reads: &mut GuardReads,
        total: &mut Database,
        stats: &mut RunStats,
        (window, top): (Interval, Interval),
        fed: &mut Fed<'_>,
    ) -> Result<u64> {
        let chains = &compiled.chains;
        let (rules, config) = (&self.program.rules, &self.config);
        let profiler = config.profiler.as_ref();
        let mut visited = 0;
        let mut read = Vec::with_capacity(chains.rules.len());
        for &rule_idx in chains.rules.keys() {
            let started = Instant::now();
            let rule = &rules[rule_idx];
            let mut span = profiler.map(|p| p.span(rule_span_name(rule, rule_idx)));
            let ctx = EvalCtx::new(total, window, top, profiler);
            let runs = chains.read_runs(rule_idx, rule, &ctx)?;
            let lookups = ctx.lookups.get();
            visited += lookups.visited();
            stats.add_lookups(&lookups);
            if let Some(s) = span.as_mut() {
                s.add("rows", runs.rows.len() as u64);
            }
            stats.rules[rule_idx].wall += started.elapsed();
            read.push(runs);
        }
        // A run one frame rule extended is another's over the same head to
        // continue through its delta: only the first extends in place.
        let mut written: HashSet<Symbol> = HashSet::new();
        for runs in read {
            let started = Instant::now();
            let rule_idx = runs.rule;
            let (rule, chain) = (&rules[rule_idx], &chains.rules[&rule_idx]);
            let first = written.insert(chain.head);
            let shift = chain.shift.filter(|_| first);
            let mut step_rows = vec![0; chain.read_plan.steps.len()];
            step_rows[0] = runs.bindings;
            stats.rule_evaluations += 1;
            stats.rules[rule_idx].body_evaluations += 1;
            if !runs.rows.is_empty() {
                let ctx = EvalCtx::new(total, window, top, profiler);
                let cached = reads.read(chain, rule_idx, rule, &ctx);
                stats.add_lookups(&ctx.lookups.get());
                let mut cached = cached?;
                let n = rule.head.atom.args.len();
                // Extending a run adds no component: only a merge moves
                // the count the component budget is charged against.
                let mut components = total.component_count();
                for (start, id, at) in runs.rows {
                    let tuple = &runs.values[start..start + n];
                    let guard_cached = std::mem::replace(&mut cached, true);
                    let guards = &reads.rules[&rule_idx];
                    // Only a row that takes the close path walks its guards
                    // again, step by step: intersecting every row at every
                    // step cost `fig3_live` 8 % (docs/PERFORMANCE.md).
                    let guard = guards.set(tuple, |_| {});
                    let budget = Budget {
                        steps: config.max_iterations,
                        components: config.max_components.saturating_sub(components),
                        config,
                    };
                    let stored = (total.relation(chain.head)).zip(id.filter(|_| shift.is_some()));
                    let continued = stored.and_then(|(r, id)| {
                        let stored = r.store().comps_of(id);
                        continuation(shift?, stored, &guard, window, &budget).map(|c| (id, c))
                    });
                    if let Some((id, Continuation::Extended { last, new, steps })) = continued {
                        // The row holds the first new tooth, which every
                        // guard step passes.
                        step_rows[1..].iter_mut().for_each(|rows| *rows += 1);
                        let _rule_span = profiler.map(|p| p.span(rule_span_name(rule, rule_idx)));
                        if let Some(mut s) = profiler.map(|p| p.span("chain")) {
                            s.add("steps", steps);
                            s.add("components", 1);
                            s.add("guard_cached", guard_cached as u64);
                        }
                        total.extend_last(chain.head, id, last, new);
                        let rstats = &mut stats.rules[rule_idx];
                        rstats.derivations += 1 + steps as usize;
                        rstats.components_emitted += 1;
                        rstats.components_added += 1;
                        fed(rule_idx, tuple, &IntervalSet::from_interval(new))?;
                        continue;
                    }
                    // The row: what the guards, step by step, leave of the
                    // chain literal's.
                    let (mut row, mut step) = (at, 1);
                    guards.set(tuple, |p| {
                        row = row.intersect(p);
                        step_rows[step] += u64::from(!row.is_empty());
                        step += 1;
                    });
                    if row.is_empty() {
                        continue;
                    }
                    stats.rules[rule_idx].derivations += 1;
                    if continued.is_none() {
                        let row = ChainRow {
                            tuple,
                            set: row,
                            guard: Some(guard),
                        };
                        let bounds = (window, top);
                        let added = chains.merge_closed(
                            reads, rule_idx, rule, row, total, stats, bounds, config, 0,
                        )?;
                        components = total.component_count();
                        if !added.is_empty() {
                            fed(rule_idx, tuple, &added)?;
                        }
                    }
                }
            }
            stats.add_execution(rule_idx, &chain.read_plan, &step_rows);
            stats.rules[rule_idx].wall += started.elapsed();
        }
        Ok(visited)
    }
}
