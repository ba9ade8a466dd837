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
//! Detection is static ([`Chains::detect`] runs once per stratum in
//! `Reasoner::new`); only the guard sets ([`GuardSets`]) are per stratum run.

use super::eval::{eval_matom_masked, Bindings, EvalCtx};
use super::ReasonerConfig;
use super::{budget_exceeded_components, budget_exceeded_iterations, rule_span_name};
use crate::ast::{Atom, Literal, MetricAtom, Rule, Term};
use crate::error::{Error, Result};
use crate::symbol::Symbol;
use crate::value::Value;
use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational, TimeBound};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The statically recognised parts of a self-chain rule, as indices into
/// the rule's body (the rule itself stays in the program).
struct SelfChain {
    /// Head predicate — the one relation the rule both reads and writes.
    head: Symbol,
    /// Body index of the chain literal (`op p(x̄)`).
    chain: usize,
    /// The frozen literals: `(positive, body index)`.
    guards: Vec<(bool, usize)>,
    /// Head variables the guards mention, sorted, each with its position
    /// in the head: their values determine the guard set and key its cache.
    key_vars: Vec<(Symbol, usize)>,
    /// The chain's total shift when all its operators are punctual.
    shift: Option<Rational>,
}

/// The self-chain rules of one stratum, by rule index.
pub(crate) struct Chains {
    rules: BTreeMap<usize, SelfChain>,
}

/// The guard sets one stratum run has evaluated so far, keyed by `(rule,
/// values of the guards' head variables)`. Each set remembers the window it
/// was evaluated over; a closure starting earlier re-evaluates.
pub(crate) type GuardSets = HashMap<(usize, Vec<Value>), (Interval, IntervalSet)>;

/// What closing one row produced.
pub(crate) struct Closed {
    /// The part of the row not yet stored plus everything the closure
    /// derived from it — disjoint from the stored intervals but for the one
    /// stored second a lone new one is anchored to (see [`jump`]).
    pub out: IntervalSet,
    /// Closure steps that derived something new (each stands for one head
    /// row of the round-by-round path).
    pub steps: usize,
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

impl SelfChain {
    /// Recognises a self-chain rule of the stratum whose head predicates
    /// are `current`; `None` sends the rule down the ordinary path.
    fn detect(rule: &Rule, current: &HashSet<Symbol>) -> Option<SelfChain> {
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
        let head_vars = head.atom.variables();
        let mut key_vars: Vec<Symbol> = Vec::new();
        let mut locals: HashSet<Symbol> = HashSet::new();
        for &(_, li) in &guards {
            let vars: HashSet<Symbol> = matom(rule, li).variables().into_iter().collect();
            for v in vars {
                if head_vars.contains(&v) {
                    if !key_vars.contains(&v) {
                        key_vars.push(v);
                    }
                } else if !locals.insert(v) {
                    // Shared between two guards: a join variable, not an
                    // existential — the guard set would not factor.
                    return None;
                }
            }
        }
        key_vars.sort();
        let key_vars = key_vars
            .into_iter()
            .map(|v| {
                let at = head.atom.args.iter().position(|t| *t == Term::Var(v));
                (v, at.expect("a head variable has a head position"))
            })
            .collect();
        Some(SelfChain {
            head: head.atom.pred,
            chain,
            guards,
            key_vars,
            shift: punctual_shift(matom(rule, chain)),
        })
    }

    /// Evaluates the guard set of one binding of the key variables over
    /// `window`.
    fn eval_guards(
        &self,
        rule: &Rule,
        key_vals: &[Value],
        window: Interval,
        ctx: &EvalCtx<'_>,
    ) -> Result<IntervalSet> {
        let binding: Bindings = self
            .key_vars
            .iter()
            .map(|&(v, _)| v)
            .zip(key_vals.iter().copied())
            .collect();
        let mut set = IntervalSet::from_interval(window);
        for &(positive, li) in &self.guards {
            let Some(mask) = set.hull() else { break };
            let mut hits = IntervalSet::new();
            let m = matom(rule, li);
            eval_matom_masked(m, ctx, false, &binding, Some(mask), &mut |_, ivs| {
                hits.union_with(&ivs);
                Ok(())
            })?;
            set = if positive {
                set.intersect(&hits)
            } else {
                set.difference(&hits)
            };
        }
        Ok(set)
    }
}

impl Chains {
    /// Recognises the self-chain rules among `rules` (index, rule) of the
    /// stratum whose head predicates are `current`.
    pub(crate) fn detect<'r>(
        rules: impl Iterator<Item = (usize, &'r Rule)>,
        current: &HashSet<Symbol>,
    ) -> Chains {
        Chains {
            rules: rules
                .filter_map(|(i, rule)| SelfChain::detect(rule, current).map(|c| (i, c)))
                .collect(),
        }
    }

    /// Is rule `rule_idx` closed by [`Chains::close`]?
    pub(crate) fn contains(&self, rule_idx: usize) -> bool {
        self.rules.contains_key(&rule_idx)
    }

    /// The self-chain rules over head predicate `head` other than `except`:
    /// the rules whose delta a row merged into `head` by `except` belongs to.
    pub(crate) fn others_over(
        &self,
        head: Symbol,
        except: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        self.rules
            .iter()
            .filter(move |(&i, c)| i != except && c.head == head)
            .map(|(&i, _)| i)
    }

    /// Closes one derived head row of self-chain rule `rule_idx` (`rule`):
    /// drops the part of `row` the head `tuple` already stores (its
    /// consequences were, or are being, derived through the delta), then
    /// iterates
    /// `cur ← op(cur) ∩ P` from the rest until nothing new appears. `None`
    /// when the row held nothing new.
    ///
    /// Every step is charged against `max_iterations` (on top of the
    /// `iteration`s the stratum already ran) and the accumulated components
    /// against `max_components`, so an unbounded horizon errs after
    /// O(budget) work instead of never returning.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close(
        &self,
        guard_sets: &mut GuardSets,
        rule_idx: usize,
        rule: &Rule,
        tuple: &[Value],
        row: IntervalSet,
        stored: &[Interval],
        ctx: &EvalCtx<'_>,
        config: &ReasonerConfig,
        iteration: usize,
    ) -> Result<Option<Closed>> {
        let chain = &self.rules[&rule_idx];
        let fresh = minus_stored(row, stored);
        let Some(first) = fresh.components().first().copied() else {
            return Ok(None);
        };
        let _rule_span = ctx.profiler.map(|p| p.span(rule_span_name(rule, rule_idx)));
        let mut span = ctx.profiler.map(|p| p.span("chain"));
        // The chain only moves forward in time, so the guards matter from
        // the first new point on: a session advance never scans history.
        let window = Interval::new(
            first.lo(),
            first.lo_closed(),
            ctx.horizon.hi(),
            ctx.horizon.hi_closed(),
        )
        .expect("a row clipped to the horizon starts inside it");
        let key_vals: Vec<Value> = chain.key_vars.iter().map(|&(_, at)| tuple[at]).collect();
        let key = (rule_idx, key_vals);
        let guard_cached = guard_sets
            .get(&key)
            .is_some_and(|(w, _)| w.contains_interval(&window));
        if !guard_cached {
            let set = chain.eval_guards(rule, &key.1, window, ctx)?;
            guard_sets.insert(key.clone(), (window, set));
        }
        let guard = guard_sets[&key].1.components();
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
        Ok(Some(Closed { out, steps }))
    }
}
