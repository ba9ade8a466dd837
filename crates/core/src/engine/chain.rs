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
//! Soundness of closing a derived row `(binding, T)` locally:
//!
//! * the guards read only lower strata, which are complete (for the current
//!   horizon) before the stratum starts and never change while it runs, so
//!   for one binding of the head variables the *guard set*
//!   `P = horizon ∩ ⋂ gᵢ ∖ ⋃ hⱼ` is a constant of the stratum run;
//! * the body atom equals the head atom, so `p(x̄)` holding on `T` entails,
//!   by this rule alone, `p(x̄)` on `op(T) ∩ P` — for the same tuple;
//! * `◇⁻ρ` distributes over union and a punctual `⊟ρ` is a plain shift, so
//!   applying `op` to only the newest piece never misses a derivation that
//!   combines old and new time points (a non-punctual `⊟` would).
//!
//! Iterating `cur ← op(cur) ∩ P` until nothing new therefore derives exactly
//! what the round-by-round fixpoint derives for that tuple through this rule,
//! and the surrounding fixpoint loop still runs to quiescence, so the least
//! model — which is unique — is unchanged. Rules that do not match take the
//! ordinary path.

use super::eval::{eval_matom_masked, Bindings, EvalCtx};
use super::{
    budget_exceeded_components, budget_exceeded_iterations, rule_span_name, ReasonerConfig,
};
use crate::ast::{Atom, Literal, MetricAtom, Rule};
use crate::error::Result;
use crate::symbol::Symbol;
use crate::value::Value;
use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational, TimeBound};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The statically recognised parts of a self-chain rule.
struct SelfChain<'r> {
    /// The rule itself (names the closure's profiler span).
    rule: &'r Rule,
    /// Operator tree of the chain literal (`op p(x̄)`).
    chain: &'r MetricAtom,
    /// The frozen literals: `(positive, metric atom)`.
    guards: Vec<(bool, &'r MetricAtom)>,
    /// Head variables the guards mention, sorted: their values determine
    /// the guard set and key its cache.
    key_vars: Vec<Symbol>,
}

/// The self-chain rules of one stratum run, by rule index, with the guard
/// sets evaluated so far — keyed by `(rule, values of the guards' head
/// variables)`. Each set remembers the window it was evaluated over; a
/// closure starting earlier re-evaluates.
pub(crate) struct Chains<'r> {
    rules: BTreeMap<usize, SelfChain<'r>>,
    guard_sets: HashMap<(usize, Vec<Value>), (Interval, IntervalSet)>,
}

/// What closing one row produced.
pub(crate) struct Closed {
    /// The part of the row not yet stored plus everything the closure
    /// derived from it — disjoint from the stored intervals.
    pub out: IntervalSet,
    /// Closure steps that derived something new (each stands for one
    /// `(binding, intervals)` result of the round-by-round path).
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

/// Applies the chain's operators, innermost first, to a set of time points
/// at which the atom holds.
fn apply_chain(m: &MetricAtom, at: IntervalSet) -> Result<IntervalSet> {
    match m {
        MetricAtom::Rel(_) => Ok(at),
        MetricAtom::DiamondMinus(rho, inner) => {
            Ok(apply_chain(inner, at)?.checked_diamond_minus(rho)?)
        }
        MetricAtom::BoxMinus(rho, inner) => Ok(apply_chain(inner, at)?.checked_box_minus(rho)?),
        _ => unreachable!("detection admits only ◇⁻/⊟ chains"),
    }
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

impl<'r> SelfChain<'r> {
    /// Recognises a self-chain rule of the stratum whose head predicates
    /// are `current`; `None` sends the rule down the ordinary path.
    fn detect(rule: &'r Rule, current: &HashSet<Symbol>) -> Option<SelfChain<'r>> {
        let head = &rule.head;
        if !head.ops.is_empty() || head.aggregate.is_some() || head.atom.time_var.is_some() {
            return None;
        }
        let mut chain = None;
        let mut guards = Vec::new();
        for lit in &rule.body {
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
                chain = Some(m);
            } else if atoms.iter().any(|a| a.time_var.is_some()) {
                return None;
            } else {
                guards.push((positive, m));
            }
        }
        let chain = chain?;
        let head_vars = head.atom.variables();
        let mut key_vars: Vec<Symbol> = Vec::new();
        let mut locals: HashSet<Symbol> = HashSet::new();
        for (_, m) in &guards {
            let vars: HashSet<Symbol> = m.variables().into_iter().collect();
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
        Some(SelfChain {
            rule,
            chain,
            guards,
            key_vars,
        })
    }

    /// Evaluates the guard set of one binding of the key variables over
    /// `window`.
    fn eval_guards(
        &self,
        key_vals: &[Value],
        window: Interval,
        ctx: &EvalCtx<'_>,
    ) -> Result<IntervalSet> {
        let binding: Bindings = self
            .key_vars
            .iter()
            .copied()
            .zip(key_vals.iter().copied())
            .collect();
        let mut set = IntervalSet::from_interval(window);
        for (positive, m) in &self.guards {
            let Some(mask) = set.hull() else { break };
            let mut hits = IntervalSet::new();
            for (_, ivs) in eval_matom_masked(m, ctx, false, &binding, Some(mask), None)? {
                hits.union_with(&ivs);
            }
            set = if *positive {
                set.intersect(&hits)
            } else {
                set.difference(&hits)
            };
        }
        Ok(set)
    }
}

impl<'r> Chains<'r> {
    /// Recognises the self-chain rules among `rules` (index, rule) of the
    /// stratum whose head predicates are `current`.
    pub(crate) fn detect(
        rules: impl Iterator<Item = (usize, &'r Rule)>,
        current: &HashSet<Symbol>,
    ) -> Chains<'r> {
        Chains {
            rules: rules
                .filter_map(|(i, rule)| SelfChain::detect(rule, current).map(|c| (i, c)))
                .collect(),
            guard_sets: HashMap::new(),
        }
    }

    /// Is rule `rule_idx` closed by [`Chains::close`]?
    pub(crate) fn contains(&self, rule_idx: usize) -> bool {
        self.rules.contains_key(&rule_idx)
    }

    /// Closes one derived row of self-chain rule `rule_idx`: drops the part
    /// of `row` the tuple already stores (its consequences were, or are
    /// being, derived through the delta), then iterates
    /// `cur ← op(cur) ∩ P` from the rest until nothing new appears. `None`
    /// when the row held nothing new.
    ///
    /// Every step is charged against `max_iterations` (on top of the
    /// `iteration`s the stratum already ran) and the accumulated components
    /// against `max_components`, so an unbounded horizon errs after
    /// O(budget) work instead of never returning.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close(
        &mut self,
        rule_idx: usize,
        binding: &Bindings,
        row: IntervalSet,
        stored: &[Interval],
        ctx: &EvalCtx<'_>,
        config: &ReasonerConfig,
        iteration: usize,
    ) -> Result<Option<Closed>> {
        let chain = &self.rules[&rule_idx];
        let fresh = minus_stored(row, stored);
        let Some(first) = fresh.components().first() else {
            return Ok(None);
        };
        let _rule_span = ctx
            .profiler
            .map(|p| p.span(rule_span_name(chain.rule, rule_idx)));
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
        let key_vals: Vec<Value> = chain
            .key_vars
            .iter()
            .map(|v| {
                *binding
                    .get(v)
                    .expect("head variables are bound once the head grounded")
            })
            .collect();
        let key = (rule_idx, key_vals);
        let guard_cached = self
            .guard_sets
            .get(&key)
            .is_some_and(|(w, _)| w.contains_interval(&window));
        if !guard_cached {
            let set = chain.eval_guards(&key.1, window, ctx)?;
            self.guard_sets.insert(key.clone(), (window, set));
        }
        let guard = &self.guard_sets[&key].1;
        let components_left = config
            .max_components
            .saturating_sub(ctx.total.component_count());
        let mut out = fresh.clone();
        let mut cur = fresh;
        let mut steps = 0usize;
        loop {
            if iteration + steps >= config.max_iterations {
                return Err(budget_exceeded_iterations(config));
            }
            let shifted = apply_chain(chain.chain, cur)?;
            // Binary-search clips: `P` can hold one component per timeline
            // second, the shifted piece rarely more than one.
            let mut next = IntervalSet::new();
            for c in shifted.components() {
                next.union_with(&IntervalSet::clip_components(guard.components(), c));
            }
            let Some(first) = next.components().first() else {
                break;
            };
            // A strictly-past chain mostly lands past everything known for
            // the tuple; only a piece that reaches back needs subtracting.
            let past = |known: &[Interval]| known.last().is_none_or(|l| l.entirely_before(first));
            let next = if past(out.components()) && past(stored) {
                next
            } else {
                minus_stored(next.difference(&out), stored)
            };
            if next.is_empty() {
                break;
            }
            steps += 1;
            out.union_with(&next);
            if out.components().len() > components_left {
                return Err(budget_exceeded_components(config));
            }
            cur = next;
        }
        if let Some(s) = span.as_mut() {
            s.add("steps", steps as u64);
            s.add("components", out.components().len() as u64);
            s.add("guard_cached", guard_cached as u64);
        }
        Ok(Some(Closed { out, steps }))
    }
}
