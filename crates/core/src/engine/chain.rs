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
use crate::ast::{Atom, Literal, MetricAtom, Rule};
use crate::error::Result;
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
    /// Head variables the guards mention, sorted: their values determine
    /// the guard set and key its cache.
    key_vars: Vec<Symbol>,
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

/// The metric atom of a positive or negated body literal.
fn matom(rule: &Rule, literal: usize) -> &MetricAtom {
    match &rule.body[literal] {
        Literal::Pos(m) | Literal::Neg(m) => m,
        Literal::Constraint(..) => unreachable!("detection admits no constraints"),
    }
}

/// Applies the chain's operators, innermost first, in place to the sorted,
/// pairwise non-connected components `at` (time points at which the atom
/// holds); the result satisfies the same invariant.
fn apply_chain(m: &MetricAtom, at: &mut Vec<Interval>) -> Result<()> {
    match m {
        MetricAtom::Rel(_) => {}
        MetricAtom::DiamondMinus(rho, inner) => {
            apply_chain(inner, at)?;
            // Every component widens by the same window, so the order holds;
            // neighbours the window bridges are re-coalesced.
            let mut kept = 0usize;
            for i in 0..at.len() {
                let c = at[i].checked_diamond_minus(rho)?;
                let bridged = kept
                    .checked_sub(1)
                    .and_then(|last| at[last].union_if_connected(&c));
                match bridged {
                    Some(u) => at[kept - 1] = u,
                    None => {
                        at[kept] = c;
                        kept += 1;
                    }
                }
            }
            at.truncate(kept);
        }
        MetricAtom::BoxMinus(rho, inner) => {
            apply_chain(inner, at)?;
            // Punctual `⊟` is a plain shift: order and gaps are preserved.
            let mut kept = 0usize;
            for i in 0..at.len() {
                if let Some(c) = at[i].checked_box_minus(rho)? {
                    at[kept] = c;
                    kept += 1;
                }
            }
            at.truncate(kept);
        }
        _ => unreachable!("detection admits only ◇⁻/⊟ chains"),
    }
    Ok(())
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
        Some(SelfChain {
            head: head.atom.pred,
            chain,
            guards,
            key_vars,
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
            .copied()
            .zip(key_vals.iter().copied())
            .collect();
        let mut set = IntervalSet::from_interval(window);
        for &(positive, li) in &self.guards {
            let Some(mask) = set.hull() else { break };
            let mut hits = IntervalSet::new();
            let m = matom(rule, li);
            for (_, ivs) in eval_matom_masked(m, ctx, false, &binding, Some(mask))? {
                hits.union_with(&ivs);
            }
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

    /// Closes one derived row of self-chain rule `rule_idx` (`rule`): drops
    /// the part of `row` the tuple already stores (its consequences were, or
    /// are being, derived through the delta), then iterates
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
        binding: &Bindings,
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
        let guard_cached = guard_sets
            .get(&key)
            .is_some_and(|(w, _)| w.contains_interval(&window));
        if !guard_cached {
            let set = chain.eval_guards(rule, &key.1, window, ctx)?;
            guard_sets.insert(key.clone(), (window, set));
        }
        let guard = guard_sets[&key].1.components();
        let components_left = config
            .max_components
            .saturating_sub(ctx.total.component_count());
        let op = matom(rule, chain.chain);
        // Two component buffers swap roles every step: `cur` is shifted in
        // place, `next` receives its clip against the guard set.
        let mut cur: Vec<Interval> = fresh.components().to_vec();
        let mut next: Vec<Interval> = Vec::new();
        let mut out = fresh;
        // First guard component not entirely before the piece being
        // clipped. The chain is strictly past, so the piece — and with it
        // the cursor — only moves forward: one binary search (a cached guard
        // set can start far before the row), then monotone steps.
        let mut cursor = guard.partition_point(|p| p.entirely_before(&first));
        let mut steps = 0usize;
        loop {
            if iteration + steps >= config.max_iterations {
                return Err(budget_exceeded_iterations(config));
            }
            apply_chain(op, &mut cur)?;
            let Some(lead) = cur.first() else {
                break;
            };
            while guard.get(cursor).is_some_and(|p| p.entirely_before(lead)) {
                cursor += 1;
            }
            let mut g = cursor;
            next.clear();
            for c in &cur {
                // A row seeded at several instants closes them in lockstep;
                // the pieces after the lead can lie hundreds of guard
                // components ahead, so they search instead of walking.
                if guard.get(g).is_some_and(|p| p.entirely_before(c)) {
                    g += guard[g..].partition_point(|p| p.entirely_before(c));
                }
                // The last guard component a piece touches may reach into
                // the following piece too, so `g` stays on it.
                for p in guard[g..].iter().take_while(|p| !c.entirely_before(p)) {
                    next.extend(p.intersect(c));
                }
            }
            let Some(first) = next.first().copied() else {
                break;
            };
            // A strictly-past chain mostly lands past everything known for
            // the tuple; only a piece that reaches back needs subtracting.
            let past = |known: &[Interval]| known.last().is_none_or(|l| l.entirely_before(&first));
            if !(past(out.components()) && past(stored)) {
                let reached_back = IntervalSet::from_sorted(next.clone());
                let rest = minus_stored(reached_back.difference(&out), stored);
                next.clear();
                next.extend_from_slice(rest.components());
            }
            if next.is_empty() {
                break;
            }
            steps += 1;
            for &c in &next {
                out.insert(c);
            }
            if out.components().len() > components_left {
                return Err(budget_exceeded_components(config));
            }
            std::mem::swap(&mut cur, &mut next);
        }
        if let Some(s) = span.as_mut() {
            s.add("steps", steps as u64);
            s.add("components", out.components().len() as u64);
            s.add("guard_cached", guard_cached as u64);
        }
        Ok(Some(Closed { out, steps }))
    }
}
