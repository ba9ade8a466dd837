//! Explanation trees, computed from the finished model on demand.
//!
//! The paper's central claim for DatalogMTL is *explainability*: every state
//! amount of the smart contract should be attributable to contract rules and
//! user actions. Nothing is recorded while the fixpoint runs. To explain
//! `p(ā)@t`, [`Reasoner::explain`] re-runs every rule with head `p` against
//! the model, its head variables bound to `ā`, over the body times whose
//! derivation reaches `t` through the head operators. Each binding is one
//! way to derive the fact; its positive body atoms, each at a witness inside
//! its operator window, are the premises. A persistence step is explained
//! from where its run starts, in one jump however long the run.
//!
//! Among all derivations the explainer returns a shortest one, by iterative
//! deepening on tree height, ties broken by rule order, then executor order.
//! The tree is a function of the model, the input and the horizon alone, so
//! a [`Session`](super::Session) explains a fact byte for byte as a batch run
//! over the same facts does.

use super::eval::{execute_plan, Bindings, EvalCtx, JoinCounters};
use super::{aggregate, apply_head_op, plan, Reasoner};
use crate::ast::{Atom, HeadOp, Literal, MetricAtom, Rule, Term};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use mtl_temporal::{Interval, IntervalSet, Rational, TimeBound};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// Backstop on tree height: a fact with no derivation this shallow is
/// explained by the first way to derive each node, cut at this depth.
const MAX_DEPTH: usize = 64;

impl Reasoner {
    /// Explains why `pred(args)` holds at `t` in `model`, the
    /// materialization of `input`, as a shortest derivation tree (see
    /// `docs/OBSERVABILITY.md`, "Why: derivation trees"); a fact that holds
    /// in `input` is an input leaf. `Ok(None)` when the fact does not hold
    /// in `model` at `t`. Read-only: [`Reasoner::materialize`] prepares
    /// nothing for it.
    pub fn explain(
        &self,
        input: &Database,
        model: &Database,
        pred: &str,
        args: &[Value],
        t: i64,
    ) -> Result<Option<Explanation>> {
        self.explain_within(input, model, pred, args, t, self.config.horizon)
    }

    /// [`Reasoner::explain`] over the derivation window `horizon`, which is
    /// also where `top` holds (a session's `[start, now]`).
    pub(super) fn explain_within(
        &self,
        input: &Database,
        model: &Database,
        pred: &str,
        args: &[Value],
        t: i64,
        horizon: Interval,
    ) -> Result<Option<Explanation>> {
        let mut span = self.config.profiler.as_ref().map(|p| p.span("explain"));
        let root = Key(Symbol::new(pred), args.into(), Rational::integer(t));
        if !model.holds_at_rational(root.0, &root.1, root.2) {
            return Ok(None);
        }
        let mut explainer = Explainer {
            rules: &self.program.rules,
            persisted: plan::persisted_predicates(&self.program),
            input,
            model,
            horizon,
            counters: JoinCounters::default(),
            steps: HashMap::new(),
            no_derivation_at: HashMap::new(),
            shortest: HashMap::new(),
            rule_instances: 0,
        };
        let tree = if explainer.derive(&root, MAX_DEPTH)? {
            explainer.tree(&root)
        } else {
            explainer.truncated(&root, MAX_DEPTH)?
        };
        if let Some(s) = span.as_mut() {
            s.add("nodes", tree.nodes() as u64);
            s.add("rule_instances", explainer.rule_instances);
            s.add("height", tree.height() as u64);
        }
        Ok(Some(tree))
    }
}

/// A ground fact at one time point: what one tree node explains.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key(Symbol, Tuple, Rational);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.1.iter().map(Value::to_string).collect();
        write!(f, "{}({})@{}", self.0, args.join(", "), self.2)
    }
}

/// One way to derive a fact: the rendered rule label (`None` for an input
/// fact) and the premises.
struct Step {
    rule: Option<String>,
    premises: Vec<Key>,
}

/// The search state of one explanation. Owns its join counters, which no
/// run statistics ever see.
struct Explainer<'a> {
    rules: &'a [Rule],
    persisted: HashSet<Symbol>,
    input: &'a Database,
    model: &'a Database,
    /// Where bodies are evaluated and `top` holds.
    horizon: Interval,
    counters: JoinCounters,
    /// Per fact, every way to derive it: its input step alone, or the
    /// rules' in rule then executor order.
    steps: HashMap<Key, Rc<Vec<Step>>>,
    /// Per fact, the largest height at which it has no derivation.
    no_derivation_at: HashMap<Key, usize>,
    /// Per fact, its shortest derivation: the height and the step.
    shortest: HashMap<Key, (usize, usize)>,
    rule_instances: u64,
}

impl Explainer<'_> {
    /// Whether `fact` has a derivation of height at most `budget`. The first
    /// height at which it has one is its shortest, kept in `shortest`; the
    /// premises of that step have lower shortest heights, so no fact repeats
    /// on a root-to-leaf path.
    fn derive(&mut self, fact: &Key, budget: usize) -> Result<bool> {
        if let Some(&(height, _)) = self.shortest.get(fact) {
            return Ok(height <= budget);
        }
        let tried = self.no_derivation_at.get(fact).copied().unwrap_or(0);
        for height in tried + 1..=budget {
            let steps = self.steps_of(fact)?;
            'steps: for (i, step) in steps.iter().enumerate() {
                for premise in &step.premises {
                    if !self.derive(premise, height - 1)? {
                        continue 'steps;
                    }
                }
                self.shortest.insert(fact.clone(), (height, i));
                return Ok(true);
            }
            self.no_derivation_at.insert(fact.clone(), height);
        }
        Ok(false)
    }

    /// The tree of a derived fact's shortest derivation.
    fn tree(&self, fact: &Key) -> Explanation {
        let step = &self.steps[fact][self.shortest[fact].1];
        Explanation {
            fact: fact.to_string(),
            rule: step.rule.clone(),
            premises: step.premises.iter().map(|p| self.tree(p)).collect(),
        }
    }

    /// The [`MAX_DEPTH`] backstop: the first step of each node without a
    /// shortest derivation, the nodes at depth `depth` without premises.
    fn truncated(&mut self, fact: &Key, depth: usize) -> Result<Explanation> {
        if self.shortest.contains_key(fact) {
            return Ok(self.tree(fact));
        }
        let steps = self.steps_of(fact)?;
        let step = steps.first().ok_or_else(|| {
            Error::Eval(format!(
                "{fact} holds but no rule derives it from the input"
            ))
        })?;
        let mut premises = Vec::new();
        for p in step.premises.iter().filter(|_| depth > 1) {
            premises.push(self.truncated(p, depth - 1)?);
        }
        Ok(Explanation {
            fact: fact.to_string(),
            rule: step.rule.clone(),
            premises,
        })
    }

    /// Every way to derive `fact`, computed on first use.
    fn steps_of(&mut self, fact: &Key) -> Result<Rc<Vec<Step>>> {
        if let Some(steps) = self.steps.get(fact) {
            return Ok(Rc::clone(steps));
        }
        let mut steps = Vec::new();
        let rules = self.rules;
        let in_input = self.input.holds_at_rational(fact.0, &fact.1, fact.2);
        for (idx, rule) in rules.iter().enumerate().filter(|_| !in_input) {
            if rule.head.atom.pred != fact.0 || rule.head.atom.arity() != fact.1.len() {
                continue;
            }
            match rule.head.aggregate {
                None => self.rule_steps(idx, rule, fact, &mut steps)?,
                // An aggregate value is a leaf labelled with its group's
                // lead rule: its contributions are the whole group's.
                Some(_) if self.aggregate_derives(idx, fact)? => steps.push(Step {
                    rule: Some(label(rule, idx)),
                    premises: Vec::new(),
                }),
                Some(_) => {}
            }
        }
        if in_input {
            steps.push(Step {
                rule: None,
                premises: Vec::new(),
            });
        }
        let steps = Rc::new(steps);
        self.steps.insert(fact.clone(), Rc::clone(&steps));
        Ok(steps)
    }

    /// An evaluation context over `window` of the model.
    fn ctx(&self, window: Interval) -> EvalCtx<'_> {
        EvalCtx {
            total: self.model,
            delta: None,
            horizon: window,
            top: self.horizon,
            threads: 1,
            pool: None,
            counters: &self.counters,
            profiler: None,
        }
    }

    /// Whether rule `lead` leads its aggregate group (the aggregate rules
    /// with its head predicate) and the group derives `fact`.
    fn aggregate_derives(&mut self, lead: usize, fact: &Key) -> Result<bool> {
        let rules = self.rules;
        let in_group = |r: &&Rule| r.head.aggregate.is_some() && r.head.atom.pred == fact.0;
        let group: Vec<&Rule> = rules.iter().filter(in_group).collect();
        let window = preimage(&rules[lead], fact.2)?.intersect(&self.horizon);
        let (true, Some(window)) = (std::ptr::eq(group[0], &rules[lead]), window) else {
            return Ok(false);
        };
        let plans: Vec<_> = (group.iter())
            .map(|r| plan::build_plan(r, None, &self.persisted))
            .collect();
        self.rule_instances += group.len() as u64;
        let members: Vec<_> = group.into_iter().zip(&plans).collect();
        for (tuple, interval) in aggregate::eval_aggregate_rules(&members, &self.ctx(window))? {
            let mut ivs = IntervalSet::from_interval(interval);
            for op in &rules[lead].head.ops {
                ivs = apply_head_op(op, &ivs)?;
            }
            if same_tuple(&tuple, &fact.1) && ivs.contains(fact.2) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The ways rule `idx` derives `fact`, appended to `steps`: one per
    /// binding of the rule run with its head variables bound to the fact's
    /// arguments.
    fn rule_steps(
        &mut self,
        idx: usize,
        rule: &Rule,
        fact: &Key,
        steps: &mut Vec<Step>,
    ) -> Result<()> {
        let Some(preimage) = preimage(rule, fact.2)?.intersect(&self.horizon) else {
            return Ok(());
        };
        let mut binding = Bindings::default();
        for (term, v) in rule.head.atom.args.iter().zip(fact.1.iter()) {
            if let Term::Var(x) = term {
                binding.insert(*x, *v);
            }
        }
        // Positive literals that may read the head fact itself one punctual
        // shift back: persistence steps, explained from where their run
        // starts. The rule then runs over the head's run up to `t`, so the
        // body-true run holding `t` is whole.
        let persistence: Vec<(&Atom, Rational)> = (rule.body.iter())
            .filter(|_| rule.head.ops.is_empty())
            .filter_map(|lit| {
                let Literal::Pos(m) = lit else { return None };
                let shift = chain_shift(m).filter(|s| *s > Rational::ZERO)?;
                let [atom] = m.atoms()[..] else { return None };
                (atom.pred == fact.0).then_some((atom, shift))
            })
            .collect();
        let held = self.held(fact.0, &fact.1);
        let window = (persistence.iter())
            .map(|&(_, shift)| run_start(held, fact.2, shift))
            .min()
            .and_then(|lo| Interval::closed(lo, fact.2).intersect(&self.horizon))
            .unwrap_or(preimage);
        let label = label(rule, idx);
        self.rule_instances += 1;
        let plan = plan::build_plan(rule, None, &self.persisted);
        for (binding, body) in execute_plan(rule, &plan, &self.ctx(window), binding)? {
            let is_fact =
                |atom: &Atom| ground(atom, &binding).is_some_and(|g| same_tuple(&g, &fact.1));
            if !is_fact(&rule.head.atom) {
                continue;
            }
            let (at, text) = match persistence.iter().find(|(atom, _)| is_fact(atom)) {
                Some(&(_, shift)) if body.contains(fact.2) => {
                    let origin = run_start(body.components(), fact.2, shift);
                    let since = format!("{label}, held since @{origin}");
                    (
                        origin,
                        if origin == fact.2 {
                            label.clone()
                        } else {
                            since
                        },
                    )
                }
                _ => match nearest_point(&body.intersect_interval(&preimage), fact.2) {
                    Some(at) => (at, label.clone()),
                    None => continue,
                },
            };
            let mut premises = Vec::new();
            for lit in &rule.body {
                let Literal::Pos(m) = lit else { continue };
                let mut windows = Vec::new();
                atom_windows(m, Interval::point(at), &mut windows)?;
                for (atom, window) in m.atoms().into_iter().zip(windows) {
                    let Some(args) = ground(atom, &binding) else {
                        continue;
                    };
                    let held = IntervalSet::clip_components(self.held(atom.pred, &args), &window);
                    // A `since` operand the match did not need has none.
                    if let Some(t) = nearest_point(&held, at) {
                        premises.push(Key(atom.pred, args, t));
                    }
                }
            }
            steps.push(Step {
                rule: Some(text),
                premises,
            });
        }
        Ok(())
    }

    fn held(&self, pred: Symbol, args: &[Value]) -> &[Interval] {
        (self.model.relation(pred))
            .and_then(|r| r.components_of(args))
            .unwrap_or(&[])
    }
}

/// The body times whose derivation reaches `t` through the head operators
/// of `rule` (`{t}` without any): `⊟ρ` in the head puts a body true at `s`
/// on `s ⊖ ρ`, `⊞ρ` on `s ⊕ ρ`.
fn preimage(rule: &Rule, t: Rational) -> Result<Interval> {
    let mut at = Interval::point(t);
    for op in &rule.head.ops {
        at = match op {
            HeadOp::BoxMinus(rho) => at.checked_diamond_minus(rho)?,
            HeadOp::BoxPlus(rho) => at.checked_diamond_plus(rho)?,
        };
    }
    Ok(at)
}

/// Pushes, for each relational atom of `m` in [`MetricAtom::atoms`] order,
/// the window its witness lies in for `m` to hold on `at`. The first
/// operand of `since` / `until` holds from its match to `at`, so at `at`.
fn atom_windows(m: &MetricAtom, at: Interval, out: &mut Vec<Interval>) -> Result<()> {
    match m {
        MetricAtom::Top | MetricAtom::Bottom => {}
        MetricAtom::Rel(_) => out.push(at),
        MetricAtom::BoxMinus(rho, inner) | MetricAtom::DiamondMinus(rho, inner) => {
            atom_windows(inner, at.checked_diamond_plus(rho)?, out)?;
        }
        MetricAtom::BoxPlus(rho, inner) | MetricAtom::DiamondPlus(rho, inner) => {
            atom_windows(inner, at.checked_diamond_minus(rho)?, out)?;
        }
        MetricAtom::Since(m1, rho, m2) => {
            atom_windows(m1, at, out)?;
            atom_windows(m2, at.checked_diamond_plus(rho)?, out)?;
        }
        MetricAtom::Until(m1, rho, m2) => {
            atom_windows(m1, at, out)?;
            atom_windows(m2, at.checked_diamond_minus(rho)?, out)?;
        }
    }
    Ok(())
}

/// The atom's arguments under `binding`, if every variable is bound.
fn ground(atom: &Atom, binding: &Bindings) -> Option<Tuple> {
    (atom.args.iter())
        .map(|term| match term {
            Term::Val(v) => Some(*v),
            Term::Var(x) => binding.get(x).copied(),
        })
        .collect()
}

fn label(rule: &Rule, idx: usize) -> String {
    rule.label.clone().unwrap_or_else(|| format!("rule #{idx}"))
}

/// Semantic equality of two ground tuples (`3` and `3.0` are one value).
fn same_tuple(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.semantic_eq(y))
}

/// Where a run that reaches `t` in steps of `shift` through `comps`
/// (sorted, disjoint, holding `t`) starts: the earliest `t − k·shift` with
/// every step from it to `t` in `comps`. Walks components, not points, so
/// it does not depend on how a run is split into components.
fn run_start(comps: &[Interval], t: Rational, shift: Rational) -> Rational {
    let mut at = t;
    loop {
        // The component holding `at`, found as `components_contain` does.
        let idx = comps.partition_point(|c| matches!(c.hi(), TimeBound::Finite(h) if h < at));
        let holding = comps[idx.saturating_sub(1)..].iter().take(2);
        let Some(c) = holding.into_iter().find(|c| c.contains(at)) else {
            return at;
        };
        let Some(lo) = c.lo().finite() else {
            return at;
        };
        let mut start = at;
        if at.checked_sub(shift).is_some_and(|prev| c.contains(prev)) {
            start = at - shift * Rational::integer(((at - lo) / shift).floor());
            if !c.contains(start) {
                // An open lower end: the run starts one step after it.
                start = start + shift;
            }
        }
        match start.checked_sub(shift) {
            Some(prev) if IntervalSet::components_contain(comps, prev) => at = prev,
            _ => return start,
        }
    }
}

/// Total backward shift of a punctual unary operator chain: `⊟[c]`/`◇⁻[c]`
/// look `c` into the past (positive shift), the future operators the
/// opposite. `None` when the chain has non-punctual windows or binary
/// operators.
fn chain_shift(m: &MetricAtom) -> Option<Rational> {
    match m {
        MetricAtom::Rel(_) => Some(Rational::ZERO),
        MetricAtom::BoxMinus(rho, inner) | MetricAtom::DiamondMinus(rho, inner) => {
            let c = rho.as_interval().punctual_value()?;
            Some(chain_shift(inner)? + c)
        }
        MetricAtom::BoxPlus(rho, inner) | MetricAtom::DiamondPlus(rho, inner) => {
            let c = rho.as_interval().punctual_value()?;
            Some(chain_shift(inner)? - c)
        }
        _ => None,
    }
}

/// The point of `set` nearest to `s`, the earlier one on a tie. Clipping
/// first makes a bound the tooth next to `s` when `s` falls between the
/// teeth of a run.
fn nearest_point(set: &IntervalSet, s: Rational) -> Option<Rational> {
    let below = set.intersect_interval(&Interval::up_to(s)).max_point();
    let above = set
        .intersect_interval(&Interval::from_instant(s))
        .min_point();
    [below, above]
        .into_iter()
        .filter_map(|p| p?.finite().filter(|&p| set.contains(p)))
        .min_by_key(|&p| ((p - s).abs(), p))
}

/// A derivation tree: the fact, the rule that derived it (or `None` for
/// input facts), and the explanations of its premises.
#[derive(Debug)]
pub struct Explanation {
    /// Rendered fact, e.g. `margin(acc1, 100.0)@10`.
    pub fact: String,
    /// Label of the deriving rule; `None` for EDB facts.
    pub rule: Option<String>,
    /// Premise explanations.
    pub premises: Vec<Explanation>,
}

impl Explanation {
    /// Nodes in the tree.
    pub fn nodes(&self) -> usize {
        1 + self.premises.iter().map(Explanation::nodes).sum::<usize>()
    }

    /// Nodes on the longest root-to-leaf path.
    pub fn height(&self) -> usize {
        1 + self
            .premises
            .iter()
            .map(Explanation::height)
            .max()
            .unwrap_or(0)
    }

    fn render(&self, indent: usize, out: &mut String) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&self.fact);
        if let Some(rule) = &self.rule {
            out.push_str(&format!("   [by {rule}]"));
        } else {
            out.push_str("   [input]");
        }
        out.push('\n');
        for p in &self.premises {
            p.render(indent + 1, out);
        }
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(0, &mut s);
        write!(f, "{}", s.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReasonerConfig;
    use crate::parser::{parse_facts, parse_program};

    /// Materializes `rules` over `facts` on `[0, hi]` and explains
    /// `pred(arg)@t` against the result.
    fn explain(
        rules: &str,
        facts: &str,
        hi: i64,
        (pred, arg): (&str, &str),
        t: i64,
    ) -> Option<String> {
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        let config = ReasonerConfig::default().with_horizon(0, hi);
        let reasoner = Reasoner::new(parse_program(rules).unwrap(), config).unwrap();
        let model = reasoner.materialize(&db).unwrap().database;
        let tree = reasoner
            .explain(&db, &model, pred, &[Value::sym(arg)], t)
            .unwrap();
        tree.map(|e| e.to_string())
    }

    const IS_OPEN: &str = "isOpen(A) :- tranM(A, M).\n\
                           isOpen(A) :- boxminus isOpen(A), not withdraw(A).";

    #[test]
    fn explains_a_derivation_chain() {
        let text = explain(IS_OPEN, "tranM(acc, 20)@3.", 6, ("isOpen", "acc"), 5).unwrap();
        assert!(text.contains("isOpen(acc)@5"), "{text}");
        assert!(text.contains("rule #1"), "{text}");
        // Chain goes back to the input deposit.
        assert!(text.contains("tranM(acc, 20)"), "{text}");
        assert!(text.contains("[input]"), "{text}");
    }

    /// A fact far into a quiet gap is traced to the input in one jump over
    /// the persistence run, however long the run is.
    #[test]
    fn a_run_is_explained_from_its_first_point() {
        let text = explain(IS_OPEN, "tranM(acc, 20)@3.", 200, ("isOpen", "acc"), 150).unwrap();
        assert_eq!(
            text,
            "isOpen(acc)@150   [by rule #1, held since @4]\n  \
             isOpen(acc)@3   [by rule #0]\n    \
             tranM(acc, 20)@3   [input]"
        );
    }

    #[test]
    fn explain_returns_none_when_fact_absent() {
        assert!(explain("h(A) :- p(A).", "p(a)@1.", 10, ("h", "a"), 2).is_none());
        assert!(explain("h(A) :- p(A).", "p(a)@1.", 10, ("h", "a"), 1).is_some());
    }

    /// The witness of a premise lies inside its operator window: `⊟[2,2]`
    /// in the head puts a body true at 5 on 3, and `◇⁺[1,3]` at 3 reads 5.
    #[test]
    fn premises_are_found_inside_their_operator_windows() {
        for rule in [
            "boxminus[2, 2] h(X) :- p(X).",
            "h(X) :- diamondplus[1, 3] p(X).",
        ] {
            let text = explain(rule, "p(a)@5.", 10, ("h", "a"), 3).unwrap();
            assert!(text.ends_with("p(a)@5   [input]"), "{rule}: {text}");
        }
    }

    /// An input fact that a rule also derives is a leaf, and the tree is a
    /// shortest derivation even when a longer one comes first.
    #[test]
    fn inputs_are_leaves_and_trees_are_shortest() {
        let rules = "q(X) :- p(X).\nr(X) :- q(X).\ns(X) :- r(X).\ns(X) :- p(X).";
        let text = explain(rules, "p(a)@1.\nq(a)@1.", 5, ("q", "a"), 1).unwrap();
        assert_eq!(text, "q(a)@1   [input]");
        let text = explain(rules, "p(a)@1.", 5, ("s", "a"), 1).unwrap();
        assert_eq!(text, "s(a)@1   [by rule #3]\n  p(a)@1   [input]");
    }
}
