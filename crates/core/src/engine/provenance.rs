//! Derivation provenance and explanation trees.
//!
//! The paper's central claim for DatalogMTL is *explainability*: every state
//! amount of the smart contract should be attributable to contract rules and
//! user actions. When provenance recording is on, the engine logs every
//! novel derivation `(rule, head tuple, added intervals, binding)`;
//! [`ProvenanceLog::explain`] reconstructs a derivation tree for any derived
//! fact by re-grounding the rule body under the recorded binding.

use crate::ast::{Atom, Literal, MetricAtom, Program, Term};
use crate::database::Database;
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use mtl_temporal::{Interval, IntervalSet, Rational};
use std::fmt;

/// One recorded derivation step.
#[derive(Clone, Debug)]
pub struct Derivation {
    /// Index of the applied rule in the program.
    pub rule_index: usize,
    /// Derived predicate.
    pub pred: Symbol,
    /// Derived tuple.
    pub tuple: Tuple,
    /// The genuinely new intervals this step contributed.
    pub added: IntervalSet,
    /// The variable binding of the rule application (empty for aggregates).
    pub binding: Vec<(Symbol, Value)>,
}

/// The full derivation log of a materialization.
#[derive(Default)]
pub struct ProvenanceLog {
    steps: Vec<Derivation>,
}

impl ProvenanceLog {
    pub(crate) fn record(
        &mut self,
        rule_index: usize,
        pred: Symbol,
        tuple: Tuple,
        added: IntervalSet,
        binding: Vec<(Symbol, Value)>,
    ) {
        self.steps.push(Derivation {
            rule_index,
            pred,
            tuple,
            added,
            binding,
        });
    }

    /// All recorded steps.
    pub fn steps(&self) -> &[Derivation] {
        &self.steps
    }

    /// Builds an explanation tree for `pred(args)` at time `t`.
    pub fn explain(
        &self,
        program: &Program,
        db: &Database,
        pred: Symbol,
        args: &[Value],
        t: i64,
    ) -> Option<Explanation> {
        self.explain_rec(program, db, pred, args, Rational::integer(t), 0)
    }

    fn explain_rec(
        &self,
        program: &Program,
        db: &Database,
        pred: Symbol,
        args: &[Value],
        t: Rational,
        depth: usize,
    ) -> Option<Explanation> {
        if !db.holds_at_rational(pred, args, t) {
            return None;
        }
        const MAX_DEPTH: usize = 64;
        // Find the step that contributed this time point.
        let step = self
            .steps
            .iter()
            .find(|s| s.pred == pred && same_tuple(&s.tuple, args) && s.added.contains(t));
        let Some(step) = step else {
            // Not derived: an input (EDB) fact.
            return Some(Explanation {
                fact: render_fact(pred, args, t),
                rule: None,
                premises: Vec::new(),
            });
        };
        let rule = &program.rules[step.rule_index];
        let binding: std::collections::HashMap<Symbol, Value> =
            step.binding.iter().copied().collect();
        let ground = |atom: &Atom| -> Option<Vec<Value>> {
            atom.args
                .iter()
                .map(|term| match term {
                    Term::Val(v) => Some(*v),
                    Term::Var(x) => binding.get(x).copied(),
                })
                .collect()
        };
        // A chain closure records a whole persistence run as one step, each
        // point of it derived by `rule` from the point one shift earlier.
        // Such a fact is explained where its run starts: the premises are
        // grounded at the earliest `t − k·shift` still inside the component
        // of `added` that holds `t`, so the tree is as deep as the chain of
        // distinct steps, not as long as the run.
        let run = step.added.components().iter().find(|c| c.contains(t));
        let origin = rule
            .body
            .iter()
            .find_map(|lit| {
                let Literal::Pos(m) = lit else { return None };
                let shift = chain_shift(m).filter(|s| *s > Rational::ZERO)?;
                let [atom] = m.atoms()[..] else { return None };
                let same_fact =
                    atom.pred == pred && ground(atom).is_some_and(|g| same_tuple(&g, args));
                let run = run.filter(|run| same_fact && run.contains(t - shift))?;
                Some(run_start(run, t, shift))
            })
            .unwrap_or(t);
        let mut premises = Vec::new();
        if depth < MAX_DEPTH {
            for lit in &rule.body {
                let m = match lit {
                    Literal::Pos(m) => m,
                    Literal::Neg(_) | Literal::Constraint(..) => continue,
                };
                // Punctual operator chains (the pervasive case) pinpoint the
                // exact premise time; other shapes fall back to the latest
                // validity at or before the shifted time.
                let shift = chain_shift(m);
                for atom in m.atoms() {
                    let Some(ground) = ground(atom) else { continue };
                    let ivs = db.intervals(atom.pred, &ground);
                    let target = match shift {
                        Some(s) => origin - s,
                        None => origin,
                    };
                    let witness = witness_time(&ivs, target);
                    let node = match witness {
                        Some(w) => self
                            .explain_rec(program, db, atom.pred, &ground, w, depth + 1)
                            .unwrap_or_else(|| Explanation {
                                fact: render_fact(atom.pred, &ground, w),
                                rule: None,
                                premises: Vec::new(),
                            }),
                        None => Explanation {
                            fact: format!("{}({}) [no witness]", atom.pred, render_args(&ground)),
                            rule: None,
                            premises: Vec::new(),
                        },
                    };
                    premises.push(node);
                }
            }
        }
        let label = rule
            .label
            .clone()
            .unwrap_or_else(|| format!("rule #{}", step.rule_index));
        Some(Explanation {
            fact: render_fact(pred, args, t),
            rule: Some(if origin == t {
                label
            } else {
                format!("{label}, held since @{origin}")
            }),
            premises,
        })
    }
}

/// Semantic equality of two ground tuples (`3` and `3.0` are one value).
fn same_tuple(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.semantic_eq(y))
}

/// The earliest `t − k·shift` (`k ≥ 0`) inside `run`, a component holding
/// `t`: where a persistence run that reaches `t` in steps of `shift` starts.
fn run_start(run: &Interval, t: Rational, shift: Rational) -> Rational {
    let Some(lo) = run.lo().finite() else {
        return t;
    };
    let start = t - shift * Rational::integer(((t - lo) / shift).floor());
    if run.contains(start) {
        start
    } else {
        // An open lower end: the run starts one step after it.
        start + shift
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

/// The latest time `w <= t` at which the interval set holds (premises of
/// forward-propagating rules hold at or before the derived time).
fn witness_time(ivs: &IntervalSet, t: Rational) -> Option<Rational> {
    if ivs.contains(t) {
        return Some(t);
    }
    // Clipping first makes the upper bound the last tooth at or before `t`
    // when `t` falls between the teeth of a run.
    ivs.intersect_interval(&Interval::up_to(t))
        .max_point()
        .and_then(|hi| hi.finite())
}

fn render_args(args: &[Value]) -> String {
    args.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_fact(pred: Symbol, args: &[Value], t: Rational) -> String {
    format!("{pred}({})@{t}", render_args(args))
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
    use crate::engine::{Reasoner, ReasonerConfig};
    use crate::parser::{parse_facts, parse_program};

    #[test]
    fn explains_a_derivation_chain() {
        let program = parse_program(
            "isOpen(A) :- tranM(A, M).\n\
             isOpen(A) :- boxminus isOpen(A), not withdraw(A).",
        )
        .unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts("tranM(acc, 20)@3.").unwrap())
            .unwrap();
        let m = Reasoner::new(
            program.clone(),
            ReasonerConfig {
                provenance: true,
                ..ReasonerConfig::default().with_horizon(0, 6)
            },
        )
        .unwrap()
        .materialize(&db)
        .unwrap();
        let e = m
            .explain(&program, "isOpen", &[Value::sym("acc")], 5)
            .expect("fact holds and provenance is on");
        let text = e.to_string();
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
        let program = parse_program(
            "isOpen(A) :- tranM(A, M).\n\
             isOpen(A) :- boxminus isOpen(A), not withdraw(A).",
        )
        .unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts("tranM(acc, 20)@3.").unwrap())
            .unwrap();
        let m = Reasoner::new(
            program.clone(),
            ReasonerConfig {
                provenance: true,
                ..ReasonerConfig::default().with_horizon(0, 200)
            },
        )
        .unwrap()
        .materialize(&db)
        .unwrap();
        let text = m
            .explain(&program, "isOpen", &[Value::sym("acc")], 150)
            .expect("fact holds and provenance is on")
            .to_string();
        assert_eq!(
            text,
            "isOpen(acc)@150   [by rule #1, held since @4]\n  \
             isOpen(acc)@3   [by rule #0]\n    \
             tranM(acc, 20)@3   [input]"
        );
    }

    #[test]
    fn explain_returns_none_when_fact_absent() {
        let program = parse_program("h(A) :- p(A).").unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts("p(x)@1.").unwrap()).unwrap();
        let m = Reasoner::new(
            program.clone(),
            ReasonerConfig {
                provenance: true,
                ..ReasonerConfig::default()
            },
        )
        .unwrap()
        .materialize(&db)
        .unwrap();
        assert!(m.explain(&program, "h", &[Value::sym("x")], 2).is_none());
        assert!(m.explain(&program, "h", &[Value::sym("x")], 1).is_some());
    }
}
