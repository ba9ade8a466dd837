//! Derivation provenance and explanation trees.
//!
//! The paper's central claim for DatalogMTL is *explainability*: every state
//! amount of the smart contract should be attributable to contract rules and
//! user actions. When provenance recording is on, the engine logs every
//! novel derivation `(rule, head tuple, added intervals, binding)`;
//! [`ProvenanceLog::explain`] reconstructs a derivation tree for any derived
//! fact by re-grounding the rule body under the recorded binding.

use crate::ast::{Literal, MetricAtom, Program, Term};
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
        let step = self.steps.iter().find(|s| {
            s.pred == pred
                && s.tuple.len() == args.len()
                && s.tuple.iter().zip(args).all(|(a, b)| a.semantic_eq(b))
                && s.added.contains(t)
        });
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
                    let ground: Option<Vec<Value>> = atom
                        .args
                        .iter()
                        .map(|term| match term {
                            Term::Val(v) => Some(*v),
                            Term::Var(x) => binding.get(x).copied(),
                        })
                        .collect();
                    let Some(ground) = ground else { continue };
                    let ivs = db.intervals(atom.pred, &ground);
                    let target = match shift {
                        Some(s) => t - s,
                        None => t,
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
        Some(Explanation {
            fact: render_fact(pred, args, t),
            rule: Some(
                rule.label
                    .clone()
                    .unwrap_or_else(|| format!("rule #{}", step.rule_index)),
            ),
            premises,
        })
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
