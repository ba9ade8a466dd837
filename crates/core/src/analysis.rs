//! Static analysis of DatalogMTL programs: safety, the predicate dependency
//! graph (Figure 1 of the paper is this graph for the ETH-PERP program), and
//! stratification of negation and aggregation.

use crate::ast::{Expr, Literal, Program, Rule, Term};
use crate::error::{Error, Result};
use crate::symbol::Symbol;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;

/// Kind of a dependency edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Positive body occurrence: `σ(P) ≤ σ(H)`.
    Positive,
    /// Negated body occurrence: `σ(P) < σ(H)`.
    Negative,
    /// Body occurrence feeding an aggregate head: `σ(P) < σ(H)`
    /// (stratified aggregation).
    Aggregated,
}

/// The predicate dependency graph of a program.
#[derive(Debug, Default)]
pub struct DependencyGraph {
    /// All predicates (body or head).
    pub predicates: Vec<Symbol>,
    /// Edges `(from, to, kind)`: `from` occurs in a body whose head is `to`.
    pub edges: Vec<(Symbol, Symbol, EdgeKind)>,
}

impl DependencyGraph {
    /// Builds the dependency graph of a program.
    pub fn build(program: &Program) -> DependencyGraph {
        let mut predicates = HashSet::new();
        let mut edges = HashSet::new();
        for rule in &program.rules {
            let head = rule.head.atom.pred;
            predicates.insert(head);
            let aggregated = rule.head.aggregate.is_some();
            for lit in &rule.body {
                let (atoms, base_kind) = match lit {
                    Literal::Pos(m) => (m.atoms(), EdgeKind::Positive),
                    Literal::Neg(m) => (m.atoms(), EdgeKind::Negative),
                    Literal::Constraint(..) => continue,
                };
                for a in atoms {
                    predicates.insert(a.pred);
                    let kind = if aggregated && base_kind == EdgeKind::Positive {
                        EdgeKind::Aggregated
                    } else {
                        base_kind
                    };
                    edges.insert((a.pred, head, kind));
                }
            }
        }
        let mut predicates: Vec<_> = predicates.into_iter().collect();
        predicates.sort();
        let mut edges: Vec<_> = edges.into_iter().collect();
        edges.sort();
        DependencyGraph { predicates, edges }
    }

    /// Renders the graph in Graphviz DOT format (regenerates Figure 1).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph dependencies {\n  rankdir=BT;\n");
        for p in &self.predicates {
            let _ = writeln!(out, "  \"{p}\";");
        }
        for (from, to, kind) in &self.edges {
            let style = match kind {
                EdgeKind::Positive => "",
                EdgeKind::Negative => " [style=dashed, label=\"¬\"]",
                EdgeKind::Aggregated => " [style=dotted, label=\"agg\"]",
            };
            let _ = writeln!(out, "  \"{from}\" -> \"{to}\"{style};");
        }
        out.push_str("}\n");
        out
    }
}

/// The stratification of a program: the strongly connected components of
/// its dependency graph that hold a rule, in topological order. A stratum
/// is one recursive cycle (or one predicate no cycle passes through) and
/// runs its own fixpoint; everything it reads from outside itself is
/// complete before it starts.
#[derive(Debug)]
pub struct Stratification {
    /// Stratum of each predicate. A predicate no rule derives is input,
    /// complete before stratum 0 runs, and sits at 0.
    pub strata: HashMap<Symbol, usize>,
    /// Rule indices (into `program.rules`) per stratum, in ascending order.
    pub rules_by_stratum: Vec<Vec<usize>>,
}

impl Stratification {
    /// Computes the stratification, or fails when negation or aggregation
    /// occurs in a dependency cycle.
    ///
    /// Tarjan's algorithm (iterative, so a long program cannot overflow the
    /// stack) finds the components; Kahn's algorithm orders those holding a
    /// rule. Among the ready components it takes the one of the lowest
    /// level — the most negative or aggregated edges on a path into it,
    /// i.e. its stratum in the classic stratification, which the order
    /// refines — and then the one with the smallest rule index, so the
    /// order is a function of the program text.
    pub fn compute(program: &Program) -> Result<Stratification> {
        let graph = DependencyGraph::build(program);
        let index: HashMap<Symbol, usize> = (graph.predicates.iter().enumerate())
            .map(|(i, p)| (*p, i))
            .collect();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); graph.predicates.len()];
        for (from, to, _) in &graph.edges {
            succ[index[from]].push(index[to]);
        }
        let (comp, n_comps) = components(&succ);
        for (from, to, kind) in &graph.edges {
            if *kind != EdgeKind::Positive && comp[index[from]] == comp[index[to]] {
                return Err(Error::NotStratifiable(format!(
                    "negation or aggregation in a cycle through predicate {to}"
                )));
            }
        }

        // The components that hold a rule; an input predicate is a
        // component of its own with none, at level 0.
        let mut rules_of: Vec<Vec<usize>> = vec![Vec::new(); n_comps];
        for (i, rule) in program.rules.iter().enumerate() {
            rules_of[comp[index[&rule.head.atom.pred]]].push(i);
        }
        let mut level = vec![0usize; n_comps];
        let mut waiting = vec![0usize; n_comps];
        let mut next: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_comps];
        for (from, to, kind) in &graph.edges {
            let (a, b) = (comp[index[from]], comp[index[to]]);
            let strict = usize::from(*kind != EdgeKind::Positive);
            if rules_of[a].is_empty() {
                level[b] = level[b].max(strict);
            } else if a != b {
                next[a].push((b, strict));
                waiting[b] += 1;
            }
        }
        let mut ready: BTreeSet<(usize, usize, usize)> = (0..n_comps)
            .filter(|&c| waiting[c] == 0 && !rules_of[c].is_empty())
            .map(|c| (level[c], rules_of[c][0], c))
            .collect();
        let mut stratum_of = vec![0usize; n_comps];
        let mut rules_by_stratum = Vec::new();
        while let Some((_, _, c)) = ready.pop_first() {
            stratum_of[c] = rules_by_stratum.len();
            rules_by_stratum.push(std::mem::take(&mut rules_of[c]));
            for &(d, strict) in &next[c] {
                level[d] = level[d].max(level[c] + strict);
                waiting[d] -= 1;
                if waiting[d] == 0 {
                    ready.insert((level[d], rules_of[d][0], d));
                }
            }
        }
        let strata = (graph.predicates.iter().zip(&comp))
            .map(|(p, &c)| (*p, stratum_of[c]))
            .collect();
        Ok(Stratification {
            strata,
            rules_by_stratum,
        })
    }

    /// Number of strata.
    pub fn count(&self) -> usize {
        self.rules_by_stratum.len()
    }
}

/// The strongly connected components of the graph with successor lists
/// `succ`: the component number of each node, and the number of
/// components. Tarjan's algorithm with an explicit call stack of `(node,
/// next successor to visit)`.
fn components(succ: &[Vec<usize>]) -> (Vec<usize>, usize) {
    const UNSEEN: usize = usize::MAX;
    let n = succ.len();
    let mut order = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut comp = vec![UNSEEN; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut calls: Vec<(usize, usize)> = Vec::new();
    let (mut visited, mut found) = (0usize, 0usize);
    for root in 0..n {
        if order[root] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        while let Some(&mut (v, ref mut i)) = calls.last_mut() {
            if *i == 0 {
                order[v] = visited;
                low[v] = visited;
                visited += 1;
                stack.push(v);
            }
            if let Some(&w) = succ[v].get(*i) {
                *i += 1;
                if order[w] == UNSEEN {
                    calls.push((w, 0));
                } else if comp[w] == UNSEEN {
                    low[v] = low[v].min(order[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == order[v] {
                while let Some(w) = stack.pop() {
                    comp[w] = found;
                    if w == v {
                        break;
                    }
                }
                found += 1;
            }
        }
    }
    (comp, found)
}

/// Checks every rule of the program for safety and arity consistency.
pub fn check_program(program: &Program) -> Result<()> {
    let mut arities: HashMap<Symbol, usize> = HashMap::new();
    for rule in &program.rules {
        check_rule_safety(rule)?;
        let mut check_arity = |pred: Symbol, arity: usize| -> Result<()> {
            match arities.get(&pred) {
                Some(&a) if a != arity => Err(Error::ArityMismatch(format!(
                    "predicate {pred} used with arity {arity} and {a}"
                ))),
                _ => {
                    arities.insert(pred, arity);
                    Ok(())
                }
            }
        };
        check_arity(rule.head.atom.pred, rule.head.atom.arity())?;
        for lit in &rule.body {
            if let Literal::Pos(m) | Literal::Neg(m) = lit {
                for a in m.atoms() {
                    check_arity(a.pred, a.arity())?;
                }
            }
        }
    }
    Ok(())
}

/// Safety: every head variable and every constraint variable must be bound
/// by positive body atoms (or by a chain of `X = expr` assignments rooted in
/// bound variables); variables under negation must be bound or local to
/// their literal.
fn check_rule_safety(rule: &Rule) -> Result<()> {
    let rule_name = || rule.label.clone().unwrap_or_else(|| rule.to_string());
    let mut bound: HashSet<Symbol> = HashSet::new();
    for lit in &rule.body {
        if let Literal::Pos(m) = lit {
            bound.extend(m.variables());
        }
    }
    // Assignment closure: X = expr (or expr = X) binds X once expr is bound.
    let mut changed = true;
    while changed {
        changed = false;
        for lit in &rule.body {
            if let Literal::Constraint(lhs, crate::ast::CmpOp::Eq, rhs) = lit {
                for (a, b) in [(lhs, rhs), (rhs, lhs)] {
                    if let Expr::Term(Term::Var(v)) = a {
                        if !bound.contains(v) && b.variables().iter().all(|w| bound.contains(w)) {
                            bound.insert(*v);
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    // All constraint variables must now be bound.
    for lit in &rule.body {
        if let Literal::Constraint(lhs, _, rhs) = lit {
            for v in lhs.variables().into_iter().chain(rhs.variables()) {
                if !bound.contains(&v) {
                    return Err(Error::Unsafe(format!(
                        "variable {v} in constraint of rule `{}` is never bound",
                        rule_name()
                    )));
                }
            }
        }
    }
    // Negated literals: unbound variables must be local to a single literal.
    let mut seen_elsewhere: HashMap<Symbol, usize> = HashMap::new();
    for (i, lit) in rule.body.iter().enumerate() {
        if let Literal::Neg(m) = lit {
            for v in m.variables() {
                if !bound.contains(&v) {
                    if let Some(j) = seen_elsewhere.get(&v) {
                        if *j != i {
                            return Err(Error::Unsafe(format!(
                                "unbound variable {v} shared across negated literals in rule `{}`",
                                rule_name()
                            )));
                        }
                    }
                    seen_elsewhere.insert(v, i);
                }
            }
        }
    }
    for v in rule.head.atom.variables() {
        if !bound.contains(&v) {
            return Err(Error::Unsafe(format!(
                "head variable {v} of rule `{}` is never bound",
                rule_name()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn stratifies_negation_chain() {
        let p = parse_program(
            "a(X) :- e(X).\n\
             b(X) :- a(X), not c(X).\n\
             c(X) :- e(X), e(X).\n",
        )
        .unwrap();
        let s = Stratification::compute(&p).unwrap();
        assert!(s.strata[&Symbol::new("c")] < s.strata[&Symbol::new("b")]);
        assert_eq!(s.strata[&Symbol::new("e")], 0);
    }

    #[test]
    fn rejects_negative_cycle() {
        for src in [
            "a(X) :- e(X), not b(X).\nb(X) :- a(X).\n",
            "a(X) :- e(X), not a(X).\n",
        ] {
            let p = parse_program(src).unwrap();
            assert!(
                matches!(Stratification::compute(&p), Err(Error::NotStratifiable(_))),
                "{src}"
            );
        }
    }

    #[test]
    fn positive_recursion_is_fine() {
        let p = parse_program("a(X) :- boxminus a(X).\na(X) :- e(X).").unwrap();
        let s = Stratification::compute(&p).unwrap();
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn aggregation_is_strict_like_negation() {
        let p =
            parse_program("e(sum(S)) :- m(A, S).\nskew(K) :- e(K).\nm(A, S) :- d(A, S).").unwrap();
        let s = Stratification::compute(&p).unwrap();
        assert!(s.strata[&Symbol::new("m")] < s.strata[&Symbol::new("e")]);
    }

    #[test]
    fn strata_are_components_by_level_then_first_rule() {
        // `a` and `b` are one cycle; `c` reads it, `d` reads only input.
        let p = parse_program(
            "c(X) :- a(X), not e(X).\n\
             a(X) :- e(X).\n\
             a(X) :- diamondminus b(X).\n\
             b(X) :- a(X).\n\
             d(X) :- e(X).\n",
        )
        .unwrap();
        let s = Stratification::compute(&p).unwrap();
        // Ready at first: the cycle (first rule 1) and `d` (rule 4); then
        // `c`, whose negation puts it a level above `d`.
        assert_eq!(s.rules_by_stratum, [vec![1, 2, 3], vec![4], vec![0]]);
        let stratum = |p: &str| s.strata[&Symbol::new(p)];
        assert_eq!((stratum("a"), stratum("b")), (0, 0));
        assert_eq!((stratum("c"), stratum("d"), stratum("e")), (2, 1, 0));
    }

    #[test]
    fn a_long_chain_stratifies_without_recursion() {
        let n = 50_000;
        let src: String = (0..n)
            .map(|i| format!("p{}(X) :- p{i}(X).\n", i + 1))
            .collect();
        let p = parse_program(&src).unwrap();
        let s = Stratification::compute(&p).unwrap();
        assert_eq!(s.count(), n);
        assert!((s.rules_by_stratum.iter().enumerate()).all(|(i, rules)| rules == &[i]));
        assert_eq!(s.strata[&Symbol::new("p50000")], n - 1);
        // The same chain closed into one cycle is one stratum.
        let closed = format!("{src}p0(X) :- p{n}(X).\n");
        let s = Stratification::compute(&parse_program(&closed).unwrap()).unwrap();
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn rejects_aggregation_in_cycle() {
        let p = parse_program("e(sum(S)) :- e(S).").unwrap();
        assert!(Stratification::compute(&p).is_err());
    }

    #[test]
    fn safety_accepts_assignment_chains() {
        let p = parse_program("h(A, M) :- m(A, X), t(A, Y), Z = X + Y, M = Z * 2.").unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn safety_rejects_unbound_head_var() {
        let p = parse_program("h(A, M) :- m(A, X).").unwrap();
        assert!(matches!(check_program(&p), Err(Error::Unsafe(_))));
    }

    #[test]
    fn safety_rejects_unbound_constraint_var() {
        let p = parse_program("h(A) :- m(A), X > 3.").unwrap();
        assert!(matches!(check_program(&p), Err(Error::Unsafe(_))));
    }

    #[test]
    fn safety_allows_local_unbound_under_negation() {
        // `not order(A, _)`: the wildcard is a negated existential.
        let p = parse_program("h(A) :- m(A), not order(A, _).").unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn safety_rejects_shared_unbound_negated_var() {
        let p = parse_program("h(A) :- m(A), not p(A, X), not q(A, X).").unwrap();
        assert!(matches!(check_program(&p), Err(Error::Unsafe(_))));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let p = parse_program("h(A) :- m(A, B).\ng(X) :- m(X).").unwrap();
        assert!(matches!(check_program(&p), Err(Error::ArityMismatch(_))));
    }

    #[test]
    fn dependency_graph_dot_contains_all_predicates() {
        let p = parse_program("b(X) :- a(X), not c(X).").unwrap();
        let g = DependencyGraph::build(&p);
        let dot = g.to_dot();
        for name in ["a", "b", "c"] {
            assert!(dot.contains(&format!("\"{name}\"")), "missing {name}");
        }
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn head_vars_bound_by_time_capture_are_safe() {
        let p = parse_program("tdiff(T, T) :- start()@T.").unwrap();
        check_program(&p).unwrap();
    }
}
