//! Magic-sets demand transformation for goal-driven query evaluation.
//!
//! A point query (`pred(args...)@[window]`) rarely needs the whole least
//! model: it depends only on the rules in its dependency cone, and within
//! that cone only on the tuples (and time windows) reachable from the
//! query's constants. This module compiles a [`Query`] into a rewritten
//! program that makes the engine materialize exactly that demanded slice:
//!
//! * **Cone extraction** — reverse reachability over the
//!   [`DependencyGraph`] keeps only the
//!   rules the query can possibly depend on.
//! * **Adornment** — each guardable predicate gets one global binding
//!   pattern: the set of argument positions every demand site can supply
//!   (a shrinking meet-fixpoint seeded from the query's constants).
//! * **Guards and magic rules** — every guardable rule is prefixed with a
//!   demand guard over a fresh `magic_*` predicate, and each positive body
//!   occurrence of a guardable predicate spawns a magic rule that passes
//!   bindings sideways. Crucially, both guards and magic rules are
//!   *ordinary DatalogMTL rules*: head-operator chains are mirrored into
//!   diamond guards (`⊟ρ` head ↔ `◇⁻ρ` guard) and body-operator paths
//!   become magic head operators, so demanded time windows propagate
//!   through the same interval algebra the engine already implements —
//!   sideways information passing with time-window intersection falls out
//!   of ordinary fixpoint evaluation, and horizon clipping bounds the
//!   demand spread exactly as it bounds derivations.
//! * **Seeds** — one magic fact carrying the query's constants over the
//!   query window (or the whole horizon).
//!
//! Negation and aggregation are handled by an *unguardable set*: any
//! predicate read under negation or aggregation must stay complete, so its
//! rules (and, transitively downward, everything they read) run unguarded.
//! The rewritten program therefore computes the full model for the tainted
//! region and the demanded slice elsewhere — always sound, and byte-
//! identical to full materialization within the queried window (pinned by
//! the `magic_equivalence` suite).

mod adorn;
mod magic;

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::analysis::DependencyGraph;
use crate::ast::{Atom, Fact, Literal, Program, Rule, Term};
use crate::error::{Error, Result};
use crate::parser::parse_rule;
use crate::symbol::Symbol;
use crate::value::Value;
use mtl_temporal::{Interval, Rational, TimeBound};

/// A point query: an atom pattern (constants restrict, variables
/// enumerate) plus an optional time window the answer is clipped to.
#[derive(Clone, Debug)]
pub struct Query {
    /// The pattern; `exposure(cp0, X)` asks for every `X` (with validity
    /// intervals) such that `exposure(cp0, X)` holds.
    pub atom: Atom,
    /// Optional window: answers are clipped to it, and the magic seed
    /// demands only this slice of the timeline.
    pub window: Option<Interval>,
}

impl Query {
    /// A whole-timeline query over `atom`.
    pub fn new(atom: Atom) -> Query {
        Query { atom, window: None }
    }

    /// Restricts the query to `window`.
    pub fn over(atom: Atom, window: Interval) -> Query {
        Query {
            atom,
            window: Some(window),
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.atom)?;
        if let Some(w) = &self.window {
            write!(f, "@{w}")?;
        }
        Ok(())
    }
}

/// Parses a query of the form `pred(args...)`, `pred(args...)@t`, or
/// `pred(args...)@[lo,hi]`. Bounds are rationals (`3`, `3/2`, `2.5`).
/// Malformed text is [`Error::Parse`], its column counted in `text`; an
/// inverted window (`@[5,3]`) is [`Error::EmptyWindow`].
pub fn parse_query(text: &str) -> Result<Query> {
    let blanks = |s: &str| s.chars().take_while(|c| c.is_whitespace()).count();
    let col = 1 + blanks(text);
    let text = text.trim();
    if let Some((atom_part, window_part)) = text.rsplit_once('@') {
        let window_col = col + atom_part.chars().count() + 1 + blanks(window_part);
        if let Some(window) = parse_window(window_part.trim(), window_col)? {
            return Ok(Query {
                atom: parse_query_atom(atom_part.trim(), col)?,
                window: Some(window),
            });
        }
    }
    Ok(Query {
        atom: parse_query_atom(text, col)?,
        window: None,
    })
}

/// Parses the window suffix of a query, which starts at column `col`.
/// `Ok(None)` means "not a window" (so the `@` belongs to the atom, e.g. a
/// time-capture variable); malformed or empty bracketed windows are errors.
fn parse_window(s: &str, col: usize) -> Result<Option<Interval>> {
    if let Some(body) = s.strip_prefix('[') {
        let bad = |msg: String| Error::parse(1, col, msg);
        let body = (body.strip_suffix(']'))
            .ok_or_else(|| bad(format!("query window `{s}` is missing `]`")))?;
        let (lo, hi) = (body.split_once(','))
            .ok_or_else(|| bad(format!("query window `{s}` needs `[lo,hi]`")))?;
        let bound = |b: &str| {
            (b.trim().parse::<Rational>())
                .map_err(|_| bad(format!("bad query window bound `{}`", b.trim())))
        };
        let (lo, hi) = (bound(lo)?, bound(hi)?);
        let window = Interval::new(TimeBound::Finite(lo), true, TimeBound::Finite(hi), true)
            .ok_or_else(|| Error::EmptyWindow(format!("query window [{lo},{hi}] has lo > hi")))?;
        return Ok(Some(window));
    }
    match s.parse::<Rational>() {
        Ok(t) => Ok(Some(Interval::point(t))),
        Err(_) => Ok(None),
    }
}

/// Parses the atom pattern, which starts at column `col` of the query, by
/// disguising it as a rule body; a parse error's column is moved back from
/// the disguise to the query.
fn parse_query_atom(text: &str, col: usize) -> Result<Atom> {
    const DISGUISE: &str = "query_probe_() :- ";
    let pattern = || Error::parse(1, col, "expected a plain pred(args...) pattern");
    let rule = parse_rule(&format!("{DISGUISE}{text}.")).map_err(|e| match e {
        Error::Parse {
            line: 1,
            col: at,
            msg,
        } => Error::parse(1, col + at.saturating_sub(DISGUISE.len() + 1), msg),
        e @ Error::Parse { .. } => e,
        _ => pattern(),
    })?;
    match rule.body.as_slice() {
        [Literal::Pos(crate::ast::MetricAtom::Rel(atom))] => Ok(atom.clone()),
        _ => Err(pattern()),
    }
}

/// Counters describing one rewrite (surfaced as the `magic` section of
/// stats-json and by `--explain-query`).
#[derive(Clone, Debug, Default)]
pub struct MagicCounters {
    /// Predicates in the query's dependency cone.
    pub cone_preds: usize,
    /// Rules in the cone (the rewritten program before magic additions).
    pub cone_rules: usize,
    /// Rules in the source program.
    pub program_rules: usize,
    /// Cone rules that received a demand guard.
    pub guarded_rules: usize,
    /// Magic (demand-propagation) rules generated.
    pub magic_rules: usize,
    /// Magic seed facts.
    pub seeds: usize,
}

/// The output of the demand transformation: a rewritten program plus the
/// seed facts and bookkeeping the engine and CLI need.
#[derive(Clone, Debug)]
pub struct MagicRewrite {
    /// Guarded cone rules plus magic rules — evaluate this with the seeds.
    pub program: Program,
    /// The cone rules untouched — the degradation fallback when the
    /// guarded program fails validation (magic can break stratification
    /// in corner cases) or blows the iteration budget.
    pub cone_program: Program,
    /// Magic seed facts (window still unclipped; the engine intersects
    /// with its horizon).
    pub seeds: Vec<Fact>,
    /// Every magic predicate introduced — excluded from answer and
    /// demanded-tuple accounting.
    pub magic_preds: HashSet<Symbol>,
    /// Rewrite counters.
    pub counters: MagicCounters,
    /// Cone predicates, sorted by name (for explain output).
    cone_sorted: Vec<String>,
    /// Unguardable predicates, sorted by name.
    unguarded_sorted: Vec<String>,
    /// `pred -> (mask, magic name)` for every guarded IDB predicate.
    adornment_table: BTreeMap<String, (String, String)>,
}

impl MagicRewrite {
    /// `true` when the rewrite actually produced demand guards (otherwise
    /// evaluating `program` is plain cone-restricted materialization).
    pub fn is_guarded(&self) -> bool {
        self.counters.guarded_rules > 0
    }

    /// A deterministic human-readable report of what the rewrite did —
    /// the body of the CLI's `--explain-query` view.
    pub fn explain(&self, query: &Query) -> String {
        let mut out = String::new();
        out.push_str(&format!("query: {query}\n"));
        let mode = if self.is_guarded() { "magic" } else { "cone" };
        out.push_str(&format!(
            "mode: {mode} ({} of {} rules guarded, {} magic rules, {} seeds)\n",
            self.counters.guarded_rules,
            self.counters.cone_rules,
            self.counters.magic_rules,
            self.counters.seeds,
        ));
        out.push_str(&format!(
            "cone: {} predicates, {} of {} rules: {}\n",
            self.counters.cone_preds,
            self.counters.cone_rules,
            self.counters.program_rules,
            self.cone_sorted.join(", "),
        ));
        out.push_str(&format!(
            "unguardable (negation/aggregation): {}\n",
            if self.unguarded_sorted.is_empty() {
                "(none)".to_string()
            } else {
                self.unguarded_sorted.join(", ")
            }
        ));
        if !self.adornment_table.is_empty() {
            out.push_str("adornments:\n");
            for (pred, (mask, name)) in &self.adornment_table {
                let mask = if mask.is_empty() { "(nullary)" } else { mask };
                out.push_str(&format!("  {pred}: {mask} -> {name}\n"));
            }
        }
        out.push_str("rewritten program:\n");
        for rule in &self.program.rules {
            out.push_str(&format!("  {rule}\n"));
        }
        if !self.seeds.is_empty() {
            out.push_str("seeds:\n");
            for seed in &self.seeds {
                let args = seed
                    .args
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!("  {}({args})@{}\n", seed.pred, seed.interval));
            }
        }
        out
    }
}

/// Compiles `query` against `program` into a demand-transformed program.
///
/// `reserved` lists predicate names the rewrite must not collide with
/// beyond the program's own (typically the input database's predicates).
/// The rewrite itself is total; validation of the guarded program (it can
/// lose stratifiability in corner cases) is the caller's job, with
/// [`MagicRewrite::cone_program`] as the fallback.
pub fn rewrite(program: &Program, query: &Query, reserved: &[Symbol]) -> MagicRewrite {
    let graph = DependencyGraph::build(program);
    let qpred = query.atom.pred;

    // Reverse reachability: everything the query predicate can read from.
    let mut cone: BTreeSet<Symbol> = BTreeSet::new();
    cone.insert(qpred);
    let mut changed = true;
    while changed {
        changed = false;
        for (from, to, _) in &graph.edges {
            if cone.contains(to) && cone.insert(*from) {
                changed = true;
            }
        }
    }
    let cone_rules: Vec<usize> = (0..program.rules.len())
        .filter(|&i| cone.contains(&program.rules[i].head.atom.pred))
        .collect();

    let unguarded = adorn::unguardable(program, &cone_rules);

    // Guardable IDB predicates: in the cone, not tainted, and defined by
    // at least one rule (demand for pure-EDB predicates is pointless: the
    // facts are already sitting in the database).
    let mut idb: BTreeSet<Symbol> = BTreeSet::new();
    for &ri in &cone_rules {
        idb.insert(program.rules[ri].head.atom.pred);
    }
    let guardable: BTreeSet<Symbol> = idb
        .iter()
        .copied()
        .filter(|p| !unguarded.contains(p))
        .collect();

    let adornments = adorn::adornments(program, &cone_rules, &guardable, &unguarded, query);

    // Allocate collision-free magic predicate names.
    let mut taken: BTreeSet<String> = BTreeSet::new();
    for rule in &program.rules {
        taken.insert(rule.head.atom.pred.as_str());
        for lit in &rule.body {
            if let Literal::Pos(m) | Literal::Neg(m) = lit {
                for a in m.atoms() {
                    taken.insert(a.pred.as_str());
                }
            }
        }
    }
    for p in reserved {
        taken.insert(p.as_str());
    }
    let mut magic_names: BTreeMap<Symbol, Symbol> = BTreeMap::new();
    let mut magic_preds = HashSet::new();
    for &p in &guardable {
        let arity = program.rules[cone_rules
            .iter()
            .copied()
            .find(|&ri| program.rules[ri].head.atom.pred == p)
            .expect("guardable predicate has a cone rule")]
        .head
        .atom
        .arity();
        let mask: String = (0..arity)
            .map(|j| {
                if adornments[&p].contains(&j) {
                    'b'
                } else {
                    'f'
                }
            })
            .collect();
        let mut name = if mask.is_empty() {
            format!("magic_{p}")
        } else {
            format!("magic_{p}_{mask}")
        };
        while taken.contains(&name) {
            name.push('_');
        }
        taken.insert(name.clone());
        let sym = Symbol::new(&name);
        magic_names.insert(p, sym);
        magic_preds.insert(sym);
    }

    // Rewrite: cone rules (guarded where possible) followed by the magic
    // demand-propagation rules.
    let mut rules: Vec<Rule> = Vec::new();
    let mut magic_rule_list: Vec<Rule> = Vec::new();
    let mut seen_magic: BTreeSet<String> = BTreeSet::new();
    let mut guarded_count = 0usize;
    for &ri in &cone_rules {
        let rule = &program.rules[ri];
        if !guardable.contains(&rule.head.atom.pred) {
            rules.push(rule.clone());
            continue;
        }
        guarded_count += 1;
        let guard = magic::guard_literal(rule, &adornments, &magic_names);
        rules.push(magic::guard_rule(rule, guard.clone()));
        magic::magic_rules(
            rule,
            &guard,
            &adornments,
            &magic_names,
            &guardable,
            &mut seen_magic,
            &mut magic_rule_list,
        );
    }
    let magic_rule_count = magic_rule_list.len();
    rules.extend(magic_rule_list);

    let seeds = magic::seed_facts(query, &adornments, &magic_names);

    let counters = MagicCounters {
        cone_preds: cone.len(),
        cone_rules: cone_rules.len(),
        program_rules: program.rules.len(),
        guarded_rules: guarded_count,
        magic_rules: magic_rule_count,
        seeds: seeds.len(),
    };

    let cone_program = Program {
        rules: cone_rules
            .iter()
            .map(|&ri| program.rules[ri].clone())
            .collect(),
    };

    let mut cone_sorted: Vec<String> = cone.iter().map(|p| p.as_str()).collect();
    cone_sorted.sort();
    let mut unguarded_sorted: Vec<String> = unguarded
        .iter()
        .filter(|p| cone.contains(p))
        .map(|p| p.as_str())
        .collect();
    unguarded_sorted.sort();
    let adornment_table = guardable
        .iter()
        .map(|p| {
            let magic_name = magic_names[p].as_str();
            let positions = &adornments[p];
            let arity = program
                .rules
                .iter()
                .find(|r| r.head.atom.pred == *p)
                .map_or(0, |r| r.head.atom.arity());
            let mask: String = (0..arity)
                .map(|j| if positions.contains(&j) { 'b' } else { 'f' })
                .collect();
            (p.as_str(), (mask, magic_name))
        })
        .collect();

    MagicRewrite {
        program: Program { rules },
        cone_program,
        seeds,
        magic_preds,
        counters,
        cone_sorted,
        unguarded_sorted,
        adornment_table,
    }
}

/// The query constants at adorned positions, for seeds and tests.
pub(crate) fn constant_positions(atom: &Atom) -> BTreeSet<usize> {
    atom.args
        .iter()
        .enumerate()
        .filter_map(|(j, t)| match t {
            Term::Val(_) => Some(j),
            Term::Var(_) => None,
        })
        .collect()
}

/// Projects ground arguments of `atom` onto `positions` (which must all
/// be constant positions).
pub(crate) fn project_constants(atom: &Atom, positions: &BTreeSet<usize>) -> Option<Vec<Value>> {
    positions
        .iter()
        .map(|&j| match atom.args.get(j) {
            Some(Term::Val(v)) => Some(*v),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn parses_bare_query() {
        let q = parse_query("exposure(cp0, X)").unwrap();
        assert_eq!(q.atom.pred.as_str(), "exposure");
        assert_eq!(q.atom.arity(), 2);
        assert!(q.window.is_none());
    }

    #[test]
    fn parses_windowed_query() {
        let q = parse_query("pnl(acc1)@[0, 10]").unwrap();
        let w = q.window.unwrap();
        assert_eq!(w, Interval::closed_int(0, 10));
    }

    #[test]
    fn parses_point_query() {
        let q = parse_query("pnl(acc1)@5").unwrap();
        assert_eq!(q.window.unwrap(), Interval::at(5));
    }

    #[test]
    fn inverted_window_is_empty_window_error() {
        assert!(matches!(
            parse_query("p(a)@[5,3]"),
            Err(Error::EmptyWindow(_))
        ));
    }

    #[test]
    fn garbage_query_is_an_error() {
        assert!(parse_query("p(a) :- q(b)").is_err());
        assert!(parse_query("not p(a)").is_err());
    }

    /// Malformed text is a parse error whose column counts in the query as
    /// given, not in the rule the atom is parsed as.
    #[test]
    fn malformed_query_is_a_parse_error_in_query_columns() {
        let col = |text: &str| match parse_query(text) {
            Err(Error::Parse { line: 1, col, .. }) => col,
            other => panic!("`{text}`: {other:?}"),
        };
        assert_eq!(col("margin(a"), 9);
        assert_eq!(col("  margin(a"), 11);
        assert_eq!(col("p(a) :- q(b)"), 6);
        assert_eq!(col("not p(a)"), 1);
        assert_eq!(col("p(a)@[1, 2"), 6);
        assert_eq!(col("p(a) @ [x, 2]"), 8);
    }

    #[test]
    fn netting_cone_guards_exposure_only() {
        let program = parse_program(
            "exposure(X, Y) :- trade(X, Y).\n\
             exposure(X, Z) :- exposure(X, Y), trade(Y, Z).\n\
             nettable(X, Z) :- exposure(X, Y), exposure(Y, Z).\n",
        )
        .unwrap();
        let query = parse_query("exposure(cp0, X)").unwrap();
        let rw = rewrite(&program, &query, &[]);
        assert_eq!(rw.counters.cone_preds, 2); // exposure, trade
        assert_eq!(rw.counters.cone_rules, 2); // nettable rule dropped
        assert_eq!(rw.counters.guarded_rules, 2);
        assert_eq!(rw.counters.seeds, 1);
        assert!(rw.is_guarded());
        // The recursive rule passes the bound first argument sideways:
        // magic_exposure_bf(X) :- magic_exposure_bf(X) is a tautology and
        // must have been dropped; the base rule generates nothing (trade
        // is EDB). So only the guard rewiring remains.
        assert_eq!(rw.counters.magic_rules, 0);
        let seed = &rw.seeds[0];
        assert_eq!(seed.args, vec![Value::sym("cp0")]);
    }

    #[test]
    fn negation_taints_the_cone_downward() {
        let program = parse_program(
            "a(X) :- b(X), not c(X).\n\
             c(X) :- d(X).\n\
             d(X) :- e(X).\n",
        )
        .unwrap();
        let query = parse_query("a(k)").unwrap();
        let rw = rewrite(&program, &query, &[]);
        // c is negated, so c, d (and transitively e) are unguardable;
        // only a's rule takes a guard.
        assert_eq!(rw.counters.guarded_rules, 1);
        assert_eq!(rw.unguarded_sorted, vec!["c", "d", "e"]);
    }

    #[test]
    fn magic_names_avoid_collisions() {
        let program = parse_program(
            "magic_p_b(X) :- q(X).\n\
             p(X) :- magic_p_b(X), r(X).\n",
        )
        .unwrap();
        let query = parse_query("p(a)").unwrap();
        let rw = rewrite(&program, &query, &[]);
        assert!(rw.magic_preds.iter().all(|m| m.as_str() != "magic_p_b"));
    }
}
