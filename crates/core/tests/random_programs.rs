//! Engine vs brute-force oracle on *randomly generated* stratified
//! programs — beyond the fixed templates of `engine_vs_naive.rs`, this
//! explores rule shapes the templates don't: random operator chains —
//! non-punctual `⊟`/`⊞` windows and `since`/`until` with the atom on either
//! side among them, whose delta variants read the grown tuples whole when
//! they wrap a recursive atom — random join structure, recursion through
//! shifted heads, negation at random strata, and facts holding over whole
//! intervals.
//!
//! The same generator, with positive atoms free to read any predicate,
//! also draws programs whose cycles pass through several predicates (and
//! some whose negation closes a cycle): their stratification must be the
//! condensation of the dependency graph, and the engine must agree with
//! the oracle on them as well.
//!
//! Generation is driven by the deterministic in-repo `SmallRng` (one seed
//! per case), so every failure is reproducible from the printed seed.

use chronolog_core::naive::{grid_text, naive_materialize};
use chronolog_core::{
    Database, DependencyGraph, EdgeKind, Error, Interval, Program, Reasoner, ReasonerConfig,
    Stratification, Symbol, Value,
};
use chronolog_obs::SmallRng;
use std::collections::{HashMap, HashSet};

const T_MIN: i64 = 0;
const T_MAX: i64 = 18;

/// Predicates: EDB e1/1, e2/2; IDB p0/1, p1/2, p2/1, p3/2 — negation is
/// only generated against strictly lower-numbered predicates, which makes
/// every generated program stratifiable by construction.
const IDB: [(&str, usize); 4] = [("p0", 1), ("p1", 2), ("p2", 1), ("p3", 2)];
const EDB: [(&str, usize); 2] = [("e1", 1), ("e2", 2)];

#[derive(Debug, Clone)]
struct RuleSpec {
    head: usize,            // IDB index
    body: Vec<(usize, u8)>, // (atom source, operator code)
    negated: Option<usize>, // atom source for a trailing negation
    window: (i64, i64),     // diamond, box and since/until window
    shift: i64,             // punctual box shift
}

/// Atom sources 0..6: e1, e2, p0, p1, p2, p3.
fn source_pred(src: usize) -> (&'static str, usize) {
    match src {
        0 | 1 => EDB[src],
        _ => IDB[src - 2],
    }
}

/// Draws one rule spec; `max_op` bounds the operator codes (11 = full
/// operator set, 3 = past-only, for the forward-propagating fragment).
fn gen_rule(rng: &mut SmallRng, max_op: u8) -> RuleSpec {
    let head = rng.gen_range_usize(0, IDB.len());
    let body_len = rng.gen_range_usize(1, 4);
    // Half the rules start from an EDB atom, so most programs have a base
    // case for their recursion and derive something.
    let body = (0..body_len)
        .map(|i| {
            let sources = if i == 0 && rng.gen_bool(0.5) { 2 } else { 6 };
            (
                rng.gen_range_usize(0, sources),
                rng.gen_range_i64(0, max_op as i64) as u8,
            )
        })
        .collect();
    let negated = if rng.gen_bool(0.5) {
        Some(rng.gen_range_usize(0, 6))
    } else {
        None
    };
    let wlo = rng.gen_range_i64(0, 3);
    let wlen = rng.gen_range_i64(0, 3);
    RuleSpec {
        head,
        body,
        negated,
        window: (wlo, wlo + wlen),
        shift: rng.gen_range_i64(1, 3),
    }
}

/// Renders a rule spec into concrete syntax, enforcing safety (head
/// variables come from the first body atom) and stratifiability (negation
/// only on strictly lower predicates / EDB). `cyclic` lets positive atoms
/// read every IDB predicate, so cycles pass through several predicates and
/// a negation may close one.
fn render_rule(spec: &RuleSpec, cyclic: bool) -> Option<String> {
    let (head_name, head_arity) = IDB[spec.head];
    // Head variables X, Y bound by making the first atom use them.
    let head_args = match head_arity {
        1 => "X".to_string(),
        _ => "X, Y".to_string(),
    };
    let mut body = Vec::new();
    for (i, (src, op)) in spec.body.iter().enumerate() {
        // Positive IDB atoms may only reference same-or-lower predicates
        // (level recursion allowed); together with strictly-lower negation
        // this makes every generated program stratifiable by construction.
        let src = if !cyclic && *src >= 2 && (*src - 2) > spec.head {
            spec.head + 2
        } else {
            *src
        };
        let (name, arity) = source_pred(src);
        // First atom binds X (and Y); later atoms rejoin on X.
        let args = match (i, arity, head_arity) {
            (0, 1, 1) => "X".to_string(),
            (0, 1, _) => return None, // cannot bind Y from a unary atom
            (0, _, 1) => "X, _".to_string(),
            (0, _, _) => "X, Y".to_string(),
            (_, 1, _) => "X".to_string(),
            (_, _, _) => "X, _".to_string(),
        };
        let (wlo, whi) = spec.window;
        let atom = format!("{name}({args})");
        let wrapped = match op {
            0 => atom,
            1 => format!("diamondminus[{wlo}, {whi}] {atom}"),
            2 => format!("boxminus[{s}, {s}] {atom}", s = spec.shift),
            3 => format!("diamondplus[{wlo}, {whi}] {atom}"),
            4 => format!("boxplus[{s}, {s}] {atom}", s = spec.shift),
            5 => format!("boxminus[{wlo}, {whi}] {atom}"),
            6 => format!("boxplus[{wlo}, {whi}] {atom}"),
            7 => format!("since[{wlo}, {whi}](e1(X), {atom})"),
            8 => format!("until[{wlo}, {whi}](e1(X), {atom})"),
            _ => {
                // The atom on the left: the oracle wants the right operand to
                // bind every variable of the left one.
                let args = args.replace('_', "Z");
                let witness = if arity == 1 { "e1" } else { "e2" };
                let op = if *op == 9 { "since" } else { "until" };
                format!("{op}[{wlo}, {whi}]({name}({args}), {witness}({args}))")
            }
        };
        body.push(wrapped);
    }
    if let Some(nsrc) = spec.negated {
        let (name, arity) = source_pred(nsrc);
        // Stratifiable by construction: only EDB or strictly lower IDB.
        let lower = nsrc < 2 || (nsrc - 2) < spec.head;
        if lower {
            let args = if arity == 1 { "X" } else { "X, _" };
            body.push(format!("not {name}({args})"));
        }
    }
    Some(format!("{head_name}({head_args}) :- {}.", body.join(", ")))
}

fn gen_program(rng: &mut SmallRng, max_op: u8, cyclic: bool) -> String {
    let n = rng.gen_range_usize(1, 6);
    (0..n)
        .map(|_| gen_rule(rng, max_op))
        .filter_map(|spec| render_rule(&spec, cyclic))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One EDB fact: predicate, two argument values, and the closed interval
/// `[from, to]` it holds on — punctual when `from == to`.
type EdbFact = (usize, i64, i64, i64, i64);

/// Draws up to nine facts; half of them hold over up to `max_len` seconds
/// (`0`: all punctual).
fn gen_facts(rng: &mut SmallRng, max_len: i64) -> Vec<EdbFact> {
    let n = rng.gen_range_usize(0, 10);
    (0..n)
        .map(|_| {
            let (e, x, y, t) = (
                rng.gen_range_usize(0, 2),
                rng.gen_range_i64(0, 3),
                rng.gen_range_i64(0, 3),
                rng.gen_range_i64(T_MIN, T_MAX + 1),
            );
            let len = if max_len > 0 && rng.gen_bool(0.5) {
                rng.gen_range_i64(1, max_len + 1)
            } else {
                0
            };
            (e, x, y, t, t + len)
        })
        .collect()
}

fn build_db(facts: &[EdbFact]) -> Database {
    let mut db = Database::new();
    for &(e, x, y, from, to) in facts {
        let (name, arity) = EDB[e];
        let args: Vec<Value> = if arity == 1 {
            vec![Value::Int(x)]
        } else {
            vec![Value::Int(x), Value::Int(y)]
        };
        db.assert_over(name, &args, Interval::closed_int(from, to));
    }
    db
}

#[test]
fn random_programs_agree_with_oracle() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ case);
        let src = gen_program(&mut rng, 11, false);
        let facts = gen_facts(&mut rng, 4);
        if src.is_empty() {
            continue;
        }
        let program = chronolog_core::parse_program(&src)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{src}"));
        // Generated programs are stratifiable and safe by construction.
        let reasoner = Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
        )
        .unwrap_or_else(|e| panic!("generated program must validate: {e}\n{src}"));
        let db = build_db(&facts);
        let naive = naive_materialize(&program, &db, T_MIN, T_MAX).unwrap();
        let engine = reasoner.materialize(&db).unwrap();
        assert_eq!(
            grid_text(&engine.database, T_MIN, T_MAX),
            naive.to_text(),
            "case {case}: program:\n{src}\nfacts: {facts:?}"
        );
    }
}

/// Streaming facts in time order through a Session equals the batch
/// materialization — the incremental engine misses and invents nothing.
/// Operators restricted to `◇⁻`/`⊟` so programs are session-eligible.
#[test]
fn session_streaming_equals_batch() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xFACADE ^ (case << 8));
        let src = gen_program(&mut rng, 3, false);
        let facts = gen_facts(&mut rng, 0);
        if src.is_empty() {
            continue;
        }
        let program = chronolog_core::parse_program(&src).unwrap();
        let batch_db = build_db(&facts);
        let batch = Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
        )
        .unwrap()
        .materialize(&batch_db)
        .unwrap();

        // Stream the same facts in time order: genesis facts (at T_MIN)
        // seed the session; later facts are grouped by timestamp, submitted
        // together, and the watermark advances after each group.
        let mk_fact = |&(e, x, y, t, _): &EdbFact| {
            let (name, arity) = EDB[e];
            let args: Vec<Value> = if arity == 1 {
                vec![Value::Int(x)]
            } else {
                vec![Value::Int(x), Value::Int(y)]
            };
            chronolog_core::Fact::at(name, args, t)
        };
        let mut genesis = Database::new();
        for f in facts.iter().filter(|&&(_, _, _, t, _)| t == T_MIN) {
            genesis.insert_fact(&mk_fact(f)).unwrap();
        }
        let mut later: Vec<&EdbFact> = facts.iter().filter(|&&(_, _, _, t, _)| t > T_MIN).collect();
        later.sort_by_key(|&&(_, _, _, t, _)| t);
        let mut session = Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .into_session(&genesis, T_MIN)
            .unwrap();
        let mut i = 0;
        while i < later.len() {
            let t = later[i].3;
            while i < later.len() && later[i].3 == t {
                session.submit(mk_fact(later[i])).unwrap();
                i += 1;
            }
            session.advance_to(t).unwrap();
        }
        session.advance_to(T_MAX).unwrap();
        assert_eq!(
            grid_text(session.database(), T_MIN, T_MAX),
            grid_text(&batch.database, T_MIN, T_MAX),
            "case {case}: program:\n{src}\nfacts: {facts:?}"
        );
    }
}

/// Checks that the stratification of `program` is the condensation of its
/// dependency graph, or that a negative or aggregated edge really lies on a
/// cycle when it is refused. Returns whether the program stratified.
fn check_condensation(program: &Program, src: &str) -> bool {
    let graph = DependencyGraph::build(program);
    let mut succ: HashMap<Symbol, Vec<Symbol>> = HashMap::new();
    for (from, to, _) in &graph.edges {
        succ.entry(*from).or_default().push(*to);
    }
    let reach: HashMap<Symbol, HashSet<Symbol>> = (graph.predicates.iter())
        .map(|&p| {
            let mut seen = HashSet::from([p]);
            let mut frontier = vec![p];
            while let Some(q) = frontier.pop() {
                for &to in succ.get(&q).into_iter().flatten() {
                    if seen.insert(to) {
                        frontier.push(to);
                    }
                }
            }
            (p, seen)
        })
        .collect();
    let mutual = |a: &Symbol, b: &Symbol| reach[a].contains(b) && reach[b].contains(a);
    let strat = match Stratification::compute(program) {
        Ok(strat) => strat,
        Err(Error::NotStratifiable(_)) => {
            assert!(
                (graph.edges.iter()).any(|(f, t, k)| *k != EdgeKind::Positive && mutual(f, t)),
                "refused without a negative cycle:\n{src}"
            );
            return false;
        }
        Err(e) => panic!("{e}\n{src}"),
    };
    let stratum = |p: &Symbol| strat.strata[p];

    // Every rule once, in the stratum of its head, in ascending order.
    let mut seen: Vec<usize> = Vec::new();
    for (i, rules) in strat.rules_by_stratum.iter().enumerate() {
        assert!(!rules.is_empty(), "stratum {i} holds no rule:\n{src}");
        assert!(rules.windows(2).all(|w| w[0] < w[1]), "{rules:?}\n{src}");
        for &r in rules {
            assert_eq!(stratum(&program.rules[r].head.atom.pred), i, "{src}");
        }
        seen.extend(rules);
    }
    seen.sort();
    assert_eq!(seen, (0..program.rules.len()).collect::<Vec<_>>(), "{src}");

    // Edges out of a derived predicate: positive ones to an equal or later
    // stratum (later unless inside a component), the others to a strictly
    // later one. Input predicates are complete before stratum 0.
    let derived: HashSet<Symbol> = program.rules.iter().map(|r| r.head.atom.pred).collect();
    for (from, to, kind) in graph.edges.iter().filter(|(f, _, _)| derived.contains(f)) {
        let (a, b) = (stratum(from), stratum(to));
        match kind {
            EdgeKind::Positive if mutual(from, to) => assert_eq!(a, b, "{from}->{to}\n{src}"),
            _ => assert!(a < b, "{from}->{to} ({kind:?}): {a} vs {b}\n{src}"),
        }
    }
    // Two derived predicates share a stratum iff each reaches the other.
    for a in &derived {
        for b in &derived {
            assert_eq!(stratum(a) == stratum(b), mutual(a, b), "{a}, {b}\n{src}");
        }
    }

    // The order refines the classic stratification (the least levels with
    // a positive edge keeping and a negative or aggregated one raising the
    // level), and within a level a stratum with a smaller first rule comes
    // later only if it reads one in between.
    let mut level: HashMap<Symbol, usize> = graph.predicates.iter().map(|&p| (p, 0)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (from, to, kind) in &graph.edges {
            let need = level[from] + usize::from(*kind != EdgeKind::Positive);
            if need > level[to] {
                level.insert(*to, need);
                changed = true;
            }
        }
    }
    let first_rule = |i: usize| strat.rules_by_stratum[i][0];
    let level_of = |i: usize| level[&program.rules[first_rule(i)].head.atom.pred];
    let reads = |j: usize, k: usize| {
        (graph.edges.iter())
            .any(|(f, t, _)| derived.contains(f) && stratum(f) == k && stratum(t) == j)
    };
    for j in 0..strat.count() {
        for i in 0..j {
            assert!(level_of(i) <= level_of(j), "levels out of order\n{src}");
            if level_of(i) == level_of(j) && first_rule(j) < first_rule(i) {
                assert!(
                    (i..j).any(|k| reads(j, k)),
                    "stratum {j} was ready before stratum {i}\n{src}"
                );
            }
        }
    }
    true
}

#[test]
fn stratification_is_the_condensation() {
    let (mut checked, mut refused, mut shared) = (0, 0, 0);
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x5CC0 ^ (case << 4));
        let src = gen_program(&mut rng, 11, case % 2 == 1);
        if src.is_empty() {
            continue;
        }
        let program = chronolog_core::parse_program(&src).unwrap();
        checked += 1;
        if !check_condensation(&program, &src) {
            refused += 1;
            continue;
        }
        let strat = Stratification::compute(&program).unwrap();
        let heads = |rules: &Vec<usize>| {
            let preds = rules.iter().map(|&r| program.rules[r].head.atom.pred);
            preds.collect::<HashSet<_>>().len()
        };
        if strat.rules_by_stratum.iter().any(|rules| heads(rules) > 1) {
            shared += 1;
        }
    }
    assert!(checked >= 200, "{checked} programs checked");
    assert!(refused > 0, "no generated program closed a negative cycle");
    assert!(shared > 0, "no cycle passed through two predicates");
}

/// Programs whose cycles pass through several predicates: every one that
/// stratifies derives the oracle's model.
#[test]
fn cyclic_programs_agree_with_oracle() {
    let mut compared = 0;
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0xC1C1E ^ (case << 4));
        let src = gen_program(&mut rng, 11, true);
        let facts = gen_facts(&mut rng, 4);
        let program = chronolog_core::parse_program(&src).unwrap();
        let config = ReasonerConfig::default().with_horizon(T_MIN, T_MAX);
        let Ok(reasoner) = Reasoner::new(program.clone(), config) else {
            continue;
        };
        let db = build_db(&facts);
        let naive = naive_materialize(&program, &db, T_MIN, T_MAX).unwrap();
        let engine = reasoner.materialize(&db).unwrap();
        assert_eq!(
            grid_text(&engine.database, T_MIN, T_MAX),
            naive.to_text(),
            "case {case}: program:\n{src}\nfacts: {facts:?}"
        );
        compared += 1;
    }
    assert!(compared >= 48, "only {compared} cyclic programs stratified");
}
