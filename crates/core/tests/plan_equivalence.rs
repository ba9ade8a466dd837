//! Plan-equivalence property suite: join ordering is a pure performance
//! transformation. For every program and input, the planned engine must
//! produce output byte-identical to the multi-threaded run and equal to the
//! brute-force oracle on the half-integer grid, which evaluates bodies in
//! textual order on its own schedule.
//!
//! Value pools are integer-only on purpose: reordering changes which
//! literal first binds a variable, and a pool mixing `3` and `3.0` would
//! make the printed spelling depend on join order rather than semantics.

use chronolog_core::naive::{grid_text, naive_materialize};
use chronolog_core::{
    parse_program, parse_source, Database, Fact, Interval, Literal, Program, Reasoner,
    ReasonerConfig, RunStats, Value,
};
use chronolog_obs::SmallRng;
use std::collections::BTreeMap;

const T_MIN: i64 = 0;
const T_MAX: i64 = 16;

/// Multi-join programs where ordering actually matters: selective atoms
/// placed last in text, join chains, negation, constraints, temporal
/// windows, recursion (so semi-naive delta variants get their own plans),
/// and aggregation. All stay inside the oracle's closed integer-endpoint
/// fragment.
const PROGRAMS: &[&str] = &[
    // 1. Selective atom textually last.
    "hot(X, Y) :- wide1(X, K), wide2(K, Y), sel(X).\n\
     twice(X, Z) :- hot(X, Y), wide2(Y, Z).",
    // 2. Recursion: delta variants of the second rule are planned per
    //    delta literal; negation runs after the joins either way.
    "reach(X, Y) :- edge(X, Y).\n\
     reach(X, Z) :- reach(X, Y), edge(Y, Z).\n\
     blocked(X) :- reach(X, Y), sel(Y), not edge(Y, X).",
    // 3. Constraint scheduling across a reordered join: the assignment
    //    `V = ...` must still run at the first point all inputs are bound.
    "score(X, V) :- wide1(X, K), wide2(K, Y), V = K * 2 + Y, V > 3.\n\
     delta(X, W) :- score(X, V), sel(S), W = V - S.",
    // 4. Temporal windows feeding a cross join with a selective guard.
    "recent(X) :- diamondminus[0, 3] wide1(X, K).\n\
     pair(X, Y) :- recent(X), recent(Y), sel(X).\n\
     fut(X) :- diamondplus[1, 2] sel(X), wide1(X, K).",
    // 5. Punctual-box recursion with a join and negation in the body.
    "live(X) :- wide1(X, K).\n\
     live(X) :- boxminus live(X), edge(X, Y), not sel(Y).",
    // 6. Aggregation feeding a selective join.
    "tot(X, sum(K)) :- wide1(X, K).\n\
     big(X) :- tot(X, S), sel(X), S > 2.",
];

struct Trace {
    wide1: Vec<(i64, i64, i64)>, // (x, k, t)
    wide2: Vec<(i64, i64, i64)>, // (k, y, t)
    edge: Vec<(i64, i64, i64)>,  // (x, y, t)
    sel: Vec<(i64, i64)>,        // (x, t)
}

fn gen_trace(rng: &mut SmallRng) -> Trace {
    let pair = |rng: &mut SmallRng| {
        (
            rng.gen_range_i64(0, 4),
            rng.gen_range_i64(0, 4),
            rng.gen_range_i64(T_MIN, T_MAX),
        )
    };
    Trace {
        wide1: (0..rng.gen_range_usize(2, 8)).map(|_| pair(rng)).collect(),
        wide2: (0..rng.gen_range_usize(2, 8)).map(|_| pair(rng)).collect(),
        edge: (0..rng.gen_range_usize(0, 6)).map(|_| pair(rng)).collect(),
        sel: (0..rng.gen_range_usize(0, 3))
            .map(|_| (rng.gen_range_i64(0, 4), rng.gen_range_i64(T_MIN, T_MAX)))
            .collect(),
    }
}

fn build_db(trace: &Trace) -> Database {
    let mut db = Database::new();
    for (x, k, t) in &trace.wide1 {
        db.assert_at("wide1", &[Value::Int(*x), Value::Int(*k)], *t);
    }
    for (k, y, t) in &trace.wide2 {
        db.assert_at("wide2", &[Value::Int(*k), Value::Int(*y)], *t);
    }
    for (x, y, t) in &trace.edge {
        db.assert_at("edge", &[Value::Int(*x), Value::Int(*y)], *t);
    }
    for (x, t) in &trace.sel {
        db.assert_at("sel", &[Value::Int(*x)], *t);
    }
    db
}

/// The planned run on `[lo, hi]` must agree byte-for-byte with the
/// threaded run, and with the oracle on every integer and half-integer
/// point.
fn check_against_oracle(program: &Program, db: &Database, (lo, hi): (i64, i64), label: &str) {
    let run = |threads: usize| {
        Reasoner::new(
            program.clone(),
            ReasonerConfig::default()
                .with_horizon(lo, hi)
                .with_threads(threads),
        )
        .unwrap()
        .materialize(db)
        .unwrap()
        .database
    };
    let planned = run(1);
    assert_eq!(
        planned.to_facts_text(),
        run(4).to_facts_text(),
        "{label}: threaded run diverges"
    );
    let oracle = naive_materialize(program, db, lo, hi).unwrap();
    assert_eq!(
        grid_text(&planned, lo, hi),
        oracle.to_text(),
        "{label}: oracle diverges"
    );
}

fn check_case(program_src: &str, trace: &Trace, label: &str) {
    let program = parse_program(program_src).unwrap();
    check_against_oracle(&program, &build_db(trace), (T_MIN, T_MAX), label);
}

#[test]
fn reordered_plans_are_equivalent_on_random_programs() {
    // 60 seeded cases (>= the 48 the roadmap asks for), spread over every
    // template program.
    for case in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(0x0907DE ^ case);
        let trace = gen_trace(&mut rng);
        let program_idx = (case as usize) % PROGRAMS.len();
        check_case(
            PROGRAMS[program_idx],
            &trace,
            &format!("case {case} program {program_idx}"),
        );
    }
}

/// The corpus programs over `[0, 40]`. Netting's join closure costs the
/// brute-force oracle about a second of a debug build per cell, so a debug
/// build checks it over `[0, 1]` — a point, an open unit and a point of
/// the uniform model its facts hold on — and a release build over
/// `[0, 20]`, the span its facts cover.
#[test]
fn reordered_plans_are_equivalent_on_the_corpus() {
    let netting_hi = if cfg!(debug_assertions) { 1 } else { 20 };
    for (name, hi) in [
        ("fibonacci", 40),
        ("funding", 40),
        ("margin", 40),
        ("netting", netting_hi),
        ("sla", 40),
    ] {
        let path = format!("{}/../../corpus/{name}.dmtl", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        let (program, facts) = parse_source(&src).unwrap();
        let mut db = Database::new();
        db.extend_facts(&facts).unwrap();
        check_against_oracle(&program, &db, (0, hi), name);
    }
}

/// A plan is a function of the program text: whatever the data — none, the
/// corpus facts in one batch, or the same facts fed through a 200-advance
/// session — a `(rule, delta literal)` variant runs the same steps in the
/// same order, and `plans_built` counts each variant a run used once. A
/// session adds seeded variants to the batch run's; its count is bounded by
/// the program and does not grow with advances.
#[test]
fn plans_are_a_function_of_the_program() {
    let path = format!("{}/../../corpus/margin.dmtl", env!("CARGO_MANIFEST_DIR"));
    let (program, mut facts) = parse_source(&std::fs::read_to_string(path).unwrap()).unwrap();
    // Deposits and withdrawals to the end of the horizon keep every variant
    // in use long after the corpus facts (all before t = 16) are behind.
    let acc = Value::sym("acc123");
    for t in (20..200).step_by(7) {
        facts.push(Fact::at("tranM", vec![acc, Value::Int(1)], t));
    }
    for t in (45..200).step_by(45) {
        facts.push(Fact::at("withdraw", vec![acc], t));
    }
    let reasoner = || {
        Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(0, 200),
        )
        .unwrap()
    };
    type Orders = BTreeMap<(usize, Option<usize>), Vec<String>>;
    let orders = |stats: &RunStats| -> Orders {
        let explains = stats.plan_explains();
        assert_eq!(stats.plans_built, explains.len() as u64);
        explains
            .into_iter()
            .map(|p| {
                let steps = p.steps.into_iter().map(|s| s.desc).collect();
                ((p.rule, p.delta_literal), steps)
            })
            .collect()
    };

    let empty = orders(&reasoner().materialize(&Database::new()).unwrap().stats);
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let batch = orders(&reasoner().materialize(&db).unwrap().stats);
    let mut session = reasoner().into_session(&Database::new(), 0).unwrap();
    for t in 1..=200 {
        for fact in facts.iter().filter(|f| f.interval == Interval::at(t)) {
            session.submit(fact.clone()).unwrap();
        }
        session.advance_to(t).unwrap();
    }
    assert_eq!(session.database().to_facts_text(), {
        let m = reasoner().materialize(&db).unwrap();
        m.database.to_facts_text()
    });
    let live = orders(session.stats());

    assert!(batch.len() > empty.len(), "the facts reach delta variants");
    for (variant, steps) in empty.iter().chain(&live) {
        match batch.get(variant) {
            Some(batch_steps) => assert_eq!(steps, batch_steps, "variant {variant:?}"),
            // Only a session seeds iteration 0 from a delta.
            None => assert!(variant.1.is_some() && live.contains_key(variant)),
        }
    }
    let variants_of_the_program: usize = program
        .rules
        .iter()
        .map(|r| {
            1 + r
                .body
                .iter()
                .filter(|l| matches!(l, Literal::Pos(_)))
                .count()
        })
        .sum();
    assert!(
        live.len() <= variants_of_the_program,
        "{} plans for a program of {variants_of_the_program} variants",
        live.len()
    );
}
