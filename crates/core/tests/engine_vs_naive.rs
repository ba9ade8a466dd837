//! Cross-validation: the interval-based semi-naive engine must agree with
//! the brute-force discrete oracle on the integer-punctual fragment, over a
//! family of structurally diverse programs stimulated with random facts.

use chronolog_core::naive::naive_materialize;
use chronolog_core::{
    parse_program, Database, IntervalSet, Rational, Reasoner, ReasonerConfig, Symbol, Value,
};
use chronolog_obs::SmallRng;

const T_MIN: i64 = 0;
const T_MAX: i64 = 24;

/// Programs covering the engine features: recursion, negation, operators,
/// constraints, aggregation, time capture, head operators, wildcards.
const PROGRAMS: &[&str] = &[
    // 1. The paper's margin-account skeleton (recursion + negation).
    "isOpen(A) :- tranM(A, M).\n\
     isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
     margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
     changeM(A) :- tranM(A, M).\n\
     changeM(A) :- withdraw(A).\n\
     margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
     margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.",
    // 2. Diamond windows and joins.
    "recent(A) :- diamondminus[0, 3] tranM(A, M).\n\
     coincide(A, B) :- recent(A), recent(B).\n\
     future(A) :- diamondplus[1, 2] withdraw(A).",
    // 3. Aggregation feeding recursion (the skew pattern).
    "event(sum(S)) :- modPos(A, S).\n\
     event(sum(S)) :- tranM(A, M), S = 0.\n\
     skew(K) :- start(K).\n\
     skew(K) :- diamondminus skew(K), not event(_).\n\
     skew(K) :- diamondminus skew(X), event(S), K = X + S.",
    // 4. Arithmetic chains and comparisons.
    "big(A, V) :- tranM(A, M), V = M * 2 + 1, V > 10.\n\
     neg(A, W) :- big(A, V), W = -V.\n\
     inRange(A) :- big(A, V), V >= 11, V <= 41, V != 13.",
    // 5. Time capture and intervals between events.
    "tick(T) :- tranM(A, M)@T.\n\
     gap(T1, T2) :- diamondminus tick(T1), tick(T2).\n\
     span(D) :- gap(T1, T2), D = T2 - T1.",
    // 6. Head operators (punctual) and double recursion.
    "boxplus[1, 1] echo(A) :- tranM(A, M).\n\
     boxminus[1, 1] pre(A) :- withdraw(A).\n\
     chain(A) :- echo(A).\n\
     chain(A) :- boxminus chain(A), not withdraw(A).",
    // 7. Wildcards under negation, multiple strata.
    "quiet(A) :- isOpen(A), not modPos(A, _).\n\
     isOpen(A) :- tranM(A, M).\n\
     isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
     calm() :- quiet(A), not withdraw(_).",
    // 8. Count/min/max aggregates with group-by.
    "perAcc(A, count(S)) :- modPos(A, S).\n\
     best(max(S)) :- modPos(A, S).\n\
     worst(min(S)) :- modPos(A, S).",
    // 9. Aggregates over persisted predicates: the contributions are runs
    //    of isolated seconds, active on their teeth and nowhere between.
    "isOpen(A) :- tranM(A, M).\n\
     isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
     held(A, M) :- tranM(A, M).\n\
     held(A, M) :- diamondminus held(A, M), not withdraw(A).\n\
     openCount(count(A)) :- isOpen(A).\n\
     total(sum(M)) :- held(A, M).\n\
     perAcc(A, max(M)) :- held(A, M), not modPos(A, _).",
    // 10. Time capture over a persisted predicate binds every second of
    //     the run, and a run of step 2 only every other one.
    "live() :- start(K).\n\
     live() :- boxminus live().\n\
     at(T) :- live()@T.\n\
     every2(K) :- start(K).\n\
     every2(K) :- diamondminus[2, 2] every2(K).\n\
     beat(K, T) :- every2(K)@T, live().",
];

#[derive(Debug, Clone)]
struct RandomTrace {
    tran: Vec<(u8, i64, i64)>,   // (account, amount, time)
    withdraw: Vec<(u8, i64)>,    // (account, time)
    modpos: Vec<(u8, i64, i64)>, // (account, size, time)
    start: Vec<(i64, i64)>,      // (value, time)
}

fn gen_trace(rng: &mut SmallRng) -> RandomTrace {
    let tran = (0..rng.gen_range_usize(0, 6))
        .map(|_| {
            (
                rng.gen_range_i64(0, 3) as u8,
                rng.gen_range_i64(1, 50),
                rng.gen_range_i64(T_MIN, T_MAX),
            )
        })
        .collect();
    let withdraw = (0..rng.gen_range_usize(0, 3))
        .map(|_| {
            (
                rng.gen_range_i64(0, 3) as u8,
                rng.gen_range_i64(T_MIN, T_MAX),
            )
        })
        .collect();
    let modpos = (0..rng.gen_range_usize(0, 6))
        .map(|_| {
            (
                rng.gen_range_i64(0, 3) as u8,
                rng.gen_range_i64(-5, 6),
                rng.gen_range_i64(T_MIN, T_MAX),
            )
        })
        .collect();
    let start = (0..rng.gen_range_usize(0, 2))
        .map(|_| (rng.gen_range_i64(-3, 4), rng.gen_range_i64(T_MIN, 2)))
        .collect();
    RandomTrace {
        tran,
        withdraw,
        modpos,
        start,
    }
}

fn account(id: u8) -> Value {
    Value::sym(&format!("acc{id}"))
}

fn build_db(trace: &RandomTrace) -> Database {
    let mut db = Database::new();
    for (a, m, t) in &trace.tran {
        db.assert_at("tranM", &[account(*a), Value::Int(*m)], *t);
    }
    for (a, t) in &trace.withdraw {
        db.assert_at("withdraw", &[account(*a)], *t);
    }
    for (a, s, t) in &trace.modpos {
        db.assert_at("modPos", &[account(*a), Value::Int(*s)], *t);
    }
    for (k, t) in &trace.start {
        db.assert_at("start", &[Value::Int(*k)], *t);
    }
    db
}

/// Renders the engine's materialization as sorted `(pred, tuple, t)` lines
/// over the integer grid, for diffing against the oracle.
fn engine_text(db: &Database) -> String {
    let mut lines = Vec::new();
    for (pred, tuple, ivs) in db.iter() {
        for t in T_MIN..=T_MAX {
            if IntervalSet::components_contain(ivs, Rational::integer(t)) {
                let args = (0..tuple.len())
                    .map(|i| tuple.value(i).to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                lines.push(format!("{pred}({args})@{t}"));
            }
        }
    }
    lines.sort();
    lines.join("\n")
}

fn check_program_on_trace(src: &str, trace: &RandomTrace) {
    let program = parse_program(src).unwrap();
    let db = build_db(trace);
    let naive = naive_materialize(&program, &db, T_MIN, T_MAX).unwrap();
    let reasoner = Reasoner::new(
        program,
        ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
    )
    .unwrap();
    let engine = reasoner.materialize(&db).unwrap();
    let engine_out = engine_text(&engine.database);
    let naive_out = naive.to_text();
    assert_eq!(
        engine_out, naive_out,
        "engine and oracle disagree on program:\n{src}\ntrace: {trace:?}"
    );
}

#[test]
fn engine_matches_oracle_on_random_traces() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x0DDBA11 ^ case);
        let trace = gen_trace(&mut rng);
        let program_idx = rng.gen_range_usize(0, PROGRAMS.len());
        check_program_on_trace(PROGRAMS[program_idx], &trace);
    }
}

#[test]
fn seminaive_matches_naive_mode_on_random_traces() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xAB1E ^ (case << 3));
        let trace = gen_trace(&mut rng);
        let program_idx = rng.gen_range_usize(0, PROGRAMS.len());
        let program = parse_program(PROGRAMS[program_idx]).unwrap();
        let db = build_db(&trace);
        let mk = |semi: bool| {
            Reasoner::new(
                program.clone(),
                ReasonerConfig {
                    semi_naive: semi,
                    ..ReasonerConfig::default().with_horizon(T_MIN, T_MAX)
                },
            )
            .unwrap()
            .materialize(&db)
            .unwrap()
            .database
        };
        assert_eq!(
            mk(true).to_facts_text(),
            mk(false).to_facts_text(),
            "case {case}: program {program_idx}"
        );
    }
}

#[test]
fn every_template_program_compiles_and_stratifies() {
    for (i, src) in PROGRAMS.iter().enumerate() {
        let program = parse_program(src).unwrap_or_else(|e| panic!("program {i}: {e}"));
        Reasoner::new(
            program,
            ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
        )
        .unwrap_or_else(|e| panic!("program {i}: {e}"));
    }
}

#[test]
fn dense_trace_exercises_all_templates() {
    // A handcrafted trace touching every predicate on overlapping times.
    let trace = RandomTrace {
        tran: vec![(0, 10, 1), (1, 20, 1), (0, 5, 6), (2, 7, 12)],
        withdraw: vec![(0, 9), (1, 15)],
        modpos: vec![(0, 3, 2), (1, -2, 2), (0, 1, 8), (2, -4, 13)],
        start: vec![(0, 0)],
    };
    for src in PROGRAMS {
        check_program_on_trace(src, &trace);
    }
}

#[test]
fn symbols_survive_cross_database_reuse() {
    // Regression guard for the global interner: same name in two databases
    // must be the same symbol.
    let a = Symbol::new("margin");
    let b = Symbol::new("margin");
    assert_eq!(a, b);
}
