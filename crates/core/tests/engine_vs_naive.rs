//! Cross-validation: the interval-based semi-naive engine must agree with
//! the brute-force oracle on the half-integer grid, over a family of
//! structurally diverse programs stimulated with random facts — punctual
//! events plus `open(A)` facts holding over whole intervals.
//!
//! The last templates put a current-stratum predicate under a non-punctual
//! box or under `since`/`until`, on either side and on both. The delta
//! variant of such a literal reads the tuples that grew last round with
//! their whole validity, not just the new points; the oracle is its only
//! independent check.

use chronolog_core::naive::{grid_text, naive_materialize};
use chronolog_core::{
    parse_program, parse_source, Database, Fact, Interval, Program, Rational, Reasoner,
    ReasonerConfig, Symbol, TimeBound, Value,
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
    // 11. A box of positive length over the recursive predicate
    //     extends `held` one second past each stretch it covers, for as
    //     long as the account stays open.
    "held(A) :- diamondminus[0, 2] tranM(A, M).\n\
     held(A) :- boxminus[1, 2] held(A), open(A).\n\
     still(A) :- boxminus[0, 2] held(A), open(A).",
    // 12. Recursive since — `fresh` is carried forward at most
    //     3 s at a time, and only while the account is open throughout.
    "fresh(A) :- tranM(A, M).\n\
     fresh(A) :- since[0, 3](open(A), fresh(A)).\n\
     stale(A) :- open(A), not fresh(A).",
    // 13. Backwards: recursive until and a future box, with a
    //     non-punctual head operator feeding them.
    "boxplus[0, 2] due(A) :- withdraw(A).\n\
     due(A) :- until[1, 2](open(A), due(A)).\n\
     warned(A) :- boxplus[1, 2] due(A), open(A).",
    // 14. The recursive atom as the left operand of since: `live` carries
    //     on past an `open` second for as long as it held since then.
    "live(A) :- diamondminus[0, 2] tranM(A, M).\n\
     live(A) :- since[1, 3](live(A), open(A)).",
    // 15. The recursive atom as the left operand of until, fed by a
    //     non-punctual head operator.
    "boxplus[0, 2] due(A) :- withdraw(A).\n\
     due(A) :- until[1, 2](due(A), open(A)).",
    // 16. Both since operands in the current stratum, each predicate
    //     reading the other.
    "p(A) :- tranM(A, M).\n\
     q(A) :- open(A), withdraw(A).\n\
     p(A) :- since[1, 3](q(A), p(A)).\n\
     q(A) :- since[0, 2](p(A), q(A)).",
    // 17. Both until operands in the current stratum.
    "p(A) :- withdraw(A).\n\
     q(A) :- diamondplus[0, 1] open(A).\n\
     p(A) :- until[1, 3](q(A), p(A)).\n\
     q(A) :- until[0, 2](p(A), q(A)).",
    // 18. A box of positive length inside a since operand.
    "held(A) :- diamondminus[0, 1] tranM(A, M).\n\
     held(A) :- since[0, 2](open(A), boxminus[0, 1] held(A)).",
    // 19. One rule mixing a diamond literal (new points) with a box of
    //     positive length (grown tuples) over two current predicates.
    "a(A) :- diamondminus[0, 2] tranM(A, M).\n\
     b(A) :- open(A), diamondminus[1, 1] a(A).\n\
     a(A) :- diamondminus[1, 2] a(A), boxminus[0, 1] b(A).",
];

#[derive(Debug, Clone)]
struct RandomTrace {
    tran: Vec<(u8, i64, i64)>,   // (account, amount, time)
    withdraw: Vec<(u8, i64)>,    // (account, time)
    modpos: Vec<(u8, i64, i64)>, // (account, size, time)
    start: Vec<(i64, i64)>,      // (value, time)
    open: Vec<(u8, i64, i64)>,   // (account, from, to)
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
    let open = (0..rng.gen_range_usize(0, 4))
        .map(|_| {
            let from = rng.gen_range_i64(T_MIN - 2, T_MAX);
            (
                rng.gen_range_i64(0, 3) as u8,
                from,
                from + rng.gen_range_i64(1, 9),
            )
        })
        .collect();
    RandomTrace {
        tran,
        withdraw,
        modpos,
        start,
        open,
    }
}

fn account(id: u8) -> Value {
    Value::sym(&format!("acc{id}"))
}

fn trace_facts(trace: &RandomTrace) -> Vec<Fact> {
    let mut facts = Vec::new();
    for (a, m, t) in &trace.tran {
        facts.push(Fact::at("tranM", vec![account(*a), Value::Int(*m)], *t));
    }
    for (a, t) in &trace.withdraw {
        facts.push(Fact::at("withdraw", vec![account(*a)], *t));
    }
    for (a, s, t) in &trace.modpos {
        facts.push(Fact::at("modPos", vec![account(*a), Value::Int(*s)], *t));
    }
    for (k, t) in &trace.start {
        facts.push(Fact::at("start", vec![Value::Int(*k)], *t));
    }
    for (a, from, to) in &trace.open {
        let over = Interval::closed_int(*from, *to);
        facts.push(Fact::over("open", vec![account(*a)], over));
    }
    facts
}

fn build_db(trace: &RandomTrace) -> Database {
    let mut db = Database::new();
    db.extend_facts(&trace_facts(trace)).unwrap();
    db
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
    let engine_out = grid_text(&engine.database, T_MIN, T_MAX);
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

/// The templates that recurse through a box of positive length or
/// `since`/`until` on traces of their own, so each runs on more than the
/// few random cases that pick it.
#[test]
fn full_mode_templates_match_oracle() {
    for (offset, src) in PROGRAMS[10..].iter().enumerate() {
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(0xF011 ^ (seed << 4) ^ offset as u64);
            check_program_on_trace(src, &gen_trace(&mut rng));
        }
    }
}

/// The full plans of a stratum run, by `--explain-plans` execution count:
/// those of a batch run of `program` over `facts`, and, when the program is
/// in the session fragment, those of a session streaming the facts that
/// start after `lo`, advancing to each group's end.
fn full_plan_executions(
    program: &Program,
    facts: &[Fact],
    (lo, hi): (i64, i64),
) -> (Vec<u64>, Option<Vec<u64>>) {
    let full = |stats: &chronolog_core::RunStats| -> Vec<u64> {
        (stats.plan_explains().iter())
            .filter(|p| p.delta_literal.is_none())
            .map(|p| p.executions)
            .collect()
    };
    let mut db = Database::new();
    db.extend_facts(facts).unwrap();
    let config = ReasonerConfig::default().with_horizon(lo, hi);
    let batch = (Reasoner::new(program.clone(), config.clone()).unwrap())
        .materialize(&db)
        .unwrap();
    let (initial, mut stream): (Vec<&Fact>, Vec<&Fact>) = facts
        .iter()
        .partition(|f| f.interval.lo() <= TimeBound::Finite(Rational::integer(lo)));
    stream.sort_by(|a, b| a.interval.cmp_position(&b.interval));
    let mut genesis = Database::new();
    genesis.extend_facts(initial).unwrap();
    let Ok(mut session) = Reasoner::new(program.clone(), config)
        .unwrap()
        .into_session(&genesis, lo)
    else {
        return (full(&batch.stats), None);
    };
    for (i, fact) in stream.iter().enumerate() {
        session.submit((*fact).clone()).unwrap();
        if stream.get(i + 1).map(|f| f.interval.lo()) != Some(fact.interval.lo()) {
            let end = fact.interval.hi().finite().unwrap().ceil();
            session.advance_to(end.min(hi)).unwrap();
        }
    }
    session.advance_to(hi).unwrap();
    assert_eq!(
        session.database().to_facts_text(),
        batch.database.to_facts_text()
    );
    (full(&batch.stats), Some(full(session.stats())))
}

/// One fixpoint discipline: every rule runs semi-naive, so its full plan
/// runs once per stratum run — round 0 — however many rounds the stratum
/// takes. In a batch run that is once; in a session every advance runs
/// every stratum once, so all full plans share one execution count. Over
/// the templates that recurse through a box of positive length, `since`
/// and `until`, and over the corpus.
#[test]
fn full_plans_run_once_per_stratum_run() {
    // Interval facts start at the session start, so a session can stream
    // the events after it.
    let trace = RandomTrace {
        tran: vec![(0, 10, 1), (1, 20, 1), (0, 5, 6), (2, 7, 12)],
        withdraw: vec![(0, 9), (1, 15)],
        modpos: vec![],
        start: vec![(0, 0)],
        open: vec![(0, -1, 8), (1, 0, 14), (2, 0, 24)],
    };
    let mut sessions = 0;
    let mut check = |name: &str, program: Program, facts: Vec<Fact>, window| {
        let (batch, session) = full_plan_executions(&program, &facts, window);
        assert!(!batch.is_empty(), "{name}: no full plan ran");
        assert!(batch.iter().all(|&n| n == 1), "{name}: batch {batch:?}");
        if let Some(session) = session {
            sessions += 1;
            assert!(
                session.windows(2).all(|w| w[0] == w[1]),
                "{name}: session {session:?}"
            );
        }
    };
    for (i, src) in PROGRAMS.iter().enumerate().take(13).skip(10) {
        let name = format!("template {}", i + 1);
        check(
            &name,
            parse_program(src).unwrap(),
            trace_facts(&trace),
            (T_MIN, T_MAX),
        );
    }
    for name in ["fibonacci", "funding", "margin", "netting", "sla"] {
        let path = format!("{}/../../corpus/{name}.dmtl", env!("CARGO_MANIFEST_DIR"));
        let (program, facts) = parse_source(&std::fs::read_to_string(path).unwrap()).unwrap();
        check(name, program, facts, (0, 20));
    }
    assert!(sessions >= 6, "{sessions} programs ran in a session");
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
        open: vec![(0, -1, 8), (1, 1, 3), (1, 4, 14), (2, 10, 24)],
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

/// Integer results past `i64` fall back to `f64` in both evaluators: they
/// share `eval_expr`, and must agree on what it returns at the edge.
#[test]
fn integer_overflow_agrees_with_oracle() {
    let src = "div(Z) :- q(X), Y = X - 1, Z = Y / -1.\n\
               neg(Z) :- q(X), Y = X - 1, Z = -Y.\n\
               abs(Z) :- q(X), Y = X - 1, Z = abs(Y).\n\
               rem(Z) :- q(X), Z = X / -1.\n\
               q(-9223372036854775807)@1.\n\
               q(9223372036854775807)@2.";
    let (program, facts) = parse_source(src).unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let naive = naive_materialize(&program, &db, T_MIN, T_MAX).unwrap();
    let engine = Reasoner::new(
        program,
        ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
    )
    .unwrap()
    .materialize(&db)
    .unwrap();
    let engine_out = grid_text(&engine.database, T_MIN, T_MAX);
    assert_eq!(engine_out, naive.to_text());
    assert!(
        engine_out.contains("div(9.223372036854776e18)"),
        "{engine_out}"
    );
    assert!(
        engine_out.contains("rem(-9223372036854775807)"),
        "{engine_out}"
    );
}
