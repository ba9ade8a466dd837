//! Magic-sets rewrite vs full materialization, differentially tested the
//! same way `plan_equivalence` pins reordering: over seeded random
//! programs (the `random_programs.rs` generator shapes — random operator
//! chains, joins, recursion, negation) every query answer must be
//! byte-identical between [`chronolog_core::Reasoner::query`] (the
//! demand-transformed path) and full materialization followed by
//! [`chronolog_core::Database::query`], across thread counts {1, 4}.
//!
//! The netting corpus program additionally pins the *point* of the
//! transformation: a bound-counterparty exposure query must touch < 25%
//! of the tuples full materialization derives.

use chronolog_core::rewrite::Query;
use chronolog_core::{
    parse_query, parse_source, Database, Fact, Interval, Reasoner, ReasonerConfig, Value,
};
use chronolog_obs::SmallRng;

const T_MIN: i64 = 0;
const T_MAX: i64 = 18;

const IDB: [(&str, usize); 4] = [("p0", 1), ("p1", 2), ("p2", 1), ("p3", 2)];
const EDB: [(&str, usize); 2] = [("e1", 1), ("e2", 2)];

fn source_pred(src: usize) -> (&'static str, usize) {
    match src {
        0 | 1 => EDB[src],
        _ => IDB[src - 2],
    }
}

/// One random rule in concrete syntax (same shapes and constraints as
/// `random_programs.rs`: head variables bound by the first atom, positive
/// recursion same-or-lower, negation strictly lower, so every program is
/// safe and stratifiable by construction).
fn gen_rule(rng: &mut SmallRng) -> Option<String> {
    let head = rng.gen_range_usize(0, IDB.len());
    let (head_name, head_arity) = IDB[head];
    let head_args = if head_arity == 1 { "X" } else { "X, Y" };
    let body_len = rng.gen_range_usize(1, 4);
    let wlo = rng.gen_range_i64(0, 3);
    let whi = wlo + rng.gen_range_i64(0, 3);
    let shift = rng.gen_range_i64(1, 3);
    let mut body = Vec::new();
    for i in 0..body_len {
        let mut src = rng.gen_range_usize(0, 6);
        if src >= 2 && (src - 2) > head {
            src = head + 2;
        }
        let (name, arity) = source_pred(src);
        let args = match (i, arity, head_arity) {
            (0, 1, 1) => "X",
            (0, 1, _) => return None,
            (0, _, 1) => "X, _",
            (0, _, _) => "X, Y",
            (_, 1, _) => "X",
            (_, _, _) => "X, _",
        };
        let atom = format!("{name}({args})");
        let wrapped = match rng.gen_range_i64(0, 5) {
            0 => atom,
            1 => format!("diamondminus[{wlo}, {whi}] {atom}"),
            2 => format!("boxminus[{shift}, {shift}] {atom}"),
            3 => format!("diamondplus[{wlo}, {whi}] {atom}"),
            _ => format!("boxplus[{shift}, {shift}] {atom}"),
        };
        body.push(wrapped);
    }
    if rng.gen_bool(0.5) {
        let nsrc = rng.gen_range_usize(0, 6);
        if nsrc < 2 || (nsrc - 2) < head {
            let (name, arity) = source_pred(nsrc);
            let args = if arity == 1 { "X" } else { "X, _" };
            body.push(format!("not {name}({args})"));
        }
    }
    Some(format!("{head_name}({head_args}) :- {}.", body.join(", ")))
}

fn gen_program(rng: &mut SmallRng) -> String {
    let n = rng.gen_range_usize(1, 6);
    (0..n)
        .filter_map(|_| gen_rule(rng))
        .collect::<Vec<_>>()
        .join("\n")
}

fn gen_db(rng: &mut SmallRng) -> Database {
    let mut db = Database::new();
    let n = rng.gen_range_usize(0, 10);
    for _ in 0..n {
        let e = rng.gen_range_usize(0, 2);
        let (name, arity) = EDB[e];
        let x = Value::Int(rng.gen_range_i64(0, 3));
        let args: Vec<Value> = if arity == 1 {
            vec![x]
        } else {
            vec![x, Value::Int(rng.gen_range_i64(0, 3))]
        };
        db.assert_at(name, &args, rng.gen_range_i64(T_MIN, T_MAX + 1));
    }
    db
}

/// A random point query over an IDB predicate: maybe-bound first
/// argument, maybe a window.
fn gen_query(rng: &mut SmallRng) -> Query {
    let (name, arity) = IDB[rng.gen_range_usize(0, IDB.len())];
    let first = if rng.gen_bool(0.6) {
        rng.gen_range_i64(0, 3).to_string()
    } else {
        "A".to_string()
    };
    let args = if arity == 1 {
        first
    } else {
        format!("{first}, B")
    };
    let text = match rng.gen_range_i64(0, 3) {
        0 => format!("{name}({args})"),
        1 => format!("{name}({args})@{}", rng.gen_range_i64(T_MIN, T_MAX + 1)),
        _ => {
            let lo = rng.gen_range_i64(T_MIN, T_MAX);
            let hi = rng.gen_range_i64(lo, T_MAX + 1);
            format!("{name}({args})@[{lo},{hi}]")
        }
    };
    parse_query(&text).expect("generated query parses")
}

fn render(answers: &[(chronolog_core::Tuple, chronolog_core::IntervalSet)]) -> String {
    let mut lines: Vec<String> = answers
        .iter()
        .flat_map(|(tuple, ivs)| {
            let args = tuple
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            ivs.iter().map(move |iv| format!("({args})@{iv}"))
        })
        .collect();
    lines.sort();
    lines.join("\n")
}

fn full_answers(
    program: &chronolog_core::Program,
    db: &Database,
    query: &Query,
    threads: usize,
) -> String {
    let reasoner = Reasoner::new(
        program.clone(),
        ReasonerConfig::default()
            .with_horizon(T_MIN, T_MAX)
            .with_threads(threads),
    )
    .unwrap();
    let full = reasoner.materialize(db).unwrap();
    let mut answers = full.database.query(&query.atom, query.window.as_ref());
    answers.sort_by(|a, b| a.0.cmp(&b.0));
    render(&answers)
}

fn magic_answers(
    program: &chronolog_core::Program,
    db: &Database,
    query: &Query,
    threads: usize,
) -> (String, chronolog_core::MagicStats) {
    let reasoner = Reasoner::new(
        program.clone(),
        ReasonerConfig::default()
            .with_horizon(T_MIN, T_MAX)
            .with_threads(threads),
    )
    .unwrap();
    let outcome = reasoner.query(db, query).unwrap();
    (render(&outcome.answers), outcome.stats.magic)
}

/// ≥ 48 seeded (program, query) cases: magic answers byte-identical to
/// full materialization across threads {1, 4}.
#[test]
fn seeded_queries_match_full_materialization() {
    let mut executed = 0u32;
    let mut guarded = 0u32;
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED_CAFE ^ (case << 4));
        let src = gen_program(&mut rng);
        if src.is_empty() {
            continue;
        }
        let db = gen_db(&mut rng);
        let query = gen_query(&mut rng);
        let program = chronolog_core::parse_program(&src).unwrap();
        let expected = full_answers(&program, &db, &query, 1);
        let expected4 = full_answers(&program, &db, &query, 4);
        assert_eq!(
            expected, expected4,
            "case {case}: full materialization must be thread-invariant\n{src}"
        );
        for threads in [1usize, 4] {
            let (got, magic) = magic_answers(&program, &db, &query, threads);
            assert_eq!(
                got, expected,
                "case {case} (threads {threads}, mode {}): query {query} diverged\n{src}",
                magic.mode
            );
            if threads == 1 && magic.enabled {
                guarded += 1;
            }
        }
        executed += 1;
    }
    assert!(executed >= 48, "only {executed} cases executed");
    // The generator must exercise the guarded path on a healthy share of
    // cases, not just degrade everything to cone evaluation.
    assert!(guarded >= 10, "only {guarded} cases took the magic path");
}

/// The netting corpus: a bound-counterparty exposure query demands < 25%
/// of the tuples full materialization derives, with identical answers.
#[test]
fn netting_point_query_is_demand_bounded() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/netting.dmtl"),
    )
    .unwrap();
    let (program, facts) = parse_source(&text).unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let query = parse_query("exposure(cp0, X)").unwrap();
    let config = ReasonerConfig::default().with_horizon(0, 20);

    let reasoner = Reasoner::new(program.clone(), config.clone()).unwrap();
    let full = reasoner.materialize(&db).unwrap();
    let full_tuples = full.database.tuple_count() as u64;
    let mut expected = full.database.query(&query.atom, None);
    expected.sort_by(|a, b| a.0.cmp(&b.0));

    let outcome = reasoner.query(&db, &query).unwrap();
    assert_eq!(render(&outcome.answers), render(&expected));
    let magic = &outcome.stats.magic;
    assert_eq!(magic.mode, "magic");
    assert!(!magic.degraded);
    assert_eq!(magic.rules_rewritten, 2); // both exposure rules guarded
    assert_eq!(magic.cone_preds, 2); // exposure, trade — nettable dropped
    assert!(
        magic.demanded_tuples * 4 < full_tuples,
        "demanded {} vs full {full_tuples}: not under 25%",
        magic.demanded_tuples
    );
}

/// Sessions answer goal-driven queries from their base facts without
/// touching the session state, byte-identical to querying the
/// materialization.
#[test]
fn session_query_matches_database_query() {
    let (program, facts) = parse_source(
        "exposure(X, Y) :- trade(X, Y).\n\
         exposure(X, Z) :- exposure(X, Y), trade(Y, Z).\n\
         trade(a, b)@[0, 10].\n\
         trade(b, c)@[2, 8].\n",
    )
    .unwrap();
    let mut genesis = Database::new();
    genesis.extend_facts(&facts).unwrap();
    let mut session = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 10))
        .unwrap()
        .into_session(&genesis, 0)
        .unwrap();
    session.advance_to(10).unwrap();

    let query = parse_query("exposure(a, Z)@[0,10]").unwrap();
    let tuples_before = session.database().tuple_count();
    let outcome = session.query(&query).unwrap();
    assert_eq!(session.database().tuple_count(), tuples_before);

    let mut expected = session
        .database()
        .query(&query.atom, Some(&Interval::closed_int(0, 10)));
    expected.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(render(&outcome.answers), render(&expected));
    assert_eq!(outcome.stats.magic.mode, "magic");
}

/// A session built on the default (unbounded) horizon still answers: the
/// query is clipped to the session's own window `[start, now]`, so the
/// backward demand of a persistence rule stops at the session start
/// instead of spreading towards −∞ until the iteration budget trips.
#[test]
fn session_query_terminates_under_the_default_horizon() {
    let (program, facts) = parse_source(
        "state(A, V) :- set(A, V).\n\
         changed(A) :- set(A, V).\n\
         state(A, V) :- diamondminus state(A, V), not changed(A).\n\
         set(a, 1)@2.\n\
         set(b, 7)@3.\n",
    )
    .unwrap();
    let mut genesis = Database::new();
    genesis.extend_facts(&facts).unwrap();
    let mut session = Reasoner::new(program, ReasonerConfig::default())
        .unwrap()
        .into_session(&genesis, 0)
        .unwrap();
    session
        .submit(Fact::at("set", vec![Value::sym("a"), Value::Int(5)], 20))
        .unwrap();
    session.advance_to(30).unwrap();

    let started = std::time::Instant::now();
    for text in ["state(a, V)@17", "state(a, V)@[15, 25]", "state(X, V)@30"] {
        let query = parse_query(text).unwrap();
        let outcome = session.query(&query).unwrap();
        let mut expected = session.database().query(&query.atom, query.window.as_ref());
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(!expected.is_empty(), "{text}: nothing to compare");
        assert_eq!(render(&outcome.answers), render(&expected), "{text}");
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "queries took {:?}: demand is not clipped to the session window",
        started.elapsed()
    );
}
