//! Plan-equivalence property suite: cost-based join ordering and adaptive
//! replanning are pure performance transformations. For every program and
//! input, the planned engine must produce output byte-identical to the
//! naive (non-semi-naive) fixpoint, the multi-threaded run, and — on the
//! integer-punctual fragment — the brute-force oracle, which evaluates
//! bodies in textual order on its own schedule.
//!
//! Value pools are integer-only on purpose: reordering changes which
//! literal first binds a variable, and a pool mixing `3` and `3.0` would
//! make the printed spelling depend on join order rather than semantics.

use chronolog_core::naive::naive_materialize;
use chronolog_core::{
    parse_program, parse_source, Database, IntervalSet, Program, Rational, Reasoner,
    ReasonerConfig, Value,
};
use chronolog_obs::SmallRng;

const T_MIN: i64 = 0;
const T_MAX: i64 = 16;

/// Multi-join programs where ordering actually matters: selective atoms
/// placed last in text, join chains, negation, constraints, temporal
/// windows, recursion (so semi-naive delta variants get their own plans),
/// and aggregation. All stay inside the oracle's integer-punctual fragment.
const PROGRAMS: &[&str] = &[
    // 1. Selective atom textually last: the planner should hoist `sel`.
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

fn materialize_text(
    program: &Program,
    db: &Database,
    tweak: impl FnOnce(&mut ReasonerConfig),
) -> String {
    let mut config = ReasonerConfig::default().with_horizon(T_MIN, T_MAX);
    tweak(&mut config);
    Reasoner::new(program.clone(), config)
        .unwrap()
        .materialize(db)
        .unwrap()
        .database
        .to_facts_text()
}

/// Engine output on the integer grid, comparable with the oracle's text.
fn engine_grid_text(program: &Program, db: &Database) -> String {
    let m = Reasoner::new(
        program.clone(),
        ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
    )
    .unwrap()
    .materialize(db)
    .unwrap();
    let mut lines = Vec::new();
    for (pred, tuple, ivs) in m.database.iter() {
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

/// One case: the planned run must agree byte-for-byte with the other
/// drivers, and with the oracle.
fn check_case(program_src: &str, trace: &Trace, label: &str) {
    let program = parse_program(program_src).unwrap();
    let db = build_db(trace);
    let reordered = materialize_text(&program, &db, |_| {});
    let naive_fixpoint = materialize_text(&program, &db, |c| c.semi_naive = false);
    assert_eq!(
        reordered, naive_fixpoint,
        "{label}: naive fixpoint diverges"
    );
    let threaded = materialize_text(&program, &db, |c| c.threads = 4);
    assert_eq!(reordered, threaded, "{label}: threaded run diverges");
    let oracle = naive_materialize(&program, &db, T_MIN, T_MAX).unwrap();
    assert_eq!(
        engine_grid_text(&program, &db),
        oracle.to_text(),
        "{label}: oracle diverges"
    );
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

#[test]
fn reordered_plans_are_equivalent_on_the_corpus() {
    for name in ["fibonacci", "funding", "margin", "netting", "sla"] {
        let path = format!("{}/../../corpus/{name}.dmtl", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        let (program, facts) = parse_source(&src).unwrap();
        let mut db = Database::new();
        db.extend_facts(&facts).unwrap();
        let texts: Vec<String> = [
            |_c: &mut ReasonerConfig| {},
            |c: &mut ReasonerConfig| c.semi_naive = false,
            |c: &mut ReasonerConfig| c.threads = 4,
        ]
        .into_iter()
        .map(|tweak| {
            let mut config = ReasonerConfig::default().with_horizon(0, 40);
            tweak(&mut config);
            Reasoner::new(program.clone(), config)
                .unwrap()
                .materialize(&db)
                .unwrap()
                .database
                .to_facts_text()
        })
        .collect();
        assert!(
            texts.windows(2).all(|w| w[0] == w[1]),
            "{name}: configurations disagree"
        );
    }
}

/// A skewed join inside punctual recursion misestimates every iteration:
/// `fan` holds 64 tuples over 8 distinct keys (est 8 rows per probe), but
/// the recursion only ever probes the heavy key's 57. The head variable
/// advances through `next`, so the rule is not a frame rule and the
/// fixpoint really takes one round per time step. The sustained error
/// must force an adaptive replan whose corrected estimate at least halves
/// the error factor of the uncorrected one — without moving a single fact
/// against the unplanned naive fixpoint, at any thread count.
#[test]
fn adaptive_replanning_corrects_a_sustained_misestimate() {
    let src = "run(X) :- seed(X).\n\
               run(Y) :- boxminus[1, 1] run(X), next(X, Y), fan(Y, Z).";
    let program = parse_program(src).unwrap();
    let mut db = Database::new();
    db.assert_at("seed", &[Value::Int(0)], 0);
    let span = chronolog_core::Interval::closed_int(0, 24);
    db.assert_over("next", &[Value::Int(0), Value::Int(0)], span);
    for i in 0..57 {
        db.assert_over("fan", &[Value::Int(0), Value::Int(100 + i)], span);
    }
    for k in 1..8 {
        db.assert_over("fan", &[Value::Int(k), Value::Int(0)], span);
    }
    let run = |semi_naive: bool, threads: usize| {
        let m = Reasoner::new(
            program.clone(),
            ReasonerConfig {
                semi_naive,
                threads,
                ..ReasonerConfig::default().with_horizon(0, 24)
            },
        )
        .unwrap()
        .materialize(&db)
        .unwrap();
        (m.database.to_facts_text(), m.stats)
    };
    let (facts, stats) = run(true, 1);
    for (semi_naive, threads) in [(true, 4), (false, 1), (false, 4)] {
        let (other, _) = run(semi_naive, threads);
        assert_eq!(
            facts, other,
            "semi_naive={semi_naive} threads={threads} moved a fact"
        );
    }
    assert!(
        stats.replans_triggered > 0,
        "sustained misestimate never forced a replan: {stats:?}"
    );
    // Uncorrected, the cost model expects 64 / 8 = 8 `fan` rows per probe
    // where every probe finds the heavy key's 57.
    let uncorrected_err = (57.0 + 1.0) / (8.0 + 1.0);
    let corrected = &stats.plan_feedback()[0];
    assert!(
        stats
            .plan_explains()
            .iter()
            .any(|p| p.rule == corrected.rule && !p.corrections.is_empty()),
        "the replanned variant carries no correction factors"
    );
    assert!(
        corrected.error_factor * 2.0 <= uncorrected_err,
        "correction did not halve the error: x{:.1} vs x{uncorrected_err:.1}",
        corrected.error_factor
    );
}

#[test]
fn planner_actually_reorders_a_selective_last_program() {
    // One wide-first body where the cost model must hoist the selective
    // atom: proves the equivalence suite exercises real reorders rather
    // than vacuously comparing identical orders.
    let src = "hot(X, Y) :- wide1(X, K), wide2(K, Y), sel(X).";
    let program = parse_program(src).unwrap();
    let mut db = Database::new();
    for i in 0..20 {
        db.assert_at("wide1", &[Value::Int(i % 5), Value::Int(i % 3)], 0);
        db.assert_at("wide2", &[Value::Int(i % 3), Value::Int(i % 7)], 0);
    }
    db.assert_at("sel", &[Value::Int(2)], 0);
    let m = Reasoner::new(
        program.clone(),
        ReasonerConfig::default().with_horizon(0, 4),
    )
    .unwrap()
    .materialize(&db)
    .unwrap();
    assert!(
        m.stats.reorders_applied > 0,
        "planner never reordered: {:?}",
        m.stats
    );
    let plans = m.stats.plan_explains();
    assert!(plans[0].reordered);
    assert!(
        plans[0].steps[0].desc.contains("sel(X)"),
        "the selective atom was not hoisted: {:?}",
        plans[0].steps
    );
    // The textual-order oracle derives the same model.
    let oracle = naive_materialize(&program, &db, T_MIN, T_MAX).unwrap();
    assert_eq!(engine_grid_text(&program, &db), oracle.to_text());
}
