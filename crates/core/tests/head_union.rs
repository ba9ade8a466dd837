//! One row per head tuple: a rule evaluation unions the intervals of every
//! binding that grounds its head to the same tuple before the merge sees
//! it. The union must change the stats that count rows — derivations,
//! emitted components, chain closures — and nothing else: every model here
//! is checked against the brute-force oracle, which knows no head table.

use chronolog_core::naive::{grid_text, naive_materialize};
use chronolog_core::{parse_source, Database, Materialization, Reasoner, ReasonerConfig};
use chronolog_obs::SpanRecorder;

/// Materializes `src` (rules and inline facts) over `[lo, hi]`, checks the
/// model against the oracle on the half-integer grid, and returns the run.
fn run_checked(src: &str, lo: i64, hi: i64, config: ReasonerConfig) -> Materialization {
    let (program, facts) = parse_source(src).unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let oracle = naive_materialize(&program, &db, lo, hi).unwrap().to_text();
    let m = Reasoner::new(program, config.with_horizon(lo, hi))
        .unwrap()
        .materialize(&db)
        .unwrap();
    assert_eq!(
        grid_text(&m.database, lo, hi),
        oracle,
        "engine and oracle disagree:\n{src}"
    );
    m
}

#[test]
fn bindings_of_one_head_tuple_become_one_row() {
    // Two bindings (Y = 1, Y = 2) ground the head to `h(a)`, at disjoint
    // times: one head row holding both components.
    let m = run_checked(
        "h(X) :- p(X, Y).\np(a, 1)@1.\np(a, 2)@5.",
        0,
        10,
        ReasonerConfig::default(),
    );
    let h = &m.stats.rules[0];
    assert_eq!(h.derivations, 1, "one head row");
    assert_eq!(h.components_emitted, 2, "carrying both components");
    assert_eq!(h.components_added, 2);
    assert_eq!(h.tuples_derived, 1);
    assert_eq!(m.stats.planner_actual_rows, 2, "from two bindings");
}

#[test]
fn numerically_equal_heads_stay_two_tuples() {
    // `3` and `3.0` unify in a join, but they are two stored tuples, and
    // the head table keys them apart as the store does.
    let m = run_checked(
        "h(V) :- p(A, V).\np(a, 3)@1.\np(b, 3.0)@1.\np(c, 3)@2.",
        0,
        5,
        ReasonerConfig::default(),
    );
    let text = m.database.to_facts_text();
    assert!(
        text.contains("h(3)@[1].\nh(3)@[2].\nh(3.0)@[1].\n"),
        "{text}"
    );
    assert_eq!(m.stats.rules[0].derivations, 2, "two head rows");
    assert_eq!(m.stats.rules[0].tuples_derived, 2);
}

#[test]
fn a_frame_rule_fed_by_two_bindings_closes_once() {
    // The frame rule's guard binds a local `Y`: the bindings Y = 1 (guard
    // on [0, 10]) and Y = 2 (on [20, 30]) ground one head tuple `p(a)`.
    // Row by row they were closed one after the other; as one head row
    // the whole run is closed by one chain closure.
    let mut src = String::from(
        "p(X) :- start(X).\n\
         p(X) :- diamondminus[1, 1] p(X), g(X, Y).\n\
         start(a)@0.\nstart(a)@20.\n",
    );
    for t in 0..=10 {
        src.push_str(&format!("g(a, 1)@{t}.\n"));
    }
    for t in 20..=30 {
        src.push_str(&format!("g(a, 2)@{t}.\n"));
    }
    let recorder = SpanRecorder::new();
    let m = run_checked(
        &src,
        0,
        40,
        ReasonerConfig {
            profiler: Some(recorder.clone()),
            ..ReasonerConfig::default()
        },
    );
    let chains = recorder
        .lanes()
        .iter()
        .flat_map(|(_, records)| records.iter())
        .filter(|r| r.name == "chain")
        .count();
    assert_eq!(chains, 1, "one closure for the one head row");
    let p = m.database.to_facts_text();
    assert!(p.contains("p(a)@[10].\np(a)@[1].\np(a)@[20].\n"), "{p}");
    assert!(p.contains("p(a)@[30].\n"), "{p}");
    assert!(
        !p.contains("p(a)@[11].") && !p.contains("p(a)@[31]."),
        "{p}"
    );
}

#[test]
fn netting_head_rows_do_not_depend_on_threads() {
    let path = format!("{}/../../corpus/netting.dmtl", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    let run = |threads: usize| {
        let (program, facts) = parse_source(&src).unwrap();
        let mut db = Database::new();
        db.extend_facts(&facts).unwrap();
        let m = Reasoner::new(
            program,
            ReasonerConfig::default()
                .with_horizon(0, 20)
                .with_threads(threads),
        )
        .unwrap()
        .materialize(&db)
        .unwrap();
        let rows: Vec<usize> = m.stats.rules.iter().map(|r| r.derivations).collect();
        (
            m.database.to_facts_text(),
            rows,
            m.stats.planner_actual_rows,
        )
    };
    let (facts, rows, bindings) = run(1);
    // exposure base, exposure step, nettable: one row per head tuple and
    // evaluation, from 250 020 bindings.
    assert_eq!(rows, [180, 5_880, 52_200]);
    assert_eq!(bindings, 250_020);
    for threads in [2, 4] {
        let (f, r, b) = run(threads);
        assert!(f == facts, "facts differ at {threads} threads");
        assert_eq!((r, b), (rows.clone(), bindings), "{threads} threads");
    }
}
