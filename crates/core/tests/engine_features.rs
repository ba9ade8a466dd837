//! Feature-level engine tests beyond the oracle fragment: continuous
//! (non-punctual) operator windows in rules, since/until, operator nesting,
//! idempotence, and horizon behaviour.

use chronolog_core::{
    parse_facts, parse_program, Database, Error, Interval, Rational, Reasoner, ReasonerConfig,
    Value,
};

fn run(rules: &str, facts: &str, horizon: (i64, i64)) -> Database {
    let program = parse_program(rules).unwrap();
    let mut db = Database::new();
    db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
    Reasoner::new(
        program,
        ReasonerConfig::default().with_horizon(horizon.0, horizon.1),
    )
    .unwrap()
    .materialize(&db)
    .unwrap()
    .database
}

fn holds(db: &Database, pred: &str, args: &[Value], num: i64, den: i64) -> bool {
    db.intervals(chronolog_core::Symbol::new(pred), args)
        .contains(Rational::new(num, den))
}

#[test]
fn continuous_box_window_requires_continuity() {
    // "stable if up continuously for the last 5 units" over interval facts.
    let db = run(
        "stable(S) :- boxminus[0, 5] up(S).",
        "up(api)@[0, 20].\nup(db)@[0, 8].\nup(db)@[11, 20].",
        (0, 30),
    );
    assert!(db.holds_at("stable", &[Value::sym("api")], 5));
    assert!(!db.holds_at("stable", &[Value::sym("api")], 4));
    // db's outage (8, 11) resets the continuity clock.
    assert!(db.holds_at("stable", &[Value::sym("db")], 8));
    assert!(!db.holds_at("stable", &[Value::sym("db")], 12));
    assert!(db.holds_at("stable", &[Value::sym("db")], 16));
    // Continuous semantics: stable also holds at non-integer points.
    assert!(holds(&db, "stable", &[Value::sym("api")], 11, 2)); // t = 5.5
}

#[test]
fn diamond_window_over_interval_facts() {
    let db = run(
        "recent(S) :- diamondminus[0, 3] blip(S).",
        "blip(x)@[10, 11].",
        (0, 30),
    );
    // holds on [10, 14]: some blip within the last 3 units.
    assert!(db.holds_at("recent", &[Value::sym("x")], 10));
    assert!(db.holds_at("recent", &[Value::sym("x")], 14));
    assert!(!db.holds_at("recent", &[Value::sym("x")], 15));
    assert!(holds(&db, "recent", &[Value::sym("x")], 27, 2)); // 13.5
    assert!(!holds(&db, "recent", &[Value::sym("x")], 29, 2)); // 14.5
}

#[test]
fn since_in_rules() {
    // "error-free since the last restart, looking back at most 10".
    let db = run(
        "fresh(S) :- since[0, 10](ok(S), restart(S)).",
        "ok(db)@[11, 30].\nrestart(db)@11.",
        (0, 40),
    );
    for t in 11..=21 {
        assert!(db.holds_at("fresh", &[Value::sym("db")], t), "t={t}");
    }
    // Beyond the window the restart witness is too old.
    assert!(!db.holds_at("fresh", &[Value::sym("db")], 22));
}

#[test]
fn until_in_rules() {
    let db = run(
        "doomed(S) :- until[0, 5](up(S), crash(S)).",
        "up(x)@[0, 10].\ncrash(x)@10.",
        (0, 20),
    );
    // Doomed when a crash comes within 5 units and the service is up
    // throughout the wait.
    assert!(db.holds_at("doomed", &[Value::sym("x")], 5));
    assert!(db.holds_at("doomed", &[Value::sym("x")], 10));
    assert!(!db.holds_at("doomed", &[Value::sym("x")], 4));
}

#[test]
fn nested_operator_chains() {
    // ◇⁻[0,2] ⊟[0,3] p: "at some point in the last 2 units, p had held
    // continuously for 3 units".
    let db = run(
        "h(X) :- diamondminus[0, 2] boxminus[0, 3] p(X).",
        "p(a)@[0, 5].",
        (0, 20),
    );
    // ⊟[0,3]p holds on [3,5]; ◇⁻[0,2] extends to [3,7].
    assert!(db.holds_at("h", &[Value::sym("a")], 3));
    assert!(db.holds_at("h", &[Value::sym("a")], 7));
    assert!(!db.holds_at("h", &[Value::sym("a")], 2));
    assert!(!db.holds_at("h", &[Value::sym("a")], 8));
}

#[test]
fn materialization_is_idempotent() {
    let rules = "isOpen(A) :- tranM(A, M).\n\
                 isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                 pair(A, B) :- isOpen(A), isOpen(B).";
    let program = parse_program(rules).unwrap();
    let mut db = Database::new();
    db.extend_facts(&parse_facts("tranM(x, 1)@0.\ntranM(y, 2)@3.").unwrap())
        .unwrap();
    let reasoner = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 10)).unwrap();
    let once = reasoner.materialize(&db).unwrap().database;
    let twice = reasoner.materialize(&once).unwrap();
    assert_eq!(once.to_facts_text(), twice.database.to_facts_text());
    assert_eq!(twice.stats.derived_tuples, 0);
}

#[test]
fn horizon_clips_propagation_but_reads_outside_edb() {
    // EDB fact before the horizon still triggers diamond inferences inside.
    let db = run("h(X) :- diamondminus[0, 100] p(X).", "p(a)@-50.", (0, 10));
    assert!(db.holds_at("h", &[Value::sym("a")], 0));
    assert!(db.holds_at("h", &[Value::sym("a")], 10));
    // Nothing is materialized beyond the horizon even though the diamond
    // window would allow it.
    assert!(!db.holds_at("h", &[Value::sym("a")], 11));
}

#[test]
fn rational_interval_facts_flow_through() {
    let program = parse_program("h(X) :- boxminus[0.5, 1.5] p(X).").unwrap();
    let mut db = Database::new();
    db.extend_facts(&parse_facts("p(a)@[0, 3].").unwrap())
        .unwrap();
    let out = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 10))
        .unwrap()
        .materialize(&db)
        .unwrap()
        .database;
    // Window [t-1.5, t-0.5] ⊆ [0,3] → t ∈ [1.5, 3.5].
    let ivs = out.intervals(chronolog_core::Symbol::new("h"), &[Value::sym("a")]);
    assert!(ivs.contains(Rational::new(3, 2)));
    assert!(ivs.contains(Rational::new(7, 2)));
    assert!(!ivs.contains(Rational::new(29, 20)));
    assert!(!ivs.contains(Rational::new(71, 20)));
}

#[test]
fn unbounded_horizon_with_nonrecursive_program_terminates() {
    let program = parse_program("h(X) :- p(X), q(X).").unwrap();
    let mut db = Database::new();
    db.extend_facts(&parse_facts("p(a)@[0, inf).\nq(a)@[5, 10].").unwrap())
        .unwrap();
    let out = Reasoner::new(program, ReasonerConfig::default())
        .unwrap()
        .materialize(&db)
        .unwrap()
        .database;
    assert!(out.holds_at("h", &[Value::sym("a")], 7));
    assert!(!out.holds_at("h", &[Value::sym("a")], 11));
}

#[test]
fn aggregate_with_head_operator() {
    // Sum spread one step into the future via a head box-plus.
    let db = run(
        "boxplus[1, 1] lag(sum(S)) :- obs(A, S).",
        "obs(a, 2)@5.\nobs(b, 3)@5.",
        (0, 10),
    );
    assert!(db.holds_at("lag", &[Value::Int(5)], 6));
    assert!(!db.holds_at("lag", &[Value::Int(5)], 5));
}

#[test]
fn budget_errors_are_descriptive() {
    let program = parse_program("p(X) :- q(X).\np(X) :- boxminus p(X).").unwrap();
    let mut db = Database::new();
    db.extend_facts(&parse_facts("q(a)@0.").unwrap()).unwrap();
    let err = Reasoner::new(
        program,
        ReasonerConfig {
            max_iterations: 10,
            ..ReasonerConfig::default()
        },
    )
    .unwrap()
    .materialize(&db)
    .err()
    .expect("budget must be exceeded");
    match err {
        Error::BudgetExceeded(msg) => assert!(msg.contains("10 iterations"), "{msg}"),
        other => panic!("expected budget error, got {other}"),
    }
}

#[test]
fn facts_over_open_intervals_negate_precisely() {
    let db = run(
        "calm(X) :- span(X), not noisy(X).",
        "span(x)@[0, 10].\nnoisy(x)@(2, 4).",
        (0, 10),
    );
    let ivs = db.intervals(chronolog_core::Symbol::new("calm"), &[Value::sym("x")]);
    assert!(ivs.contains(Rational::integer(2))); // boundary kept (open noisy)
    assert!(!ivs.contains(Rational::new(3, 1)));
    assert!(ivs.contains(Rational::integer(4)));
    assert_eq!(
        ivs.components(),
        &[Interval::closed_int(0, 2), Interval::closed_int(4, 10),]
    );
}

#[test]
fn aggregate_heads_keep_one_insertion_order() {
    // Twelve groups: a per-run hash seed would shuffle them.
    let facts: String = (0..12).map(|i| format!("v(k{i}, {i})@1.\n")).collect();
    let order = || -> Vec<String> {
        let db = run("tot(A, sum(X)) :- v(A, X).", &facts, (0, 5));
        let tot = db.relation(chronolog_core::Symbol::new("tot")).unwrap();
        tot.iter().map(|(t, _)| t.value(0).to_string()).collect()
    };
    let first = order();
    assert_eq!(first.len(), 12);
    for _ in 0..4 {
        assert_eq!(order(), first, "aggregate heads merged in another order");
    }
}

/// An aggregate whose contributions have no finite endpoint — a fact on the
/// whole line, no horizon — holds on the whole line too (it used to derive
/// nothing: the timeline was cut only at finite endpoints).
#[test]
fn an_aggregate_over_the_whole_line_holds_on_it() {
    let program = parse_program("c(count(X)) :- p(X).").unwrap();
    let mut db = Database::new();
    db.extend_facts(&parse_facts("p(a)@(-inf, inf).\np(b)@(-inf, inf).").unwrap())
        .unwrap();
    let out = Reasoner::new(program, ReasonerConfig::default())
        .unwrap()
        .materialize(&db)
        .unwrap()
        .database;
    let c = out.intervals(chronolog_core::Symbol::new("c"), &[Value::Int(2)]);
    assert_eq!(c.components(), &[Interval::ALL], "{}", out.to_facts_text());
}
