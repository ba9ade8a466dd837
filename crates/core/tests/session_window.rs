//! The session's re-derivation window.
//!
//! An advance re-derives over `[now, t]` and a repair over `[cut, now]` —
//! not over the whole session `[start, …]` — because everything below the
//! window is final in the forward-propagating fragment and the read masks
//! fetch the `reach`-wide slice the window reads from before it. Two
//! things to pin: a long session with an aggregate, a rule evaluated once
//! per stratum run and a correction deep in history still lands byte for
//! byte on the batch run; and the work of one advance stops growing with
//! the length of the history behind it.

use chronolog_core::{
    parse_program, Database, Fact, Reasoner, ReasonerConfig, RepairPath, RunStats, Session, Value,
};

/// The ETH-PERP skew pattern in miniature: `vol` is an aggregate over the
/// orders of an instant, `tot` accumulates it through a frame rule and an
/// update rule, `seen` depends on no predicate of its own stratum (it runs
/// once per stratum run), and `last` reads the aggregate head from inside
/// the aggregate's own stratum.
const PROGRAM: &str = "vol(sum(S)) :- order(I, A, S).\n\
     seen(A) :- order(I, A, S).\n\
     last(V) :- vol(V).\n\
     tot(K) :- init(K).\n\
     tot(K) :- diamondminus tot(K), not vol(_).\n\
     tot(K) :- diamondminus tot(X), vol(S), K = X + S.";

/// One order per second from `t = 1` on: a fresh id every time, three
/// accounts in rotation, sizes from a small pool — the shape of the stream
/// never changes, only its length.
fn order(t: i64) -> Fact {
    Fact::at(
        "order",
        vec![
            Value::Int(t),
            Value::sym(&format!("a{}", t % 3)),
            Value::Int(t % 5 - 2),
        ],
        t,
    )
}

fn genesis() -> Database {
    let mut db = Database::new();
    db.assert_at("init", &[Value::Int(0)], 0);
    db
}

fn session() -> Session {
    Reasoner::new(parse_program(PROGRAM).unwrap(), ReasonerConfig::default())
        .unwrap()
        .into_session(&genesis(), 0)
        .unwrap()
}

fn batch(facts: &[Fact], hi: i64) -> String {
    let mut db = genesis();
    db.extend_facts(facts).unwrap();
    Reasoner::new(
        parse_program(PROGRAM).unwrap(),
        ReasonerConfig::default().with_horizon(0, hi),
    )
    .unwrap()
    .materialize(&db)
    .unwrap()
    .database
    .to_facts_text()
}

#[test]
fn long_session_with_an_old_correction_equals_the_batch_run() {
    const ADVANCES: i64 = 220;
    let mut s = session();
    let mut facts = Vec::new();
    for t in 1..=ADVANCES {
        s.submit(order(t)).unwrap();
        facts.push(order(t));
        s.advance_to(t).unwrap();
        // `last` sits in `vol`'s stratum: what the aggregate adds in an
        // advance must reach it in that same advance.
        let v = [Value::Int(t % 5 - 2)];
        assert!(s.database().holds_at("vol", &v, t), "vol at {t}");
        assert!(s.database().holds_at("last", &v, t), "last at {t}");
    }
    assert_eq!(s.database().to_facts_text(), batch(&facts, ADVANCES));

    // A correction 180 seconds back: every `tot` since then changes.
    let old = order(40);
    let mut new = old.clone();
    new.args[2] = Value::Int(7);
    let report = s.correct(old, new.clone()).unwrap();
    assert_eq!(report.path, RepairPath::Incremental);
    facts[39] = new;
    assert_eq!(s.database().to_facts_text(), batch(&facts, ADVANCES));

    // And the session keeps advancing from the repaired state.
    for t in ADVANCES + 1..=ADVANCES + 5 {
        s.submit(order(t)).unwrap();
        facts.push(order(t));
        s.advance_to(t).unwrap();
    }
    assert_eq!(s.database().to_facts_text(), batch(&facts, ADVANCES + 5));

    // One stats row per stratum, however many times each was re-run.
    let stats = s.stats();
    assert_eq!(stats.strata.len(), stats.iterations.len());
    for row in &stats.strata {
        assert_eq!(stats.iterations[row.stratum], row.iterations);
    }
    assert_eq!(
        stats
            .strata
            .iter()
            .map(|r| r.rule_evaluations)
            .sum::<usize>(),
        stats.rule_evaluations
    );
}

/// `top` is relative to the whole horizon, not to the window an advance or
/// a repair re-derives: a past operator over it must keep reading below the
/// watermark (resp. the cut), or `q` is lost at 11 in the first program and
/// spuriously derived at 5 and 11 in the second.
#[test]
fn top_under_a_past_operator_holds_from_the_session_start() {
    for rules in [
        "q(X) :- ev(X), diamondminus[2,2] top.",
        "q(X) :- ev(X), not boxminus[0,2] top.",
    ] {
        let run = |times: &[i64]| {
            let mut db = Database::new();
            for &t in times {
                db.assert_at("ev", &[Value::sym("a")], t);
            }
            Reasoner::new(
                parse_program(rules).unwrap(),
                ReasonerConfig::default().with_horizon(0, 11),
            )
            .unwrap()
            .materialize(&db)
            .unwrap()
            .database
            .to_facts_text()
        };
        let mut s = Reasoner::new(parse_program(rules).unwrap(), ReasonerConfig::default())
            .unwrap()
            .into_session(&Database::new(), 0)
            .unwrap();
        for t in [1, 5, 10, 11] {
            s.submit(Fact::at("ev", vec![Value::sym("a")], t)).unwrap();
            s.advance_to(t).unwrap();
        }
        assert_eq!(
            s.database().to_facts_text(),
            run(&[1, 5, 10, 11]),
            "{rules}"
        );

        // The repair window `[5, 11]` starts above the session start too.
        let report = s.retract(Fact::at("ev", vec![Value::sym("a")], 5)).unwrap();
        assert_eq!(report.path, RepairPath::Incremental, "{rules}");
        assert_eq!(s.database().to_facts_text(), run(&[1, 10, 11]), "{rules}");
    }
}

/// A rule with no positive literal reads no delta, so only a full
/// evaluation derives it: every warm advance and every repair runs round 0
/// in full over the window it re-derives — or `quiet` is never derived
/// after the session's first instant, and never comes back when an `alarm`
/// is retracted.
#[test]
fn a_rule_without_a_positive_literal_is_rederived_in_every_window() {
    let rules = "quiet(a) :- not alarm(a).\n\
                 calm(X) :- quiet(X), not diamondminus[1, 1] alarm(X).";
    let alarm = |t: i64| Fact::at("alarm", vec![Value::sym("a")], t);
    let run = |times: &[i64]| {
        let mut db = Database::new();
        db.extend_facts(&times.iter().map(|&t| alarm(t)).collect::<Vec<_>>())
            .unwrap();
        Reasoner::new(
            parse_program(rules).unwrap(),
            ReasonerConfig::default().with_horizon(0, 12),
        )
        .unwrap()
        .materialize(&db)
        .unwrap()
        .database
        .to_facts_text()
    };
    let mut s = Reasoner::new(parse_program(rules).unwrap(), ReasonerConfig::default())
        .unwrap()
        .into_session(&Database::new(), 0)
        .unwrap();
    for t in [3, 4, 9] {
        s.submit(alarm(t)).unwrap();
        s.advance_to(t).unwrap();
    }
    s.advance_to(12).unwrap();
    assert_eq!(s.database().to_facts_text(), run(&[3, 4, 9]));
    assert!(s.database().holds_at("quiet", &[Value::sym("a")], 7));

    // Retracting an alarm gives `quiet` back over the repair window; a late
    // one takes it away again.
    let report = s.retract(alarm(4)).unwrap();
    assert_eq!(report.path, RepairPath::Incremental);
    assert_eq!(s.database().to_facts_text(), run(&[3, 9]));
    let report = s.submit_late(alarm(6)).unwrap();
    assert_eq!(report.path, RepairPath::Incremental);
    assert_eq!(s.database().to_facts_text(), run(&[3, 6, 9]));
}

/// Tuples one advance visited, scanning or probing.
fn visited(stats: &RunStats) -> u64 {
    stats.probed_tuples + stats.scanned_tuples
}

#[test]
fn a_stationary_stream_costs_the_same_per_advance_and_builds_no_plans() {
    let mut s = session();
    let mut per_advance = Vec::new();
    let mut plans_built = Vec::new();
    for t in 1..=240 {
        let before = visited(s.stats());
        s.submit(order(t)).unwrap();
        s.advance_to(t).unwrap();
        per_advance.push(visited(s.stats()) - before);
        plans_built.push(s.stats().plans_built);
    }
    let (early, late) = (per_advance[19], per_advance[199]);
    assert!(early > 0, "advance 20 visited nothing");
    assert!(
        late <= 2 * early,
        "advance 200 visited {late} tuples, advance 20 only {early}: \
         an advance is rescanning the session's history"
    );
    // Relation sizes stay inside one power-of-two bucket from advance 141
    // to 240, so every plan those advances need is already cached.
    assert_eq!(
        plans_built[239], plans_built[139],
        "plans were rebuilt in a warm, stationary session"
    );
}

/// The margin-account rules of the paper (`corpus/margin.dmtl`): `isOpen`
/// and `margin` each have a frame rule (rules 1 and 5), and rule 6 reads
/// the frame predicate `margin` from inside its own stratum.
const MARGIN: &str = "isOpen(A) :- tranM(A, M).\n\
     isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
     changeM(A) :- tranM(A, M).\n\
     changeM(A) :- withdraw(A).\n\
     margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
     margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
     margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.";

/// An advance over a stretch no fact reaches only continues the open runs.
/// The frame rules extend them before any other rule reads them, so no
/// stratum follows them as a delta: each stratum runs exactly one round,
/// and a rule that reads a frame predicate runs its full plan once and no
/// delta variant.
#[test]
fn a_stationary_stratum_runs_one_round() {
    let a = Value::sym("acc0");
    let mut s = Reasoner::new(parse_program(MARGIN).unwrap(), ReasonerConfig::default())
        .unwrap()
        .into_session(&Database::new(), 0)
        .unwrap();
    s.submit(Fact::at("tranM", vec![a, Value::Int(70)], 3))
        .unwrap();
    s.advance_to(3).unwrap();
    s.advance_to(5).unwrap();
    let before = s.stats().clone();
    s.advance_to(12).unwrap();
    let after = s.stats();
    assert!(after.iterations.len() > 1, "the program has several strata");
    for (stratum, (b, a)) in before.iterations.iter().zip(&after.iterations).enumerate() {
        assert_eq!(a - b, 1, "stratum {stratum} ran {} rounds", a - b);
    }
    let reader = (&before.rules[6], &after.rules[6]);
    assert_eq!(reader.1.body_evaluations - reader.0.body_evaluations, 1);
    assert_eq!(reader.1.delta_tuples, reader.0.delta_tuples);
    // The runs did continue.
    assert!(s.database().holds_at("isOpen", &[a], 12));
    assert!(s.database().holds_at("margin", &[a, Value::Int(70)], 12));
}
