//! Property test for the live-session execution model: streaming a fact
//! log through a warm [`Session`] (one `advance_to` per event timestamp)
//! must land on exactly the database a cold one-shot materialization of
//! the same log produces. The session's boundary-slice seeding, the
//! clone-preserved secondary indexes, and the time index are all pure
//! access-path machinery — none of them may leak into the result.
//!
//! Generation mirrors `parallel_equivalence.rs`: deterministic in-repo
//! `SmallRng`, one seed per case, every failure reproducible from the
//! printed case number. Programs are restricted to the session-eligible
//! forward-propagating fragment (past operators, finite windows, no head
//! operators) — which the generator family already satisfies.

use chronolog_core::{Database, Fact, Reasoner, ReasonerConfig, Value};
use chronolog_obs::SmallRng;

const T_MIN: i64 = 0;
const T_MAX: i64 = 16;

/// Random stratified program over EDB e1/1, e2/2 and IDB p0..p3, using
/// only past operators with finite windows (the session fragment): `◇⁻`,
/// punctual and windowed `⊟`, and `since` with the atom on either side.
fn gen_program(rng: &mut SmallRng) -> String {
    let idb = [("p0", 1usize), ("p1", 2usize), ("p2", 1), ("p3", 2)];
    let n = rng.gen_range_usize(2, 7);
    let mut rules = Vec::new();
    for _ in 0..n {
        let head = rng.gen_range_usize(0, idb.len());
        let (head_name, head_arity) = idb[head];
        let head_args = if head_arity == 1 { "X" } else { "X, Y" };
        let mut body = Vec::new();
        body.push(if head_arity == 1 {
            "e2(X, _)".to_string()
        } else {
            "e2(X, Y)".to_string()
        });
        for _ in 0..rng.gen_range_usize(0, 3) {
            let src = rng.gen_range_usize(0, 2 + head + 1);
            let atom = match src {
                0 => "e1(X)".to_string(),
                1 => "e2(X, _)".to_string(),
                k => {
                    let (name, arity) = idb[k - 2];
                    if arity == 1 {
                        format!("{name}(X)")
                    } else {
                        format!("{name}(X, _)")
                    }
                }
            };
            let wlo = rng.gen_range_i64(0, 3);
            let whi = wlo + rng.gen_range_i64(0, 3);
            body.push(match rng.gen_range_usize(0, 7) {
                0 => format!("diamondminus[{wlo}, {whi}] {atom}"),
                1 => format!("boxminus[1, 1] {atom}"),
                2 => format!("boxminus[{wlo}, {whi}] {atom}"),
                3 => format!("since[{wlo}, {whi}](e1(X), {atom})"),
                4 => format!("since[{wlo}, {whi}]({atom}, e1(X))"),
                _ => atom,
            });
        }
        if head > 0 && rng.gen_bool(0.4) {
            let (name, arity) = idb[rng.gen_range_usize(0, head)];
            body.push(if arity == 1 {
                format!("not {name}(X)")
            } else {
                format!("not {name}(X, _)")
            });
        }
        rules.push(format!("{head_name}({head_args}) :- {}.", body.join(", ")));
    }
    rules.join("\n")
}

/// A random event log: punctual EDB facts with skewed join keys, each
/// tagged with its timestamp so the warm run can replay them in order.
///
/// Unlike `parallel_equivalence.rs`, the pool avoids `Int`/`Num` spellings
/// of the same number (`3` vs `3.0`): which spelling of a semantically
/// duplicated *derived* fact materializes first legitimately depends on
/// delta scheduling, and the warm path runs more delta rounds than the
/// cold one. Spelling-unambiguous keys keep byte equality the right
/// assertion here; the colliding pool is exercised by the access-path
/// tests instead.
fn gen_events(rng: &mut SmallRng) -> Vec<(&'static str, Vec<Value>, i64)> {
    let pool = [
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Int(3),
        Value::num(1.5),
        Value::num(3.5),
        Value::num(2.5),
    ];
    let mut events = Vec::new();
    for _ in 0..rng.gen_range_usize(5, 40) {
        let t = rng.gen_range_i64(T_MIN, T_MAX + 1);
        if rng.gen_bool(0.3) {
            let x = pool[rng.gen_range_usize(0, pool.len())];
            events.push(("e1", vec![x], t));
        } else {
            let x = pool[rng.gen_range_usize(0, pool.len())];
            let y = pool[rng.gen_range_usize(0, pool.len())];
            events.push(("e2", vec![x, y], t));
        }
    }
    events
}

#[test]
fn warm_session_chain_equals_cold_materialization() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x5E5510 ^ (case << 4));
        let src = gen_program(&mut rng);
        let events = gen_events(&mut rng);
        let program = chronolog_core::parse_program(&src)
            .unwrap_or_else(|e| panic!("case {case}: generated program must parse: {e}\n{src}"));

        // Cold: one batch materialization over the whole log.
        let mut db = Database::new();
        for (pred, args, t) in &events {
            db.assert_at(pred, args, *t);
        }
        let cold = Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
        )
        .unwrap_or_else(|e| panic!("case {case}: program must validate: {e}\n{src}"))
        .materialize(&db)
        .unwrap();

        // Warm: facts at the start instant seed the session, the rest are
        // submitted in timestamp order with one advance per distinct time.
        let mut initial = Database::new();
        for (pred, args, t) in events.iter().filter(|(_, _, t)| *t <= T_MIN) {
            initial.assert_at(pred, args, *t);
        }
        let mut session = Reasoner::new(program.clone(), ReasonerConfig::default())
            .unwrap()
            .into_session(&initial, T_MIN)
            .unwrap_or_else(|e| {
                panic!("case {case}: program must be session-eligible: {e}\n{src}")
            });
        let mut times: Vec<i64> = events
            .iter()
            .map(|(_, _, t)| *t)
            .filter(|&t| t > T_MIN)
            .collect();
        times.sort_unstable();
        times.dedup();
        for &t in &times {
            for (pred, args, et) in events.iter().filter(|(_, _, et)| *et == t) {
                session
                    .submit(Fact::at(pred, args.clone(), *et))
                    .unwrap_or_else(|e| panic!("case {case}: submit at {t}: {e}"));
            }
            session.advance_to(t).unwrap();
        }
        session.advance_to(T_MAX).unwrap();

        // Bit-identical final state: the facts text is the canonical
        // serialization, so byte equality pins tuples, intervals, and
        // their rendering order.
        assert_eq!(
            session.database().to_facts_text(),
            cold.database.to_facts_text(),
            "case {case}: warm session diverged from cold run\n{src}"
        );

        // Stats invariants shared by both paths: identical final component
        // count (same database), and the join-path accounting identities.
        let warm_stats = session.stats();
        assert_eq!(
            warm_stats.total_components, cold.stats.total_components,
            "case {case}: component counts diverge"
        );
        for (label, stats) in [("warm", warm_stats), ("cold", &cold.stats)] {
            assert!(
                stats.time_index_probes <= stats.index_probes,
                "case {case} ({label}): time-index probes are a subset of index probes"
            );
            assert!(
                stats.index_probes + stats.full_scans > 0,
                "case {case} ({label}): every eval_rel call lands in a counter"
            );
        }
    }
}

/// The paper's margin-account skeleton: every persisted predicate is a
/// frame rule, `rich` reads a persisted run from outside its stratum.
const MARGIN: &str = "isOpen(A) :- tranM(A, M).\n\
     isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
     changeM(A) :- tranM(A, M).\n\
     changeM(A) :- withdraw(A).\n\
     margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
     margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
     margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.\n\
     rich(A) :- margin(A, M), M > 50.";

/// Components stored per relation, by predicate name.
fn components_per_relation(db: &Database) -> std::collections::BTreeMap<String, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for (pred, _, comps) in db.iter() {
        *counts.entry(pred.to_string()).or_default() += comps.len();
    }
    counts
}

/// A persistence run is one stored component however the advances cut it:
/// 200 advances of 2–9 s each leave every relation with exactly the
/// components one batch run over the same stream stores, because a run
/// continued by the next advance is extended in place.
#[test]
fn a_run_is_stored_the_same_however_the_advances_cut_it() {
    let mut rng = SmallRng::seed_from_u64(0x57A1DE);
    let acc = |i: i64| Value::sym(&format!("acc{i}"));
    let mut events: Vec<(&'static str, Vec<Value>, i64)> = Vec::new();
    let mut t = 0;
    let mut times = Vec::new();
    for _ in 0..200 {
        t += rng.gen_range_i64(2, 10);
        times.push(t);
        let a = acc(rng.gen_range_i64(0, 4));
        match rng.gen_range_usize(0, 10) {
            0..=2 => events.push(("tranM", vec![a, Value::Int(rng.gen_range_i64(1, 60))], t)),
            3 => events.push(("withdraw", vec![a], t)),
            _ => {} // an advance with nothing to ingest
        }
    }
    let program = chronolog_core::parse_program(MARGIN).unwrap();
    let mut db = Database::new();
    for (pred, args, at) in &events {
        db.assert_at(pred, args, *at);
    }
    let cold = Reasoner::new(
        program.clone(),
        ReasonerConfig::default().with_horizon(0, t),
    )
    .unwrap()
    .materialize(&db)
    .unwrap();
    let mut session = Reasoner::new(program, ReasonerConfig::default())
        .unwrap()
        .into_session(&Database::new(), 0)
        .unwrap();
    for &at in &times {
        for (pred, args, _) in events.iter().filter(|e| e.2 == at) {
            session.submit(Fact::at(pred, args.clone(), at)).unwrap();
        }
        session.advance_to(at).unwrap();
    }
    assert_eq!(
        session.database().to_facts_text(),
        cold.database.to_facts_text()
    );
    assert_eq!(
        components_per_relation(session.database()),
        components_per_relation(&cold.database)
    );
    // The runs are what is stored: far fewer components than seconds.
    let seconds = cold.database.to_facts_text().lines().count();
    assert!(
        cold.stats.total_components * 20 < seconds,
        "{} components for {seconds} fact-seconds",
        cold.stats.total_components
    );
}

/// One-second advances only ever deliver single points — which never
/// coalesce with each other — yet a frame rule's run still ends up as one
/// component, because each new second is handed over anchored on the
/// stored second it was derived from. A blocker submitted late in the
/// middle of the run cuts it in two; retracting the blocker again restores
/// the untouched run: same facts, one component.
#[test]
fn a_run_survives_one_second_advances_and_a_cut_and_its_repair() {
    let program = chronolog_core::parse_program(MARGIN).unwrap();
    let a = Value::sym("acc0");
    let mut session = Reasoner::new(program, ReasonerConfig::default())
        .unwrap()
        .into_session(&Database::new(), 0)
        .unwrap();
    for t in 1..=60 {
        if t == 3 {
            session
                .submit(Fact::at("tranM", vec![a, Value::Int(70)], 3))
                .unwrap();
        }
        session.advance_to(t).unwrap();
    }
    let stored = |session: &chronolog_core::Session, pred: &str, args: &[Value]| {
        session
            .database()
            .relation(chronolog_core::Symbol::new(pred))
            .and_then(|r| r.components_of(args))
            .map_or(0, |c| c.len())
    };
    assert_eq!(stored(&session, "isOpen", &[a]), 1);
    assert_eq!(stored(&session, "margin", &[a, Value::Int(70)]), 1);
    let untouched = session.database().to_facts_text();

    let blocker = Fact::at("withdraw", vec![a], 30);
    session.submit_late(blocker.clone()).unwrap();
    assert!(!session.database().holds_at("isOpen", &[a], 31));
    session.retract(blocker).unwrap();
    assert_eq!(session.database().to_facts_text(), untouched);
    assert_eq!(stored(&session, "isOpen", &[a]), 1);
    assert_eq!(stored(&session, "margin", &[a, Value::Int(70)]), 1);
}
