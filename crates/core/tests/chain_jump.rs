//! The persistence jump against the one oracle.
//!
//! Self-chain (frame) rules — `p(x̄) :- op p(x̄), guards…` — are closed over
//! their guard set inside one fixpoint round instead of advancing one step
//! per round. The least model is unique, so the only thing to check is that
//! the engine still computes it: every template below runs against the
//! brute-force point-wise oracle (`naive.rs`, which shares no code with the
//! jump), on seeded traces plus one handcrafted trace with blockers on the
//! first and last horizon second. Iteration counts pin which path ran: the
//! chain templates must finish in a handful of rounds, the near-misses —
//! rules one condition short of a self-chain — must still take one round
//! per step, and both must agree with the oracle. A subset is replayed
//! through a warm session and through corrections and compared with a cold
//! run, since sessions and repair inherit the jump through `run_stratum`.

use chronolog_core::naive::naive_materialize;
use chronolog_core::{
    parse_program, Database, Fact, Interval, IntervalSet, Rational, Reasoner, ReasonerConfig, Value,
};
use chronolog_obs::SmallRng;

const T_MIN: i64 = 0;
const T_MAX: i64 = 30;

/// A program template: its source, and the bounds its longest stratum must
/// respect on the handcrafted trace (`at_most` rounds for rules the jump
/// closes, `at_least` for near-misses that must keep stepping).
struct Template {
    name: &'static str,
    src: &'static str,
    at_most: Option<usize>,
    at_least: Option<usize>,
    /// In the forward-propagating fragment (no head/future operators):
    /// replayable through a session.
    session: bool,
}

const fn chain(name: &'static str, src: &'static str) -> Template {
    Template {
        name,
        src,
        at_most: Some(8),
        at_least: None,
        session: true,
    }
}

const fn near_miss(name: &'static str, src: &'static str, at_least: usize) -> Template {
    Template {
        name,
        src,
        at_most: None,
        at_least: Some(at_least),
        session: true,
    }
}

const TEMPLATES: &[Template] = &[
    chain(
        "diamond[1,1]",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus[1, 1] p(A), not stop(A).",
    ),
    chain(
        "diamond[2,2]",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus[2, 2] p(A), not stop(A).",
    ),
    chain(
        "diamond[3,3]",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus[3, 3] p(A), not stop(A).",
    ),
    chain(
        "box[1,1]",
        "p(A) :- ev(A).\n\
         p(A) :- boxminus[1, 1] p(A), not stop(A).",
    ),
    chain(
        "box[2,2]",
        "p(A) :- ev(A).\n\
         p(A) :- boxminus[2, 2] p(A), not stop(A).",
    ),
    chain(
        "box[3,3]",
        "p(A) :- ev(A).\n\
         p(A) :- boxminus[3, 3] p(A), not stop(A).",
    ),
    chain(
        "diamond[1,3] non-punctual",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus[1, 3] p(A), not stop(A).",
    ),
    chain(
        "diamond[2,3] non-punctual",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus[2, 3] p(A), not stop(A).",
    ),
    chain(
        "nested chain",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus[1, 1] boxminus[1, 1] p(A), not stop(A).",
    ),
    chain(
        "wildcard guard",
        "hold(A, V) :- set(A, V).\n\
         hold(A, V) :- diamondminus hold(A, V), not order(A, _).",
    ),
    chain(
        "chain-derived positive guard",
        "live() :- start().\n\
         live() :- boxminus live().\n\
         skew(K) :- init(K).\n\
         skew(K) :- diamondminus skew(K), not event(_), live().\n\
         skew(K) :- diamondminus skew(X), event(S), K = X + S.",
    ),
    chain(
        "existential positive guard",
        "run(A) :- ev(A).\n\
         run(A) :- boxminus run(A), fan(A, Y).",
    ),
    chain(
        "guard under an operator",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus p(A), not diamondminus[0, 2] stop(A).",
    ),
    chain(
        "chains feeding each other across strata",
        "up(A) :- ev(A).\n\
         up(A) :- boxminus up(A), not stop(A).\n\
         down(A) :- stop(A).\n\
         down(A) :- boxminus down(A), not up(A).\n\
         carry(A, V) :- set(A, V).\n\
         carry(A, V) :- diamondminus carry(A, V), up(A), not down(A).",
    ),
    chain(
        "constant and repeated head arguments",
        "tag(a0, A, A) :- ev(A).\n\
         tag(a0, A, A) :- diamondminus tag(a0, A, A), not stop(A).",
    ),
    // ---- the per-rule delta: a frame rule never re-reads its own closed
    // run, so everything *other* rules add to its head must still reach it
    chain(
        "two frame rules over one head",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus[1, 1] p(A), not stop(A).\n\
         p(A) :- boxminus[2, 2] p(A), pulse(A).",
    ),
    chain(
        "frame rule fed by a same-stratum non-frame rule",
        "p(A) :- ev(A).\n\
         p(A) :- diamondminus p(A), not stop(A).\n\
         q(A) :- p(A), pulse(A).\n\
         p(A) :- boxminus[2, 2] q(A).",
    ),
    chain(
        "diamond[1,3] with overlapping shifted pieces",
        "p(A) :- ev(A).\n\
         p(A) :- set(A, V).\n\
         p(A) :- diamondminus[1, 3] p(A), not stop(A), not order(A, _).",
    ),
    // ---- near-misses: one condition short, ordinary path ----
    near_miss(
        "head arguments permuted",
        "q(A, B) :- pair(A, B).\n\
         q(B, A) :- diamondminus q(A, B), not stop(A).",
        20,
    ),
    near_miss(
        "second same-stratum literal",
        "r(A) :- ev(A).\n\
         r(A) :- boxminus r(A).\n\
         p(A) :- ev(A).\n\
         p(A) :- diamondminus p(A), r(A).",
        20,
    ),
    near_miss(
        "a constraint",
        "v(A, M) :- set(A, M).\n\
         v(A, M) :- diamondminus v(A, M), not order(A, _), M > 0.",
        20,
    ),
    Template {
        name: "a head operator",
        src: "h(A) :- ev(A).\n\
              boxplus[1, 1] h(A) :- diamondminus h(A), not stop(A).",
        at_most: None,
        at_least: Some(10),
        session: false,
    },
    near_miss(
        "time capture in a guard",
        "w(A) :- ev(A).\n\
         w(A) :- diamondminus w(A), pulse(A)@T.",
        20,
    ),
    near_miss(
        "diamond[0,1] is not strictly past",
        "z(A) :- ev(A).\n\
         z(A) :- diamondminus[0, 1] z(A), pulse(A).",
        20,
    ),
];

type Event = (&'static str, Vec<Value>, i64);

fn acc(i: i64) -> Value {
    Value::sym(&format!("a{i}"))
}

/// Seeded facts over every predicate the templates read, all punctual on
/// the integer grid (the oracle's fragment).
fn gen_events(rng: &mut SmallRng) -> Vec<Event> {
    let mut events: Vec<Event> = Vec::new();
    let t = |rng: &mut SmallRng| rng.gen_range_i64(T_MIN, T_MAX + 1);
    for _ in 0..rng.gen_range_usize(1, 4) {
        events.push(("ev", vec![acc(rng.gen_range_i64(0, 3))], t(rng)));
    }
    for _ in 0..rng.gen_range_usize(0, 3) {
        events.push(("stop", vec![acc(rng.gen_range_i64(0, 3))], t(rng)));
    }
    for _ in 0..rng.gen_range_usize(1, 4) {
        let v = Value::Int(rng.gen_range_i64(-2, 6));
        events.push(("set", vec![acc(rng.gen_range_i64(0, 3)), v], t(rng)));
    }
    for _ in 0..rng.gen_range_usize(0, 3) {
        let s = Value::Int(rng.gen_range_i64(-3, 4));
        events.push(("order", vec![acc(rng.gen_range_i64(0, 3)), s], t(rng)));
    }
    events.push(("start", vec![], rng.gen_range_i64(T_MIN, 4)));
    events.push((
        "init",
        vec![Value::Int(rng.gen_range_i64(-2, 3))],
        rng.gen_range_i64(T_MIN, 4),
    ));
    for _ in 0..rng.gen_range_usize(0, 4) {
        events.push(("event", vec![Value::Int(rng.gen_range_i64(-3, 4))], t(rng)));
    }
    for _ in 0..rng.gen_range_usize(1, 3) {
        events.push((
            "pair",
            vec![acc(rng.gen_range_i64(0, 3)), acc(rng.gen_range_i64(0, 3))],
            t(rng),
        ));
    }
    // `fan` and `pulse` hold over stretches of consecutive seconds so the
    // positive-guard chains have something to run along.
    for _ in 0..rng.gen_range_usize(1, 3) {
        let a = rng.gen_range_i64(0, 3);
        let from = t(rng);
        let to = (from + rng.gen_range_i64(1, 15)).min(T_MAX);
        for s in from..=to {
            events.push(("fan", vec![acc(a), Value::Int(rng.gen_range_i64(0, 2))], s));
            if rng.gen_bool(0.9) {
                events.push(("pulse", vec![acc(a)], s));
            }
        }
    }
    events
}

/// One long gap per account with blockers on the first and the last
/// horizon second: every chain has ≥ 20 steps to jump, and the boundary
/// seconds are exercised.
fn handcrafted_events() -> Vec<Event> {
    let mut events: Vec<Event> = vec![
        ("ev", vec![acc(0)], 0),
        ("ev", vec![acc(1)], 2),
        ("stop", vec![acc(1)], T_MIN),
        ("stop", vec![acc(0)], T_MAX),
        ("stop", vec![acc(1)], 27),
        ("set", vec![acc(0), Value::Int(4)], 1),
        ("set", vec![acc(1), Value::Int(0)], 3),
        ("order", vec![acc(0), Value::Int(1)], T_MAX),
        ("order", vec![acc(1), Value::Int(2)], T_MIN),
        ("start", vec![], 0),
        ("init", vec![Value::Int(1)], 0),
        ("event", vec![Value::Int(2)], 26),
        ("event", vec![Value::Int(-1)], T_MAX),
        ("pair", vec![acc(0), acc(2)], 1),
    ];
    for s in T_MIN..=T_MAX {
        events.push(("fan", vec![acc(0), Value::Int(s % 2)], s));
        events.push(("pulse", vec![acc(0)], s));
    }
    events
}

fn database_of(events: &[Event]) -> Database {
    let mut db = Database::new();
    for (pred, args, t) in events {
        db.assert_at(pred, args, *t);
    }
    db
}

/// The engine's model as sorted `pred(args)@t` lines over the integer
/// grid — the oracle's output format.
fn grid_text(db: &Database) -> String {
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

fn cold(src: &str, db: &Database, threads: usize) -> chronolog_core::Materialization {
    Reasoner::new(
        parse_program(src).unwrap(),
        ReasonerConfig::default()
            .with_horizon(T_MIN, T_MAX)
            .with_threads(threads),
    )
    .unwrap()
    .materialize(db)
    .unwrap()
}

/// Engine (1 and 4 threads) against the oracle; returns the longest
/// stratum's round count.
fn check_against_oracle(template: &Template, events: &[Event], what: &str) -> usize {
    let db = database_of(events);
    let program = parse_program(template.src).unwrap();
    let oracle = naive_materialize(&program, &db, T_MIN, T_MAX)
        .unwrap_or_else(|e| panic!("{}: outside the oracle's fragment: {e}", template.name));
    let engine = cold(template.src, &db, 1);
    assert_eq!(
        grid_text(&engine.database),
        oracle.to_text(),
        "{} ({what}): engine and oracle disagree\n{}\nevents: {events:?}",
        template.name,
        template.src
    );
    assert_eq!(
        engine.database.to_facts_text(),
        cold(template.src, &db, 4).database.to_facts_text(),
        "{} ({what}): thread count moved a fact",
        template.name
    );
    engine.stats.iterations.iter().copied().max().unwrap_or(0)
}

#[test]
fn every_template_matches_the_oracle_on_seeded_traces() {
    // 24 templates × 4 seeds = 96 cases.
    let mut cases = 0;
    for (i, template) in TEMPLATES.iter().enumerate() {
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0xC4A1 ^ (seed << 8) ^ i as u64);
            let events = gen_events(&mut rng);
            check_against_oracle(template, &events, &format!("seed {seed}"));
            cases += 1;
        }
    }
    assert!(cases >= 60, "the suite must keep at least 60 cases");
}

#[test]
fn handcrafted_gaps_pin_which_path_ran() {
    let events = handcrafted_events();
    for template in TEMPLATES {
        let rounds = check_against_oracle(template, &events, "handcrafted");
        if let Some(limit) = template.at_most {
            assert!(
                rounds <= limit,
                "{}: {rounds} rounds — the chain was stepped, not jumped",
                template.name
            );
        }
        if let Some(floor) = template.at_least {
            assert!(
                rounds >= floor,
                "{}: {rounds} rounds — a near-miss must take the ordinary path",
                template.name
            );
        }
    }
}

/// Streams `events` through a session (one advance per distinct time) and
/// returns it advanced to `T_MAX`.
fn warm_session(src: &str, events: &[Event]) -> chronolog_core::Session {
    let initial = database_of(
        &events
            .iter()
            .filter(|(_, _, t)| *t <= T_MIN)
            .cloned()
            .collect::<Vec<_>>(),
    );
    let mut session = Reasoner::new(parse_program(src).unwrap(), ReasonerConfig::default())
        .unwrap()
        .into_session(&initial, T_MIN)
        .unwrap();
    let mut times: Vec<i64> = events
        .iter()
        .map(|(_, _, t)| *t)
        .filter(|&t| t > T_MIN)
        .collect();
    times.sort_unstable();
    times.dedup();
    for &t in &times {
        for (pred, args, _) in events.iter().filter(|(_, _, et)| *et == t) {
            session.submit(Fact::at(pred, args.clone(), t)).unwrap();
        }
        session.advance_to(t).unwrap();
    }
    session.advance_to(T_MAX).unwrap();
    session
}

#[test]
fn warm_sessions_equal_cold_runs() {
    for (i, template) in TEMPLATES.iter().enumerate().filter(|(_, t)| t.session) {
        let mut rng = SmallRng::seed_from_u64(0x5E55_C4A1 ^ i as u64);
        for events in [handcrafted_events(), gen_events(&mut rng)] {
            let session = warm_session(template.src, &events);
            assert_eq!(
                session.database().to_facts_text(),
                cold(template.src, &database_of(&events), 1)
                    .database
                    .to_facts_text(),
                "{}: warm session diverged from the cold run\nevents: {events:?}",
                template.name
            );
        }
    }
}

#[test]
fn corrections_equal_cold_runs_over_the_survivors() {
    for (i, template) in TEMPLATES.iter().enumerate().filter(|(_, t)| t.session) {
        let mut rng = SmallRng::seed_from_u64(0x4E9A ^ i as u64);
        let mut events = if i % 2 == 0 {
            handcrafted_events()
        } else {
            gen_events(&mut rng)
        };
        let mut session = warm_session(template.src, &events);
        // Retract a blocker or a seed from the middle of history, then
        // late-submit a new blocker: both cut through closed chains.
        let victim = events.remove(rng.gen_range_usize(0, events.len().min(8)));
        session
            .retract(Fact::at(victim.0, victim.1.clone(), victim.2))
            .unwrap();
        let late: Event = ("stop", vec![acc(0)], rng.gen_range_i64(5, 20));
        session
            .submit_late(Fact::at(late.0, late.1.clone(), late.2))
            .unwrap();
        events.push(late);
        assert_eq!(
            session.database().to_facts_text(),
            cold(template.src, &database_of(&events), 1)
                .database
                .to_facts_text(),
            "{}: repaired session diverged from the cold run over survivors\n\
             retracted {victim:?}",
            template.name
        );
    }
}

/// With a profiler attached every closure opens one `chain` span under a
/// span of its rule, carrying `steps`, `components` and `guard_cached`; the
/// closures' components are what the rule reports as emitted, and a second
/// closure over the same guard key is answered from the cache.
#[test]
fn closures_are_visible_in_spans_and_rule_stats() {
    let template = TEMPLATES
        .iter()
        .find(|t| t.name == "chain-derived positive guard")
        .unwrap();
    let recorder = chronolog_obs::SpanRecorder::new();
    let out = Reasoner::new(
        parse_program(template.src).unwrap(),
        ReasonerConfig {
            profiler: Some(recorder.clone()),
            ..ReasonerConfig::default().with_horizon(T_MIN, T_MAX)
        },
    )
    .unwrap()
    .materialize(&database_of(&handcrafted_events()))
    .unwrap();
    let counter = |r: &chronolog_obs::SpanRecord, key: &str| {
        r.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("chain span without `{key}`: {r:?}"))
    };
    let mut per_rule: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    let mut cached = 0;
    for (_, records) in recorder.lanes() {
        for chain in records.iter().filter(|r| r.name == "chain") {
            let parent = records
                .iter()
                .find(|r| {
                    r.name.starts_with("rule ")
                        && r.depth + 1 == chain.depth
                        && r.start_us <= chain.start_us
                        && r.start_us + r.dur_us >= chain.start_us + chain.dur_us
                })
                .unwrap_or_else(|| panic!("chain span outside a rule span: {chain:?}"));
            // Every step used to store a component of its own; a jumped
            // run stores one per guard piece it crosses.
            assert!(counter(chain, "components") <= counter(chain, "steps").max(1));
            let totals = per_rule.entry(parent.name.clone()).or_default();
            totals.0 += counter(chain, "components");
            totals.1 += counter(chain, "steps");
            cached += counter(chain, "guard_cached");
        }
    }
    // `live` (rule 1) and the skew frame rule (rule 3) are the two chains.
    assert_eq!(
        per_rule.keys().collect::<Vec<_>>(),
        ["rule r1", "rule r3"],
        "{per_rule:?}"
    );
    for (name, (components, steps)) in &per_rule {
        let idx: usize = name["rule r".len()..].parse().unwrap();
        let stats = &out.stats.rules[idx];
        assert_eq!(stats.components_emitted as u64, *components, "{name}");
        assert_eq!(stats.components_added as u64, *components, "{name}");
        assert!(stats.derivations as u64 >= *steps, "{name}");
    }
    assert!(
        cached >= 1,
        "skew's guards mention no head variable: its second closure must hit the cache"
    );
}

/// A punctual chain is closed arithmetically: no component per step, and
/// no time per step either. The `chain` span of a 5 000 s gap reports one
/// step per second but at most one component per guard piece the run
/// crossed (plus the seed's), and a gap of 10⁸ seconds — minutes of work if
/// anything were done per second — closes like a short one.
#[test]
fn a_punctual_chain_is_closed_without_a_component_or_a_moment_per_step() {
    let src = "p(A) :- ev(A).\n\
               p(A) :- diamondminus[1, 1] p(A), not stop(A), not pause(A).";
    let close = |horizon: i64, stops: &[i64]| {
        let mut db = Database::new();
        db.assert_at("ev", &[acc(0)], 0);
        for &t in stops {
            db.assert_at("pause", &[acc(1)], t);
            db.assert_at("stop", &[acc(0)], t);
        }
        let recorder = chronolog_obs::SpanRecorder::new();
        let started = std::time::Instant::now();
        let out = Reasoner::new(
            parse_program(src).unwrap(),
            ReasonerConfig {
                profiler: Some(recorder.clone()),
                max_iterations: usize::MAX,
                ..ReasonerConfig::default().with_horizon(0, horizon)
            },
        )
        .unwrap()
        .materialize(&db)
        .unwrap();
        let wall = started.elapsed();
        let chains: Vec<(u64, u64)> = recorder
            .lanes()
            .iter()
            .flat_map(|(_, records)| records.iter())
            .filter(|r| r.name == "chain")
            .map(|r| {
                let get = |key: &str| r.counters.iter().find(|(k, _)| *k == key).unwrap().1;
                (get("steps"), get("components"))
            })
            .collect();
        (out, chains, wall)
    };
    // No blocker: one guard piece, one run (the rule body derives second 1,
    // the closure the rest), one stored component.
    let (out, chains, _) = close(5_000, &[]);
    assert_eq!(chains, [(4_999, 1)]);
    let p = chronolog_core::Symbol::new("p");
    assert_eq!(out.database.intervals(p, &[acc(0)]).components().len(), 1);
    assert_eq!(out.database.to_facts_text().lines().count(), 5_002);
    // A blocker ends the run; what lies past it is never touched.
    let (out, chains, _) = close(5_000, &[3_000, 4_000]);
    assert_eq!(chains, [(2_998, 1)]);
    assert!(out.database.holds_at("p", &[acc(0)], 2_999));
    assert!(!out.database.holds_at("p", &[acc(0)], 3_000));
    // Gap length costs nothing.
    let (out, chains, wall) = close(100_000_000, &[]);
    assert_eq!(chains, [(99_999_999, 1)]);
    assert!(out.database.holds_at("p", &[acc(0)], 99_999_999));
    assert!(
        wall < std::time::Duration::from_secs(2),
        "a 10⁸ s gap took {wall:?}: the closure is walking the run"
    );
}

/// Outside the oracle's integer-punctual fragment, checked by hand:
/// `p@[0, 1/2]` under `◇⁻[1,1]` with a blocker on `[5/2, 3]`. The guard set
/// is `[0, 5/2) ∪ (3, 6]`, so the shifted copies are `[1, 3/2]`, then
/// `[2, 5/2)` (the blocker takes the closed right end), then `(3, 7/2)`
/// (it takes the left end too), and from there open copies up to the
/// horizon: `(4, 9/2)`, `(5, 11/2)`; `(6, 13/2)` lies past it.
#[test]
fn rational_intervals_jump_exactly() {
    let half = |n: i64| Rational::new(n, 2);
    let mut db = Database::new();
    db.assert_over("ev", &[acc(0)], Interval::closed(half(0), half(1)));
    db.assert_over("stop", &[acc(0)], Interval::closed(half(5), half(6)));
    let out = Reasoner::new(
        parse_program(
            "p(A) :- ev(A).\n\
             p(A) :- diamondminus[1, 1] p(A), not stop(A).",
        )
        .unwrap(),
        ReasonerConfig::default().with_horizon(0, 6),
    )
    .unwrap()
    .materialize(&db)
    .unwrap();
    let p = out
        .database
        .intervals(chronolog_core::Symbol::new("p"), &[acc(0)]);
    assert_eq!(
        p.components(),
        &[
            Interval::closed(half(0), half(1)),
            Interval::closed(half(2), half(3)),
            Interval::half_open_right(half(4), half(5)),
            Interval::open(half(6), half(7)),
            Interval::open(half(8), half(9)),
            Interval::open(half(10), half(11)),
        ]
    );
    assert!(
        out.stats.iterations.iter().all(|&n| n <= 4),
        "the rational chain was stepped: {:?}",
        out.stats.iterations
    );
}
