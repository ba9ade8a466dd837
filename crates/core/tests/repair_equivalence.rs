//! Property test for out-of-order ingest: random interleavings of
//! `submit` / `submit_late` / `retract` / `advance_to` against a warm
//! [`Session`] must land byte-identical to a cold materialization over
//! the final *surviving* fact set — the same oracle every access-path
//! optimization shipped with. Run across {1, 4} threads, pinning the
//! DRed-style overdelete/rederive path — the one repair path — to the
//! cold answer.
//!
//! Generation mirrors `session_equivalence.rs`: deterministic in-repo
//! `SmallRng`, one seed per case, every failure reproducible from the
//! printed case number.

use chronolog_core::{Database, Fact, Reasoner, ReasonerConfig, RepairPath, RepairReport, Value};
use chronolog_obs::SmallRng;
use std::collections::HashSet;

const T_MIN: i64 = 0;
const T_MAX: i64 = 16;
const CASES: u64 = 48;

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

/// A random event log of punctual EDB facts with skewed join keys. The
/// value pool avoids `Int`/`Num` spellings of the same number, keeping
/// byte equality the right assertion (see `session_equivalence.rs`).
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

/// Drives one case: events arrive in generation order (not time order),
/// so some land in the future (plain submits), some at or below the
/// watermark (late submits), and a random subset is retracted again.
/// Returns how many corrections entered the repair path.
fn run_interleaved(threads: usize) -> u64 {
    let mut attempted_total = 0u64;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0EA12 ^ (case << 4));
        let src = gen_program(&mut rng);
        let mut events = gen_events(&mut rng);
        // Genesis facts coalesce inside the initial database, so exact
        // duplicates at the start instant would desync the retraction
        // model (two survivors, one stored fact) — drop them up front.
        let mut seen = HashSet::new();
        events.retain(|e| e.2 > T_MIN || seen.insert(format!("{e:?}")));
        let program = chronolog_core::parse_program(&src)
            .unwrap_or_else(|e| panic!("case {case}: generated program must parse: {e}\n{src}"));

        let mut initial = Database::new();
        let mut survivors: Vec<Fact> = Vec::new();
        let mut stream: Vec<(Fact, i64)> = Vec::new();
        for (pred, args, t) in &events {
            let fact = Fact::at(pred, args.clone(), *t);
            if *t <= T_MIN {
                initial.assert_at(pred, args, *t);
                survivors.push(fact);
            } else {
                stream.push((fact, *t));
            }
        }

        let config = ReasonerConfig::default().with_threads(threads);
        let mut session = Reasoner::new(program.clone(), config)
            .unwrap_or_else(|e| panic!("case {case}: program must validate: {e}\n{src}"))
            .into_session(&initial, T_MIN)
            .unwrap_or_else(|e| {
                panic!("case {case}: program must be session-eligible: {e}\n{src}")
            });

        // Interleave: deliver each stream fact in generation order with
        // occasional watermark advances and retractions in between.
        let check_path = |report: RepairReport| {
            assert!(
                matches!(report.path, RepairPath::Pending | RepairPath::Incremental),
                "case {case}: {report:?}"
            );
        };
        let mut now = T_MIN;
        let mut pending_hi = T_MIN;
        for (fact, t) in stream {
            if rng.gen_bool(0.35) && pending_hi.max(now) < T_MAX {
                let target = rng.gen_range_i64(pending_hi.max(now), T_MAX + 1);
                session
                    .advance_to(target)
                    .unwrap_or_else(|e| panic!("case {case}: advance to {target}: {e}"));
                now = target;
                pending_hi = now;
            }
            if t > now {
                pending_hi = pending_hi.max(t);
                if rng.gen_bool(0.2) {
                    // Future facts through submit_late exercise the
                    // delegation path.
                    check_path(
                        session
                            .submit_late(fact.clone())
                            .unwrap_or_else(|e| panic!("case {case}: future via late: {e}")),
                    );
                } else {
                    session
                        .submit(fact.clone())
                        .unwrap_or_else(|e| panic!("case {case}: submit: {e}"));
                }
            } else {
                check_path(
                    session
                        .submit_late(fact.clone())
                        .unwrap_or_else(|e| panic!("case {case}: late submit at {t}: {e}")),
                );
            }
            survivors.push(fact);
            if rng.gen_bool(0.25) && !survivors.is_empty() {
                let victim = survivors.remove(rng.gen_range_usize(0, survivors.len()));
                check_path(
                    session
                        .retract(victim.clone())
                        .unwrap_or_else(|e| panic!("case {case}: retract {victim}: {e}")),
                );
            }
        }
        session
            .advance_to(T_MAX)
            .unwrap_or_else(|e| panic!("case {case}: final advance: {e}"));

        // Cold oracle: a one-shot materialization over exactly the
        // surviving facts must agree byte-for-byte.
        let mut db = Database::new();
        for fact in &survivors {
            db.insert_fact(fact).unwrap();
        }
        let cold = Reasoner::new(
            program,
            ReasonerConfig::default()
                .with_horizon(T_MIN, T_MAX)
                .with_threads(threads),
        )
        .unwrap()
        .materialize(&db)
        .unwrap();
        assert_eq!(
            session.database().to_facts_text(),
            cold.database.to_facts_text(),
            "case {case} (threads={threads}): \
             patched session diverged from cold run over survivors\n{src}"
        );

        // Path accounting: every attempt completed in place.
        let r = &session.stats().repairs;
        assert_eq!(
            r.incremental, r.attempted,
            "case {case}: every attempt repairs incrementally"
        );
        attempted_total += r.attempted;
    }
    attempted_total
}

#[test]
fn interleaved_corrections_equal_cold_1_thread_repair() {
    let attempted = run_interleaved(1);
    assert!(attempted > 0, "the interleavings must exercise repairs");
}

#[test]
fn interleaved_corrections_equal_cold_4_threads_repair() {
    let attempted = run_interleaved(4);
    assert!(attempted > 0, "the interleavings must exercise repairs");
}
