//! Property tests for the join access paths and the threading knob: the
//! secondary indexes are a pure access-path optimization — the engine must
//! derive the model of the index-free brute-force oracle — and the worker
//! pool merges in fixed rule order, so `threads` is observationally
//! invisible.
//!
//! Generation mirrors `random_programs.rs`: deterministic in-repo
//! `SmallRng`, one seed per case, every failure reproducible from the
//! printed seed. Fact generation here skews toward repeated join keys and
//! mixed `Int`/`Num` values so the indexes' semantic-equality buckets
//! (`3` vs `3.0`) actually get exercised.

use chronolog_core::naive::naive_materialize;
use chronolog_core::{Database, IntervalSet, Rational, Reasoner, ReasonerConfig, Value};
use chronolog_obs::SmallRng;
use std::collections::BTreeSet;

const T_MIN: i64 = 0;
const T_MAX: i64 = 16;

/// Random stratified program over EDB e1/1, e2/2 and IDB p0..p3 —
/// same shape family as `random_programs.rs`, recursion and negation
/// included, plus comparison guards to keep some rules selective.
fn gen_program(rng: &mut SmallRng) -> String {
    let idb = [("p0", 1usize), ("p1", 2usize), ("p2", 1), ("p3", 2)];
    let n = rng.gen_range_usize(2, 7);
    let mut rules = Vec::new();
    for _ in 0..n {
        let head = rng.gen_range_usize(0, idb.len());
        let (head_name, head_arity) = idb[head];
        let head_args = if head_arity == 1 { "X" } else { "X, Y" };
        let mut body = Vec::new();
        // First atom binds the head variables.
        body.push(if head_arity == 1 {
            "e2(X, _)".to_string()
        } else {
            "e2(X, Y)".to_string()
        });
        // Join atoms: rejoin on X, sometimes through an operator, sometimes
        // against a same-or-lower IDB predicate (level recursion).
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
            body.push(match rng.gen_range_usize(0, 4) {
                0 => format!("diamondminus[{wlo}, {whi}] {atom}"),
                1 => format!("boxminus[1, 1] {atom}"),
                _ => atom,
            });
        }
        // Strictly-lower negation keeps the program stratifiable.
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

/// Facts with deliberately skewed, semantically colliding keys: values are
/// drawn from a small pool mixing `Int` and `Num` spellings of the same
/// numbers, so index buckets hold many tuples and `3`/`3.0` must land in
/// the same bucket for indexed runs to match scans.
fn gen_db(rng: &mut SmallRng) -> Database {
    let pool = [
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Int(3),
        Value::num(1.0),
        Value::num(3.0),
        Value::num(2.5),
    ];
    let mut db = Database::new();
    for _ in 0..rng.gen_range_usize(5, 40) {
        let t = rng.gen_range_i64(T_MIN, T_MAX + 1);
        if rng.gen_bool(0.3) {
            let x = pool[rng.gen_range_usize(0, pool.len())];
            db.assert_at("e1", &[x], t);
        } else {
            let x = pool[rng.gen_range_usize(0, pool.len())];
            let y = pool[rng.gen_range_usize(0, pool.len())];
            db.assert_at("e2", &[x, y], t);
        }
    }
    db
}

fn materialize(src: &str, db: &Database, config: ReasonerConfig) -> (String, usize, Vec<usize>) {
    let program = chronolog_core::parse_program(src).unwrap();
    let m = Reasoner::new(program, config.with_horizon(T_MIN, T_MAX))
        .unwrap_or_else(|e| panic!("generated program must validate: {e}\n{src}"))
        .materialize(db)
        .unwrap();
    let per_rule = m.stats.rules.iter().map(|r| r.derivations).collect();
    (m.database.to_facts_text(), m.stats.derived_tuples, per_rule)
}

/// `pred(args)@t` lines with every numeric argument in its `f64` spelling:
/// which of `3` / `3.0` a derived tuple prints depends on which literal
/// bound the variable first (the planner's choice), the model does not.
fn semantic_lines<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
    lines
        .map(|line| {
            let (pred, rest) = line.split_once('(').expect("pred(args)@t");
            let (args, time) = rest.rsplit_once(")@").expect("pred(args)@t");
            let args: Vec<String> = args
                .split(", ")
                .map(|a| match a.parse::<f64>() {
                    Ok(f) => format!("{f:?}"),
                    Err(_) => a.to_string(),
                })
                .collect();
            format!("{pred}({})@{time}", args.join(", "))
        })
        .collect()
}

/// Indexed probes must select exactly the tuples a scan would unify: the
/// engine's model on the integer grid equals the oracle's, which walks
/// every stored tuple and knows no index — so a `3.0` key missing the
/// bucket of `3` would lose a derivation here.
#[test]
fn indexed_joins_equal_full_scan() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x17D3 ^ (case << 4));
        let src = gen_program(&mut rng);
        let db = gen_db(&mut rng);
        let program = chronolog_core::parse_program(&src).unwrap();
        let m = Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
        )
        .unwrap_or_else(|e| panic!("generated program must validate: {e}\n{src}"))
        .materialize(&db)
        .unwrap();
        let mut engine = Vec::new();
        for (pred, tuple, ivs) in m.database.iter() {
            let args: Vec<String> = tuple.to_vec().iter().map(Value::to_string).collect();
            for t in T_MIN..=T_MAX {
                if IntervalSet::components_contain(ivs, Rational::integer(t)) {
                    engine.push(format!("{pred}({})@{t}", args.join(", ")));
                }
            }
        }
        let oracle = naive_materialize(&program, &db, T_MIN, T_MAX)
            .unwrap()
            .to_text();
        assert_eq!(
            semantic_lines(engine.iter().map(String::as_str)),
            semantic_lines(oracle.lines()),
            "case {case}: indexed engine vs index-free oracle diverged\n{src}"
        );
    }
}

/// Thread count must be observationally invisible: byte-identical facts
/// text and identical per-rule derivation counts for 1 vs 4 workers.
#[test]
fn threaded_evaluation_equals_sequential() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x7EAD5 ^ (case << 4));
        let src = gen_program(&mut rng);
        let db = gen_db(&mut rng);
        let seq = materialize(&src, &db, ReasonerConfig::default().with_threads(1));
        let par = materialize(&src, &db, ReasonerConfig::default().with_threads(4));
        assert_eq!(
            seq, par,
            "case {case}: threads=1 vs threads=4 diverged\n{src}"
        );
    }
}
