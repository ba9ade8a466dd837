//! Engine vs brute-force oracle on *randomly generated* stratified
//! programs — beyond the fixed templates of `engine_vs_naive.rs`, this
//! explores rule shapes the templates don't: random operator chains —
//! non-punctual `⊟`/`⊞` windows and `since`/`until` among them, which the
//! engine evaluates in full every round when they wrap a recursive atom —
//! random join structure, recursion through shifted heads, negation at
//! random strata, and facts holding over whole intervals.
//!
//! Generation is driven by the deterministic in-repo `SmallRng` (one seed
//! per case), so every failure is reproducible from the printed seed.

use chronolog_core::naive::{grid_text, naive_materialize};
use chronolog_core::{Database, Interval, Reasoner, ReasonerConfig, Value};
use chronolog_obs::SmallRng;

const T_MIN: i64 = 0;
const T_MAX: i64 = 18;

/// Predicates: EDB e1/1, e2/2; IDB p0/1, p1/2, p2/1, p3/2 — negation is
/// only generated against strictly lower-numbered predicates, which makes
/// every generated program stratifiable by construction.
const IDB: [(&str, usize); 4] = [("p0", 1), ("p1", 2), ("p2", 1), ("p3", 2)];
const EDB: [(&str, usize); 2] = [("e1", 1), ("e2", 2)];

#[derive(Debug, Clone)]
struct RuleSpec {
    head: usize,            // IDB index
    body: Vec<(usize, u8)>, // (atom source, operator code)
    negated: Option<usize>, // atom source for a trailing negation
    window: (i64, i64),     // diamond, box and since/until window
    shift: i64,             // punctual box shift
}

/// Atom sources 0..6: e1, e2, p0, p1, p2, p3.
fn source_pred(src: usize) -> (&'static str, usize) {
    match src {
        0 | 1 => EDB[src],
        _ => IDB[src - 2],
    }
}

/// Draws one rule spec; `max_op` bounds the operator codes (9 = full
/// operator set, 3 = past-only, for the forward-propagating fragment).
fn gen_rule(rng: &mut SmallRng, max_op: u8) -> RuleSpec {
    let head = rng.gen_range_usize(0, IDB.len());
    let body_len = rng.gen_range_usize(1, 4);
    // Half the rules start from an EDB atom, so most programs have a base
    // case for their recursion and derive something.
    let body = (0..body_len)
        .map(|i| {
            let sources = if i == 0 && rng.gen_bool(0.5) { 2 } else { 6 };
            (
                rng.gen_range_usize(0, sources),
                rng.gen_range_i64(0, max_op as i64) as u8,
            )
        })
        .collect();
    let negated = if rng.gen_bool(0.5) {
        Some(rng.gen_range_usize(0, 6))
    } else {
        None
    };
    let wlo = rng.gen_range_i64(0, 3);
    let wlen = rng.gen_range_i64(0, 3);
    RuleSpec {
        head,
        body,
        negated,
        window: (wlo, wlo + wlen),
        shift: rng.gen_range_i64(1, 3),
    }
}

/// Renders a rule spec into concrete syntax, enforcing safety (head
/// variables come from the first body atom) and stratifiability (negation
/// only on strictly lower predicates / EDB).
fn render_rule(spec: &RuleSpec) -> Option<String> {
    let (head_name, head_arity) = IDB[spec.head];
    // Head variables X, Y bound by making the first atom use them.
    let head_args = match head_arity {
        1 => "X".to_string(),
        _ => "X, Y".to_string(),
    };
    let mut body = Vec::new();
    for (i, (src, op)) in spec.body.iter().enumerate() {
        // Positive IDB atoms may only reference same-or-lower predicates
        // (level recursion allowed); together with strictly-lower negation
        // this makes every generated program stratifiable by construction.
        let src = if *src >= 2 && (*src - 2) > spec.head {
            spec.head + 2
        } else {
            *src
        };
        let (name, arity) = source_pred(src);
        // First atom binds X (and Y); later atoms rejoin on X.
        let args = match (i, arity, head_arity) {
            (0, 1, 1) => "X".to_string(),
            (0, 1, _) => return None, // cannot bind Y from a unary atom
            (0, _, 1) => "X, _".to_string(),
            (0, _, _) => "X, Y".to_string(),
            (_, 1, _) => "X".to_string(),
            (_, _, _) => "X, _".to_string(),
        };
        let (wlo, whi) = spec.window;
        let atom = format!("{name}({args})");
        let wrapped = match op {
            0 => atom,
            1 => format!("diamondminus[{wlo}, {whi}] {atom}"),
            2 => format!("boxminus[{s}, {s}] {atom}", s = spec.shift),
            3 => format!("diamondplus[{wlo}, {whi}] {atom}"),
            4 => format!("boxplus[{s}, {s}] {atom}", s = spec.shift),
            5 => format!("boxminus[{wlo}, {whi}] {atom}"),
            6 => format!("boxplus[{wlo}, {whi}] {atom}"),
            7 => format!("since[{wlo}, {whi}](e1(X), {atom})"),
            _ => format!("until[{wlo}, {whi}](e1(X), {atom})"),
        };
        body.push(wrapped);
    }
    if let Some(nsrc) = spec.negated {
        let (name, arity) = source_pred(nsrc);
        // Stratifiable by construction: only EDB or strictly lower IDB.
        let lower = nsrc < 2 || (nsrc - 2) < spec.head;
        if lower {
            let args = if arity == 1 { "X" } else { "X, _" };
            body.push(format!("not {name}({args})"));
        }
    }
    Some(format!("{head_name}({head_args}) :- {}.", body.join(", ")))
}

fn gen_program(rng: &mut SmallRng, max_op: u8) -> String {
    let n = rng.gen_range_usize(1, 6);
    (0..n)
        .map(|_| gen_rule(rng, max_op))
        .filter_map(|spec| render_rule(&spec))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One EDB fact: predicate, two argument values, and the closed interval
/// `[from, to]` it holds on — punctual when `from == to`.
type EdbFact = (usize, i64, i64, i64, i64);

/// Draws up to nine facts; half of them hold over up to `max_len` seconds
/// (`0`: all punctual).
fn gen_facts(rng: &mut SmallRng, max_len: i64) -> Vec<EdbFact> {
    let n = rng.gen_range_usize(0, 10);
    (0..n)
        .map(|_| {
            let (e, x, y, t) = (
                rng.gen_range_usize(0, 2),
                rng.gen_range_i64(0, 3),
                rng.gen_range_i64(0, 3),
                rng.gen_range_i64(T_MIN, T_MAX + 1),
            );
            let len = if max_len > 0 && rng.gen_bool(0.5) {
                rng.gen_range_i64(1, max_len + 1)
            } else {
                0
            };
            (e, x, y, t, t + len)
        })
        .collect()
}

fn build_db(facts: &[EdbFact]) -> Database {
    let mut db = Database::new();
    for &(e, x, y, from, to) in facts {
        let (name, arity) = EDB[e];
        let args: Vec<Value> = if arity == 1 {
            vec![Value::Int(x)]
        } else {
            vec![Value::Int(x), Value::Int(y)]
        };
        db.assert_over(name, &args, Interval::closed_int(from, to));
    }
    db
}

#[test]
fn random_programs_agree_with_oracle() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ case);
        let src = gen_program(&mut rng, 9);
        let facts = gen_facts(&mut rng, 4);
        if src.is_empty() {
            continue;
        }
        let program = chronolog_core::parse_program(&src)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{src}"));
        // Generated programs are stratifiable and safe by construction.
        let reasoner = Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
        )
        .unwrap_or_else(|e| panic!("generated program must validate: {e}\n{src}"));
        let db = build_db(&facts);
        let naive = naive_materialize(&program, &db, T_MIN, T_MAX).unwrap();
        let engine = reasoner.materialize(&db).unwrap();
        assert_eq!(
            grid_text(&engine.database, T_MIN, T_MAX),
            naive.to_text(),
            "case {case}: program:\n{src}\nfacts: {facts:?}"
        );
    }
}

/// Streaming facts in time order through a Session equals the batch
/// materialization — the incremental engine misses and invents nothing.
/// Operators restricted to `◇⁻`/`⊟` so programs are session-eligible.
#[test]
fn session_streaming_equals_batch() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xFACADE ^ (case << 8));
        let src = gen_program(&mut rng, 3);
        let facts = gen_facts(&mut rng, 0);
        if src.is_empty() {
            continue;
        }
        let program = chronolog_core::parse_program(&src).unwrap();
        let batch_db = build_db(&facts);
        let batch = Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(T_MIN, T_MAX),
        )
        .unwrap()
        .materialize(&batch_db)
        .unwrap();

        // Stream the same facts in time order: genesis facts (at T_MIN)
        // seed the session; later facts are grouped by timestamp, submitted
        // together, and the watermark advances after each group.
        let mk_fact = |&(e, x, y, t, _): &EdbFact| {
            let (name, arity) = EDB[e];
            let args: Vec<Value> = if arity == 1 {
                vec![Value::Int(x)]
            } else {
                vec![Value::Int(x), Value::Int(y)]
            };
            chronolog_core::Fact::at(name, args, t)
        };
        let mut genesis = Database::new();
        for f in facts.iter().filter(|&&(_, _, _, t, _)| t == T_MIN) {
            genesis.insert_fact(&mk_fact(f)).unwrap();
        }
        let mut later: Vec<&EdbFact> = facts.iter().filter(|&&(_, _, _, t, _)| t > T_MIN).collect();
        later.sort_by_key(|&&(_, _, _, t, _)| t);
        let mut session = Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .into_session(&genesis, T_MIN)
            .unwrap();
        let mut i = 0;
        while i < later.len() {
            let t = later[i].3;
            while i < later.len() && later[i].3 == t {
                session.submit(mk_fact(later[i])).unwrap();
                i += 1;
            }
            session.advance_to(t).unwrap();
        }
        session.advance_to(T_MAX).unwrap();
        assert_eq!(
            grid_text(session.database(), T_MIN, T_MAX),
            grid_text(&batch.database, T_MIN, T_MAX),
            "case {case}: program:\n{src}\nfacts: {facts:?}"
        );
    }
}
