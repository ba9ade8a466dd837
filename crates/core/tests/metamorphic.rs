//! Metamorphic relations: properties that relate two runs of the engine
//! and that no single run, and no comparison with the oracle on one input,
//! can check.
//!
//! * Time translation: shifting every fact and the horizon by
//!   1 660 000 000 s (a unix timestamp of the paper's era) shifts the model
//!   by the same amount, for programs that never read a time as a value
//!   (`@T` capture).
//! * Body-literal permutation: the order of a rule's body literals is
//!   syntax, not semantics.
//! * Fact order: the order in which the input facts are loaded does not
//!   matter.
//! * A retraction undone by a late submission of the same fact leaves a
//!   session's database byte-identical.
//!
//! Each relation runs on the five corpus programs and on a program whose
//! recursive rules are evaluated in full every round.

use chronolog_core::{
    parse_source, Database, Fact, Interval, Program, Rational, Reasoner, ReasonerConfig, TimeBound,
};

/// The translation of the first relation.
const SHIFT: i64 = 1_660_000_000;

/// Recursion through a box of positive length, `since` and `until`: no
/// delta can stand for those literals, so the engine re-evaluates their
/// rules in full every round.
const FULL_MODE: &str = "held(A) :- diamondminus[0, 2] tranM(A, M).\n\
                         held(A) :- boxminus[1, 2] held(A), open(A).\n\
                         fresh(A) :- tranM(A, M).\n\
                         fresh(A) :- since[0, 3](open(A), fresh(A)).\n\
                         boxplus[0, 2] due(A) :- withdraw(A).\n\
                         due(A) :- until[1, 2](open(A), due(A)).\n\
                         stale(A) :- open(A), not fresh(A).\n\
                         tranM(a, 1)@2.\n\
                         tranM(b, 5)@9.\n\
                         open(a)@[1, 12].\n\
                         open(b)@[8, 30].\n\
                         withdraw(a)@11.\n\
                         withdraw(b)@26.";

/// Name, source and horizon of every program the relations run on.
fn programs() -> Vec<(String, String, (i64, i64))> {
    let mut out: Vec<(String, String, (i64, i64))> =
        ["fibonacci", "funding", "margin", "netting", "sla"]
            .into_iter()
            .map(|name| {
                let path = format!("{}/../../corpus/{name}.dmtl", env!("CARGO_MANIFEST_DIR"));
                let src =
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
                // Netting's facts hold on [0, 20]; the rest end before 20.
                let hi = if name == "netting" { 20 } else { 40 };
                (name.to_string(), src, (0, hi))
            })
            .collect();
    out.push(("full-mode".to_string(), FULL_MODE.to_string(), (0, 40)));
    out
}

fn materialize(program: &Program, facts: &[Fact], (lo, hi): (i64, i64)) -> Database {
    let mut db = Database::new();
    db.extend_facts(facts).unwrap();
    Reasoner::new(
        program.clone(),
        ReasonerConfig::default().with_horizon(lo, hi),
    )
    .unwrap()
    .materialize(&db)
    .unwrap()
    .database
}

/// `iv` moved by `by` seconds.
fn shifted(iv: Interval, by: i64) -> Interval {
    let by = TimeBound::Finite(Rational::integer(by));
    Interval::new(
        iv.lo().checked_add(by).unwrap(),
        iv.lo_closed(),
        iv.hi().checked_add(by).unwrap(),
        iv.hi_closed(),
    )
    .unwrap()
}

/// The model moved by `by` seconds, in the format of
/// [`Database::to_facts_text`].
fn shifted_facts_text(db: &Database, by: i64) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (pred, tuple, comps) in db.iter() {
        let args: Vec<String> = tuple.to_vec().iter().map(|v| v.to_string()).collect();
        for atom in comps.iter().flat_map(Interval::atoms) {
            lines.push(format!(
                "{pred}({})@{}.",
                args.join(", "),
                shifted(atom, by)
            ));
        }
    }
    lines.sort();
    lines.join("\n")
}

#[test]
fn time_translation_shifts_the_model() {
    for (name, src, (lo, hi)) in programs() {
        let (program, facts) = parse_source(&src).unwrap();
        let model = materialize(&program, &facts, (lo, hi));
        assert_eq!(shifted_facts_text(&model, 0), model.to_facts_text());
        let moved: Vec<Fact> = facts
            .iter()
            .map(|f| Fact {
                interval: shifted(f.interval, SHIFT),
                ..f.clone()
            })
            .collect();
        let moved_model = materialize(&program, &moved, (lo + SHIFT, hi + SHIFT));
        assert_eq!(
            shifted_facts_text(&moved_model, -SHIFT),
            model.to_facts_text(),
            "{name}: translating the input by {SHIFT} s does not translate the model"
        );
    }
}

#[test]
fn body_literal_order_does_not_matter() {
    for (name, src, horizon) in programs() {
        let (program, facts) = parse_source(&src).unwrap();
        let model = materialize(&program, &facts, horizon).to_facts_text();
        let permutations: [fn(&mut Vec<_>); 2] =
            [|body| body.reverse(), |body| body.rotate_left(1)];
        for (k, permute) in permutations.iter().enumerate() {
            let mut permuted = program.clone();
            for rule in &mut permuted.rules {
                permute(&mut rule.body);
            }
            assert_eq!(
                materialize(&permuted, &facts, horizon).to_facts_text(),
                model,
                "{name}: body permutation {k} changed the model"
            );
        }
    }
}

#[test]
fn fact_order_does_not_matter() {
    for (name, src, horizon) in programs() {
        let (program, facts) = parse_source(&src).unwrap();
        let model = materialize(&program, &facts, horizon).to_facts_text();
        let mut reversed = facts.clone();
        reversed.reverse();
        let mut interleaved: Vec<Fact> = facts.iter().step_by(2).cloned().collect();
        interleaved.extend(facts.iter().skip(1).step_by(2).rev().cloned());
        for (order, facts) in [("reversed", reversed), ("interleaved", interleaved)] {
            assert_eq!(
                materialize(&program, &facts, horizon).to_facts_text(),
                model,
                "{name}: loading the facts {order} changed the model"
            );
        }
    }
}

/// Sessions take only forward-propagating programs: `sla` has a head
/// operator and the full-mode program reads the future, so they are left
/// out. Netting retracts every 60th of its 180 trades.
#[test]
fn retract_then_resubmit_leaves_the_session_unchanged() {
    for (name, stride) in [
        ("fibonacci", 1),
        ("funding", 1),
        ("margin", 1),
        ("netting", 60),
    ] {
        let (_, src, (lo, hi)) = programs().into_iter().find(|p| p.0 == name).unwrap();
        let (program, facts) = parse_source(&src).unwrap();
        let mut initial = Database::new();
        let mut later: Vec<Fact> = Vec::new();
        for fact in facts {
            match fact.interval.lo() {
                TimeBound::Finite(t) if t > Rational::integer(lo) => later.push(fact),
                _ => {
                    initial.insert_fact(&fact).unwrap();
                }
            }
        }
        let mut session = Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .into_session(&initial, lo)
            .unwrap();
        for fact in later {
            session.submit(fact).unwrap();
        }
        session.advance_to(hi).unwrap();
        let before = session.database().to_facts_text();
        let base: Vec<Fact> = session.base_facts().to_vec();
        for fact in base.into_iter().step_by(stride) {
            session.retract(fact.clone()).unwrap();
            session.submit_late(fact.clone()).unwrap();
            assert_eq!(
                session.database().to_facts_text(),
                before,
                "{name}: retracting and resubmitting {fact} changed the database"
            );
        }
    }
}
