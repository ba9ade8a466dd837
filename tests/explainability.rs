//! The paper's explainability claim, tested: every state amount of the
//! smart contract can be traced back, through named contract rules, to the
//! user actions (input facts) that caused it.

use chronolog_core::{Reasoner, ReasonerConfig, Symbol};
use chronolog_perp::encode::{account_value, encode};
use chronolog_perp::{program, AccountId, Event, MarketParams, Method, Trace};

fn ev(t: i64, acc: u32, m: Method, price: f64) -> Event {
    Event {
        time: t,
        account: AccountId(acc),
        method: m,
        price,
    }
}

fn scenario() -> Trace {
    Trace {
        start_time: 0,
        end_time: 600,
        initial_skew: 100.0,
        initial_price: 1300.0,
        events: vec![
            ev(10, 1, Method::TransferMargin { amount: 4_000.0 }, 1300.0),
            ev(20, 1, Method::ModifyPosition { size: 2.0 }, 1305.0),
            ev(60, 1, Method::ClosePosition, 1310.0),
        ],
    }
}

struct Materialized {
    program: chronolog_core::Program,
    out: chronolog_core::Materialization,
}

fn materialize_with_provenance() -> Materialized {
    let params = MarketParams::default();
    let trace = scenario();
    let program = program::build(&params).unwrap();
    let encoded = encode(&trace);
    let out = Reasoner::new(
        program.clone(),
        ReasonerConfig {
            provenance: true,
            ..ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1)
        },
    )
    .unwrap()
    .materialize(&encoded.database)
    .unwrap();
    Materialized { program, out }
}

/// Finds the (unique) tuple of `pred` for account 1 holding at `t` and
/// explains it.
fn explain_fact(m: &Materialized, pred: &str, t: i64) -> String {
    let rel = m
        .out
        .database
        .relation(Symbol::new(pred))
        .unwrap_or_else(|| panic!("{pred} has facts"));
    let acc = account_value(AccountId(1));
    let (tuple, _) = rel
        .iter()
        .find(|(tuple, ivs)| {
            tuple.value(0).semantic_eq(&acc)
                && chronolog_core::IntervalSet::components_contain(
                    ivs,
                    chronolog_core::Rational::integer(t),
                )
        })
        .unwrap_or_else(|| panic!("{pred} holds for acc at t={t}"));
    m.out
        .provenance
        .as_ref()
        .expect("provenance on")
        .explain(
            &m.program,
            &m.out.database,
            Symbol::new(pred),
            &tuple.to_vec(),
            t,
        )
        .expect("explainable")
        .to_string()
}

#[test]
fn pnl_explanation_reaches_user_actions() {
    let m = materialize_with_provenance();
    // Trade closes at @60.
    let text = explain_fact(&m, "pnl", 60);
    assert!(text.contains("rule 16 (PNL)"), "{text}");
    assert!(text.contains("closePos(acc0001)"), "{text}");
    // The position premise traces back to the opening order and deposit.
    assert!(text.contains("rule 14 (position modify)"), "{text}");
    assert!(text.contains("modPos(acc0001, 2.0)"), "{text}");
    assert!(text.contains("tranM(acc0001, 4000.0)"), "{text}");
    assert!(text.contains("[input]"), "{text}");
}

#[test]
fn funding_explanation_cites_the_funding_pipeline() {
    let m = materialize_with_provenance();
    let text = explain_fact(&m, "funding", 60);
    assert!(text.contains("rule 37 (funding settle)"), "{text}");
    assert!(text.contains("frs("), "{text}");
    assert!(text.contains("indF("), "{text}");
}

#[test]
fn margin_settlement_explanation_combines_all_modules() {
    let m = materialize_with_provenance();
    let text = explain_fact(&m, "margin", 60);
    assert!(text.contains("rule 9 (margin settle)"), "{text}");
    assert!(text.contains("pnl("), "{text}");
    assert!(text.contains("finalFee("), "{text}");
    assert!(text.contains("funding("), "{text}");
}

#[test]
fn propagated_state_explains_through_the_shift_rules() {
    let m = materialize_with_provenance();
    // Margin at @20 (no event for the margin) exists via rule 7.
    let text = explain_fact(&m, "margin", 20);
    assert!(text.contains("rule 7 (margin propagate)"), "{text}");
}

/// The persistence rules are closed over a whole gap in one step, recorded
/// as one derivation covering the run. A fact deep inside a gap is explained
/// from the first second of its run — one jump through the frame rule — and
/// bottoms out in the user action that opened the gap.
#[test]
fn facts_deep_inside_a_jumped_gap_reach_the_user_action() {
    let m = materialize_with_provenance();
    // The gap 20 → 60 between the order and the close: t = 45 is 25 s in.
    let text = explain_fact(&m, "position", 45);
    assert!(
        text.starts_with(
            "position(acc0001, 2.0, 2610.0)@45   [by rule 13 (position propagate), held since @21]\n  \
             position(acc0001, 2.0, 2610.0)@20   [by rule 14 (position modify)]"
        ),
        "{text}"
    );
    assert!(text.contains("modPos(acc0001, 2.0)@20   [input]"), "{text}");
    // One record per closed run, not one per second.
    let log = m.out.provenance.as_ref().unwrap();
    let runs = log
        .steps()
        .iter()
        .filter(|s| s.pred == Symbol::new("position") && s.added.components().len() > 1)
        .count();
    assert!(runs >= 1, "no position run was recorded as one derivation");
}

/// A margin an hour into a quiet gap is traced to the deposit: the tree is
/// as deep as the chain of distinct derivations, however long the runs are.
#[test]
fn a_margin_an_hour_into_a_gap_is_traced_to_the_deposit() {
    let params = MarketParams::default();
    let trace = Trace {
        start_time: 0,
        end_time: 7_200,
        initial_skew: 100.0,
        initial_price: 1300.0,
        events: vec![ev(
            10,
            1,
            Method::TransferMargin { amount: 4_000.0 },
            1300.0,
        )],
    };
    let program = program::build(&params).unwrap();
    let encoded = encode(&trace);
    let out = Reasoner::new(
        program.clone(),
        ReasonerConfig {
            provenance: true,
            ..ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1)
        },
    )
    .unwrap()
    .materialize(&encoded.database)
    .unwrap();
    let text = explain_fact(&Materialized { program, out }, "margin", 3_610);
    assert_eq!(
        text,
        "margin(acc0001, 4000.0)@3610   [by rule 7 (margin propagate), held since @11]\n  \
         margin(acc0001, 4000.0)@10   [by rule 3 (margin init)]\n    \
         tranM(acc0001, 4000.0)@10   [input]"
    );
}

#[test]
fn absent_facts_are_not_explained() {
    let m = materialize_with_provenance();
    let log = m.out.provenance.as_ref().unwrap();
    assert!(log
        .explain(
            &m.program,
            &m.out.database,
            Symbol::new("pnl"),
            &[account_value(AccountId(1)), chronolog_core::Value::num(1.0)],
            60,
        )
        .is_none());
}

#[test]
fn every_recorded_step_names_a_real_rule() {
    let m = materialize_with_provenance();
    let log = m.out.provenance.as_ref().unwrap();
    assert!(!log.steps().is_empty());
    for step in log.steps() {
        assert!(step.rule_index < m.program.rules.len());
        assert!(!step.added.is_empty());
    }
}
