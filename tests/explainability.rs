//! The paper's explainability claim, tested: every state amount of the
//! smart contract can be traced back, through named contract rules, to the
//! user actions (input facts) that caused it — in a batch run and in a live
//! session alike, since a tree is rebuilt from the model, not recorded.

use chronolog_core::{
    parse_facts, parse_source, Database, Explanation, Fact, Program, Reasoner, ReasonerConfig,
    Session, Symbol, Value,
};
use chronolog_perp::encode::{account_value, encode, event_facts, genesis};
use chronolog_perp::{program, AccountId, Event, MarketParams, Method, Trace};
use std::collections::{BTreeMap, HashSet, VecDeque};

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

/// One deposit, then an hour and more of quiet.
fn hour_gap() -> Trace {
    Trace {
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
    }
}

/// A batch run of the ETH-PERP program over a trace: the reasoner, the
/// input facts and the model, which is all an explanation needs.
struct Materialized {
    reasoner: Reasoner,
    input: Database,
    model: Database,
}

fn materialize(trace: &Trace) -> Materialized {
    let encoded = encode(trace);
    let reasoner = Reasoner::new(
        program::build(&MarketParams::default()).unwrap(),
        ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1),
    )
    .unwrap();
    let model = reasoner.materialize(&encoded.database).unwrap().database;
    Materialized {
        reasoner,
        input: encoded.database,
        model,
    }
}

/// The same trace streamed through a live session, one advance per event.
fn replay(trace: &Trace) -> Session {
    let config = ReasonerConfig::default().with_horizon(trace.start_time, trace.end_time);
    let mut session = Reasoner::new(program::build(&MarketParams::default()).unwrap(), config)
        .unwrap()
        .into_session(&genesis(trace), trace.start_time)
        .unwrap();
    for event in &trace.events {
        for fact in event_facts(event) {
            session.submit(fact).unwrap();
        }
        session.advance_to(event.time).unwrap();
    }
    session.advance_to(trace.end_time).unwrap();
    session
}

/// The (unique) tuple of `pred` for account 1 holding at `t` in `model`.
fn tuple_of(model: &Database, pred: &str, t: i64) -> Vec<Value> {
    let rel = model
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
    tuple.to_vec()
}

/// Explains the account-1 tuple of `pred` holding at `t`.
fn explain_fact(m: &Materialized, pred: &str, t: i64) -> String {
    let tuple = tuple_of(&m.model, pred, t);
    m.reasoner
        .explain(&m.input, &m.model, pred, &tuple, t)
        .unwrap()
        .expect("explainable")
        .to_string()
}

/// Every fact the tests below explain in `scenario()`.
const EXPLAINED: [(&str, i64); 5] = [
    ("pnl", 60),
    ("funding", 60),
    ("margin", 60),
    ("margin", 20),
    ("position", 45),
];

#[test]
fn pnl_explanation_reaches_user_actions() {
    let m = materialize(&scenario());
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
    let m = materialize(&scenario());
    let text = explain_fact(&m, "funding", 60);
    assert!(text.contains("rule 37 (funding settle)"), "{text}");
    assert!(text.contains("frs("), "{text}");
    assert!(text.contains("indF("), "{text}");
}

#[test]
fn margin_settlement_explanation_combines_all_modules() {
    let m = materialize(&scenario());
    let text = explain_fact(&m, "margin", 60);
    assert!(text.contains("rule 9 (margin settle)"), "{text}");
    assert!(text.contains("pnl("), "{text}");
    assert!(text.contains("finalFee("), "{text}");
    assert!(text.contains("funding("), "{text}");
}

#[test]
fn propagated_state_explains_through_the_shift_rules() {
    let m = materialize(&scenario());
    // Margin at @20 (no event for the margin) exists via rule 7.
    let text = explain_fact(&m, "margin", 20);
    assert!(text.contains("rule 7 (margin propagate)"), "{text}");
}

/// The persistence rules are closed over a whole gap in one step. A fact
/// deep inside a gap is explained from the first second of its run — one
/// jump through the frame rule — and bottoms out in the user action that
/// opened the gap.
#[test]
fn facts_deep_inside_a_jumped_gap_reach_the_user_action() {
    let m = materialize(&scenario());
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
}

/// A margin an hour into a quiet gap is traced to the deposit: the tree is
/// as deep as the chain of distinct derivations, however long the runs are.
#[test]
fn a_margin_an_hour_into_a_gap_is_traced_to_the_deposit() {
    let text = explain_fact(&materialize(&hour_gap()), "margin", 3_610);
    assert_eq!(
        text,
        "margin(acc0001, 4000.0)@3610   [by rule 7 (margin propagate), held since @11]\n  \
         margin(acc0001, 4000.0)@10   [by rule 3 (margin init)]\n    \
         tranM(acc0001, 4000.0)@10   [input]"
    );
}

#[test]
fn absent_facts_are_not_explained() {
    let m = materialize(&scenario());
    let tree = m
        .reasoner
        .explain(
            &m.input,
            &m.model,
            "pnl",
            &[account_value(AccountId(1)), Value::num(1.0)],
            60,
        )
        .unwrap();
    assert!(tree.is_none());
}

/// A session derives the same model from the same facts, so it explains
/// every fact byte for byte as the batch run does.
#[test]
fn a_session_replay_explains_every_fact_as_the_batch_run_does() {
    for trace in [scenario(), hour_gap()] {
        let m = materialize(&trace);
        let session = replay(&trace);
        assert_eq!(session.database().to_facts_text(), m.model.to_facts_text());
        let explained: Vec<(&str, i64)> = if trace.events.len() == 1 {
            vec![("margin", 3_610)]
        } else {
            EXPLAINED.to_vec()
        };
        for (pred, t) in explained {
            let tuple = tuple_of(&m.model, pred, t);
            let session_text = session
                .explain(pred, &tuple, t)
                .unwrap()
                .expect("explainable in the session")
                .to_string();
            assert_eq!(session_text, explain_fact(&m, pred, t), "{pred}@{t}");
        }
        // Nothing is explained above the watermark.
        let tuple = tuple_of(&m.model, "margin", trace.end_time);
        assert!(session
            .explain("margin", &tuple, trace.end_time + 1)
            .unwrap()
            .is_none());
    }
}

/// The tree is read off the live model, so a correction shows in the next
/// explanation: the deposit the margin cites is the corrected one.
#[test]
fn the_explanation_changes_after_a_correction() {
    let trace = hour_gap();
    let mut session = replay(&trace);
    let acc = account_value(AccountId(1));
    let margin = |m: f64| [acc, Value::num(m)];
    let before = session
        .explain("margin", &margin(4_000.0), 3_610)
        .unwrap()
        .expect("the deposit's margin holds")
        .to_string();
    assert!(
        before.contains("tranM(acc0001, 4000.0)@10   [input]"),
        "{before}"
    );
    let tran = |m: f64| Fact::at("tranM", vec![acc, Value::num(m)], 10);
    session.correct(tran(4_000.0), tran(5_000.0)).unwrap();
    assert!(session
        .explain("margin", &margin(4_000.0), 3_610)
        .unwrap()
        .is_none());
    let after = session
        .explain("margin", &margin(5_000.0), 3_610)
        .unwrap()
        .expect("the corrected margin holds")
        .to_string();
    assert_eq!(
        after,
        "margin(acc0001, 5000.0)@3610   [by rule 7 (margin propagate), held since @11]\n  \
         margin(acc0001, 5000.0)@10   [by rule 3 (margin init)]\n    \
         tranM(acc0001, 5000.0)@10   [input]"
    );
}

fn corpus(name: &str) -> (Program, Vec<Fact>) {
    let path = format!("{}/../../corpus/{name}.dmtl", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_source(&src).unwrap()
}

/// Batch-materializes a corpus program over `[lo, hi]`.
fn materialize_corpus(name: &str, lo: i64, hi: i64) -> Materialized {
    let (program, facts) = corpus(name);
    let mut input = Database::new();
    input.extend_facts(&facts).unwrap();
    let reasoner = Reasoner::new(program, ReasonerConfig::default().with_horizon(lo, hi)).unwrap();
    let model = reasoner.materialize(&input).unwrap().database;
    Materialized {
        reasoner,
        input,
        model,
    }
}

/// Over the stride-{1,3,7} trade ring of the netting corpus, the shortest
/// derivation of `exposure(cp0, cpK)` walks the fewest trades from cp0 to
/// cpK: one rule node per trade, a `trade` input leaf under each.
#[test]
fn netting_exposure_trees_follow_shortest_trade_paths() {
    let m = materialize_corpus("netting", 0, 20);
    let trade = Symbol::new("trade");
    let mut next: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    for (tuple, _) in m.model.relation(trade).unwrap().iter() {
        next.entry(tuple.value(0)).or_default().push(tuple.value(1));
    }
    let cp0 = Value::sym("cp0");
    // Trades on a shortest path from cp0 (at least one, also back to cp0).
    let mut hops: BTreeMap<Value, usize> = BTreeMap::new();
    let mut queue: VecDeque<(Value, usize)> = next[&cp0].iter().map(|&v| (v, 1)).collect();
    while let Some((v, d)) = queue.pop_front() {
        if hops.contains_key(&v) {
            continue;
        }
        hops.insert(v, d);
        queue.extend(next.get(&v).into_iter().flatten().map(|&w| (w, d + 1)));
    }
    assert_eq!(hops.len(), 60, "the ring reaches every counterparty");
    fn leaves(e: &Explanation, out: &mut Vec<String>) {
        if e.premises.is_empty() {
            out.push(format!("{} {:?}", e.fact, e.rule));
        }
        for p in &e.premises {
            leaves(p, out);
        }
    }
    for (cp, d) in hops {
        let tree = m
            .reasoner
            .explain(&m.input, &m.model, "exposure", &[cp0, cp], 10)
            .unwrap()
            .unwrap_or_else(|| panic!("exposure(cp0, {cp}) holds"));
        assert_eq!(tree.height(), d + 1, "exposure(cp0, {cp}):\n{tree}");
        let mut found = Vec::new();
        leaves(&tree, &mut found);
        assert_eq!(found.len(), d, "{tree}");
        for leaf in found {
            assert!(
                leaf.starts_with("trade(") && leaf.ends_with("@10 None"),
                "{leaf} in\n{tree}"
            );
        }
    }
}

/// Every node of `tree` holds in the model, every leaf is an input fact or
/// an aggregate value, and no fact repeats on a root-to-leaf path.
fn check_tree(name: &str, m: &Materialized, tree: &Explanation, path: &mut Vec<String>) {
    let fact = parse_facts(&format!("{}.", tree.fact))
        .unwrap_or_else(|e| panic!("{name}: node `{}` is not a fact: {e}", tree.fact))
        .remove(0);
    let t = fact.interval.lo().finite().unwrap();
    assert!(
        m.model.holds_at_rational(fact.pred, &fact.args, t),
        "{name}: {} does not hold",
        tree.fact
    );
    assert!(!path.contains(&tree.fact), "{name}: {} repeats", tree.fact);
    if tree.premises.is_empty() {
        match &tree.rule {
            None => assert!(
                m.input.holds_at_rational(fact.pred, &fact.args, t),
                "{name}: leaf {} is not an input",
                tree.fact
            ),
            Some(label) => {
                let rules = &m.reasoner.program().rules;
                let idx: usize = label
                    .strip_prefix("rule #")
                    .and_then(|i| i.parse().ok())
                    .unwrap_or_else(|| panic!("{name}: leaf label {label}"));
                assert!(
                    rules[idx].head.aggregate.is_some(),
                    "{name}: leaf {} [by {label}] is not an aggregate",
                    tree.fact
                );
            }
        }
    }
    path.push(tree.fact.clone());
    for p in &tree.premises {
        check_tree(name, m, p, path);
    }
    path.pop();
}

/// The tree-validity property over every fact of every corpus program's
/// model at every integer time of its horizon.
#[test]
fn every_corpus_fact_has_a_valid_tree() {
    for (name, hi) in [("margin", 20), ("funding", 3), ("fibonacci", 10)] {
        let m = materialize_corpus(name, 0, hi);
        let mut explained = HashSet::new();
        for (pred, tuple, _) in m.model.iter() {
            for t in 0..=hi {
                let args = tuple.to_vec();
                if !m.model.holds_at(&pred.as_str(), &args, t) {
                    continue;
                }
                let tree = m
                    .reasoner
                    .explain(&m.input, &m.model, &pred.as_str(), &args, t)
                    .unwrap()
                    .expect("a fact that holds is explained");
                check_tree(name, &m, &tree, &mut Vec::new());
                explained.insert(tree.fact);
            }
        }
        assert!(explained.len() > 10, "{name}: {} facts", explained.len());
    }
}
