//! The join order the ETH-PERP program gets from its text alone. After a
//! funding-rate tick (`Δfrs(F)`) nothing of rules 34, 36 and 37 is bound
//! yet, and `position` / `indF` hold a row per account and second while
//! `modPos` / `closePos` hold one per order: the event goes first, and the
//! persisted relations are probed on the account it binds.

use chronolog_core::{Reasoner, ReasonerConfig};
use chronolog_perp::encode::encode;
use chronolog_perp::{program, AccountId, Event, MarketParams, Method, Trace};

#[test]
fn frs_variants_reach_the_order_before_the_persisted_state() {
    let ev = |time, method| Event {
        time,
        account: AccountId(1),
        method,
        price: 1300.0,
    };
    let trace = Trace {
        start_time: 0,
        end_time: 100,
        initial_skew: 100.0,
        initial_price: 1300.0,
        events: vec![
            ev(10, Method::TransferMargin { amount: 4_000.0 }),
            ev(20, Method::ModifyPosition { size: 2.0 }),
            ev(40, Method::ModifyPosition { size: 1.0 }),
            ev(60, Method::ClosePosition),
        ],
    };
    let encoded = encode(&trace);
    let stats = Reasoner::new(
        program::build(&MarketParams::default()).unwrap(),
        ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1),
    )
    .unwrap()
    .materialize(&encoded.database)
    .unwrap()
    .stats;
    let plans = stats.plan_explains();
    for (rule, event) in [
        ("rule 34 (indF init)", "modPos("),
        ("rule 36 (indF update)", "modPos("),
        ("rule 37 (funding settle)", "closePos("),
    ] {
        let plan = plans
            .iter()
            .find(|p| p.label == rule && p.steps[0].desc.starts_with("join Δfrs("))
            .unwrap_or_else(|| panic!("{rule}: no Δfrs variant ran"));
        let joins: Vec<&str> = plan
            .steps
            .iter()
            .map(|s| s.desc.as_str())
            .filter(|d| d.starts_with("join "))
            .collect();
        let step_of = |atom: &str| joins.iter().position(|d| d.contains(atom));
        let at = step_of(event).unwrap_or_else(|| panic!("{rule}: no {event} step"));
        assert_eq!(at, 1, "{rule}: the event follows the delta: {joins:?}");
        for persisted in ["position(", "indF("] {
            if let Some(later) = step_of(persisted) {
                assert!(at < later, "{rule}: {persisted} joined first: {joins:?}");
            }
        }
    }
}
