//! The join order the ETH-PERP program gets from its text alone. `frs` is
//! finished in a stratum below `indF` and `funding`, so rules 34, 36 and 37
//! run their full plans, and rule 36 also its `ΔindF` variant; there is no
//! `Δfrs` variant. In a full plan nothing is bound yet, and `position` /
//! `indF` hold a row per account and second while `modPos` / `closePos`
//! hold one per order: the event goes first, and the persisted relations
//! are probed on the account it binds. In the `ΔindF` variant the event
//! follows the delta, before `position`.

use chronolog_core::{Reasoner, ReasonerConfig};
use chronolog_perp::encode::encode;
use chronolog_perp::{program, AccountId, Event, MarketParams, Method, Trace};

#[test]
fn indf_plans_reach_the_order_before_the_persisted_state() {
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
    assert!(
        !(plans.iter()).any(|p| p.steps[0].desc.starts_with("join Δfrs(")),
        "frs is a lower stratum: no rule reads it from a delta"
    );
    for (rule, first, event) in [
        ("rule 34 (indF init)", None, "modPos("),
        ("rule 36 (indF update)", None, "modPos("),
        (
            "rule 36 (indF update)",
            Some("join Δdiamondminus indF("),
            "modPos(",
        ),
        ("rule 37 (funding settle)", None, "closePos("),
    ] {
        let plan = plans
            .iter()
            .find(|p| {
                p.label == rule
                    && match first {
                        None => p.delta_literal.is_none(),
                        Some(delta) => p.steps[0].desc.starts_with(delta),
                    }
            })
            .unwrap_or_else(|| panic!("{rule}: no {first:?} plan ran"));
        let joins: Vec<&str> = plan
            .steps
            .iter()
            .map(|s| s.desc.as_str())
            .filter(|d| d.starts_with("join "))
            .collect();
        let step_of = |atom: &str| joins.iter().position(|d| d.contains(atom));
        let at = step_of(event).unwrap_or_else(|| panic!("{rule}: no {event} step"));
        let expected = usize::from(first.is_some());
        assert_eq!(at, expected, "{rule}: the event comes first: {joins:?}");
        for persisted in ["position(", "indF("] {
            if let Some(later) = step_of(persisted).filter(|&s| s >= expected) {
                assert!(at < later, "{rule}: {persisted} joined first: {joins:?}");
            }
        }
    }
}
