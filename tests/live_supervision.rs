//! Live supervision: the monitored contract program (risk extension)
//! running in a streaming session — the full realization of the paper's
//! conclusion: a supervisor watching leverage and margin alerts *as the
//! market happens*, with every alert final the moment it is derived.

use chronolog_core::{Reasoner, ReasonerConfig};
use chronolog_market::{generate, ScenarioConfig};
use chronolog_perp::encode::{account_value, event_facts, genesis};
use chronolog_perp::monitor::{build_monitored_program, MonitorParams};
use chronolog_perp::{AccountId, Event, MarketParams, MarketSpec, Method, Trace};

#[test]
fn monitored_contract_streams_with_live_alerts() {
    let params = MarketParams::default();
    let monitor = MonitorParams {
        max_leverage: 10.0,
        maintenance_ratio: 0.05,
    };
    let program = build_monitored_program(&params, &monitor).unwrap();

    // Hand-built scenario, one interaction a minute: a trader levers up
    // past the threshold.
    let methods = [
        Method::TransferMargin { amount: 1_000.0 },
        Method::ModifyPosition { size: 2.0 },  // 2k exposure, 2x
        Method::ModifyPosition { size: 13.0 }, // 15k exposure, 15x
        Method::ClosePosition,
    ];
    let trace = Trace {
        start_time: 0,
        end_time: 300,
        initial_skew: 0.0,
        initial_price: 1_000.0,
        events: (1..)
            .zip(methods)
            .map(|(minute, method)| Event {
                time: minute * 60,
                account: AccountId(1),
                method,
                price: 1_000.0,
            })
            .collect(),
    };
    let config = ReasonerConfig::default().with_horizon(trace.start_time, trace.end_time);
    let mut session = Reasoner::new(program, config)
        .unwrap()
        .into_session(&genesis(&trace), trace.start_time)
        .unwrap();

    let acc = account_value(AccountId(1));
    let mut alert_times = Vec::new();
    for event in &trace.events {
        for fact in event_facts(event) {
            session.submit(fact).unwrap();
        }
        session.advance_to(event.time).unwrap();
        // The supervisor reads alerts at the watermark, live.
        if session
            .database()
            .holds_at("highLeverage", &[acc], event.time)
        {
            alert_times.push(event.time);
        }
    }
    // The alert fires exactly while the oversized position is open.
    assert_eq!(alert_times, vec![180]);
    // And the margin keeps being tracked after the close.
    assert!(session
        .database()
        .relation(chronolog_core::Symbol::new("margin"))
        .is_some());
}

/// Multi-market consistency on generated scenarios: the combined program
/// over several simulated markets equals one reference engine per market.
#[test]
fn multi_market_generated_scenarios_match_references() {
    for seed in [5u64, 6] {
        let mut eth_config = ScenarioConfig::new("eth", seed, 1_700_000_000, 12, 3, 420.0, 1_350.0);
        eth_config.duration_secs = 1_800;
        let mut btc_config =
            ScenarioConfig::new("btc", seed + 100, 1_700_000_000, 9, 2, -55.0, 19_200.0);
        btc_config.duration_secs = 1_800;
        let markets = vec![
            MarketSpec {
                id: "ethperp".into(),
                params: MarketParams::default(),
                trace: generate(&eth_config),
            },
            MarketSpec {
                id: "btcperp".into(),
                params: MarketParams {
                    taker_fee: 0.005,
                    maker_fee: 0.001,
                    ..MarketParams::default()
                },
                trace: generate(&btc_config),
            },
        ];
        let runs = chronolog_perp::run_multi_market(&markets).unwrap();
        for spec in &markets {
            let reference =
                chronolog_perp::ReferenceEngine::<f64>::run_trace(spec.params, &spec.trace);
            assert_eq!(runs[&spec.id].frs, reference.frs, "{} seed {seed}", spec.id);
            assert_eq!(
                runs[&spec.id].trades, reference.trades,
                "{} seed {seed}",
                spec.id
            );
        }
    }
}
