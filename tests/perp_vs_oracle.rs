//! The whole ETH-PERP program as the paper prints it — unix-second
//! timeline, event times read with the `@T` capture of rules 23/25 — lives
//! inside the integer-punctual fragment that the brute-force discrete
//! oracle supports, so the optimized engine's output must coincide with the
//! oracle's on every predicate at every second — including the float
//! values. The oracle enumerates time points, hence the 10-minute windows.

use chronolog_core::naive::naive_materialize;
use chronolog_core::{IntervalSet, Rational, Reasoner, ReasonerConfig};
use chronolog_market::{generate, ScenarioConfig};
use chronolog_perp::encode::encode;
use chronolog_perp::{program, MarketParams};

/// Renders all derived facts on the integer grid, sorted.
fn engine_text(db: &chronolog_core::Database, lo: i64, hi: i64) -> String {
    let mut lines = Vec::new();
    for (pred, tuple, ivs) in db.iter() {
        for t in lo..=hi {
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

fn check_scenario(mut config: ScenarioConfig) {
    config.duration_secs = 600;
    let params = MarketParams::default();
    let trace = generate(&config);
    let program = program::build(&params).unwrap();
    let encoded = encode(&trace);
    let (lo, hi) = encoded.horizon;

    let oracle = naive_materialize(&program, &encoded.database, lo, hi)
        .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", config.name));
    let engine = Reasoner::new(program, ReasonerConfig::default().with_horizon(lo, hi))
        .unwrap()
        .materialize(&encoded.database)
        .unwrap();

    let engine_out = engine_text(&engine.database, lo, hi);
    let oracle_out = oracle.to_text();
    assert_eq!(
        engine_out, oracle_out,
        "engine and brute-force oracle disagree on scenario {}",
        config.name
    );
}

#[test]
fn tiny_market_window() {
    check_scenario(ScenarioConfig::new(
        "oracle-tiny",
        3,
        0,
        8,
        2,
        150.0,
        1400.0,
    ));
}

#[test]
fn small_market_window_with_negative_skew() {
    check_scenario(ScenarioConfig::new(
        "oracle-small",
        5,
        1_000_000,
        16,
        4,
        -900.0,
        1280.0,
    ));
}

#[test]
fn medium_market_window() {
    check_scenario(ScenarioConfig::new(
        "oracle-medium",
        9,
        500,
        28,
        8,
        42.0,
        1510.0,
    ));
}

#[test]
fn window_with_no_trades() {
    // Only deposits and withdrawals: funding accrues on the initial skew
    // but no settlements happen.
    check_scenario(ScenarioConfig::new(
        "oracle-no-trades",
        13,
        0,
        5,
        0,
        2502.85,
        1290.0,
    ));
}

#[test]
fn several_seeds_agree() {
    for seed in [21, 22, 23, 24] {
        check_scenario(ScenarioConfig::new(
            "oracle-seeded",
            seed,
            0,
            12,
            3,
            -50.0,
            1333.0,
        ));
    }
}
