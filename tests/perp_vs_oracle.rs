//! The whole ETH-PERP program as the paper prints it — unix-second
//! timeline, event times read with the `@T` capture of rules 23/25 — lives
//! inside the closed integer-endpoint fragment that the brute-force oracle
//! supports, so the optimized engine's output must coincide with the
//! oracle's on every predicate at every second and every half second
//! between — including the float values. The oracle enumerates grid cells,
//! hence the 10-minute windows.

use chronolog_core::naive::{grid_text, naive_materialize};
use chronolog_core::{Reasoner, ReasonerConfig};
use chronolog_market::{generate, ScenarioConfig};
use chronolog_perp::encode::encode;
use chronolog_perp::{program, MarketParams};

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

    let engine_out = grid_text(&engine.database, lo, hi);
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
