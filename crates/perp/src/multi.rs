//! Multi-market extension: several perpetual futures (ETH-PERP, BTC-PERP,
//! …) running inside *one* DatalogMTL program — the paper's concluding
//! claim ("our contribution can be easily replicated or adapted for other
//! derivatives") made concrete.
//!
//! Every predicate gains a leading market argument, and — where the
//! single-market program inlines the market parameters as constants — the
//! multi-market program lifts them into a rigid `mparams` fact per market,
//! joined by the rules. Markets are economically independent (separate
//! skews, funding sequences, fee schedules), which the validation exploits:
//! the combined declarative run must equal one procedural reference engine
//! per market, bit for bit.

use crate::encode::{account_value, method_call};
use crate::extract::{as_f64, lookup_unique};
use crate::params::MarketParams;
#[cfg(test)]
use crate::reference::ReferenceEngine;
use crate::types::{MarketRun, Method, Trace};
use chronolog_core::{parse_program, Database, Program, Reasoner, ReasonerConfig, Result, Value};
use std::collections::HashMap;

/// A market identifier (e.g. `ethperp`, `btcperp`).
pub type MarketId = String;

/// One market's configuration and activity inside a combined scenario.
#[derive(Clone, Debug)]
pub struct MarketSpec {
    /// Market name (becomes the leading symbol argument of every fact).
    pub id: MarketId,
    /// The market's own fee/funding parameters.
    pub params: MarketParams,
    /// The market's trace (its own initial skew, prices, and events).
    pub trace: Trace,
}

/// The multi-market DatalogMTL program: the 48 paper rules, generalized
/// with a market argument and parameter facts.
pub fn multi_market_source() -> String {
    "% ============================================================\n\
     % Multi-market perpetual futures in DatalogMTL\n\
     % (market-indexed generalization of the ETH-PERP encoding;\n\
     %  per-market parameters arrive as mparams facts:\n\
     %  mparams(Mkt, TakerFee, MakerFee, SkewScale, IMax, Period).)\n\
     % ============================================================\n\
     \n\
     live() :- start(Mkt).\n\
     live() :- boxminus live().\n\
     \n\
     % ----- MARGIN -----\n\
     isOpen(Mkt, A) :- tranM(Mkt, A, M).\n\
     isOpen(Mkt, A) :- boxminus isOpen(Mkt, A), not withdraw(Mkt, A).\n\
     margin(Mkt, A, M) :- tranM(Mkt, A, M), not boxminus isOpen(Mkt, A).\n\
     changeM(Mkt, A) :- withdraw(Mkt, A).\n\
     changeM(Mkt, A) :- tranM(Mkt, A, M).\n\
     changeM(Mkt, A) :- closePos(Mkt, A).\n\
     margin(Mkt, A, M) :- diamondminus margin(Mkt, A, M), not changeM(Mkt, A).\n\
     margin(Mkt, A, M) :- boxminus isOpen(Mkt, A), diamondminus margin(Mkt, A, X), tranM(Mkt, A, Y), M = X + Y.\n\
     margin(Mkt, A, M) :- diamondminus margin(Mkt, A, X), pnl(Mkt, A, PL), finalFee(Mkt, A, C), funding(Mkt, A, IF), M = X + PL - C + IF.\n\
     \n\
     % ----- POSITION -----\n\
     position(Mkt, A, S, N) :- tranM(Mkt, A, M), not boxminus isOpen(Mkt, A), S = 0.0, N = 0.0.\n\
     order(Mkt, A, S) :- modPos(Mkt, A, S).\n\
     order(Mkt, A, S) :- closePos(Mkt, A), S = 0.0.\n\
     position(Mkt, A, S, N) :- diamondminus position(Mkt, A, S, N), not order(Mkt, A, _), isOpen(Mkt, A).\n\
     position(Mkt, A, S, N) :- diamondminus position(Mkt, A, Y, Z), price(Mkt, P), modPos(Mkt, A, X), S = X + Y, N = Z + X * P.\n\
     position(Mkt, A, S, N) :- closePos(Mkt, A), S = 0.0, N = 0.0.\n\
     \n\
     % ----- RETURNS -----\n\
     pnl(Mkt, A, PL) :- closePos(Mkt, A), boxminus position(Mkt, A, S, N), price(Mkt, P), PL = S * P - N.\n\
     \n\
     % ----- F-RATE: events, per market -----\n\
     event(Mkt, sum(S)) :- tranM(Mkt, A, M), S = 0.0.\n\
     event(Mkt, sum(S)) :- withdraw(Mkt, A), S = 0.0.\n\
     event(Mkt, sum(S)) :- modPos(Mkt, A, S).\n\
     event(Mkt, sum(S)) :- closePos(Mkt, A), boxminus position(Mkt, A, X, N), S = -X.\n\
     \n\
     % ----- SKEW, per market -----\n\
     skew(Mkt, K) :- startSkew(Mkt, K).\n\
     skew(Mkt, K) :- diamondminus skew(Mkt, K), not event(Mkt, _), live().\n\
     skew(Mkt, K) :- diamondminus skew(Mkt, X), event(Mkt, S), K = X + S.\n\
     \n\
     % ----- TDIFF, per market, via @T capture -----\n\
     tdiff(Mkt, T, T) :- start(Mkt)@T.\n\
     tdiff(Mkt, T1, T2) :- diamondminus tdiff(Mkt, T1, T2), not event(Mkt, _), live().\n\
     tdiff(Mkt, T2, T) :- diamondminus tdiff(Mkt, T1, T2), event(Mkt, S)@T.\n\
     diff(Mkt, D) :- tdiff(Mkt, T1, T2), event(Mkt, S), D = T2 - T1.\n\
     \n\
     % ----- RATE & FRS, per market, parameters from mparams -----\n\
     rate(Mkt, I) :- event(Mkt, S), boxminus skew(Mkt, K), price(Mkt, P), mparams(Mkt, FT, FM, Scale, IMax, Per), I = -K * P / Scale.\n\
     clampR(Mkt, C) :- rate(Mkt, I), I > 1.0, C = 1.0.\n\
     clampR(Mkt, C) :- rate(Mkt, I), I < -1.0, C = -1.0.\n\
     clampR(Mkt, I) :- rate(Mkt, I), I >= -1.0, I <= 1.0.\n\
     unrFund(Mkt, UF) :- clampR(Mkt, I), price(Mkt, P), diff(Mkt, T), mparams(Mkt, FT, FM, Scale, IMax, Per), UF = I * P * T * IMax / Per.\n\
     frs(Mkt, F) :- startFrs(Mkt, F).\n\
     frs(Mkt, F) :- diamondminus frs(Mkt, F), not unrFund(Mkt, _), live().\n\
     frs(Mkt, F) :- diamondminus frs(Mkt, X), unrFund(Mkt, UF), F = X + UF.\n\
     \n\
     % ----- INDF, per market -----\n\
     indF(Mkt, A, F, AF) :- boxminus position(Mkt, A, S, N), frs(Mkt, F), modPos(Mkt, A, C), S = 0.0, AF = 0.0.\n\
     indF(Mkt, A, F, AF) :- diamondminus indF(Mkt, A, F, AF), not order(Mkt, A, _).\n\
     indF(Mkt, A, F, AF) :- diamondminus indF(Mkt, A, PF, PAF), frs(Mkt, F), modPos(Mkt, A, C), boxminus position(Mkt, A, S, N), AF = PAF + S * (F - PF).\n\
     funding(Mkt, A, IF) :- diamondminus indF(Mkt, A, PF, AF), closePos(Mkt, A), frs(Mkt, F), boxminus position(Mkt, A, S, N), IF = AF + S * (F - PF).\n\
     \n\
     % ----- FEES, per market, rates from mparams -----\n\
     fee(Mkt, A, C) :- tranM(Mkt, A, M), not boxminus isOpen(Mkt, A), C = 0.0.\n\
     fee(Mkt, A, C) :- diamondminus fee(Mkt, A, C), not order(Mkt, A, _), isOpen(Mkt, A).\n\
     fee(Mkt, A, C) :- modPos(Mkt, A, S), price(Mkt, P), diamondminus fee(Mkt, A, OldC), skew(Mkt, K), mparams(Mkt, FT, FM, Scale, IMax, Per), K >= 0.0, S > 0.0, C = OldC + abs(S * P * FT).\n\
     fee(Mkt, A, C) :- modPos(Mkt, A, S), price(Mkt, P), diamondminus fee(Mkt, A, OldC), skew(Mkt, K), mparams(Mkt, FT, FM, Scale, IMax, Per), K < 0.0, S > 0.0, C = OldC + abs(S * P * FM).\n\
     fee(Mkt, A, C) :- modPos(Mkt, A, S), price(Mkt, P), diamondminus fee(Mkt, A, OldC), skew(Mkt, K), mparams(Mkt, FT, FM, Scale, IMax, Per), K >= 0.0, S < 0.0, C = OldC + abs(S * P * FM).\n\
     fee(Mkt, A, C) :- modPos(Mkt, A, S), price(Mkt, P), diamondminus fee(Mkt, A, OldC), skew(Mkt, K), mparams(Mkt, FT, FM, Scale, IMax, Per), K < 0.0, S < 0.0, C = OldC + abs(S * P * FT).\n\
     finalFee(Mkt, A, C) :- closePos(Mkt, A), boxminus position(Mkt, A, S, N), skew(Mkt, K), price(Mkt, P), diamondminus fee(Mkt, A, OldC), mparams(Mkt, FT, FM, Scale, IMax, Per), K >= 0.0, S < 0.0, C = OldC + abs(S * P * FT).\n\
     finalFee(Mkt, A, C) :- closePos(Mkt, A), boxminus position(Mkt, A, S, N), skew(Mkt, K), price(Mkt, P), diamondminus fee(Mkt, A, OldC), mparams(Mkt, FT, FM, Scale, IMax, Per), K < 0.0, S < 0.0, C = OldC + abs(S * P * FM).\n\
     finalFee(Mkt, A, C) :- closePos(Mkt, A), boxminus position(Mkt, A, S, N), skew(Mkt, K), price(Mkt, P), diamondminus fee(Mkt, A, OldC), mparams(Mkt, FT, FM, Scale, IMax, Per), K >= 0.0, S > 0.0, C = OldC + abs(S * P * FM).\n\
     finalFee(Mkt, A, C) :- closePos(Mkt, A), boxminus position(Mkt, A, S, N), skew(Mkt, K), price(Mkt, P), diamondminus fee(Mkt, A, OldC), mparams(Mkt, FT, FM, Scale, IMax, Per), K < 0.0, S > 0.0, C = OldC + abs(S * P * FT).\n\
     fee(Mkt, A, C) :- closePos(Mkt, A), C = 0.0.\n"
        .to_string()
}

/// Builds and validates the multi-market program.
pub fn build_multi_market_program() -> Result<Program> {
    parse_program(&multi_market_source())
}

/// Several markets encoded onto the one unix-second timeline.
pub struct MultiEncoded {
    /// The combined input database.
    pub database: Database,
    /// Shared horizon: earliest window start to latest window end.
    pub horizon: (i64, i64),
}

/// Encodes the markets, each over its own window: a market's initial
/// conditions hold at its own `start_time`, its events at their own
/// seconds (two markets may trade in the same second).
pub fn encode_markets(markets: &[MarketSpec]) -> MultiEncoded {
    let mut db = Database::new();
    for market in markets {
        let mkt = Value::sym(&market.id);
        let trace = &market.trace;
        db.assert_at("start", &[mkt], trace.start_time);
        db.assert_at(
            "startSkew",
            &[mkt, Value::num(trace.initial_skew)],
            trace.start_time,
        );
        db.assert_at("startFrs", &[mkt, Value::num(0.0)], trace.start_time);
        let p = market.params;
        db.assert_over(
            "mparams",
            &[
                mkt,
                Value::num(p.taker_fee),
                Value::num(p.maker_fee),
                Value::num(p.skew_scale_notional),
                Value::num(p.max_funding_rate),
                Value::num(p.funding_period_secs),
            ],
            chronolog_core::Interval::ALL,
        );
        for event in &trace.events {
            let acc = account_value(event.account);
            match method_call(event.method) {
                (pred, Some(x)) => db.assert_at(pred, &[mkt, acc, Value::num(x)], event.time),
                (pred, None) => db.assert_at(pred, &[mkt, acc], event.time),
            };
            db.assert_at("price", &[mkt, Value::num(event.price)], event.time);
        }
    }
    let start = markets.iter().map(|m| m.trace.start_time).min();
    let end = markets.iter().map(|m| m.trace.end_time).max();
    MultiEncoded {
        database: db,
        horizon: (start.unwrap_or(0), end.unwrap_or(0)),
    }
}

/// Runs the combined program and extracts each market's run, validated
/// against one independent reference engine per market.
pub fn run_multi_market(markets: &[MarketSpec]) -> Result<HashMap<MarketId, MarketRun>> {
    let program = build_multi_market_program()?;
    let encoded = encode_markets(markets);
    let reasoner = Reasoner::new(
        program,
        ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1),
    )?;
    let m = reasoner.materialize(&encoded.database)?;

    let mut runs = HashMap::new();
    for market in markets {
        let mkt = Value::sym(&market.id);
        let number = |pred: &str, prefix: &[Value], t: i64| {
            lookup_unique(&m.database, pred, prefix, t)
                .and_then(|rest| as_f64(&rest[0], pred))
                .map_err(|e| chronolog_core::Error::Eval(format!("{}: {}", market.id, e.0)))
        };
        let mut run = MarketRun {
            final_skew: market.trace.initial_skew,
            ..MarketRun::default()
        };
        for event in &market.trace.events {
            run.frs
                .push((event.time, number("frs", &[mkt], event.time)?));
            if matches!(event.method, Method::ClosePosition) {
                let acc = account_value(event.account);
                run.trades.push(crate::types::TradeSettlement {
                    account: event.account,
                    time: event.time,
                    pnl: number("pnl", &[mkt, acc], event.time)?,
                    fee: number("finalFee", &[mkt, acc], event.time)?,
                    funding: number("funding", &[mkt, acc], event.time)?,
                });
            }
        }
        if let Some(last) = market.trace.events.last() {
            run.final_skew = number("skew", &[mkt], last.time)?;
        }
        runs.insert(market.id.clone(), run);
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AccountId, Event};

    fn ev(t: i64, acc: u32, m: Method, price: f64) -> Event {
        Event {
            time: t,
            account: AccountId(acc),
            method: m,
            price,
        }
    }

    fn eth_and_btc() -> Vec<MarketSpec> {
        let eth = Trace {
            start_time: 0,
            end_time: 3_600,
            initial_skew: 1302.88,
            initial_price: 1350.0,
            events: vec![
                ev(10, 1, Method::TransferMargin { amount: 10_000.0 }, 1350.0),
                ev(30, 1, Method::ModifyPosition { size: 2.0 }, 1351.0),
                ev(200, 1, Method::ModifyPosition { size: -0.5 }, 1352.5),
                ev(900, 1, Method::ClosePosition, 1349.0),
            ],
        };
        let btc = Trace {
            start_time: 0,
            end_time: 3_600,
            initial_skew: -88.5,
            initial_price: 19_000.0,
            events: vec![
                ev(15, 7, Method::TransferMargin { amount: 50_000.0 }, 19_000.0),
                ev(45, 7, Method::ModifyPosition { size: -1.25 }, 19_020.0),
                ev(800, 7, Method::ClosePosition, 18_950.0),
                ev(1_000, 7, Method::Withdraw, 18_960.0),
            ],
        };
        vec![
            MarketSpec {
                id: "ethperp".into(),
                params: MarketParams::default(),
                trace: eth,
            },
            MarketSpec {
                id: "btcperp".into(),
                params: MarketParams {
                    taker_fee: 0.0045,
                    maker_fee: 0.0015,
                    skew_scale_notional: 100_000_000.0,
                    ..MarketParams::default()
                },
                trace: btc,
            },
        ]
    }

    #[test]
    fn multi_market_program_validates() {
        let program = build_multi_market_program().unwrap();
        Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 10)).unwrap();
    }

    fn assert_equals_independent_references(markets: &[MarketSpec]) {
        let runs = run_multi_market(markets).unwrap();
        for spec in markets {
            let reference = ReferenceEngine::<f64>::run_trace(spec.params, &spec.trace);
            let run = &runs[&spec.id];
            assert_eq!(run.frs, reference.frs, "{} FRS", spec.id);
            assert_eq!(run.trades, reference.trades, "{} trades", spec.id);
            assert_eq!(run.final_skew, reference.final_skew, "{} skew", spec.id);
        }
    }

    #[test]
    fn combined_run_equals_independent_references() {
        assert_equals_independent_references(&eth_and_btc());
    }

    #[test]
    fn staggered_windows_and_same_second_events_match_references() {
        // BTC opens 5 s after ETH and both markets trade in seconds 10 and 30.
        let mut markets = eth_and_btc();
        let btc = &mut markets[1].trace;
        btc.start_time = 5;
        btc.events[0].time = 10;
        btc.events[1].time = 30;
        assert_eq!(markets[0].trace.events[0].time, 10);
        assert_eq!(markets[0].trace.events[1].time, 30);
        assert_equals_independent_references(&markets);
    }

    #[test]
    fn markets_do_not_interfere() {
        // Running ETH alone must give the same ETH results as running it
        // next to BTC (markets are independent).
        let markets = eth_and_btc();
        let combined = run_multi_market(&markets).unwrap();
        let solo = run_multi_market(&markets[..1]).unwrap();
        assert_eq!(combined["ethperp"].frs, solo["ethperp"].frs);
        assert_eq!(combined["ethperp"].trades, solo["ethperp"].trades);
    }

    #[test]
    fn per_market_parameters_differ() {
        // BTC uses a different taker fee; the same-sized trade must cost
        // differently than it would under ETH parameters.
        let markets = eth_and_btc();
        let runs = run_multi_market(&markets).unwrap();
        let btc_trade = runs["btcperp"].trades[0];
        let eth_params_ref =
            ReferenceEngine::<f64>::run_trace(MarketParams::default(), &markets[1].trace);
        assert_ne!(btc_trade.fee, eth_params_ref.trades[0].fee);
    }
}
