//! Extraction of the observable market run (FRS series, trade settlements)
//! from a materialized DatalogMTL database.

use crate::encode::{account_value, EncodedTrace};
use crate::types::{MarketRun, Method, Trace, TradeSettlement};
use chronolog_core::{Database, IntervalSet, Rational, Symbol, Value};

/// Extraction failure: a value the run should have derived is missing or
/// ambiguous — always a bug in the encoding or the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractError(pub String);

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "extraction error: {}", self.0)
    }
}

impl std::error::Error for ExtractError {}

/// Finds the unique tuple of `pred` holding at `t` whose leading arguments
/// equal `prefix`, returning its remaining arguments.
pub(crate) fn lookup_unique(
    db: &Database,
    pred: &str,
    prefix: &[Value],
    t: i64,
) -> Result<Vec<Value>, ExtractError> {
    let pred_sym = Symbol::new(pred);
    let Some(rel) = db.relation(pred_sym) else {
        return Err(ExtractError(format!("predicate {pred} has no facts")));
    };
    let time = Rational::integer(t);
    let mut found: Option<Vec<Value>> = None;
    for (tuple, ivs) in rel.iter() {
        if tuple.len() < prefix.len() || !IntervalSet::components_contain(ivs, time) {
            continue;
        }
        if !(0..prefix.len()).all(|i| tuple.value(i).semantic_eq(&prefix[i])) {
            continue;
        }
        let rest: Vec<Value> = (prefix.len()..tuple.len())
            .map(|i| tuple.value(i))
            .collect();
        if let Some(prev) = &found {
            if prev != &rest {
                return Err(ExtractError(format!(
                    "{pred} ambiguous at t={t}: {prev:?} vs {rest:?}"
                )));
            }
        } else {
            found = Some(rest);
        }
    }
    found.ok_or_else(|| ExtractError(format!("{pred}{prefix:?} does not hold at t={t}")))
}

pub(crate) fn as_f64(v: &Value, what: &str) -> Result<f64, ExtractError> {
    v.as_f64()
        .ok_or_else(|| ExtractError(format!("{what} is not numeric: {v}")))
}

/// Extracts the market run (Figures 4 and 5 inputs) from a materialization
/// of the ETH-PERP program over an encoded trace.
pub fn extract_run(
    db: &Database,
    trace: &Trace,
    encoded: &EncodedTrace,
) -> Result<MarketRun, ExtractError> {
    let mut run = MarketRun::default();
    for (event, &coord) in trace.events.iter().zip(&encoded.event_coords) {
        let frs = as_f64(&lookup_unique(db, "frs", &[], coord)?[0], "frs")?;
        run.frs.push((event.time, frs));
        if matches!(event.method, Method::ClosePosition) {
            let acc = account_value(event.account);
            let pnl = as_f64(&lookup_unique(db, "pnl", &[acc], coord)?[0], "pnl")?;
            let fee = as_f64(
                &lookup_unique(db, "finalFee", &[acc], coord)?[0],
                "finalFee",
            )?;
            let funding = as_f64(&lookup_unique(db, "funding", &[acc], coord)?[0], "funding")?;
            run.trades.push(TradeSettlement {
                account: event.account,
                time: event.time,
                pnl,
                fee,
                funding,
            });
        }
    }
    if let Some(&last) = encoded.event_coords.last() {
        run.final_skew = as_f64(&lookup_unique(db, "skew", &[], last)?[0], "skew")?;
    } else {
        run.final_skew = trace.initial_skew;
    }
    Ok(run)
}

/// Reads the margin of an account at a timeline coordinate (for reporting
/// and the risk-management example).
pub fn margin_at(db: &Database, account: crate::types::AccountId, coord: i64) -> Option<f64> {
    lookup_unique(db, "margin", &[account_value(account)], coord)
        .ok()
        .and_then(|rest| rest[0].as_f64())
}

/// Reads the position `(size, notional)` of an account at a coordinate.
pub fn position_at(
    db: &Database,
    account: crate::types::AccountId,
    coord: i64,
) -> Option<(f64, f64)> {
    let rest = lookup_unique(db, "position", &[account_value(account)], coord).ok()?;
    Some((rest[0].as_f64()?, rest[1].as_f64()?))
}
