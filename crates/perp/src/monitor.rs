//! Risk-monitoring extension — the paper's conclusion sketches exactly
//! this: *"extensions to our program could be adopted by private market
//! players for internal risk management activities, for instance, to be
//! able to swiftly react to the evolution of each margin account over
//! time, or for automatically reporting up-to-date data to authorities,
//! like the size of the position at each time point."*
//!
//! The module appends pure-analytics rules to the contract program:
//! per-account exposure and leverage, threshold alerts, and market-wide
//! open interest. The rules read contract state but never feed back into
//! it, so the Figure 4/5 exactness results are untouched.

use crate::params::MarketParams;
use crate::program;
use chronolog_core::{parse_program, Program, Result};

/// Thresholds for the monitoring rules.
#[derive(Clone, Copy, Debug)]
pub struct MonitorParams {
    /// Leverage (exposure / margin) at or above which `highLeverage(A)`
    /// fires.
    pub max_leverage: f64,
    /// Maintenance-margin ratio: `underMargin(A)` fires when
    /// `margin < exposure * maintenance_ratio`.
    pub maintenance_ratio: f64,
}

impl Default for MonitorParams {
    fn default() -> Self {
        MonitorParams {
            max_leverage: 10.0,
            maintenance_ratio: 0.05,
        }
    }
}

/// The monitoring rules (appended to the contract program).
pub fn monitor_source(monitor: &MonitorParams) -> String {
    format!(
        "\n% ----- MONITOR (extension; conclusion of the paper) -----\n\
         % Dollar exposure of every open position, at every interaction.\n\
         exposure(A, E) :- position(A, S, N), price(P), E = abs(S * P).\n\
         % Leverage = exposure / margin (guarded against empty margins).\n\
         leverage(A, L) :- exposure(A, E), margin(A, M), M > 0.0, L = E / M.\n\
         % Supervisor alerts.\n\
         highLeverage(A) :- leverage(A, L), L >= {max_leverage}.\n\
         underMargin(A) :- margin(A, M), exposure(A, E), E > 0.0, M < E * {maintenance}.\n\
         % Market-wide open interest (sum of all exposures) per time point.\n\
         openInterest(sum(E)) :- exposure(A, E).\n\
         % Report feed for authorities: the size of every position at each\n\
         % interaction time (conclusion's reporting example).\n\
         reportPosition(A, S) :- position(A, S, N), price(P).\n",
        max_leverage = format_args!("{:?}", monitor.max_leverage),
        maintenance = format_args!("{:?}", monitor.maintenance_ratio),
    )
}

/// Builds the contract program extended with the monitoring rules.
pub fn build_monitored_program(params: &MarketParams, monitor: &MonitorParams) -> Result<Program> {
    let src = format!("{}{}", program::source(params), monitor_source(monitor));
    parse_program(&src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{account_value, encode};
    use crate::types::{AccountId, Event, Method, Trace};
    use chronolog_core::{Reasoner, ReasonerConfig, Symbol, Value};

    fn ev(t: i64, acc: u32, m: Method, price: f64) -> Event {
        Event {
            time: t,
            account: AccountId(acc),
            method: m,
            price,
        }
    }

    fn run_monitored(trace: &Trace, monitor: MonitorParams) -> chronolog_core::Database {
        let program = build_monitored_program(&MarketParams::default(), &monitor).unwrap();
        let encoded = encode(trace);
        Reasoner::new(
            program,
            ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1),
        )
        .unwrap()
        .materialize(&encoded.database)
        .unwrap()
        .database
    }

    fn trace() -> Trace {
        Trace {
            start_time: 0,
            end_time: 600,
            initial_skew: 0.0,
            initial_price: 1000.0,
            events: vec![
                // 100$ margin, 0.5 ETH @ 1000$ = 500$ exposure: leverage 5.
                ev(10, 1, Method::TransferMargin { amount: 100.0 }, 1000.0),
                ev(20, 1, Method::ModifyPosition { size: 0.5 }, 1000.0),
                // 2 ETH more: 2500$ exposure on ~100$ margin: leverage 25.
                ev(30, 1, Method::ModifyPosition { size: 2.0 }, 1000.0),
                ev(40, 1, Method::ClosePosition, 1000.0),
            ],
        }
    }

    #[test]
    fn exposure_and_leverage_track_positions() {
        let db = run_monitored(&trace(), MonitorParams::default());
        let acc = account_value(AccountId(1));
        // @20: position 0.5 @ 1000$ -> exposure 500.
        assert!(db.holds_at("exposure", &[acc, Value::num(500.0)], 20));
        assert!(db.holds_at("leverage", &[acc, Value::num(5.0)], 20));
        // Not highly leveraged yet (threshold 10).
        assert!(!db.holds_at("highLeverage", &[acc], 20));
        // @30: 2.5 ETH -> exposure 2500, leverage 25 -> alert.
        assert!(db.holds_at("exposure", &[acc, Value::num(2500.0)], 30));
        assert!(db.holds_at("highLeverage", &[acc], 30));
        // After close the exposure is zero and alerts clear.
        assert!(db.holds_at("exposure", &[acc, Value::num(0.0)], 40));
        assert!(!db.holds_at("highLeverage", &[acc], 40));
    }

    #[test]
    fn under_margin_alert_uses_maintenance_ratio() {
        // maintenance 10%: margin 100 < 2500 * 0.1 -> alert at @30 only.
        let db = run_monitored(
            &trace(),
            MonitorParams {
                max_leverage: 100.0,
                maintenance_ratio: 0.10,
            },
        );
        let acc = account_value(AccountId(1));
        assert!(!db.holds_at("underMargin", &[acc], 20));
        assert!(db.holds_at("underMargin", &[acc], 30));
    }

    #[test]
    fn open_interest_aggregates_across_accounts() {
        let trace = Trace {
            start_time: 0,
            end_time: 600,
            initial_skew: 0.0,
            initial_price: 1000.0,
            events: vec![
                ev(10, 1, Method::TransferMargin { amount: 5_000.0 }, 1000.0),
                ev(20, 2, Method::TransferMargin { amount: 5_000.0 }, 1000.0),
                ev(30, 1, Method::ModifyPosition { size: 1.0 }, 1000.0),
                ev(40, 2, Method::ModifyPosition { size: -2.0 }, 1000.0),
            ],
        };
        let db = run_monitored(&trace, MonitorParams::default());
        // @40: |1*1000| + |-2*1000| = 3000 (shorts count absolutely).
        assert!(db.holds_at("openInterest", &[Value::num(3000.0)], 40));
    }

    #[test]
    fn report_feed_lists_position_sizes() {
        let db = run_monitored(&trace(), MonitorParams::default());
        let acc = account_value(AccountId(1));
        assert!(db.holds_at("reportPosition", &[acc, Value::num(0.5)], 20));
        assert!(db.holds_at("reportPosition", &[acc, Value::num(2.5)], 30));
    }

    #[test]
    fn monitored_program_still_validates_and_extends_rule_count() {
        let base = program::build(&MarketParams::default()).unwrap();
        let ext =
            build_monitored_program(&MarketParams::default(), &MonitorParams::default()).unwrap();
        assert_eq!(ext.rules.len(), base.rules.len() + 6);
        // Contract predicates do not depend on monitor predicates.
        let g = chronolog_core::DependencyGraph::build(&ext);
        for (from, to, _) in &g.edges {
            let monitor_preds = [
                "exposure",
                "leverage",
                "highLeverage",
                "underMargin",
                "openInterest",
                "reportPosition",
            ];
            if monitor_preds.contains(&from.as_str().as_str()) {
                assert!(
                    monitor_preds.contains(&to.as_str().as_str()),
                    "monitor predicate {from} feeds contract predicate {to}"
                );
            }
        }
        let _ = Symbol::new("x");
    }
}
