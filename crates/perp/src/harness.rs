//! The validation harness of §4: runs the DatalogMTL program over a trace,
//! runs the reference engines, and compares the funding rate sequence
//! (Figure 4) and per-trade results (Figure 5).

use crate::encode::encode;
use crate::extract::{extract_run, ExtractError};
use crate::fixed::Fixed18;
use crate::params::MarketParams;
use crate::program;
use crate::reference::ReferenceEngine;
use crate::types::{MarketRun, Trace};
use chronolog_core::{Reasoner, ReasonerConfig, RunStats};

/// Harness failure.
#[derive(Debug)]
pub enum HarnessError {
    /// Invalid input trace.
    Trace(String),
    /// Reasoning failure.
    Reasoner(chronolog_core::Error),
    /// Missing/ambiguous derived values.
    Extract(ExtractError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Trace(m) => write!(f, "invalid trace: {m}"),
            HarnessError::Reasoner(e) => write!(f, "{e}"),
            HarnessError::Extract(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<chronolog_core::Error> for HarnessError {
    fn from(e: chronolog_core::Error) -> Self {
        HarnessError::Reasoner(e)
    }
}

impl From<ExtractError> for HarnessError {
    fn from(e: ExtractError) -> Self {
        HarnessError::Extract(e)
    }
}

/// The DatalogMTL execution of a trace.
pub struct DatalogRun {
    /// Observable outputs.
    pub run: MarketRun,
    /// Engine statistics (runtime, iterations, derived facts).
    pub stats: RunStats,
}

/// Executes the ETH-PERP DatalogMTL program over a trace.
pub fn run_datalog(trace: &Trace, params: &MarketParams) -> Result<DatalogRun, HarnessError> {
    run_datalog_with(trace, params, ReasonerConfig::default())
}

/// Like [`run_datalog`] under an explicit engine configuration (fixpoint
/// strategy, threads, profiler); the horizon is always the trace window.
pub fn run_datalog_with(
    trace: &Trace,
    params: &MarketParams,
    config: ReasonerConfig,
) -> Result<DatalogRun, HarnessError> {
    trace.validate().map_err(HarnessError::Trace)?;
    let program = program::build(params)?;
    let encoded = encode(trace);
    let config = config.with_horizon(encoded.horizon.0, encoded.horizon.1);
    let reasoner = Reasoner::new(program, config)?;
    let m = reasoner.materialize(&encoded.database)?;
    let run = extract_run(&m.database, trace, &encoded)?;
    Ok(DatalogRun {
        run,
        stats: m.stats,
    })
}

/// One row of the Figure-4 table: the FRS after an event, from the
/// "Subgraph" (fixed-point reference) and from the DatalogMTL run.
#[derive(Clone, Copy, Debug)]
pub struct FrsRow {
    /// Event timestamp.
    pub time: i64,
    /// Fixed-point (on-chain) value.
    pub subgraph: f64,
    /// DatalogMTL value.
    pub datalog: f64,
}

impl FrsRow {
    /// The difference column of Figure 4.
    pub fn diff(&self) -> f64 {
        self.datalog - self.subgraph
    }
}

/// Mean/standard deviation of per-trade errors — one column of Figure 5.
#[derive(Clone, Copy, Debug, Default)]
pub struct ErrorStats {
    /// Mean error.
    pub mean: f64,
    /// Standard deviation of the errors.
    pub std_dev: f64,
    /// Largest absolute error.
    pub max_abs: f64,
    /// Number of trades.
    pub count: usize,
}

impl ErrorStats {
    /// Computes the statistics of an error sample.
    pub fn of(errors: &[f64]) -> ErrorStats {
        if errors.is_empty() {
            return ErrorStats::default();
        }
        let n = errors.len() as f64;
        let mean = errors.iter().sum::<f64>() / n;
        let var = errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
        ErrorStats {
            mean,
            std_dev: var.sqrt(),
            max_abs: errors.iter().fold(0.0, |m, e| m.max(e.abs())),
            count: errors.len(),
        }
    }
}

/// The full §4 validation of one interval: Figure 4 rows plus Figure 5
/// statistics.
pub struct ValidationReport {
    /// FRS comparison rows (Figure 4).
    pub frs_rows: Vec<FrsRow>,
    /// Returns-error statistics (Figure 5 column 1).
    pub returns: ErrorStats,
    /// Fee-error statistics (Figure 5 column 2).
    pub fee: ErrorStats,
    /// Funding-error statistics (Figure 5 column 3).
    pub funding: ErrorStats,
    /// The DatalogMTL run.
    pub datalog: MarketRun,
    /// The fixed-point reference run (the "Subgraph" values).
    pub subgraph: MarketRun,
    /// Engine statistics of the DatalogMTL run.
    pub stats: RunStats,
}

impl ValidationReport {
    /// Largest absolute FRS difference across all events.
    pub fn max_frs_diff(&self) -> f64 {
        self.frs_rows.iter().fold(0.0, |m, r| m.max(r.diff().abs()))
    }
}

/// Runs the full validation of §4 on one trace: DatalogMTL vs the
/// fixed-point reference.
pub fn validate(trace: &Trace, params: &MarketParams) -> Result<ValidationReport, HarnessError> {
    let datalog = run_datalog(trace, params)?;
    let subgraph = ReferenceEngine::<Fixed18>::run_trace(*params, trace);
    Ok(build_report(datalog, subgraph))
}

fn build_report(datalog: DatalogRun, subgraph: MarketRun) -> ValidationReport {
    assert_eq!(
        datalog.run.frs.len(),
        subgraph.frs.len(),
        "both engines see every event"
    );
    let frs_rows = datalog
        .run
        .frs
        .iter()
        .zip(&subgraph.frs)
        .map(|(&(t, d), &(t2, s))| {
            debug_assert_eq!(t, t2);
            FrsRow {
                time: t,
                subgraph: s,
                datalog: d,
            }
        })
        .collect();
    assert_eq!(datalog.run.trades.len(), subgraph.trades.len());
    let errors = |f: fn(&crate::types::TradeSettlement) -> f64| -> Vec<f64> {
        datalog
            .run
            .trades
            .iter()
            .zip(&subgraph.trades)
            .map(|(a, b)| f(a) - f(b))
            .collect()
    };
    ValidationReport {
        returns: ErrorStats::of(&errors(|t| t.pnl)),
        fee: ErrorStats::of(&errors(|t| t.fee)),
        funding: ErrorStats::of(&errors(|t| t.funding)),
        frs_rows,
        datalog: datalog.run,
        subgraph,
        stats: datalog.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AccountId, Event, Method};

    fn ev(t: i64, acc: u32, m: Method, price: f64) -> Event {
        Event {
            time: t,
            account: AccountId(acc),
            method: m,
            price,
        }
    }

    /// A small but complete scenario: two traders, deposits, long and short
    /// positions, a midway modification, closes, and a withdrawal.
    fn small_trace() -> Trace {
        Trace {
            start_time: 1_664_000_000,
            end_time: 1_664_000_600,
            initial_skew: -2445.98,
            initial_price: 1362.5,
            events: vec![
                ev(
                    1_664_000_010,
                    1,
                    Method::TransferMargin { amount: 5_000.0 },
                    1362.5,
                ),
                ev(
                    1_664_000_025,
                    1,
                    Method::ModifyPosition { size: 1.5 },
                    1363.0,
                ),
                ev(
                    1_664_000_080,
                    2,
                    Method::TransferMargin { amount: 9_000.0 },
                    1364.0,
                ),
                ev(
                    1_664_000_120,
                    2,
                    Method::ModifyPosition { size: -2.25 },
                    1361.0,
                ),
                ev(
                    1_664_000_200,
                    1,
                    Method::ModifyPosition { size: 0.75 },
                    1360.0,
                ),
                ev(1_664_000_320, 1, Method::ClosePosition, 1359.5),
                ev(1_664_000_400, 2, Method::ClosePosition, 1365.25),
                ev(1_664_000_450, 1, Method::Withdraw, 1365.0),
            ],
        }
    }

    #[test]
    fn datalog_matches_f64_reference_exactly() {
        let trace = small_trace();
        let params = MarketParams::default();
        let datalog = run_datalog(&trace, &params).unwrap();
        let float_ref = ReferenceEngine::<f64>::run_trace(params, &trace);
        assert_eq!(datalog.run.frs.len(), float_ref.frs.len());
        for ((t1, a), (t2, b)) in datalog.run.frs.iter().zip(&float_ref.frs) {
            assert_eq!(t1, t2);
            assert_eq!(a, b, "FRS differs at t={t1}: {a} vs {b}");
        }
        assert_eq!(datalog.run.trades.len(), float_ref.trades.len());
        for (a, b) in datalog.run.trades.iter().zip(&float_ref.trades) {
            assert_eq!(a.account, b.account);
            assert_eq!(a.pnl, b.pnl, "pnl");
            assert_eq!(a.fee, b.fee, "fee");
            assert_eq!(a.funding, b.funding, "funding");
        }
        assert_eq!(datalog.run.final_skew, float_ref.final_skew);
    }

    #[test]
    fn validation_report_shows_dust_vs_subgraph() {
        let trace = small_trace();
        let report = validate(&trace, &MarketParams::default()).unwrap();
        assert_eq!(report.frs_rows.len(), 8);
        assert_eq!(report.returns.count, 2);
        // The float/fixed divergence exists but is dust (the paper's 1e-12
        // "perfect accuracy" claim).
        assert!(report.max_frs_diff() < 1e-9, "{}", report.max_frs_diff());
        assert!(report.returns.max_abs < 1e-6);
        assert!(report.fee.max_abs < 1e-6);
        assert!(report.funding.max_abs < 1e-6);
    }

    #[test]
    fn profiled_run_is_equivalent_and_records_spans() {
        let trace = small_trace();
        let params = MarketParams::default();
        let plain = run_datalog(&trace, &params).unwrap();
        let recorder = chronolog_obs::SpanRecorder::new();
        let config = ReasonerConfig {
            profiler: Some(recorder.clone()),
            ..ReasonerConfig::default()
        };
        let profiled = run_datalog_with(&trace, &params, config).unwrap();
        assert_eq!(plain.run.frs, profiled.run.frs);
        assert_eq!(plain.run.trades, profiled.run.trades);
        assert_eq!(plain.run.final_skew, profiled.run.final_skew);
        assert!(recorder.spans_recorded() > 0, "no spans recorded");
        assert_eq!(recorder.dropped(), 0);
        assert!(
            !recorder.to_folded().trim().is_empty(),
            "folded export empty"
        );
    }

    #[test]
    fn invalid_trace_is_rejected() {
        let mut trace = small_trace();
        trace.events.swap(0, 1);
        assert!(matches!(
            run_datalog(&trace, &MarketParams::default()),
            Err(HarnessError::Trace(_))
        ));
    }
}
