//! A full ETH-PERP trading session: simulate a market window, execute the
//! smart contract *declaratively* (the DatalogMTL program) and
//! *procedurally* (the fixed-point reference = the on-chain arithmetic),
//! and compare every settlement — the paper's §4 validation in miniature.
//!
//! ```bash
//! cargo run --release -p chronolog-bench --example perp_trading
//! ```

use chronolog_market::{generate, ScenarioConfig, TraceStats};
use chronolog_perp::harness::validate;
use chronolog_perp::MarketParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A half-hour window with 40 interactions and 10 completed trades,
    // starting long-skewed.
    let mut config =
        ScenarioConfig::new("demo session", 0xE7E7, 1_664_274_600, 40, 10, 850.0, 1330.0);
    config.duration_secs = 1_800;
    let trace = generate(&config);
    let stats = TraceStats::of(&trace);
    println!("simulated window: {stats:#?}\n");

    let params = MarketParams::default();
    let report = validate(&trace, &params)?;

    println!("funding rate sequence (first 5 events):");
    for row in report.frs_rows.iter().take(5) {
        println!(
            "  t={}  F(t) = {:+.12}   (vs on-chain {:+.12}, diff {:+.2e})",
            row.time,
            row.datalog,
            row.subgraph,
            row.diff()
        );
    }

    println!("\nsettled trades (DatalogMTL):");
    for trade in &report.datalog.trades {
        println!(
            "  {} closed at t={}:  pnl {:+10.4}$   fee {:8.4}$   funding {:+10.6}$",
            trade.account, trade.time, trade.pnl, trade.fee, trade.funding
        );
    }

    println!("\nvalidation vs the fixed-point (on-chain) arithmetic:");
    println!("  max |FRS diff|     = {:.3e}", report.max_frs_diff());
    println!(
        "  returns: mean {:+.3e}  std {:.3e}",
        report.returns.mean, report.returns.std_dev
    );
    println!(
        "  fees:    mean {:+.3e}  std {:.3e}",
        report.fee.mean, report.fee.std_dev
    );
    println!(
        "  funding: mean {:+.3e}  std {:.3e}",
        report.funding.mean, report.funding.std_dev
    );
    println!(
        "\nengine: {} derived tuples in {:?}",
        report.stats.derived_tuples, report.stats.elapsed
    );

    assert!(report.max_frs_diff() < 1e-9, "the two engines must agree");
    println!("\nOK: the declarative contract reproduces the market exactly.");
    Ok(())
}
