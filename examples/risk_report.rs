//! The supervisor's view the paper motivates in its conclusion: replay a
//! persisted on-chain ledger, track every margin account over time, query
//! the Subgraph-like index, and *explain* a settlement as a derivation tree
//! over contract rules and user actions.
//!
//! ```bash
//! cargo run --release -p chronolog-bench --example risk_report
//! ```

use chronolog_core::{Reasoner, ReasonerConfig};
use chronolog_ledger::{from_json, to_json, Ledger, SubgraphIndex};
use chronolog_market::{generate, ScenarioConfig};
use chronolog_perp::encode::{account_value, encode};
use chronolog_perp::extract::margin_at;
use chronolog_perp::{program, MarketParams, Method};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A market window arrives as a persisted ledger (e.g. from an
    //    archive node). We simulate one and round-trip it through JSON.
    let mut config =
        ScenarioConfig::new("audited window", 77, 1_665_165_600, 24, 6, -420.0, 1350.0);
    config.duration_secs = 1_200;
    let trace = generate(&config);
    let ledger = Ledger::from_trace(&trace)?;
    let json = to_json(&ledger)?;
    let ledger = from_json(&json)?; // chain verified on load
    println!(
        "loaded ledger: {} records, chain verified, window {}s",
        ledger.len(),
        ledger.end_time - ledger.start_time
    );

    // 2. The Subgraph-style index answers the usual analytics queries.
    let params = MarketParams::default();
    let index = SubgraphIndex::build(&ledger, params);
    println!("\n-- protocol analytics (fixed-point, as on-chain) --");
    println!("  settled trades : {}", index.trades().len());
    println!("  aggregate PnL  : {:+.4}$", index.total_pnl());
    println!("  fees collected : {:.4}$", index.total_fees());
    println!("  final skew     : {:+.4}", index.final_skew());

    // 3. The declarative run gives the supervisor the *full state history*:
    //    every margin account at every second, each amount explainable.
    let trace = ledger.to_trace();
    let program = program::build(&params)?;
    let encoded = encode(&trace);
    let reasoner = Reasoner::new(
        program,
        ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1),
    )?;
    let out = reasoner.materialize(&encoded.database)?;

    println!("\n-- margin evolution per account (rows = interactions) --");
    let accounts = trace.accounts();
    print!("    t+ |");
    for a in &accounts {
        print!(" {a:>10} |");
    }
    println!();
    for t in std::iter::once(trace.start_time).chain(trace.events.iter().map(|e| e.time)) {
        print!("{:5}s |", t - trace.start_time);
        for a in &accounts {
            match margin_at(&out.database, *a, t) {
                Some(m) => print!(" {m:10.2} |"),
                None => print!(" {:>10} |", "-"),
            }
        }
        println!();
    }

    // 4. Explainability: pick the first settlement and ask *why*.
    let close = trace
        .events
        .iter()
        .find(|e| matches!(e.method, Method::ClosePosition))
        .expect("the window contains trades");
    let (account, close_time) = (close.account, close.time);
    let pnl = index.trades_of(account)[0].pnl;
    println!("\n-- why did {account} settle pnl {pnl:+.4}$ at unix {close_time}? --");
    // Find the pnl value the DatalogMTL run derived (bit-equal to f64 ref).
    let derived = chronolog_perp::extract::position_at(&out.database, account, close_time - 1);
    println!("position before close: {derived:?}");
    // Locate the derived pnl fact's value by scanning the relation.
    let acc_val = account_value(account);
    let pnl_tuple = out
        .database
        .relation(chronolog_core::Symbol::new("pnl"))
        .and_then(|rel| {
            rel.iter().find(|(tuple, ivs)| {
                tuple.value(0).semantic_eq(&acc_val)
                    && chronolog_core::IntervalSet::components_contain(
                        ivs,
                        chronolog_core::Rational::integer(close_time),
                    )
            })
        })
        .map(|(tuple, _)| tuple.to_vec());
    if let Some(tuple) = pnl_tuple {
        let tree = reasoner.explain(&encoded.database, &out.database, "pnl", &tuple, close_time)?;
        if let Some(explanation) = tree {
            println!("{explanation}");
        }
    }

    // The declarative PnL agrees with the on-chain value to fixed-point dust.
    let datalog_run = chronolog_perp::extract::extract_run(&out.database, &trace, &encoded)?;
    let declarative_pnl = datalog_run
        .trades
        .iter()
        .find(|t| t.account == account)
        .expect("settled")
        .pnl;
    assert!((declarative_pnl - pnl).abs() < 1e-6);
    println!("\ndeclarative PnL {declarative_pnl:+.6}$ == on-chain {pnl:+.6}$ (to EVM dust)");
    Ok(())
}
