//! End-to-end integration: market simulator → hash-chained ledger →
//! Subgraph index → DatalogMTL execution → §4 validation, on all three
//! Figure-3 intervals.

use chronolog_bench::paper_traces;
use chronolog_ledger::{Ledger, SubgraphIndex};
use chronolog_perp::harness::{run_datalog, validate};
use chronolog_perp::{MarketParams, ReferenceEngine};

#[test]
fn figure_3_intervals_validate_end_to_end() {
    let params = MarketParams::default();
    for (config, trace) in paper_traces() {
        // Ledger round-trip keeps the trace intact.
        let ledger = Ledger::from_trace(&trace).expect("valid trace");
        ledger.verify_chain().expect("chain intact");
        assert_eq!(ledger.to_trace(), trace);

        // §4 validation: DatalogMTL vs the fixed-point Subgraph stand-in.
        let report = validate(&trace, &params).unwrap_or_else(|e| panic!("{}: {e}", config.name));
        assert_eq!(report.frs_rows.len(), config.n_events, "{}", config.name);
        assert_eq!(
            report.datalog.trades.len(),
            config.n_trades,
            "{}",
            config.name
        );

        // Figure 4 claim: FRS differences are floating-point dust.
        assert!(
            report.max_frs_diff() < 1e-9,
            "{}: max FRS diff {}",
            config.name,
            report.max_frs_diff()
        );
        // Figure 5 claim: per-trade errors are dust on ~1e3-magnitude values.
        for (label, stats) in [
            ("returns", &report.returns),
            ("fee", &report.fee),
            ("funding", &report.funding),
        ] {
            assert!(
                stats.max_abs < 1e-6,
                "{}: {label} max error {}",
                config.name,
                stats.max_abs
            );
        }

        // The Subgraph index agrees with the harness's reference run.
        let index = SubgraphIndex::build(&ledger, params);
        assert_eq!(index.trades().len(), config.n_trades);
        for (a, b) in index.trades().iter().zip(&report.subgraph.trades) {
            assert_eq!(a, b);
        }
    }
}

#[test]
fn datalog_is_bit_identical_to_float_reference_on_paper_intervals() {
    // The strongest encoding-correctness statement: with identical (f64)
    // arithmetic, the declarative and procedural engines agree exactly on
    // every FRS value and every settlement of all three intervals.
    let params = MarketParams::default();
    for (config, trace) in paper_traces() {
        let datalog =
            run_datalog(&trace, &params).unwrap_or_else(|e| panic!("{}: {e}", config.name));
        let float_ref = ReferenceEngine::<f64>::run_trace(params, &trace);
        assert_eq!(datalog.run.frs, float_ref.frs, "{}", config.name);
        assert_eq!(datalog.run.trades, float_ref.trades, "{}", config.name);
        assert_eq!(datalog.run.final_skew, float_ref.final_skew);
    }
}

#[test]
fn custom_market_params_flow_through_the_whole_stack() {
    // Different fee/funding parameters must reach both engines (the program
    // text is regenerated), keeping them in exact agreement.
    let params = MarketParams {
        taker_fee: 0.01,
        maker_fee: 0.0001,
        max_funding_rate: 0.25,
        skew_scale_notional: 1_000_000.0,
        funding_period_secs: 3_600.0,
    };
    let (_, trace) = &paper_traces()[1];
    let datalog = run_datalog(trace, &params).unwrap();
    let float_ref = ReferenceEngine::<f64>::run_trace(params, trace);
    assert_eq!(datalog.run.trades, float_ref.trades);
    // Sanity: the aggressive parameters actually change the outcome.
    let default_ref = ReferenceEngine::<f64>::run_trace(MarketParams::default(), trace);
    assert_ne!(float_ref.trades, default_ref.trades);
}

/// Block-by-block replay: seal a window into a chain, feed each block's
/// transactions to the live session, advance once per block — and get the
/// same materialization as the batch run. This is the deployment shape the
/// paper's conclusion gestures at (an L2 feeding a reasoning node).
#[test]
fn chain_replay_block_by_block_equals_batch() {
    use chronolog_core::{Reasoner, ReasonerConfig};
    use chronolog_ledger::Chain;
    use chronolog_perp::encode::{encode, event_facts, genesis};
    use chronolog_perp::{program, AccountId, Event};

    let params = MarketParams::default();
    let config = chronolog_market::ScenarioConfig::new("chain", 31, 0, 20, 6, -300.0, 1400.0);
    let trace = chronolog_market::generate(&config);
    let ledger = Ledger::from_trace(&trace).unwrap();
    let chain = Chain::seal(&ledger, 120).unwrap(); // 2-minute blocks
    chain.verify().unwrap();
    assert!(chain.blocks.len() > 1, "window spans several blocks");

    // Batch reference.
    let program = program::build(&params).unwrap();
    let encoded = encode(&trace);
    let horizon = ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1);
    let batch = Reasoner::new(program.clone(), horizon.clone())
        .unwrap()
        .materialize(&encoded.database)
        .unwrap()
        .database;

    // Per-block session replay.
    let mut session = Reasoner::new(program, horizon)
        .unwrap()
        .into_session(&genesis(&trace), trace.start_time)
        .unwrap();
    for block in &chain.blocks {
        for tx in &block.txs {
            let event = Event {
                time: tx.time,
                account: AccountId(tx.account),
                method: tx.method.into(),
                price: tx.price,
            };
            for fact in event_facts(&event) {
                session.submit(fact).unwrap();
            }
        }
        // One advance per sealed block.
        session.advance_to(block.timestamp).unwrap();
    }
    session.advance_to(trace.end_time).unwrap();
    assert_eq!(session.database().to_facts_text(), batch.to_facts_text());
    // Far fewer advances than transactions.
    assert!(chain.blocks.len() < chain.tx_count());
}
