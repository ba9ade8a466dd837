//! Property-based cross-validation of the whole stack on random market
//! scenarios: the declarative contract must equal the procedural reference
//! bit-for-bit under identical arithmetic, for *any* valid trader behavior.
//!
//! Randomness comes from the deterministic in-repo `SmallRng`, one seed per
//! case, so failures reproduce from the printed case number.

use chronolog_ledger::{from_json, to_json, Ledger, SubgraphIndex};
use chronolog_market::{generate, ScenarioConfig};
use chronolog_obs::SmallRng;
use chronolog_perp::harness::run_datalog;
use chronolog_perp::{MarketParams, ReferenceEngine};

const CASES: u64 = 24;

fn gen_scenario(rng: &mut SmallRng) -> ScenarioConfig {
    let seed = rng.next_u64();
    let events = rng.gen_range_usize(4, 26);
    let skew = rng.gen_range_f64(-5_000.0, 5_000.0);
    let price = rng.gen_range_f64(900.0, 2_200.0);
    let max_trades = (events - 1) / 2;
    let trades = rng.gen_range_usize(0, max_trades + 1);
    ScenarioConfig::new("prop", seed, 1_000_000, events, trades, skew, price)
}

fn for_each_case(test: &str, f: impl Fn(&mut SmallRng)) {
    for case in 0..CASES {
        let tag = test.bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100000001b3).wrapping_add(b as u64)
        });
        let mut rng = SmallRng::seed_from_u64(tag ^ case.wrapping_mul(0x9E3779B9));
        f(&mut rng);
    }
}

/// The headline theorem of the reproduction: on any valid trace, the
/// DatalogMTL materialization and the imperative engine produce the
/// same FRS and the same settlements, to the last bit.
#[test]
fn declarative_equals_procedural() {
    for_each_case("declarative", |rng| {
        let config = gen_scenario(rng);
        let params = MarketParams::default();
        let trace = generate(&config);
        let datalog = run_datalog(&trace, &params).unwrap();
        let reference = ReferenceEngine::<f64>::run_trace(params, &trace);
        assert_eq!(&datalog.run.frs, &reference.frs, "config {config:?}");
        assert_eq!(&datalog.run.trades, &reference.trades, "config {config:?}");
        assert_eq!(
            datalog.run.final_skew, reference.final_skew,
            "config {config:?}"
        );
    });
}

/// Ledger persistence is lossless and tamper-evident for any trace.
#[test]
fn ledger_roundtrip_is_lossless() {
    for_each_case("roundtrip", |rng| {
        let config = gen_scenario(rng);
        let trace = generate(&config);
        let ledger = Ledger::from_trace(&trace).unwrap();
        let back = from_json(&to_json(&ledger).unwrap()).unwrap();
        assert_eq!(&back, &ledger, "config {config:?}");
        assert_eq!(back.to_trace(), trace, "config {config:?}");
    });
}

/// Subgraph index invariants: one settlement per closePos, and the
/// final skew equals initial skew plus all net order flow.
#[test]
fn subgraph_invariants() {
    for_each_case("subgraph", |rng| {
        let config = gen_scenario(rng);
        let trace = generate(&config);
        let ledger = Ledger::from_trace(&trace).unwrap();
        let index = SubgraphIndex::build(&ledger, MarketParams::default());
        assert_eq!(
            index.trades().len(),
            trace.trade_count(),
            "config {config:?}"
        );
        // Every account's trades are a partition of all trades.
        let per_account: usize = trace
            .accounts()
            .iter()
            .map(|&a| index.trades_of(a).len())
            .sum();
        assert_eq!(per_account, index.trades().len(), "config {config:?}");
        // All positions that opened were closed or still net out in skew:
        // final skew minus initial equals the sum of surviving positions.
        let open_sizes: f64 = {
            let mut engine = ReferenceEngine::<f64>::new(
                MarketParams::default(),
                trace.initial_skew,
                trace.start_time,
            );
            for e in &trace.events {
                engine.apply(e);
            }
            trace
                .accounts()
                .iter()
                .filter_map(|&a| engine.position(a))
                .map(|(s, _)| s)
                .sum()
        };
        assert!(
            (index.final_skew() - trace.initial_skew - open_sizes).abs() < 1e-6,
            "skew accounting: {} vs {} + {} (config {config:?})",
            index.final_skew(),
            trace.initial_skew,
            open_sizes
        );
    });
}

/// Fees are always non-negative and monotone in trade size.
#[test]
fn settlement_sanity() {
    for_each_case("settlement", |rng| {
        let config = gen_scenario(rng);
        let trace = generate(&config);
        let reference = ReferenceEngine::<f64>::run_trace(MarketParams::default(), &trace);
        for t in &reference.trades {
            assert!(t.fee >= 0.0, "fee {} negative (config {config:?})", t.fee);
            assert!(
                t.fee.is_finite() && t.pnl.is_finite() && t.funding.is_finite(),
                "non-finite settlement (config {config:?})"
            );
        }
    });
}

/// The §3.1 execution model, live: stream a market window through a
/// [`chronolog_core::Session`] one event at a time (the "memory-resident"
/// smart contract) and compare with the one-shot batch materialization.
#[test]
fn live_session_equals_batch_on_streamed_markets() {
    use chronolog_core::{Reasoner, ReasonerConfig};
    use chronolog_perp::encode::{encode, event_facts, genesis};
    use chronolog_perp::program;

    let params = MarketParams::default();
    for seed in [1u64, 2, 3] {
        let config = ScenarioConfig::new("live", seed, 0, 14, 4, 75.0, 1420.0);
        let trace = generate(&config);
        let program = program::build(&params).unwrap();

        // Batch run.
        let encoded = encode(&trace);
        let horizon = ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1);
        let batch = Reasoner::new(program.clone(), horizon.clone())
            .unwrap()
            .materialize(&encoded.database)
            .unwrap()
            .database;

        // Streamed session: genesis facts at the window start, then one
        // advance per event, then the quiet tail of the window.
        let mut session = Reasoner::new(program, horizon)
            .unwrap()
            .into_session(&genesis(&trace), trace.start_time)
            .unwrap();
        for event in &trace.events {
            for fact in event_facts(event) {
                session.submit(fact).unwrap();
            }
            session.advance_to(event.time).unwrap();
        }
        session.advance_to(trace.end_time).unwrap();
        assert_eq!(
            session.database().to_facts_text(),
            batch.to_facts_text(),
            "seed {seed}: live session diverged from batch materialization"
        );
    }
}
