//! Goal-driven queries must be invisible on the paper's ETH-PERP program:
//! the magic-sets rewrite may only change *how much* of the model is
//! materialized, never what a query answers. The funding pipeline leans on
//! negation and aggregation, so much of it is unguardable — this pins the
//! graceful-degradation path (cone-restricted evaluation) on the real
//! 52-rule program, not just on synthetic fixtures.

use chronolog_core::{parse_query, Reasoner, ReasonerConfig};
use chronolog_perp::encode::encode;
use chronolog_perp::{program, MarketParams};

#[cfg_attr(debug_assertions, ignore = "slow in debug profile; run with --release")]
#[test]
fn perp_queries_match_full_materialization() {
    let config = chronolog_market::paper_intervals().remove(1);
    let trace = chronolog_market::generate(&config);
    let params = MarketParams::default();
    let program = program::build(&params).unwrap();
    let encoded = encode(&trace);

    let reasoner = Reasoner::new(
        program,
        ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1),
    )
    .unwrap();
    let full = reasoner.materialize(&encoded.database).unwrap();

    for text in ["frs(F)", "skew(K)", "price(P)"] {
        let query = parse_query(text).unwrap();
        let mut expected = full.database.query(&query.atom, None);
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        let outcome = reasoner.query(&encoded.database, &query).unwrap();
        // A persisted answer is one strided component in the full model
        // and single points on the goal-driven path: compare point sets.
        assert_eq!(
            outcome.answers, expected,
            "query {text} diverged from the full materialization \
             (mode {}, degraded {})",
            outcome.stats.magic.mode, outcome.stats.magic.degraded
        );
    }
}
