//! The paper's §3.1 execution model, live: the ETH-PERP program runs in a
//! long-lived reasoning [`Session`] that "continuously takes as input the
//! actions that the users send to the smart contract … and updates
//! multiple state amounts". Method calls stream in one by one; the
//! watermark advances; contract state is queryable at every step and is
//! *final* once derived (forward-propagating fragment).
//!
//! ```bash
//! cargo run --release -p chronolog-bench --example live_contract
//! ```

use chronolog_core::{Reasoner, ReasonerConfig};
use chronolog_market::{generate, ScenarioConfig};
use chronolog_perp::encode::{event_facts, genesis};
use chronolog_perp::extract::{margin_at, position_at};
use chronolog_perp::{program, MarketParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = MarketParams::default();
    let mut config = ScenarioConfig::new("live demo", 404, 1_665_583_200, 18, 5, 2502.85, 1290.0);
    config.duration_secs = 900;
    let trace = generate(&config);

    // Boot the contract: genesis facts at the window start, empty order book.
    let program = program::build(&params)?;
    let horizon = ReasonerConfig::default().with_horizon(trace.start_time, trace.end_time);
    let mut contract =
        Reasoner::new(program, horizon)?.into_session(&genesis(&trace), trace.start_time)?;

    println!(
        "contract booted at unix {}, skew {:+.2}\n",
        trace.start_time, trace.initial_skew
    );

    // Stream every on-chain interaction into the running contract.
    for event in &trace.events {
        let [call, price] = event_facts(event);
        let label = call.to_string();
        contract.submit(call)?;
        contract.submit(price)?;
        contract.advance_to(event.time)?;

        // Query the live state right after the interaction.
        let db = contract.database();
        let margin = margin_at(db, event.account, event.time);
        let position = position_at(db, event.account, event.time);
        println!(
            "t+{:>4}s  {label:<40} -> margin {}  position {}",
            event.time - trace.start_time,
            margin.map_or("-".into(), |m| format!("{m:10.2}$")),
            position.map_or("-".into(), |(s, _)| format!("{s:+.4} ETH")),
        );
    }

    println!(
        "\nwatermark {}  |  {} tuples materialized  |  cumulative reasoning {:?}",
        contract.now(),
        contract.database().tuple_count(),
        contract.stats().elapsed
    );
    Ok(())
}
