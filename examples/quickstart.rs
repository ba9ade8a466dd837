//! Quickstart: write a DatalogMTL program, load facts, materialize, query,
//! and ask the engine to *explain* a derived fact.
//!
//! ```bash
//! cargo run --release -p chronolog-bench --example quickstart
//! ```

use chronolog_core::{parse_source, Database, Reasoner, ReasonerConfig, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The MARGIN-module skeleton from the paper: a margin account opens on
    // the first deposit, stays open until a withdrawal, and its balance
    // carries over time, changing on later deposits.
    let source = "
        % --- rules (paper rules 1-8, abridged) ---
        isOpen(A) :- tranM(A, M).
        isOpen(A) :- boxminus isOpen(A), not withdraw(A).
        margin(A, M) :- tranM(A, M), not boxminus isOpen(A).
        changeM(A) :- tranM(A, M).
        changeM(A) :- withdraw(A).
        margin(A, M) :- diamondminus margin(A, M), not changeM(A).
        margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.

        % --- facts (Example 3.1 of the paper) ---
        tranM(acc123, 97.0)@9.
        tranM(acc123, 3.0)@10.
        withdraw(acc123)@15.
    ";
    let (program, facts) = parse_source(source)?;
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();

    let config = ReasonerConfig::default().with_horizon(0, 20);
    let reasoner = Reasoner::new(program, config)?;
    let out = reasoner.materialize(&db)?;

    println!("-- margin of acc123 over time --");
    for t in 8..=16 {
        let margin = [97.0, 100.0]
            .iter()
            .find(|&&m| {
                out.database
                    .holds_at("margin", &[Value::sym("acc123"), Value::num(m)], t)
            })
            .copied();
        println!("  t={t:2}  margin = {margin:?}");
    }

    // The paper's Example 3.1: after the second deposit the margin is 100$.
    assert!(out
        .database
        .holds_at("margin", &[Value::sym("acc123"), Value::num(100.0)], 10));
    // The account closes at the withdrawal.
    assert!(!out
        .database
        .holds_at("margin", &[Value::sym("acc123"), Value::num(100.0)], 15));

    println!("\n-- why does margin(acc123, 100$) hold at t=13? --");
    // The tree is rebuilt from the model: nothing was recorded to get it.
    let explanation = reasoner
        .explain(
            &db,
            &out.database,
            "margin",
            &[Value::sym("acc123"), Value::num(100.0)],
            13,
        )?
        .expect("the margin holds at t=13");
    println!("{explanation}");

    println!(
        "\nstats: {:?} iterations/stratum, {} derived tuples, {:?}",
        out.stats.iterations, out.stats.derived_tuples, out.stats.elapsed
    );
    Ok(())
}
