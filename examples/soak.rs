//! The day soak: the paper's §3.1 live contract over Figure-3 window 1
//! stretched in time, against a batch run of the same trace.
//!
//! Window 1 (2022-09-27, 267 events and 59 trades in 2 h) is stretched ×1
//! and ×4 — and by every further factor given as an argument, so `12` adds
//! a day of 3 204 events. Each stretch is replayed the way
//! `live_contract.rs` does it: two `submit` calls and one `advance_to` per
//! event. The batch run materializes the same trace up to its last event,
//! and its facts must equal the session's: the same `to_facts_text`,
//! compared tooth for tooth rather than rendered.
//!
//! ```bash
//! cargo run --release -p chronolog-bench --example soak -- [FACTOR...] [--out PATH]
//! ```
//!
//! Prints one JSON document (to `PATH` with `--out`): per stretch the live
//! and batch wall time, the ingest latency median of the first and of the
//! last fifth of the events, and the session's rule evaluations, probed
//! tuples and derived components. `just soak` writes it to
//! `docs/bench/soak-<rev>.json`.

use chronolog_core::{Database, Interval, Reasoner, ReasonerConfig};
use chronolog_market::{generate, paper_intervals};
use chronolog_obs::Json;
use chronolog_perp::encode::{encode, event_facts, genesis};
use chronolog_perp::{program, MarketParams};
use std::time::Instant;

/// The median of `xs`, or 0 when empty.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Whether every fact of `a` is a fact of `b`, tooth for tooth: a line of
/// [`Database::to_facts_text`] is one tooth of one tuple's validity.
fn contains(a: &Database, b: &Database) -> bool {
    a.iter().all(|(pred, tuple, comps)| {
        let other = b
            .relation(pred)
            .and_then(|r| r.components_of(&tuple.to_vec()))
            .unwrap_or(&[]);
        let teeth = comps.iter().flat_map(Interval::atoms);
        teeth.eq(other.iter().flat_map(Interval::atoms))
    })
}

/// Whether `a` and `b` print the same [`Database::to_facts_text`], compared
/// without rendering it: a day's text runs to gigabytes.
fn same_facts(a: &Database, b: &Database) -> bool {
    contains(a, b) && contains(b, a)
}

/// Replays window 1 stretched by `factor` live and in batch; errors when
/// the two models differ.
fn soak(factor: usize) -> Result<Json, Box<dyn std::error::Error>> {
    let mut config = paper_intervals().swap_remove(0);
    config.duration_secs *= factor as i64;
    config.n_events *= factor;
    config.n_trades *= factor;
    let trace = generate(&config);
    let params = MarketParams::default();
    let last = trace.events.last().ok_or("the trace has no events")?.time;
    let horizon = ReasonerConfig::default().with_horizon(trace.start_time, last);

    let started = Instant::now();
    let mut session = Reasoner::new(program::build(&params)?, horizon.clone())?
        .into_session(&genesis(&trace), trace.start_time)?;
    let mut ingest_ms = Vec::with_capacity(trace.events.len());
    for event in &trace.events {
        let ingest = Instant::now();
        let [call, price] = event_facts(event);
        session.submit(call)?;
        session.submit(price)?;
        session.advance_to(event.time)?;
        ingest_ms.push(ingest.elapsed().as_secs_f64() * 1e3);
    }
    let live_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let batch =
        Reasoner::new(program::build(&params)?, horizon)?.materialize(&encode(&trace).database)?;
    let batch_s = started.elapsed().as_secs_f64();
    if !same_facts(session.database(), &batch.database) {
        return Err(format!("×{factor}: the session's facts differ from the batch run's").into());
    }

    let fifth = (ingest_ms.len() / 5).max(1);
    let first = median(&ingest_ms[..fifth]);
    let last_fifth = median(&ingest_ms[ingest_ms.len() - fifth..]);
    let stats = session.stats();
    eprintln!(
        "×{factor}: {} events, live {live_s:.3} s, batch {batch_s:.3} s, ingest p50 \
         {first:.2} → {last_fifth:.2} ms",
        trace.events.len()
    );
    Ok(Json::from_pairs([
        ("factor", Json::from(factor)),
        ("events", Json::from(trace.events.len())),
        ("live_s", Json::from(live_s)),
        ("batch_s", Json::from(batch_s)),
        ("ingest_p50_ms_first_fifth", Json::from(first)),
        ("ingest_p50_ms_last_fifth", Json::from(last_fifth)),
        ("rule_evaluations", Json::from(stats.rule_evaluations)),
        ("probed_tuples", Json::from(stats.probed_tuples)),
        ("derived_components", Json::from(stats.derived_components)),
    ]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut factors = vec![1, 4];
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out = Some(args.next().ok_or("--out needs a path")?);
        } else {
            let factor: usize = arg
                .parse()
                .map_err(|_| format!("not a stretch factor: {arg}"))?;
            if factor == 0 {
                return Err("a stretch factor is at least 1".into());
            }
            if !factors.contains(&factor) {
                factors.push(factor);
            }
        }
    }
    let runs = factors
        .into_iter()
        .map(soak)
        .collect::<Result<Vec<_>, _>>()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let report = Json::from_pairs([
        ("window", Json::from(paper_intervals()[0].name.as_str())),
        ("nproc", Json::from(nproc)),
        ("runs", Json::from(runs)),
    ])
    .to_pretty();
    match out {
        Some(path) => std::fs::write(&path, report + "\n")?,
        None => println!("{report}"),
    }
    Ok(())
}
