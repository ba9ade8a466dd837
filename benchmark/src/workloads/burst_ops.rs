//! `burst_ops` — a busy market: 256 events in 514 s (one every ≈ 2 s) on
//! the dense timeline, through one live session with an operation mix.
//! Every event is an ingest; every 4th is followed by a goal-driven
//! `margin(acc, M)@t` query; after the replay, 40 price corrections on
//! seeded events of the second half, each followed by its inverse.
//!
//! Why: same program and layer as `fig3_live`, used differently. With 2 s
//! gaps persistence is ≈ 2 rounds per event, so rule evaluation (joins,
//! negation, aggregation, planner), the per-advance fixed cost, the
//! magic/cone rewrite and DRed repair dominate. Reads and out-of-order
//! writes sit beside in-order writes, so an ingest gain bought by dropping
//! indexes or history shows up as a query or correction loss.

use super::{
    report_advance, set_latency, set_peak_rss, timed_passes, timed_setup, traced_pass, Ctx,
    TraceSeries,
};
use crate::gen;
use crate::metrics::Outcome;
use crate::perp::{parser_replay, replay, setup_live, EngineCounts, LiveInput};
use crate::probe::Probe;
use crate::stats::{median, ratio};
use chronolog_core::{parse_query, rewrite, RepairStats, Session, Symbol};
use std::hint::black_box;
use std::time::Duration;

const MIN_PASSES: usize = 2;
/// A goal-driven query follows every 4th ingest.
const QUERY_EVERY: usize = 4;
/// How far a correction moves a price (and its inverse moves it back).
const PRICE_SHIFT: f64 = 0.5;

fn corrections(ctx: &Ctx) -> usize {
    if ctx.smoke {
        4
    } else {
        40
    }
}

fn setup(ctx: &Ctx, probe: &Probe) -> Result<LiveInput, String> {
    setup_live(&gen::burst_config(ctx.smoke), ctx.seed, probe)
}

/// One pass: the replay with its queries, then the corrections.
struct Pass {
    busy: Duration,
    ingest_ms: Vec<f64>,
    advance: Vec<(f64, f64)>,
    query_ms: Vec<f64>,
    correct_ms: Vec<f64>,
    guarded_queries: u64,
    demanded_share_sum: f64,
    session: Session,
}

fn pass(input: &LiveInput, ctx: &Ctx, probe: &Probe, out: &mut Outcome) -> Result<Pass, String> {
    let live = replay(input, Some(QUERY_EVERY), probe, out)?;
    let mut busy = live.busy;
    let mut session = live.session;
    let events = &input.market.trace.events;
    let before = probe.layer("oracle.facts_text", || session.database().to_facts_text());
    let mut correct_ms = Vec::new();
    for idx in gen::correction_targets(ctx.seed, events.len(), corrections(ctx)) {
        let event = &events[idx];
        let recorded = gen::price_fact(event.time, event.price);
        let corrected = gen::price_fact(event.time, event.price + PRICE_SHIFT);
        for (old, new) in [(recorded.clone(), corrected.clone()), (corrected, recorded)] {
            let (report, latency) = probe.op("op.correct", || {
                probe.layer("core.engine.session.correct", || session.correct(old, new))
            });
            busy += latency;
            correct_ms.push(latency.as_secs_f64() * 1e3);
            out.check(
                report
                    .map(|_| ())
                    .map_err(|e| format!("correction of event {idx}: {e}")),
            );
        }
    }
    // Every correction was undone by its inverse: the state is the
    // pre-correction state again, byte for byte.
    let after = probe.layer("oracle.facts_text", || session.database().to_facts_text());
    out.check(if before == after {
        Ok(())
    } else {
        Err("facts after the inverse corrections differ from the facts before".into())
    });
    Ok(Pass {
        busy,
        ingest_ms: live.ingest_ms,
        advance: live.advance,
        query_ms: live.query_ms,
        correct_ms,
        guarded_queries: live.guarded_queries,
        demanded_share_sum: live.demanded_share_sum,
        session,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = timed_setup(&mut out, |probe| setup(ctx, probe))?;
    let mut ingest_ms = Vec::new();
    let mut query_ms = Vec::new();
    let mut correct_ms = Vec::new();
    let passes = timed_passes(ctx, MIN_PASSES, |probe| {
        let p = pass(&input, ctx, probe, &mut out)?;
        ingest_ms.extend(p.ingest_ms);
        query_ms.extend(p.query_ms);
        correct_ms.extend(p.correct_ms);
        let state_bytes = p.session.database().storage_bytes();
        Ok(((p.busy, state_bytes), p.busy))
    })?;
    let busy: Vec<f64> = passes.iter().map(|p| p.0.as_secs_f64()).collect();
    out.set("batch_s", median(&busy), busy.len());
    out.set("state_mb", passes[0].1 as f64 / 1e6, 1);
    set_latency(
        &mut out,
        "ingest_p50_ms",
        ("ingest_p95_ms", 95.0),
        &ingest_ms,
    );
    out.set(
        "events_per_s",
        ratio(ingest_ms.len() as f64, ingest_ms.iter().sum::<f64>() / 1e3),
        ingest_ms.len(),
    );
    set_latency(&mut out, "query_p50_ms", ("query_p90_ms", 90.0), &query_ms);
    set_latency(
        &mut out,
        "correct_p50_ms",
        ("correct_p90_ms", 90.0),
        &correct_ms,
    );
    set_peak_rss(&mut out);

    if ctx.trace {
        traced_pass("burst_ops", &mut out, |probe, out| {
            let input = setup(ctx, probe)?;
            parser_replay(probe);
            let p = pass(&input, ctx, probe, out)?;
            let mut counts = EngineCounts::default();
            counts.add(p.session.stats());
            counts.report(out);
            report_repairs(&p.session.stats().repairs, out);
            report_advance(
                &[TraceSeries {
                    name: input.market.config.name.clone(),
                    advance: p.advance,
                    ingest_ms: p.ingest_ms,
                }],
                out,
            );
            let queries = p.query_ms.len();
            out.set(
                "core.rewrite.guarded_share",
                ratio(p.guarded_queries as f64, queries as f64),
                queries,
            );
            out.set(
                "core.rewrite.demanded_share",
                ratio(p.demanded_share_sum, queries as f64),
                queries,
            );
            rewrite_replay(&input, probe);
            let trace = &input.market.trace;
            crate::replay::run(
                p.session.database(),
                (trace.start_time, trace.end_time),
                ctx.seed,
                probe,
                out,
            );
            Ok(())
        })?;
    }
    Ok(out)
}

/// The `core.engine.session.*` repair metrics, from the session's own
/// counters.
fn report_repairs(r: &RepairStats, out: &mut Outcome) {
    let attempted = r.attempted as f64;
    out.set(
        "core.engine.session.repair_incremental_share",
        ratio(r.incremental as f64, attempted),
        r.attempted as usize,
    );
    out.set(
        "core.engine.session.cone_tuples_per_repair",
        ratio(r.cone_tuples as f64, attempted),
        r.attempted as usize,
    );
    out.set(
        "core.engine.session.overdeleted_components_per_repair",
        ratio(r.overdeleted_components as f64, attempted),
        r.attempted as usize,
    );
}

/// Times the magic-sets rewrite alone for each query the replay issues
/// (`Session::query` runs it internally, where it cannot be seen).
fn rewrite_replay(input: &LiveInput, probe: &Probe) {
    let reserved: Vec<Symbol> = input.encoded.database.predicates().collect();
    for event in input
        .market
        .trace
        .events
        .iter()
        .skip(QUERY_EVERY - 1)
        .step_by(QUERY_EVERY)
    {
        let text = format!("margin({}, M)@{}", event.account, event.time);
        if let Ok(query) = parse_query(&text) {
            black_box(probe.layer("core.rewrite.rewrite", || {
                rewrite::rewrite(&input.program, &query, &reserved)
            }));
        }
    }
}
