//! `fig3_live` — the three Figure-3 traces on the dense timeline through a
//! live `Session` (paper §3.1): boot from the genesis facts, then one
//! ingest (`submit(method) + submit(price) + advance_to(event.time)`) per
//! event, each followed by an untimed state read.
//!
//! Why: it uses the engine the way a contract operator does. Advance cost
//! is (seconds since the previous event) × (per-second round) plus a fixed
//! per-advance cost, and this workload, with gaps of 27–67 s, is dominated
//! by the first term.

use super::{
    report_advance, set_latency, set_peak_rss, timed_passes, timed_setup, traced_pass, Ctx,
    TraceSeries,
};
use crate::gen;
use crate::metrics::Outcome;
use crate::perp::{batch_run, parser_replay, replay, setup_live, EngineCounts, LiveInput};
use crate::probe::Probe;
use crate::stats::{median, ratio};
use chronolog_core::Session;
use std::time::Duration;

const MIN_PASSES: usize = 2;

fn setup(ctx: &Ctx, probe: &Probe) -> Result<Vec<LiveInput>, String> {
    gen::fig3_configs(ctx.smoke)
        .iter()
        .map(|c| setup_live(c, ctx.seed, probe))
        .collect()
}

/// One pass: a full live replay of each trace. Only the session of trace
/// `keep` outlives its replay, so the resident-set peak is that of one
/// session plus the kept one.
struct Pass {
    busy: Duration,
    traces: Vec<TraceSeries>,
    counts: EngineCounts,
    state_bytes: usize,
    kept: Session,
}

fn pass(
    inputs: &[LiveInput],
    keep: usize,
    probe: &Probe,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut busy = Duration::ZERO;
    let mut traces = Vec::new();
    let mut counts = EngineCounts::default();
    let mut state_bytes = 0;
    let mut kept = None;
    for (i, input) in inputs.iter().enumerate() {
        let live = replay(input, None, probe, out)?;
        busy += live.busy;
        counts.add(live.session.stats());
        state_bytes += live.session.database().storage_bytes();
        traces.push(TraceSeries {
            name: input.market.config.name.clone(),
            ingest_ms: live.ingest_ms,
            advance: live.advance,
        });
        if i == keep {
            kept = Some(live.session);
        }
    }
    Ok(Pass {
        busy,
        traces,
        counts,
        state_bytes,
        kept: kept.ok_or("no trace to keep")?,
    })
}

/// The trace whose batch run is cheapest: the one with the fewest events.
fn cheapest(inputs: &[LiveInput]) -> usize {
    (0..inputs.len())
        .min_by_key(|&i| inputs[i].market.trace.event_count())
        .expect("three traces")
}

/// The byte-for-byte oracle: the live session's facts equal the batch
/// run's. Checked on the cheapest trace, after the timed passes, because
/// the batch run it needs costs as much as a pass of `fig3_batch`'s.
fn check_against_batch(input: &LiveInput, session: &Session, out: &mut Outcome) {
    out.check(batch_run(&input.market, &Probe::off()).and_then(|batch| {
        if session.database().to_facts_text() == batch.database.to_facts_text() {
            Ok(())
        } else {
            Err(format!(
                "{}: session facts differ from the batch run's",
                input.market.config.name
            ))
        }
    }));
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = timed_setup(&mut out, |probe| setup(ctx, probe))?;
    let check = cheapest(&inputs);
    let mut kept = None;
    let passes = timed_passes(ctx, MIN_PASSES, |probe| {
        let p = pass(&inputs, check, probe, &mut out)?;
        kept = Some(p.kept);
        Ok(((p.busy, p.state_bytes, p.traces), p.busy))
    })?;
    let busy: Vec<f64> = passes.iter().map(|p| p.0.as_secs_f64()).collect();
    out.set("batch_s", median(&busy), busy.len());
    out.set("state_mb", passes[0].1 as f64 / 1e6, 1);
    let ingest_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.2.iter().flat_map(|t| t.ingest_ms.iter().copied()))
        .collect();
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
    set_peak_rss(&mut out);
    let session = kept.expect("at least one pass ran");
    check_against_batch(&inputs[check], &session, &mut out);
    drop(session);

    if ctx.trace {
        traced_pass("fig3_live", &mut out, |probe, out| {
            let inputs = setup(ctx, probe)?;
            parser_replay(probe);
            let last = inputs.len() - 1;
            let p = pass(&inputs, last, probe, out)?;
            p.counts.report(out);
            report_advance(&p.traces, out);
            let trace = &inputs[last].market.trace;
            crate::replay::run(
                p.kept.database(),
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
