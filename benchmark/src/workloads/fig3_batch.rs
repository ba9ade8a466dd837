//! `fig3_batch` — the paper's §4.2 as printed: the three Figure-3 traces
//! (267/108/128 events, 7200 s windows) on the dense unix-seconds
//! timeline, one thread, batch materialization.
//!
//! Why: it is the paper's number, and it is persistence-bound — about
//! 105 k stratum iterations and 1.65 M interval components for 503 events
//! — so `temporal`, merge/coalesce and the fixpoint loop do nearly all the
//! work while parsing, planning and access-path choice do almost none.

use super::{set_peak_rss, timed_passes, timed_setup, traced_pass, Ctx};
use crate::gen;
use crate::metrics::Outcome;
use crate::perp::{
    batch_run, parser_replay, same_run, setup_market, BatchRun, EngineCounts, Market,
};
use crate::probe::Probe;
use crate::replay;
use crate::stats::median;
use std::time::Duration;

/// The paper's number is reported from at least two full passes.
const MIN_PASSES: usize = 2;

fn setup(ctx: &Ctx, probe: &Probe) -> Result<Vec<Market>, String> {
    gen::fig3_configs(ctx.smoke)
        .iter()
        .map(|c| setup_market(c, ctx.seed, probe))
        .collect()
}

/// One pass: the §4.2 pipeline for each trace, then (untimed) the
/// bit-identical check against the f64 reference.
struct Pass {
    busy: Duration,
    counts: EngineCounts,
    state_bytes: usize,
    last: BatchRun,
}

fn pass(markets: &[Market], probe: &Probe, out: &mut Outcome) -> Result<Pass, String> {
    let mut busy = Duration::ZERO;
    let mut counts = EngineCounts::default();
    let mut state_bytes = 0;
    let mut last = None;
    for market in markets {
        let (run, latency) = probe.op("op.batch", || batch_run(market, probe));
        busy += latency;
        match run {
            Err(e) => out.check(Err(format!("{}: {e}", market.config.name))),
            Ok(run) => {
                out.check(
                    probe.layer("oracle.reference", || same_run(&run.run, &market.reference)),
                );
                counts.add(&run.stats);
                state_bytes += run.database.storage_bytes();
                last = Some(run);
            }
        }
    }
    Ok(Pass {
        busy,
        counts,
        state_bytes,
        last: last.ok_or("no trace could be materialized")?,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let markets = timed_setup(&mut out, |probe| setup(ctx, probe))?;
    // Each pass's final databases are dropped before the next begins, so
    // the resident-set peak is that of one pass.
    let passes = timed_passes(ctx, MIN_PASSES, |probe| {
        pass(&markets, probe, &mut out).map(|p| ((p.busy, p.state_bytes), p.busy))
    })?;
    let busy: Vec<f64> = passes.iter().map(|p| p.0.as_secs_f64()).collect();
    out.set("batch_s", median(&busy), busy.len());
    out.set("state_mb", passes[0].1 as f64 / 1e6, 1);
    set_peak_rss(&mut out);

    if ctx.trace {
        traced_pass("fig3_batch", &mut out, |probe, out| {
            let markets = setup(ctx, probe)?;
            parser_replay(probe);
            let p = pass(&markets, probe, out)?;
            p.counts.report(out);
            let trace = &markets.last().expect("three markets").trace;
            replay::run(
                &p.last.database,
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
