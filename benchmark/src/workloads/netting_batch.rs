//! `netting_batch` — `corpus/netting.dmtl` scaled to 120 counterparties ×
//! 3 trades over `[0, 20]` (29 160 result tuples): batch materialization
//! on one thread and on `min(nproc, 4)` threads side by side, then
//! goal-driven `exposure(cpK, X)` point queries.
//!
//! Why: join-bound with trivial interval algebra (one interval per
//! tuple). Value-index probes, join order, columnar unification and worker
//! hand-off do the work, so it is where planner, index and pool changes
//! show and where persistence work must show nothing.

use super::{set_latency, set_peak_rss, timed_passes, timed_setup, traced_pass, Ctx};
use crate::env::mt_threads;
use crate::gen::{self, Netting, NETTING_WINDOW};
use crate::metrics::Outcome;
use crate::perp::EngineCounts;
use crate::probe::Probe;
use crate::stats::{median, ratio};
use chronolog_core::{
    parse_query, parse_source, rewrite, Database, Materialization, Reasoner, ReasonerConfig, Symbol,
};
use std::hint::black_box;
use std::time::Duration;

const MIN_PASSES: usize = 2;
/// Point queries per pass.
const QUERIES_PER_PASS: usize = 40;

fn setup(ctx: &Ctx, probe: &Probe) -> Netting {
    let queries = if ctx.smoke { 10 } else { QUERIES_PER_PASS };
    probe.layer("market.generate", || {
        gen::netting(ctx.seed, ctx.smoke, queries)
    })
}

/// One batch run, program text to checked model.
struct Batch {
    reasoner: Reasoner,
    input: Database,
    model: Materialization,
}

fn batch(netting: &Netting, threads: usize, probe: &Probe) -> Result<Batch, String> {
    let (program, facts) = probe
        .layer("core.parser.program", || parse_source(&netting.source))
        .map_err(|e| e.to_string())?;
    let config = ReasonerConfig::default()
        .with_horizon(NETTING_WINDOW.0, NETTING_WINDOW.1)
        .with_threads(threads);
    let reasoner = probe
        .layer("core.analysis.reasoner_new", || {
            Reasoner::new(program, config)
        })
        .map_err(|e| e.to_string())?;
    let mut input = Database::new();
    probe
        .layer("core.database.load", || input.extend_facts(&facts))
        .map_err(|e| e.to_string())?;
    let model = probe
        .layer("core.engine.materialize", || reasoner.materialize(&input))
        .map_err(|e| e.to_string())?;
    // The oracle: the model's size equals the ring's closure, computed
    // without the engine (29 160 tuples at every seed).
    let (got, want) = (model.database.tuple_count(), netting.expected_tuples());
    if got != want {
        return Err(format!(
            "model has {got} tuples at {threads} threads, expected {want}"
        ));
    }
    Ok(Batch {
        reasoner,
        input,
        model,
    })
}

/// One pass: a batch run on one thread, one on `min(nproc, 4)`, and the
/// point queries, each checked against a filter of the full model.
struct Pass {
    busy: Duration,
    single: Duration,
    multi: Duration,
    query_ms: Vec<f64>,
    guarded_queries: u64,
    demanded_share_sum: f64,
    pool: EngineCounts,
    state: Batch,
}

fn pass(netting: &Netting, probe: &Probe, out: &mut Outcome) -> Result<Pass, String> {
    let (state, single) = probe.op("op.batch", || batch(netting, 1, probe));
    // Without a model there is nothing to query or compare against.
    let state = state?;
    out.check(Ok(()));
    let threads = mt_threads();
    let (mt, multi) = probe.op("op.batch_mt", || batch(netting, threads, probe));
    let mut pool = EngineCounts::default();
    out.check(mt.map(|b| pool.add(&b.model.stats)));

    let mut query_ms = Vec::new();
    let mut guarded_queries = 0;
    let mut demanded_share_sum = 0.0;
    let model_tuples = state.model.database.tuple_count() as f64;
    for &k in &netting.query_targets {
        let text = format!("exposure(cp{k}, X)");
        let (answer, latency) = probe.op("op.query", || {
            let query = probe.layer("core.parser.query", || parse_query(&text))?;
            let outcome = probe.layer("core.engine.query", || {
                state.reasoner.query(&state.input, &query)
            })?;
            Ok::<_, chronolog_core::Error>((query, outcome))
        });
        query_ms.push(latency.as_secs_f64() * 1e3);
        out.check(match answer {
            Err(e) => Err(format!("query {text}: {e}")),
            Ok((query, outcome)) => {
                if outcome.stats.magic.enabled {
                    guarded_queries += 1;
                }
                demanded_share_sum +=
                    ratio(outcome.stats.magic.demanded_tuples as f64, model_tuples);
                let mut want = probe.layer("oracle.model_filter", || {
                    state.model.database.query(&query.atom, None)
                });
                want.sort_by(|a, b| a.0.cmp(&b.0));
                if outcome.answers == want {
                    Ok(())
                } else {
                    Err(format!("query {text} disagrees with the full model"))
                }
            }
        });
    }
    let busy = single + multi + Duration::from_secs_f64(query_ms.iter().sum::<f64>() / 1e3);
    Ok(Pass {
        busy,
        single,
        multi,
        query_ms,
        guarded_queries,
        demanded_share_sum,
        pool,
        state,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let netting = timed_setup(&mut out, |probe| Ok(setup(ctx, probe)))?;
    let mut query_ms = Vec::new();
    let passes = timed_passes(ctx, MIN_PASSES, |probe| {
        let p = pass(&netting, probe, &mut out)?;
        query_ms.extend(p.query_ms);
        let state_bytes = p.state.model.database.storage_bytes();
        Ok(((p.single, p.multi, state_bytes), p.busy))
    })?;
    let single: Vec<f64> = passes.iter().map(|p| p.0.as_secs_f64()).collect();
    let multi: Vec<f64> = passes.iter().map(|p| p.1.as_secs_f64()).collect();
    out.set("batch_s", median(&single), single.len());
    out.set("batch_mt_s", median(&multi), multi.len());
    out.set(
        "core.engine.pool.mt_speedup",
        ratio(median(&single), median(&multi)),
        single.len(),
    );
    out.set("state_mb", passes[0].2 as f64 / 1e6, 1);
    set_latency(&mut out, "query_p50_ms", ("query_p90_ms", 90.0), &query_ms);
    set_peak_rss(&mut out);

    if ctx.trace {
        traced_pass("netting_batch", &mut out, |probe, out| {
            let netting = setup(ctx, probe);
            let p = pass(&netting, probe, out)?;
            let mut counts = EngineCounts::default();
            counts.add(&p.state.model.stats);
            counts.report(out);
            p.pool.report_pool(mt_threads(), out);
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
            rewrite_replay(&netting, &p.state, probe);
            crate::replay::run(
                &p.state.model.database,
                NETTING_WINDOW,
                ctx.seed,
                probe,
                out,
            );
            Ok(())
        })?;
    }
    Ok(out)
}

/// Times the magic-sets rewrite alone for each query of the pass
/// (`Reasoner::query` runs it internally, where it cannot be seen).
fn rewrite_replay(netting: &Netting, state: &Batch, probe: &Probe) {
    let reserved: Vec<Symbol> = state.input.predicates().collect();
    for &k in &netting.query_targets {
        if let Ok(query) = parse_query(&format!("exposure(cp{k}, X)")) {
            black_box(probe.layer("core.rewrite.rewrite", || {
                rewrite::rewrite(state.reasoner.program(), &query, &reserved)
            }));
        }
    }
}
