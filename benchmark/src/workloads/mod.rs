//! The four workloads and the frame they share: repeated set-up, timed
//! passes with tracing off, and one traced pass for the per-layer numbers.

pub mod burst_ops;
pub mod fig3_batch;
pub mod fig3_live;
pub mod netting_batch;

use crate::metrics::Outcome;
use crate::probe::{self_times, Probe};
use crate::stats::{decile_growth, fit_line, median, percentile, ratio};
use chronolog_obs::Json;
use std::time::{Duration, Instant};

/// What one invocation asks of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Benchmark seed; 0 is the paper's input.
    pub seed: u64,
    /// Measured time to accumulate over timed passes.
    pub seconds: f64,
    /// Run the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// A tenth of the size and a single pass.
    pub smoke: bool,
}

/// Runs the named workload.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = match workload {
        "fig3_batch" => fig3_batch::run(ctx),
        "fig3_live" => fig3_live::run(ctx),
        "burst_ops" => burst_ops::run(ctx),
        "netting_batch" => netting_batch::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    let share = ratio(out.failed as f64, out.attempted as f64);
    out.set("failed_share", share, out.attempted as usize);
    Ok(out)
}

/// Set-up takes from tens of microseconds (netting) to a millisecond, so
/// it is repeated — at least `SETUP_MIN_REPEATS` times and until
/// `SETUP_MIN_TOTAL` seconds have gone into it — and `setup_s` is the
/// median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 500;
const SETUP_MIN_TOTAL: f64 = 0.05;

/// Sets up repeatedly with tracing off, records the median as `setup_s`,
/// and hands back the last input.
fn timed_setup<I>(
    out: &mut Outcome,
    setup: impl Fn(&Probe) -> Result<I, String>,
) -> Result<I, String> {
    let probe = Probe::off();
    let mut seconds = Vec::new();
    loop {
        let started = Instant::now();
        let input = setup(&probe)?;
        seconds.push(started.elapsed().as_secs_f64());
        let enough =
            seconds.len() >= SETUP_MIN_REPEATS && seconds.iter().sum::<f64>() >= SETUP_MIN_TOTAL;
        if enough || seconds.len() >= SETUP_MAX_REPEATS {
            out.set("setup_s", median(&seconds), seconds.len());
            return Ok(input);
        }
    }
}

/// Repeats timed passes (tracing off) until their summed busy time
/// reaches `ctx.seconds` and at least `min_passes` ran. A traced or smoke
/// invocation runs exactly one.
fn timed_passes<P>(
    ctx: &Ctx,
    min_passes: usize,
    mut pass: impl FnMut(&Probe) -> Result<(P, Duration), String>,
) -> Result<Vec<P>, String> {
    let probe = Probe::off();
    let single = ctx.trace || ctx.smoke;
    let mut passes = Vec::new();
    let mut measured = 0.0;
    loop {
        let (p, busy) = pass(&probe)?;
        measured += busy.as_secs_f64();
        passes.push(p);
        eprintln!("pass {}: {:.3} s", passes.len(), busy.as_secs_f64());
        if single || (passes.len() >= min_passes && measured >= ctx.seconds) {
            return Ok(passes);
        }
    }
}

/// Runs `body` — set-up, one pass, the replays over its final state —
/// under a root span named after the workload, then writes the Chrome
/// trace to `out/trace-<workload>.json` and fills in the self-time table
/// and the layer times taken from span durations.
/// The tracing overhead is what the probe spent on its own spans, as a
/// share of the traced wall: the difference between a traced and an
/// untraced pass, the usual measure, is ±15 % of host noise on this
/// sandbox around a cost of microseconds.
fn traced_pass(
    workload: &'static str,
    out: &mut Outcome,
    body: impl FnOnce(&Probe, &mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    let probe = Probe::tracing();
    let (done, wall) = probe.op(workload, || body(&probe, out));
    done?;
    let recorder = probe.recorder().expect("a tracing probe has a recorder");
    if recorder.dropped() > 0 {
        return Err(format!("{} spans dropped", recorder.dropped()));
    }
    let lanes = recorder.lanes();
    // One client thread and single-threaded engine calls: one lane.
    let records = lanes.first().map(|l| l.1.as_slice()).unwrap_or_default();
    out.self_time = self_times(records);
    let self_us: u64 = out.self_time.iter().map(|r| r.self_us).sum();
    out.set(
        "obs.self_time_cover",
        ratio(self_us as f64, wall.as_secs_f64() * 1e6),
        records.len(),
    );
    out.set(
        "obs.span_overhead_pct",
        100.0 * ratio(probe.bookkeeping().as_secs_f64(), wall.as_secs_f64()),
        records.len(),
    );
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, recorder.to_chrome_trace().to_compact())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    set_span_medians(out, &probe);
    Ok(())
}

/// Records a latency distribution as its median and `p`-th percentile.
fn set_latency(
    out: &mut Outcome,
    p50: &'static str,
    tail: (&'static str, f64),
    samples_ms: &[f64],
) {
    if samples_ms.is_empty() {
        return;
    }
    out.set(p50, median(samples_ms), samples_ms.len());
    out.set(tail.0, percentile(samples_ms, tail.1), samples_ms.len());
}

/// Records the layer times every workload takes from the traced pass's
/// spans: the set-up calls and the parser/analysis/extraction steps.
fn set_span_medians(out: &mut Outcome, probe: &Probe) {
    for (metric, span) in [
        ("market.generate_us", "market.generate"),
        ("perp.program.build_us", "perp.program.build"),
        ("perp.encode.encode_us", "perp.encode.encode"),
        ("perp.extract.extract_us", "perp.extract.extract"),
        ("perp.reference.run_us", "perp.reference.run"),
        ("core.parser.program_us", "core.parser.program"),
        ("core.parser.query_us", "core.parser.query"),
        (
            "core.analysis.reasoner_new_us",
            "core.analysis.reasoner_new",
        ),
        ("core.engine.session.boot_us", "core.engine.session.boot"),
        (
            "core.engine.session.submit_us",
            "core.engine.session.submit",
        ),
        ("core.rewrite.rewrite_us", "core.rewrite.rewrite"),
    ] {
        let samples = probe.samples_ns(span);
        if !samples.is_empty() {
            out.set(metric, median(&samples) / 1e3, samples.len());
        }
    }
}

/// `peak_rss_mb`: the process's resident-set high-water mark so far.
fn set_peak_rss(out: &mut Outcome) {
    out.set("peak_rss_mb", crate::env::peak_rss_mb(), 1);
}

/// One replayed trace's per-event samples, for [`report_advance`].
struct TraceSeries {
    /// Scenario name.
    name: String,
    /// `(seconds since the previous event, advance_to latency in ms)`.
    advance: Vec<(f64, f64)>,
    /// Ingest latency per event, ms.
    ingest_ms: Vec<f64>,
}

/// The advance-cost model, fitted per trace by least squares: advance
/// time = fixed + per-gap-second × (seconds since the previous event).
/// The flat metrics are medians over the traces; the per-trace rows go to
/// the results file.
fn report_advance(series: &[TraceSeries], out: &mut Outcome) {
    let mut fixed = Vec::new();
    let mut per_gap = Vec::new();
    let mut share = Vec::new();
    let mut growth = Vec::new();
    let mut rows = Vec::new();
    for t in series {
        let (a, b) = fit_line(&t.advance);
        let gaps: Vec<f64> = t.advance.iter().map(|p| p.0).collect();
        let ms: Vec<f64> = t.advance.iter().map(|p| p.1).collect();
        let gap_share = ratio(b * median(&gaps), median(&t.ingest_ms));
        let grow = decile_growth(&ms);
        fixed.push(a);
        per_gap.push(b * 1e3);
        share.push(gap_share);
        growth.push(grow);
        let mut row = Json::object();
        row.set("trace", t.name.as_str());
        row.set("events", t.advance.len());
        row.set("median_gap_s", median(&gaps));
        row.set("ingest_p50_ms", median(&t.ingest_ms));
        row.set("advance_fixed_ms", a);
        row.set("advance_us_per_gap_s", b * 1e3);
        row.set("gap_share", gap_share);
        row.set("advance_growth", grow);
        rows.push(row);
    }
    let n = series.len();
    out.set("core.engine.session.advance_fixed_ms", median(&fixed), n);
    out.set(
        "core.engine.session.advance_us_per_gap_s",
        median(&per_gap),
        n,
    );
    out.set("core.engine.session.gap_share", median(&share), n);
    out.set("core.engine.session.advance_growth", median(&growth), n);
    out.advance_fit = rows;
}
