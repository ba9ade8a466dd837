//! What the three ETH-PERP workloads share: a generated market with its
//! reference run, the batch pipeline of §4.2, the live replay of §3.1, and
//! the engine counters both report.

use crate::gen;
use crate::metrics::Outcome;
use crate::probe::Probe;
use crate::stats::ratio;
use chronolog_core::{
    parse_program, parse_query, Database, Program, Reasoner, ReasonerConfig, RunStats, Session,
};
use chronolog_market::ScenarioConfig;
use chronolog_perp::encode::{encode_trace, EncodedTrace};
use chronolog_perp::extract::{extract_run, margin_at, position_at};
use chronolog_perp::program::{build_program, program_source, TimelineMode};
use chronolog_perp::{MarketParams, MarketRun, ReferenceEngine, Trace};
use std::hint::black_box;
use std::time::Duration;

/// The paper's execution model: one timeline point per unix second.
pub const MODE: TimelineMode = TimelineMode::DenseSeconds;

/// One generated market window with the oracle's answer for it.
pub struct Market {
    /// The scenario the trace was generated from.
    pub config: ScenarioConfig,
    /// The generated event stream.
    pub trace: Trace,
    /// What `ReferenceEngine::<f64>` computes for the trace.
    pub reference: MarketRun,
}

/// Generates a market and its reference run.
pub fn setup_market(config: &ScenarioConfig, seed: u64, probe: &Probe) -> Result<Market, String> {
    let trace = probe.layer("market.generate", || gen::trace_of(config, seed))?;
    let reference = probe.layer("perp.reference.run", || {
        ReferenceEngine::<f64>::run_trace(MarketParams::default(), &trace)
    });
    Ok(Market {
        config: config.clone(),
        trace,
        reference,
    })
}

/// The oracle check of every perp workload: the DatalogMTL run equals the
/// reference run bit for bit.
pub fn same_run(got: &MarketRun, want: &MarketRun) -> Result<(), String> {
    let bits = |v: &[(i64, f64)]| -> Vec<(i64, u64)> {
        v.iter().map(|&(t, x)| (t, x.to_bits())).collect()
    };
    if bits(&got.frs) != bits(&want.frs) {
        return Err("funding rate sequence differs from the f64 reference".into());
    }
    if got.trades.len() != want.trades.len() {
        return Err(format!(
            "{} settlements, reference has {}",
            got.trades.len(),
            want.trades.len()
        ));
    }
    for (a, b) in got.trades.iter().zip(&want.trades) {
        let same = a.account == b.account
            && a.time == b.time
            && a.pnl.to_bits() == b.pnl.to_bits()
            && a.fee.to_bits() == b.fee.to_bits()
            && a.funding.to_bits() == b.funding.to_bits();
        if !same {
            return Err(format!(
                "settlement at {} differs from the reference",
                a.time
            ));
        }
    }
    if got.final_skew.to_bits() != want.final_skew.to_bits() {
        return Err("final skew differs from the reference".into());
    }
    Ok(())
}

/// Sums of the counters `RunStats` returns, over the materializations of
/// one pass.
#[derive(Clone, Debug, Default)]
pub struct EngineCounts {
    iterations: u64,
    rule_evaluations: u64,
    derivations: u64,
    components_emitted: u64,
    components_added: u64,
    index_probes: u64,
    full_scans: u64,
    scanned_tuples: u64,
    probed_tuples: u64,
    time_index_probes: u64,
    plans_built: u64,
    replans: u64,
    estimated_rows: u64,
    actual_rows: u64,
    pool_reuses: u64,
    pool_respawns: u64,
    worker_busy: Duration,
    elapsed: Duration,
}

impl EngineCounts {
    /// Adds one run's counters.
    pub fn add(&mut self, s: &RunStats) {
        self.iterations += s.iterations.iter().sum::<usize>() as u64;
        self.rule_evaluations += s.rule_evaluations as u64;
        for r in &s.rules {
            self.derivations += r.derivations as u64;
            self.components_emitted += r.components_emitted as u64;
            self.components_added += r.components_added as u64;
        }
        self.index_probes += s.index_probes;
        self.full_scans += s.full_scans;
        self.scanned_tuples += s.scanned_tuples;
        self.probed_tuples += s.probed_tuples;
        self.time_index_probes += s.time_index_probes;
        self.plans_built += s.plans_built;
        self.replans += s.replans;
        self.estimated_rows += s.planner_estimated_rows;
        self.actual_rows += s.planner_actual_rows;
        self.pool_reuses += s.pool_reuses;
        self.pool_respawns += s.pool_respawns;
        self.worker_busy += s.workers.iter().map(|w| w.busy).sum::<Duration>();
        self.elapsed += s.elapsed;
    }

    /// Writes the `core.engine.*` fixpoint, access-path and planner
    /// metrics.
    pub fn report(&self, out: &mut Outcome) {
        let n = |v: u64| v as f64;
        out.set("core.engine.materialize_s", self.elapsed.as_secs_f64(), 1);
        out.set("core.engine.iterations", n(self.iterations), 1);
        out.set(
            "core.engine.us_per_iteration",
            ratio(self.elapsed.as_secs_f64() * 1e6, n(self.iterations)),
            1,
        );
        out.set("core.engine.rule_evaluations", n(self.rule_evaluations), 1);
        out.set("core.engine.derivations", n(self.derivations), 1);
        out.set(
            "core.engine.components_emitted",
            n(self.components_emitted),
            1,
        );
        out.set("core.engine.components_added", n(self.components_added), 1);
        out.set(
            "core.engine.merge_yield",
            ratio(n(self.components_added), n(self.components_emitted)),
            1,
        );
        out.set("core.engine.index_probes", n(self.index_probes), 1);
        out.set("core.engine.full_scans", n(self.full_scans), 1);
        out.set("core.engine.scanned_tuples", n(self.scanned_tuples), 1);
        out.set("core.engine.probed_tuples", n(self.probed_tuples), 1);
        out.set(
            "core.engine.time_index_probes",
            n(self.time_index_probes),
            1,
        );
        out.set("core.engine.plans_built", n(self.plans_built), 1);
        out.set("core.engine.replans", n(self.replans), 1);
        out.set(
            "core.engine.estimate_error",
            ratio(n(self.estimated_rows), n(self.actual_rows)),
            1,
        );
    }

    /// Writes the `core.engine.pool.*` metrics of a pass run on `threads`
    /// workers.
    pub fn report_pool(&self, threads: usize, out: &mut Outcome) {
        out.set(
            "core.engine.pool.busy_share",
            ratio(
                self.worker_busy.as_secs_f64(),
                threads as f64 * self.elapsed.as_secs_f64(),
            ),
            1,
        );
        out.set("core.engine.pool.reuses", self.pool_reuses as f64, 1);
        out.set("core.engine.pool.respawns", self.pool_respawns as f64, 1);
    }
}

/// The end state of one batch run.
pub struct BatchRun {
    /// The materialization.
    pub database: Database,
    /// Its statistics.
    pub stats: RunStats,
    /// The observable market run extracted from it.
    pub run: MarketRun,
}

/// The paper's §4.2 pipeline for one trace, input to extracted result:
/// `validate → build_program → encode_trace → Reasoner::new → materialize
/// → extract_run`, single-threaded.
pub fn batch_run(market: &Market, probe: &Probe) -> Result<BatchRun, String> {
    let trace = &market.trace;
    trace.validate()?;
    let program = probe
        .layer("perp.program.build", || {
            build_program(&MarketParams::default(), MODE)
        })
        .map_err(|e| e.to_string())?;
    let encoded = probe.layer("perp.encode.encode", || encode_trace(trace, MODE));
    let config = ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1);
    let reasoner = probe
        .layer("core.analysis.reasoner_new", || {
            Reasoner::new(program, config)
        })
        .map_err(|e| e.to_string())?;
    let m = probe
        .layer("core.engine.materialize", || {
            reasoner.materialize(&encoded.database)
        })
        .map_err(|e| e.to_string())?;
    let run = probe
        .layer("perp.extract.extract", || {
            extract_run(&m.database, trace, &encoded)
        })
        .map_err(|e| e.to_string())?;
    Ok(BatchRun {
        database: m.database,
        stats: m.stats,
        run,
    })
}

/// What a live workload prepares once per market: the compiled program
/// and the encoded trace (`extract_run` needs its event coordinates).
pub struct LiveInput {
    /// The market.
    pub market: Market,
    /// The ETH-PERP program on the dense timeline.
    pub program: Program,
    /// The trace's encoding (used for extraction only; the session never
    /// sees it).
    pub encoded: EncodedTrace,
}

/// Generates a market and compiles what its live replay needs.
pub fn setup_live(config: &ScenarioConfig, seed: u64, probe: &Probe) -> Result<LiveInput, String> {
    let market = setup_market(config, seed, probe)?;
    market.trace.validate()?;
    let program = probe
        .layer("perp.program.build", || {
            build_program(&MarketParams::default(), MODE)
        })
        .map_err(|e| e.to_string())?;
    let encoded = probe.layer("perp.encode.encode", || encode_trace(&market.trace, MODE));
    Ok(LiveInput {
        market,
        program,
        encoded,
    })
}

/// Latencies and state of one live replay.
pub struct Live {
    /// The session, advanced to the end of the window.
    pub session: Session,
    /// Summed latency of every timed operation: boot, ingests, queries
    /// and the final advance.
    pub busy: Duration,
    /// `submit + submit + advance_to` latency per event, milliseconds.
    pub ingest_ms: Vec<f64>,
    /// Per event: seconds since the previous event (or the window start)
    /// and the latency of `advance_to` alone, milliseconds.
    pub advance: Vec<(f64, f64)>,
    /// Latency per goal-driven point query, milliseconds.
    pub query_ms: Vec<f64>,
    /// Queries answered in magic (guarded) rather than cone mode.
    pub guarded_queries: u64,
    /// Summed demanded-tuple share of the model over the queries.
    pub demanded_share_sum: f64,
}

/// Replays a market through a live session on the dense timeline: boot
/// from the genesis facts, then one ingest per event (`submit(method) +
/// submit(price) + advance_to(event.time)`), each followed by an untimed
/// `margin_at`/`position_at` read, and every `query_every`-th event by a
/// goal-driven `margin(acc, M)@t` query checked against the session's own
/// database. Ends with an advance to the end of the window.
///
/// Operations that fail are counted into `out`; an error return means the
/// session could not even boot.
pub fn replay(
    input: &LiveInput,
    query_every: Option<usize>,
    probe: &Probe,
    out: &mut Outcome,
) -> Result<Live, String> {
    let trace = &input.market.trace;
    // The horizon is always explicit: see "Known hazard" in the README.
    let config = ReasonerConfig::default().with_horizon(trace.start_time, trace.end_time);
    let genesis = gen::genesis(trace);
    let (session, boot) = probe.op("op.boot", || -> Result<Session, String> {
        let reasoner = probe
            .layer("core.analysis.reasoner_new", || {
                Reasoner::new(input.program.clone(), config)
            })
            .map_err(|e| e.to_string())?;
        probe
            .layer("core.engine.session.boot", || {
                reasoner.into_session(&genesis, trace.start_time)
            })
            .map_err(|e| e.to_string())
    });
    let mut live = Live {
        session: session?,
        busy: boot,
        ingest_ms: Vec::with_capacity(trace.events.len()),
        advance: Vec::with_capacity(trace.events.len()),
        query_ms: Vec::new(),
        guarded_queries: 0,
        demanded_share_sum: 0.0,
    };
    let mut previous = trace.start_time;
    for (i, event) in trace.events.iter().enumerate() {
        let method = gen::method_fact(event);
        let price = gen::price_fact(event.time, event.price);
        let session = &mut live.session;
        let mut advance = Duration::ZERO;
        let (result, latency) = probe.op("op.ingest", || -> chronolog_core::Result<()> {
            probe.layer("core.engine.session.submit", || session.submit(method))?;
            probe.layer("core.engine.session.submit", || session.submit(price))?;
            let started = std::time::Instant::now();
            probe.layer("core.engine.session.advance", || {
                session.advance_to(event.time).map(|_| ())
            })?;
            advance = started.elapsed();
            Ok(())
        });
        out.check(result.map_err(|e| format!("ingest of event {i}: {e}")));
        live.busy += latency;
        live.ingest_ms.push(latency.as_secs_f64() * 1e3);
        live.advance
            .push(((event.time - previous) as f64, advance.as_secs_f64() * 1e3));
        previous = event.time;

        probe.op("op.read", || {
            let db = live.session.database();
            black_box(probe.layer("perp.extract.read", || {
                (
                    margin_at(db, event.account, event.time),
                    position_at(db, event.account, event.time),
                )
            }));
        });

        if query_every.is_some_and(|k| i % k == k - 1) {
            let text = format!("margin({}, M)@{}", event.account, event.time);
            let (answer, latency) = probe.op("op.query", || {
                let query = probe.layer("core.parser.query", || parse_query(&text))?;
                probe.layer("core.engine.session.query", || live.session.query(&query))
            });
            live.busy += latency;
            live.query_ms.push(latency.as_secs_f64() * 1e3);
            let db = live.session.database();
            let want = margin_at(db, event.account, event.time);
            out.check(match answer {
                Err(e) => Err(format!("query {text}: {e}")),
                Ok(outcome) => {
                    if outcome.stats.magic.enabled {
                        live.guarded_queries += 1;
                    }
                    live.demanded_share_sum += ratio(
                        outcome.stats.magic.demanded_tuples as f64,
                        db.tuple_count() as f64,
                    );
                    let got: Vec<Option<u64>> = outcome
                        .answers
                        .iter()
                        .map(|(tuple, _)| tuple[1].as_f64().map(f64::to_bits))
                        .collect();
                    let want: Vec<Option<u64>> = want.iter().map(|m| Some(m.to_bits())).collect();
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!("query {text} disagrees with the session database"))
                    }
                }
            });
        }
    }
    let session = &mut live.session;
    let (finished, latency) = probe.op("op.finish", || {
        probe.layer("core.engine.session.advance", || {
            session.advance_to(trace.end_time).map(|_| ())
        })
    });
    out.check(finished.map_err(|e| format!("advance to the window end: {e}")));
    live.busy += latency;

    let run = probe.layer("perp.extract.extract", || {
        extract_run(live.session.database(), trace, &input.encoded)
    });
    out.check(
        run.map_err(|e| e.to_string())
            .and_then(|run| same_run(&run, &input.market.reference)),
    );
    Ok(live)
}

/// Times the parser alone on the ETH-PERP program text (`build_program`
/// generates the text, parses it and labels the rules in one call).
pub fn parser_replay(probe: &Probe) {
    let source = program_source(&MarketParams::default(), MODE);
    black_box(probe.layer("core.parser.program", || parse_program(&source))).ok();
}
