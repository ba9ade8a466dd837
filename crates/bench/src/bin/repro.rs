//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro --table fig3          # input-data table
//! repro --table fig4          # FRS comparison (Subgraph vs DatalogMTL)
//! repro --table fig5          # per-trade error statistics
//! repro --table perf          # §4.2 runtimes
//! repro --table fig1          # predicate dependency graph (DOT)
//! repro --table fig2          # market-metric formulas
//! repro --table all           # everything above (default)
//! repro --table export        # write the three interval ledgers to data/
//! repro --table perf --json out.json   # also write a machine-readable report
//! ```
//!
//! `--json FILE` (with `perf` or `all`) writes the per-interval engine
//! statistics as JSON, one report per materialization in the same shape as
//! the CLI's `--stats-json` (see docs/OBSERVABILITY.md).

#![forbid(unsafe_code)]

use chronolog_bench::{paper_traces, render_table, sci};
use chronolog_cli::run_report;
use chronolog_core::{DependencyGraph, Reasoner, ReasonerConfig};
use chronolog_market::TraceStats;
use chronolog_obs::Json;
use chronolog_perp::harness::{run_datalog, validate, ErrorStats};
use chronolog_perp::{program, MarketParams};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut table = "all".to_string();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--table" => {
                i += 1;
                table = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--table needs an argument");
                    std::process::exit(2);
                });
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a file argument");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("usage: repro [--table fig1|fig2|fig3|fig4|fig5|perf|all] [--json FILE]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    match table.as_str() {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "perf" => perf(json_path.as_deref()),
        "export" => export(),
        "all" => {
            fig1();
            fig2();
            fig3();
            fig4();
            fig5();
            perf(json_path.as_deref());
        }
        other => {
            eprintln!("unknown table: {other}");
            std::process::exit(2);
        }
    }
}

/// Writes the three synthetic interval traces as hash-chained JSON ledgers
/// under `data/` — the reproducible stand-ins for the Optimism traces.
fn export() {
    std::fs::create_dir_all("data").expect("create data/");
    for (config, trace) in paper_traces() {
        let ledger = chronolog_ledger::Ledger::from_trace(&trace).expect("valid trace");
        let path = format!("data/{}.json", config.name.replace([' ', '.'], "_"));
        chronolog_ledger::save_ledger(&ledger, std::path::Path::new(&path)).expect("write ledger");
        println!("wrote {path} ({} records)", ledger.len());
    }
}

/// Figure 1: the predicate dependency graph of the ETH-PERP program.
fn fig1() {
    println!("== Figure 1: dependency graph of the DatalogMTL program (DOT) ==\n");
    let program = program::build(&MarketParams::default()).expect("program builds");
    let graph = DependencyGraph::build(&program);
    println!("{}", graph.to_dot());
    let reasoner = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 1))
        .expect("program stratifies");
    println!(
        "predicates: {}, edges: {}, strata: {}\n",
        graph.predicates.len(),
        graph.edges.len(),
        reasoner.stratification().count()
    );
}

/// Figure 2: market metrics.
fn fig2() {
    println!("== Figure 2: market metrics (evaluated at p = 1200$, K = 1342.2) ==\n");
    let p = MarketParams::default();
    let price = 1200.0;
    let skew = 1342.2;
    let rows = vec![
        vec![
            "Max Funding Rate i_max".into(),
            format!("{}", p.max_funding_rate),
        ],
        vec![
            "Max Proportional Skew W_max".into(),
            format!(
                "{} / p_t = {}",
                p.skew_scale_notional,
                p.max_proportional_skew(price)
            ),
        ],
        vec![
            "Instantaneous Funding Rate i_t".into(),
            sci(p.instantaneous_funding_rate(skew, price)),
        ],
        vec![
            "Taker fee (skew-increasing)".into(),
            format!("{}", p.taker_fee),
        ],
        vec![
            "Maker fee (skew-reducing)".into(),
            format!("{}", p.maker_fee),
        ],
    ];
    println!("{}", render_table(&["Metric", "Value"], &rows));
}

/// Figure 3: the input-data table.
fn fig3() {
    println!("== Figure 3: input data (synthetic traces calibrated to the paper) ==\n");
    let rows: Vec<Vec<String>> = paper_traces()
        .iter()
        .map(|(config, trace)| {
            let s = TraceStats::of(trace);
            vec![
                config.name.clone(),
                s.events.to_string(),
                s.trades.to_string(),
                format!("{:.2}", s.initial_skew),
                s.accounts.to_string(),
                format!("{:.0}$", s.volume),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Date / Interval (GMT)",
                "# events",
                "# trades",
                "Skew",
                "# accounts",
                "volume"
            ],
            &rows
        )
    );
    println!("(paper: 267/59/-2445.98, 108/16/1302.88, 128/29/2502.85)\n");
}

/// Figure 4: FRS comparison, Subgraph (fixed-point) vs DatalogMTL.
fn fig4() {
    println!("== Figure 4: funding rate sequence, Subgraph vs DatalogMTL ==\n");
    let params = MarketParams::default();
    for (config, trace) in paper_traces() {
        let report = validate(&trace, &params).expect("validation runs");
        println!("-- interval {} --", config.name);
        let shown = 8.min(report.frs_rows.len());
        let rows: Vec<Vec<String>> = report.frs_rows[..shown]
            .iter()
            .map(|r| {
                vec![
                    r.time.to_string(),
                    format!("{:.12}", r.subgraph),
                    format!("{:.12}", r.datalog),
                    sci(r.diff()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["time", "Subgraph FRS", "DatalogMTL FRS", "Difference"],
                &rows
            )
        );
        println!(
            "({} more rows)   max |difference| over {} events: {}\n",
            report.frs_rows.len() - shown,
            report.frs_rows.len(),
            sci(report.max_frs_diff()),
        );
    }
    println!("(paper: differences in the order of 1e-12 — 'perfect accuracy')\n");
}

/// Figure 5: mean/std of per-trade errors, pooled across the intervals.
fn fig5() {
    println!("== Figure 5: per-trade error statistics (DatalogMTL - Subgraph) ==\n");
    let params = MarketParams::default();
    let mut returns = Vec::new();
    let mut fees = Vec::new();
    let mut fundings = Vec::new();
    for (_, trace) in paper_traces() {
        let report = validate(&trace, &params).expect("validation runs");
        for (a, b) in report.datalog.trades.iter().zip(&report.subgraph.trades) {
            returns.push(a.pnl - b.pnl);
            fees.push(a.fee - b.fee);
            fundings.push(a.funding - b.funding);
        }
    }
    let r = ErrorStats::of(&returns);
    let f = ErrorStats::of(&fees);
    let d = ErrorStats::of(&fundings);
    let rows = vec![
        vec!["Mean".into(), sci(r.mean), sci(f.mean), sci(d.mean)],
        vec![
            "Std. Dev.".into(),
            sci(r.std_dev),
            sci(f.std_dev),
            sci(d.std_dev),
        ],
        vec![
            "Max |err|".into(),
            sci(r.max_abs),
            sci(f.max_abs),
            sci(d.max_abs),
        ],
        vec![
            "# trades".into(),
            r.count.to_string(),
            f.count.to_string(),
            d.count.to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(&["", "Returns", "Fee", "Funding"], &rows)
    );
    println!("(paper: means ~1e-15..1e-17, std devs ~1e-14..1e-16)\n");
}

/// §4.2 performance: runtime per interval, on the paper's own timeline
/// (one point per unix second), next to the Vadalog numbers it reports.
/// With `json_path`, also writes a machine-readable report: one entry per
/// materialization in the CLI's `--stats-json` shape.
fn perf(json_path: Option<&str>) {
    println!("== §4.2 performance: DatalogMTL materialization runtime ==\n");
    let params = MarketParams::default();
    let paper_runtimes = [1140.0, 540.0, 420.0];
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for ((config, trace), paper_secs) in paper_traces().into_iter().zip(paper_runtimes) {
        let t0 = Instant::now();
        let run = run_datalog(&trace, &params).expect("run succeeds");
        let secs = t0.elapsed().as_secs_f64();
        let mut rep = run_report(&run.stats, std::slice::from_ref(&config.name), None);
        rep.set("command", "repro");
        rep.set("runtime_secs", secs);
        reports.push(rep);
        rows.push(vec![
            config.name.clone(),
            trace.event_count().to_string(),
            format!("{secs:.3}s"),
            format!("{paper_secs:.0}s"),
            format!("{:.0}s", trace.span_secs()),
            (if secs < trace.span_secs() as f64 {
                "yes"
            } else {
                "NO"
            })
            .to_string(),
            run.stats.derived_tuples.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "interval",
                "# events",
                "ours",
                "Vadalog",
                "window",
                "realtime?",
                "derived tuples"
            ],
            &rows
        )
    );
    println!("(shape check: runtime << 7200s window in all intervals, as in the paper)\n");
    if let Some(path) = json_path {
        let mut doc = Json::object();
        doc.set("schema_version", chronolog_cli::REPORT_SCHEMA_VERSION);
        doc.set("command", "repro");
        doc.set("table", "perf");
        doc.set("runs", Json::Arr(reports));
        std::fs::write(path, doc.to_pretty()).expect("write --json report");
        println!("wrote machine-readable perf report to {path}\n");
    }
}
