//! The `chronolog` command-line interface, as a testable library.
//!
//! ```text
//! chronolog check  <file>...                      validate a program
//! chronolog run    <file>... [options]            materialize and report
//! chronolog graph  <file>...                      dependency graph (DOT)
//! chronolog validate-trace <file>                 check a --profile trace
//!
//! run options:
//!   --horizon LO..HI      reasoning horizon (integers; default unbounded)
//!   --threads N           evaluation worker threads (default 1; output is
//!                         identical for every N)
//!   --query 'p(X, 1)'     print facts matching an atom pattern (repeatable).
//!                         An optional `@t` / `@[lo, hi]` suffix restricts
//!                         the answer to a time window. Queries are
//!                         goal-driven by default: the program is rewritten
//!                         with magic-sets demand guards and only the
//!                         query's dependency cone is materialized
//!   --no-magic            answer queries from a full materialization
//!                         instead of the goal-driven rewrite (ablation;
//!                         byte-identical answers)
//!   --explain-query       print the magic-sets rewrite report for each
//!                         --query (cone, adornments, rewritten rules,
//!                         demand seeds) before the answers
//!   --explain 'p(a)@5'    print the derivation tree of a ground fact
//!   --facts               dump the full materialization as fact text
//!   --stats               print run statistics (totals + per-rule hot list)
//!   --stats-json FILE     write a machine-readable run report (JSON)
//!   --session             stream the facts through a live session instead
//!                         of one batch materialization (requires --horizon;
//!                         the output must be byte-identical to the batch)
//!   --stream FILE         apply a correction stream to the session after
//!                         the facts are staged (requires --session). One
//!                         command per line: `advance T` moves the
//!                         watermark, `retract <fact>.` removes a base
//!                         fact, a bare `<fact>.` is submitted (late facts
//!                         trigger an incremental repair). `#`/`%` lines
//!                         and blanks are skipped.
//!   --repair-budget N     max tuples the repair cone may touch before
//!                         falling back to cold re-materialization (0 sends
//!                         every correction down the cold path)
//!   --explain-plans       print each rule's compiled physical plan: the
//!                         join order chosen from the rule text, with the
//!                         access-path label and actual rows per step
//!   --profile FILE        write a Chrome trace_event JSON profile (open in
//!                         Perfetto or chrome://tracing; one track per
//!                         evaluation thread)
//!   --profile-folded FILE write folded-stack lines for flamegraph tooling
//! ```
//!
//! Files may mix rules and facts; `-` reads standard input.

#![warn(missing_docs)]

use chronolog_core::{
    parse_query, parse_source, Atom, Database, DependencyGraph, Error, Explanation, Fact, Literal,
    MetricAtom, Program, Query, Rational, Reasoner, ReasonerConfig, RunStats, Stratification, Term,
    Value,
};
use chronolog_core::{Interval, IntervalSet, Tuple};
use chronolog_obs::Json;
use std::fmt::Write as _;

/// Schema version of the `--stats-json` report; bump on breaking changes.
/// The report carries run metadata, then the engine's `totals`, `strata`,
/// `rules`, `workers`, `planner`, `pool`, `repairs`, `storage` and `magic`
/// sections (`docs/OBSERVABILITY.md` describes every field;
/// `tests/fixtures/stats_schema.txt` pins the shape).
pub const REPORT_SCHEMA_VERSION: u64 = 12;

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    fn failed(msg: impl std::fmt::Display) -> CliError {
        CliError {
            message: msg.to_string(),
            code: 1,
        }
    }
}

impl From<Error> for CliError {
    fn from(e: Error) -> Self {
        CliError::failed(e)
    }
}

/// Runs the CLI on the given arguments (without the program name), with
/// `read_file` abstracted for testing. Returns the text to print.
pub fn run_cli(
    args: &[String],
    read_file: impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| CliError::usage(USAGE))?;
    match command.as_str() {
        "check" => {
            let (program, facts) = load_sources(&mut it.cloned().collect::<Vec<_>>(), &read_file)?;
            cmd_check(&program, &facts)
        }
        "graph" => {
            let (program, _) = load_sources(&mut it.cloned().collect::<Vec<_>>(), &read_file)?;
            Ok(DependencyGraph::build(&program).to_dot())
        }
        "run" => cmd_run(&it.cloned().collect::<Vec<_>>(), &read_file),
        "validate-trace" => cmd_validate_trace(&it.cloned().collect::<Vec<_>>(), &read_file),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

const USAGE: &str = "usage: chronolog <check|run|graph|validate-trace> <file>... [options]\n\
  run options: --horizon LO..HI  --threads N  --query 'p(X)@[lo,hi]'\n\
               --no-magic  --explain-query  --explain 'p(a)@5'\n\
               --facts  --stats  --stats-json FILE\n\
               --session  --stream FILE  --repair-budget N  --explain-plans\n\
               --profile FILE  --profile-folded FILE";

fn load_sources(
    paths: &mut Vec<String>,
    read_file: &impl Fn(&str) -> std::io::Result<String>,
) -> Result<(Program, Vec<Fact>), CliError> {
    if paths.is_empty() {
        return Err(CliError::usage("no input files"));
    }
    let mut program = Program::new();
    let mut facts = Vec::new();
    for path in paths {
        let text =
            read_file(path).map_err(|e| CliError::failed(format!("cannot read {path}: {e}")))?;
        let (p, f) = parse_source(&text)?;
        program.rules.extend(p.rules);
        facts.extend(f);
    }
    Ok((program, facts))
}

fn cmd_check(program: &Program, facts: &[Fact]) -> Result<String, CliError> {
    chronolog_core::analysis::check_program(program)?;
    let strat = Stratification::compute(program)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ok: {} rules, {} facts, {} strata",
        program.rules.len(),
        facts.len(),
        strat.count()
    );
    let mut by_stratum: Vec<(usize, Vec<String>)> = Vec::new();
    for (pred, stratum) in &strat.strata {
        match by_stratum.iter_mut().find(|(s, _)| s == stratum) {
            Some((_, v)) => v.push(pred.to_string()),
            None => by_stratum.push((*stratum, vec![pred.to_string()])),
        }
    }
    by_stratum.sort();
    for (stratum, mut preds) in by_stratum {
        preds.sort();
        let _ = writeln!(out, "  stratum {stratum}: {}", preds.join(", "));
    }
    Ok(out)
}

/// Validates a `--profile` Chrome trace_event file: the envelope shape,
/// required keys per event phase, and — per lane (`tid`) — that complete
/// events are recorded with monotone end timestamps and that the recorded
/// `depth` of every span is consistent with strict nesting inside its
/// enclosing span. Used by CI to smoke-check profiler output.
fn cmd_validate_trace(
    args: &[String],
    read_file: &impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let [path] = args else {
        return Err(CliError::usage(
            "validate-trace needs exactly one trace file",
        ));
    };
    let text = read_file(path).map_err(|e| CliError::failed(format!("cannot read {path}: {e}")))?;
    let trace =
        Json::parse(&text).map_err(|e| CliError::failed(format!("{path}: invalid JSON: {e}")))?;
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::failed(format!("{path}: missing traceEvents array")))?;

    // Gather complete ("X") events per lane, preserving file order; "M"
    // metadata events only need a name.
    let mut lanes: std::collections::BTreeMap<u64, Vec<(u64, u64, u64)>> =
        std::collections::BTreeMap::new();
    let mut named_lanes = 0usize;
    for (n, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| CliError::failed(format!("{path}: event {n} missing `{key}`")))
        };
        let num = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| CliError::failed(format!("{path}: event {n}: `{key}` not a number")))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| CliError::failed(format!("{path}: event {n}: `ph` not a string")))?
            .to_string();
        num("pid")?;
        let tid = num("tid")?;
        match ph.as_str() {
            "M" => {
                field("name")?;
                named_lanes += 1;
            }
            "X" => {
                field("name")?;
                let (ts, dur) = (num("ts")?, num("dur")?);
                let depth = ev
                    .get("args")
                    .and_then(|a| a.get("depth"))
                    .and_then(Json::as_u64)
                    .ok_or_else(|| {
                        CliError::failed(format!("{path}: event {n} missing args.depth"))
                    })?;
                lanes.entry(tid).or_default().push((ts, dur, depth));
            }
            other => {
                return Err(CliError::failed(format!(
                    "{path}: event {n}: unexpected phase `{other}`"
                )))
            }
        }
    }

    let mut spans = 0usize;
    for (tid, recs) in &lanes {
        // Spans are appended as they close, so end timestamps must be
        // monotone in file order within a lane.
        for w in recs.windows(2) {
            let (end_a, end_b) = (w[0].0 + w[0].1, w[1].0 + w[1].1);
            if end_a > end_b {
                return Err(CliError::failed(format!(
                    "{path}: lane {tid}: end timestamps not monotone ({end_a} > {end_b})"
                )));
            }
        }
        // Replaying in start order, each span must sit strictly inside the
        // span one level up (timestamps are truncated from one monotonic
        // clock, so containment is exact).
        let mut by_start = recs.clone();
        by_start.sort_by_key(|&(ts, _, depth)| (ts, depth));
        let mut stack: Vec<(u64, u64)> = Vec::new(); // (ts, end)
        for &(ts, dur, depth) in &by_start {
            while stack.len() as u64 > depth {
                stack.pop();
            }
            if (stack.len() as u64) < depth {
                return Err(CliError::failed(format!(
                    "{path}: lane {tid}: span at {ts}us has depth {depth} with no parent"
                )));
            }
            if let Some(&(p_ts, p_end)) = stack.last() {
                if ts < p_ts || ts + dur > p_end {
                    return Err(CliError::failed(format!(
                        "{path}: lane {tid}: span [{ts}, {}]us escapes its parent [{p_ts}, {p_end}]us",
                        ts + dur
                    )));
                }
            }
            stack.push((ts, ts + dur));
            spans += 1;
        }
    }

    Ok(format!(
        "ok: {spans} spans across {} lanes ({named_lanes} named)\n",
        lanes.len()
    ))
}

fn cmd_run(
    args: &[String],
    read_file: &impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let mut paths = Vec::new();
    let mut horizon: Option<(i64, i64)> = None;
    let mut threads: usize = 1;
    let mut queries: Vec<String> = Vec::new();
    let mut explains: Vec<String> = Vec::new();
    let mut dump_facts = false;
    let mut stats = false;
    let mut stats_json: Option<String> = None;
    let mut profile_file: Option<String> = None;
    let mut profile_folded_file: Option<String> = None;
    let mut session_mode = false;
    let mut stream_file: Option<String> = None;
    let mut repair_budget: Option<u64> = None;
    let mut explain_plans = false;
    let mut magic = true;
    let mut explain_query = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats-json" => {
                i += 1;
                stats_json = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--stats-json needs a file path"))?
                        .clone(),
                );
            }
            "--profile" => {
                i += 1;
                profile_file = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--profile needs a file path"))?
                        .clone(),
                );
            }
            "--profile-folded" => {
                i += 1;
                profile_folded_file = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--profile-folded needs a file path"))?
                        .clone(),
                );
            }
            "--horizon" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| CliError::usage("--horizon needs LO..HI"))?;
                let (lo, hi) = spec
                    .split_once("..")
                    .ok_or_else(|| CliError::usage("--horizon format is LO..HI"))?;
                let lo: i64 = lo
                    .parse()
                    .map_err(|_| CliError::usage("bad horizon bound"))?;
                let hi: i64 = hi
                    .parse()
                    .map_err(|_| CliError::usage("bad horizon bound"))?;
                if lo > hi {
                    return Err(CliError::usage(format!(
                        "--horizon {lo}..{hi} is empty: LO must not exceed HI"
                    )));
                }
                horizon = Some((lo, hi));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .ok_or_else(|| CliError::usage("--threads needs a worker count"))?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::usage("--threads must be a positive integer"))?;
            }
            "--query" => {
                i += 1;
                queries.push(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--query needs an atom pattern"))?
                        .clone(),
                );
            }
            "--explain" => {
                i += 1;
                explains.push(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--explain needs 'p(a)@t'"))?
                        .clone(),
                );
            }
            "--stream" => {
                i += 1;
                stream_file = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--stream needs a file path"))?
                        .clone(),
                );
            }
            "--repair-budget" => {
                i += 1;
                repair_budget = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--repair-budget needs a tuple count"))?
                        .parse::<u64>()
                        .map_err(|_| {
                            CliError::usage("--repair-budget must be a non-negative integer")
                        })?,
                );
            }
            "--facts" => dump_facts = true,
            "--stats" => stats = true,
            "--session" => session_mode = true,
            "--explain-plans" => explain_plans = true,
            "--no-magic" => magic = false,
            "--explain-query" => explain_query = true,
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!("unknown option {other}")));
            }
            path => paths.push(path.to_string()),
        }
        i += 1;
    }

    let (program, facts) = load_sources(&mut paths, read_file)?;
    if stream_file.is_some() && !session_mode {
        return Err(CliError::usage("--stream needs --session"));
    }
    let stream_text = match &stream_file {
        Some(path) => Some(
            read_file(path).map_err(|e| CliError::failed(format!("cannot read {path}: {e}")))?,
        ),
        None => None,
    };
    let parsed_queries: Vec<(String, Query)> = queries
        .iter()
        .map(|q| {
            parse_query(q)
                .map(|query| (q.clone(), query))
                .map_err(|e| CliError::usage(format!("bad query `{q}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let parsed_explains: Vec<_> = explains
        .iter()
        .map(|e| parse_explain_spec(e))
        .collect::<Result<_, _>>()?;

    let profiler = (profile_file.is_some() || profile_folded_file.is_some())
        .then(chronolog_obs::SpanRecorder::new);
    let mut config = ReasonerConfig {
        profiler: profiler.clone(),
        threads,
        ..ReasonerConfig::default()
    };
    if let Some(budget) = repair_budget {
        config = config.with_repair_budget(budget);
    }
    if let Some((lo, hi)) = horizon {
        config = config.with_horizon(lo, hi);
    }
    let reasoner = Reasoner::new(program, config)?;

    // Rewrite reports are built before the run: in session mode the
    // reasoner is consumed by the session below.
    let mut explain_query_out = String::new();
    if explain_query {
        let mut base = Database::new();
        base.extend_facts(&facts)
            .map_err(|e| CliError::failed(e.to_string()))?;
        for (text, query) in &parsed_queries {
            let _ = writeln!(explain_query_out, "-- explain-query {text} --");
            let report = reasoner.explain_query(&base, query);
            explain_query_out.push_str(&report);
            if !report.ends_with('\n') {
                explain_query_out.push('\n');
            }
        }
    }

    enum Outcome {
        Batch(Box<chronolog_core::Materialization>),
        Session(Box<chronolog_core::Session>),
        /// Goal-driven: no upfront materialization — each `--query` runs
        /// its own demand-restricted sub-program against the base facts.
        Goal(Box<Database>, Box<Reasoner>),
    }
    // Queries are goal-driven unless something else needs the full model
    // (--facts, --explain) or --no-magic asked for the ablation.
    let goal_driven =
        magic && !parsed_queries.is_empty() && explains.is_empty() && !dump_facts && !session_mode;
    // Derivation trees are read off the model where it is built, by the
    // session or by the reasoner that built it from the input facts.
    let explained;
    let outcome = if session_mode {
        let (lo, hi) =
            horizon.ok_or_else(|| CliError::usage("--session needs --horizon LO..HI"))?;
        let session = run_session(reasoner, &facts, lo, hi, stream_text.as_deref())?;
        explained = render_explains(&explains, &parsed_explains, |pred, args, t| {
            session.explain(pred, args, t)
        })?;
        Outcome::Session(Box::new(session))
    } else {
        let mut db = Database::new();
        db.extend_facts(&facts)
            .map_err(|e| CliError::failed(e.to_string()))?;
        if goal_driven {
            explained = String::new();
            Outcome::Goal(Box::new(db), Box::new(reasoner))
        } else {
            let m = reasoner.materialize(&db)?;
            explained = render_explains(&explains, &parsed_explains, |pred, args, t| {
                reasoner.explain(&db, &m.database, pred, args, t)
            })?;
            Outcome::Batch(Box::new(m))
        }
    };
    let materialized: Option<&Database> = match &outcome {
        Outcome::Batch(m) => Some(&m.database),
        Outcome::Session(s) => Some(s.database()),
        Outcome::Goal(..) => None,
    };

    // Answer the queries before reporting: goal-driven query runs *are*
    // the engine runs whose statistics --stats/--stats-json describe (the
    // last query wins when several are given).
    let mut report_stats: RunStats = match &outcome {
        Outcome::Batch(m) => m.stats.clone(),
        Outcome::Session(s) => s.stats().clone(),
        Outcome::Goal(..) => RunStats::default(),
    };
    let mut query_out = String::new();
    for (text, query) in &parsed_queries {
        let _ = writeln!(query_out, "-- query {text} --");
        let mut lines = match &outcome {
            Outcome::Goal(db, r) => {
                let o = r.query(db, query)?;
                let lines = render_answers(&query.atom, &o.answers);
                report_stats = o.stats;
                lines
            }
            Outcome::Session(s) if magic => {
                let o = s.query(query)?;
                let lines = render_answers(&query.atom, &o.answers);
                report_stats.magic = o.stats.magic;
                lines
            }
            Outcome::Batch(m) => query_database(&m.database, &query.atom, query.window.as_ref()),
            Outcome::Session(s) => query_database(s.database(), &query.atom, query.window.as_ref()),
        };
        lines.sort();
        if lines.is_empty() {
            let _ = writeln!(query_out, "(no matches)");
        }
        for line in lines {
            let _ = writeln!(query_out, "{line}");
        }
    }
    let served_full = !parsed_queries.is_empty()
        && match &outcome {
            Outcome::Goal(..) => false,
            Outcome::Session(_) => !magic,
            Outcome::Batch(_) => true,
        };
    if served_full {
        // Queries answered from the unrestricted model: record what that
        // costs so the two modes compare in stats-json.
        report_stats.magic.mode = "full".to_string();
        report_stats.magic.demanded_tuples = materialized.map_or(0, |db| db.tuple_count() as u64);
    }

    if let (Some(path), Some(p)) = (&profile_file, &profiler) {
        std::fs::write(path, p.to_chrome_trace().to_pretty())
            .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    }
    if let (Some(path), Some(p)) = (&profile_folded_file, &profiler) {
        std::fs::write(path, p.to_folded())
            .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &stats_json {
        let report = run_report(&report_stats, &paths, horizon);
        std::fs::write(path, report.to_pretty())
            .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    }

    let mut out = String::new();
    if dump_facts || (queries.is_empty() && explains.is_empty() && !stats && !explain_plans) {
        let db = materialized.expect("facts dump implies a materialized model");
        let _ = writeln!(out, "{}", db.to_facts_text());
    }
    if explain_plans {
        render_plans(&mut out, &report_stats);
    }
    out.push_str(&explain_query_out);
    out.push_str(&query_out);
    out.push_str(&explained);
    if stats {
        render_stats(&mut out, &report_stats);
    }
    Ok(out)
}

/// Renders the derivation tree of every `--explain` fact, each under a
/// `-- explain <spec> --` header, through `explain` (a batch reasoner's or a
/// session's).
fn render_explains(
    specs: &[String],
    facts: &[(String, Vec<Value>, i64)],
    explain: impl Fn(&str, &[Value], i64) -> chronolog_core::Result<Option<Explanation>>,
) -> Result<String, CliError> {
    let mut out = String::new();
    for (spec, (pred, args, t)) in specs.iter().zip(facts) {
        let _ = writeln!(out, "-- explain {spec} --");
        match explain(pred, args, *t)? {
            Some(tree) => {
                let _ = writeln!(out, "{tree}");
            }
            None => {
                let _ = writeln!(out, "(fact does not hold at {t})");
            }
        }
    }
    Ok(out)
}

/// Streams the parsed facts through a live [`chronolog_core::Session`]:
/// facts at or before the horizon start seed the initial database, the
/// rest are submitted in timestamp order with the watermark advanced past
/// each batch, and a final advance lands on the horizon end. The resulting
/// database must be byte-identical to the batch materialization — CI diffs
/// the two.
///
/// With `--stream`, the correction stream is applied after the staged
/// facts (so it can retract them) and before the final advance; the
/// session then reflects the *surviving* base facts, which is what the
/// repair-vs-cold CI job diffs against a batch run over the same set.
fn run_session(
    reasoner: Reasoner,
    facts: &[Fact],
    lo: i64,
    hi: i64,
    corrections: Option<&str>,
) -> Result<chronolog_core::Session, CliError> {
    let start = Rational::integer(lo);
    let mut initial = Database::new();
    let mut stream: Vec<&Fact> = Vec::new();
    for fact in facts {
        match fact.interval.lo() {
            chronolog_core::TimeBound::Finite(flo) if flo > start => stream.push(fact),
            _ => {
                initial
                    .insert_fact(fact)
                    .map_err(|e| CliError::failed(e.to_string()))?;
            }
        }
    }
    // Stable sort by interval position keeps input order for simultaneous
    // facts, so the stream is deterministic.
    stream.sort_by(|a, b| a.interval.cmp_position(&b.interval));

    let mut session = reasoner.into_session(&initial, lo)?;
    let mut i = 0;
    while i < stream.len() {
        let batch_lo = stream[i].interval.lo();
        let mut target = lo;
        while i < stream.len() && stream[i].interval.lo() == batch_lo {
            let fact = stream[i];
            match fact.interval.hi() {
                chronolog_core::TimeBound::Finite(fhi) => target = target.max(fhi.ceil()),
                other => {
                    return Err(CliError::failed(format!(
                        "--session needs finite fact endpoints (got {other:?} in {fact})"
                    )))
                }
            }
            session.submit(fact.clone())?;
            i += 1;
        }
        session.advance_to(target.min(hi))?;
    }
    if let Some(text) = corrections {
        apply_stream(&mut session, text, hi)?;
    }
    session.advance_to(hi)?;
    Ok(session)
}

/// Applies a `--stream` correction file line by line. Keywords must be
/// followed by whitespace so predicates named `advance…`/`retract…` still
/// parse as plain fact submissions. Every failure names the line.
fn apply_stream(
    session: &mut chronolog_core::Session,
    text: &str,
    hi: i64,
) -> Result<(), CliError> {
    fn keyword<'a>(line: &'a str, word: &str) -> Option<&'a str> {
        line.strip_prefix(word)
            .filter(|rest| rest.starts_with(char::is_whitespace))
            .map(str::trim)
    }
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let n = idx + 1;
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = keyword(line, "advance") {
            let t: i64 = rest.parse().map_err(|_| {
                CliError::failed(format!(
                    "stream line {n}: `advance` needs an integer target, got `{rest}`"
                ))
            })?;
            if t > hi {
                return Err(CliError::failed(format!(
                    "stream line {n}: advance target {t} is beyond the horizon end {hi}"
                )));
            }
            session
                .advance_to(t)
                .map_err(|e| CliError::failed(format!("stream line {n}: {e}")))?;
        } else if let Some(rest) = keyword(line, "retract") {
            let fact = parse_stream_fact(rest, n)?;
            session
                .retract(fact)
                .map_err(|e| CliError::failed(format!("stream line {n}: {e}")))?;
        } else {
            let fact = parse_stream_fact(line, n)?;
            let future = matches!(
                fact.interval.lo(),
                chronolog_core::TimeBound::Finite(flo) if flo > session.now()
            );
            let submitted = if future {
                session.submit(fact)
            } else {
                session.submit_late(fact).map(|_| ())
            };
            submitted.map_err(|e| CliError::failed(format!("stream line {n}: {e}")))?;
        }
    }
    Ok(())
}

/// Parses exactly one fact from a stream line (the trailing `.` of the
/// fact syntax is required, exactly as in a program file).
fn parse_stream_fact(text: &str, n: usize) -> Result<Fact, CliError> {
    let facts = chronolog_core::parse_facts(text)
        .map_err(|e| CliError::failed(format!("stream line {n}: {e}")))?;
    let mut it = facts.into_iter();
    match (it.next(), it.next()) {
        (Some(fact), None) => Ok(fact),
        (first, _) => Err(CliError::failed(format!(
            "stream line {n}: expected exactly one fact, got {}",
            if first.is_none() { "none" } else { "several" }
        ))),
    }
}

/// Renders the `--explain-plans` report: every compiled rule plan (one per
/// semi-naive variant) in execution order, with the access-path label and
/// actual rows per step. Contains no wall times, so the output is
/// deterministic and golden-testable.
fn render_plans(out: &mut String, stats: &RunStats) {
    let _ = writeln!(out, "-- plans --");
    let mut plans = stats.plan_explains();
    plans.sort_by_key(|p| (p.rule, p.delta_literal));
    for p in plans {
        let variant = match p.delta_literal {
            Some(d) => format!("delta literal {d}"),
            None => "full".to_string(),
        };
        let reordered = if p.reordered { ", reordered" } else { "" };
        let _ = writeln!(
            out,
            "plan {} ({variant}{reordered}): {} executions",
            p.label, p.executions
        );
        for s in &p.steps {
            let _ = writeln!(
                out,
                "  {:<44} {:<16} actual {:>6}",
                s.desc, s.access, s.actual_rows
            );
        }
    }
}

/// Renders the `--stats` report: run totals, per-stratum iteration counts,
/// and a per-rule hot list ordered by wall time.
fn render_stats(out: &mut String, stats: &RunStats) {
    let _ = writeln!(
        out,
        "stats: {} derived tuples, {} components, {} rule evaluations, {:?}",
        stats.derived_tuples, stats.total_components, stats.rule_evaluations, stats.elapsed
    );
    let _ = writeln!(
        out,
        "joins: {} index probes ({} tuples skipped), {} full scans ({} tuples walked)",
        stats.index_probes, stats.index_scan_avoided, stats.full_scans, stats.scanned_tuples
    );
    let _ = writeln!(
        out,
        "time index: {} probes ({} interval clips avoided), {} index rebuilds avoided",
        stats.time_index_probes, stats.interval_clips_avoided, stats.index_rebuilds_avoided
    );
    let _ = writeln!(
        out,
        "planner: {} plans used, {} reordered, {} rows out of the join pipelines",
        stats.plans_built, stats.reorders_applied, stats.planner_actual_rows
    );
    if stats.pool_respawns + stats.pool_reuses > 0 {
        let _ = writeln!(
            out,
            "pool: {} warm dispatches, {} spawns",
            stats.pool_reuses, stats.pool_respawns
        );
    }
    if stats.repairs.attempted > 0 {
        let r = &stats.repairs;
        let _ = writeln!(
            out,
            "repairs: {} attempted ({} incremental, {} cold fallbacks, {} budget trips), \
             {} cone tuples, {} components overdeleted",
            r.attempted,
            r.incremental,
            r.fallbacks,
            r.budget_trips,
            r.cone_tuples,
            r.overdeleted_components
        );
    }
    let s = &stats.storage;
    let _ = writeln!(
        out,
        "storage: {} symbols + {} values interned, {} interval bytes, \
         {} value bytes, {} column clones, arena slabs {} freed / {} reused",
        s.interned_symbols,
        s.interned_values,
        s.interval_bytes,
        s.value_bytes,
        s.column_clones,
        s.arena_slabs_freed,
        s.arena_slabs_reused
    );
    if stats.workers.len() > 1 {
        let _ = writeln!(out, "workers:");
        for w in &stats.workers {
            let _ = writeln!(
                out,
                "  worker {}: {} tasks, {:?} busy",
                w.worker, w.tasks, w.busy
            );
        }
    }
    let _ = writeln!(
        out,
        "strata (iterations per fixpoint): {:?}",
        stats.iterations
    );
    for s in &stats.strata {
        let _ = writeln!(
            out,
            "  stratum {}: {} iterations, {} evals, {} tuples, {} components, {:?}",
            s.stratum,
            s.iterations,
            s.rule_evaluations,
            s.tuples_derived,
            s.components_added,
            s.wall
        );
    }
    let mut hot: Vec<_> = stats
        .rules
        .iter()
        .filter(|r| r.body_evaluations > 0)
        .collect();
    hot.sort_by_key(|r| std::cmp::Reverse(r.wall));
    if !hot.is_empty() {
        let _ = writeln!(out, "rule hot list (by wall time):");
        let _ = writeln!(
            out,
            "  {:<16} {:<12} {:>7} {:>8} {:>8} {:>10} {:>12}",
            "rule", "head", "stratum", "evals", "tuples", "components", "wall"
        );
        for r in hot.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<16} {:<12} {:>7} {:>8} {:>8} {:>10} {:>12}",
                r.label,
                r.head,
                r.stratum,
                r.body_evaluations,
                r.tuples_derived,
                r.components_added,
                format!("{:?}", r.wall)
            );
        }
    }
}

/// Builds the machine-readable run report written by `--stats-json`: run
/// metadata, then the engine's sections straight from [`RunStats`]. The
/// shape is pinned by the schema golden test; bump
/// [`REPORT_SCHEMA_VERSION`] on breaking changes.
pub fn run_report(stats: &RunStats, files: &[String], horizon: Option<(i64, i64)>) -> Json {
    let mut report = Json::object();
    report.set("schema_version", REPORT_SCHEMA_VERSION);
    report.set("command", "run");
    report.set(
        "files",
        Json::Arr(files.iter().map(|f| Json::from(f.as_str())).collect()),
    );
    report.set(
        "horizon",
        match horizon {
            Some((lo, hi)) => Json::from(format!("{lo}..{hi}")),
            None => Json::Null,
        },
    );
    let stats_json = stats.to_json();
    for section in [
        "totals", "strata", "rules", "workers", "planner", "pool", "repairs", "storage", "magic",
    ] {
        report.set(
            section,
            stats_json.get(section).cloned().unwrap_or(Json::Null),
        );
    }
    report
}

/// Parses an atom pattern like `margin(acc1, M)` by disguising it as a
/// rule body.
fn parse_query_atom(q: &str) -> Result<Atom, CliError> {
    let rule = chronolog_core::parse_rule(&format!("query_probe_() :- {q}."))
        .map_err(|e| CliError::usage(format!("bad query `{q}`: {e}")))?;
    match rule.body.first() {
        Some(Literal::Pos(MetricAtom::Rel(atom))) => Ok(atom.clone()),
        _ => Err(CliError::usage(format!(
            "query `{q}` must be a plain atom pattern"
        ))),
    }
}

fn parse_explain_spec(spec: &str) -> Result<(String, Vec<Value>, i64), CliError> {
    let (atom_text, t_text) = spec
        .rsplit_once('@')
        .ok_or_else(|| CliError::usage("--explain format is 'p(a, 1)@t'"))?;
    let t: i64 = t_text
        .trim()
        .parse()
        .map_err(|_| CliError::usage("--explain time must be an integer"))?;
    let atom = parse_query_atom(atom_text)?;
    let args = atom
        .args
        .iter()
        .map(|term| match term {
            Term::Val(v) => Ok(*v),
            Term::Var(_) => Err(CliError::usage("--explain needs a ground fact")),
        })
        .collect::<Result<_, _>>()?;
    Ok((atom.pred.to_string(), args, t))
}

/// All facts matching an atom pattern, rendered one per line.
fn query_database(db: &Database, pattern: &Atom, window: Option<&Interval>) -> Vec<String> {
    render_answers(pattern, &db.query(pattern, window))
}

/// Renders query answers one line per validity interval (every second of
/// a persistence run its own line, however the run is stored), in the same
/// format for both the goal-driven and the full-materialization path (CI
/// diffs the two byte for byte).
fn render_answers(pattern: &Atom, answers: &[(Tuple, IntervalSet)]) -> Vec<String> {
    let mut out = Vec::new();
    for (tuple, ivs) in answers {
        let args = tuple
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        for iv in ivs.atoms() {
            out.push(format!("{}({args})@{iv}", pattern.pred));
        }
    }
    out
}

/// Quick helper for tests: `t` must be inside the horizon used in `run`.
pub fn holds(db: &Database, pred: &str, args: &[Value], t: i64) -> bool {
    db.holds_at_rational(
        chronolog_core::Symbol::new(pred),
        args,
        Rational::integer(t),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fake_fs(files: &[(&str, &str)]) -> impl Fn(&str) -> std::io::Result<String> {
        let map: HashMap<String, String> = files
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |path: &str| {
            map.get(path).cloned().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such test file")
            })
        }
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const DEMO: &str = "isOpen(A) :- tranM(A, M).\n\
                        isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                        tranM(acc1, 20.0)@3.\n\
                        withdraw(acc1)@8.";

    #[test]
    fn check_reports_strata() {
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let out = run_cli(&args(&["check", "demo.dmtl"]), fs).unwrap();
        assert!(out.contains("ok: 2 rules, 2 facts"), "{out}");
        assert!(out.contains("stratum"), "{out}");
    }

    #[test]
    fn run_with_query() {
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let out = run_cli(
            &args(&[
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--query",
                "isOpen(A)",
            ]),
            fs,
        )
        .unwrap();
        assert!(out.contains("isOpen(acc1)@[3]"), "{out}");
        assert!(out.contains("isOpen(acc1)@[7]"), "{out}");
        assert!(!out.contains("isOpen(acc1)@[8]"), "{out}");
    }

    #[test]
    fn run_with_explain() {
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let out = run_cli(
            &args(&[
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--explain",
                "isOpen(acc1)@5",
            ]),
            fs,
        )
        .unwrap();
        assert!(out.contains("[by rule"), "{out}");
        assert!(out.contains("tranM(acc1, 20.0)"), "{out}");
        // Negative case.
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let out = run_cli(
            &args(&[
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--explain",
                "isOpen(acc1)@9",
            ]),
            fs,
        )
        .unwrap();
        assert!(out.contains("does not hold"), "{out}");
    }

    #[test]
    fn run_dumps_facts_by_default() {
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let out = run_cli(&args(&["run", "demo.dmtl", "--horizon", "0..20"]), fs).unwrap();
        assert!(out.contains("tranM(acc1, 20.0)@[3]"), "{out}");
        assert!(out.contains("isOpen(acc1)@[5]"), "{out}");
    }

    #[test]
    fn graph_emits_dot() {
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let out = run_cli(&args(&["graph", "demo.dmtl"]), fs).unwrap();
        assert!(out.starts_with("digraph"), "{out}");
        assert!(out.contains("\"tranM\" -> \"isOpen\""), "{out}");
    }

    #[test]
    fn stats_flag() {
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let out = run_cli(
            &args(&["run", "demo.dmtl", "--horizon", "0..20", "--stats"]),
            fs,
        )
        .unwrap();
        assert!(out.contains("derived tuples"), "{out}");
        // Per-stratum iteration counts and the per-rule hot list.
        assert!(out.contains("strata (iterations per fixpoint)"), "{out}");
        assert!(out.contains("stratum 0:"), "{out}");
        assert!(out.contains("rule hot list"), "{out}");
        assert!(out.contains("isOpen"), "{out}");
    }

    #[test]
    fn stats_json_writes_a_report() {
        let dir = std::env::temp_dir().join("chronolog-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        run_cli(
            &args(&[
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--stats-json",
                path.to_str().unwrap(),
            ]),
            fs,
        )
        .unwrap();
        let report = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            report.get("schema_version").and_then(Json::as_u64),
            Some(REPORT_SCHEMA_VERSION)
        );
        let totals = report.get("totals").unwrap();
        let rules = report.get("rules").and_then(Json::as_array).unwrap();
        let strata = report.get("strata").and_then(Json::as_array).unwrap();
        // Per-rule and per-stratum counts sum to the run totals.
        let sum = |items: &[Json], field: &str| -> u64 {
            items
                .iter()
                .map(|r| r.get(field).and_then(Json::as_u64).unwrap())
                .sum()
        };
        assert_eq!(
            sum(rules, "body_evaluations"),
            totals
                .get("rule_evaluations")
                .and_then(Json::as_u64)
                .unwrap()
        );
        assert_eq!(
            sum(rules, "tuples_derived"),
            totals.get("derived_tuples").and_then(Json::as_u64).unwrap()
        );
        assert_eq!(
            sum(strata, "tuples_derived"),
            totals.get("derived_tuples").and_then(Json::as_u64).unwrap()
        );
        // The planner section ties out against its own plan list, and the
        // pool section exists (all-zero for a sequential run).
        let planner = report.get("planner").unwrap();
        let plans = planner.get("plans").and_then(Json::as_array).unwrap();
        assert_eq!(
            planner.get("plans_built").and_then(Json::as_u64),
            Some(plans.len() as u64)
        );
        assert!(!plans.is_empty(), "every evaluated rule has a plan");
        let pool = report.get("pool").unwrap();
        assert_eq!(pool.get("respawns").and_then(Json::as_u64), Some(0));
        assert_eq!(pool.get("reuses").and_then(Json::as_u64), Some(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn new_flags_report_usage_errors() {
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let err = run_cli(&args(&["run", "demo.dmtl", "--stats-json"]), fs).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--stats-json"), "{}", err.message);
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let err = run_cli(&args(&["run", "demo.dmtl", "--profile"]), fs).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--profile"), "{}", err.message);
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let err = run_cli(&args(&["run", "demo.dmtl", "--profile-folded"]), fs).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--profile-folded"), "{}", err.message);
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let err = run_cli(&args(&["run", "demo.dmtl", "--trance", "x"]), fs).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown option"), "{}", err.message);
        // `--profile FILE` is the one machine-readable timeline: there is
        // no `--trace`.
        let fs = fake_fs(&[("demo.dmtl", DEMO)]);
        let err = run_cli(
            &args(&["run", "demo.dmtl", "--horizon", "0..20", "--trace", "x"]),
            fs,
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert_eq!(err.message, "unknown option --trace");
        // A reversed horizon is a usage error naming both bounds, batch
        // and session alike (`Interval::closed_int` panics on one).
        for extra in [&[][..], &["--session"]] {
            let mut argv = vec!["run", "demo.dmtl", "--horizon", "20..0"];
            argv.extend_from_slice(extra);
            let fs = fake_fs(&[("demo.dmtl", DEMO)]);
            let err = run_cli(&args(&argv), fs).unwrap_err();
            assert_eq!(err.code, 2, "{argv:?}");
            assert!(
                err.message.contains("--horizon") && err.message.contains("20..0"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn threads_flag_usage_errors() {
        for bad in [
            &["run", "demo.dmtl", "--threads"][..],
            &["run", "demo.dmtl", "--threads", "0"],
            &["run", "demo.dmtl", "--threads", "many"],
        ] {
            let fs = fake_fs(&[("demo.dmtl", DEMO)]);
            let err = run_cli(&args(bad), fs).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
            assert!(err.message.contains("--threads"), "{}", err.message);
        }
    }

    #[test]
    fn threaded_runs_are_byte_identical_to_sequential() {
        // A join-heavy recursive scenario with several rules per stratum so
        // the worker pool actually fans out; output and derivation counts
        // must not depend on the thread count.
        let scenario = "reach(X, Y) :- edge(X, Y).\n\
                        reach(X, Z) :- reach(X, Y), edge(Y, Z).\n\
                        hot(X) :- reach(X, Y), load(Y, L), L > 5.\n\
                        cool(X) :- reach(X, Y), not hot(Y).\n\
                        edge(a, b)@[0, 10]. edge(b, c)@[0, 10]. edge(c, d)@[2, 8].\n\
                        edge(d, a)@[4, 6]. edge(b, d)@[1, 3].\n\
                        load(c, 7)@[0, 10]. load(d, 3)@[0, 10].";
        let dir = std::env::temp_dir().join("chronolog-cli-threads-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut outputs = Vec::new();
        let mut reports = Vec::new();
        for threads in ["1", "4"] {
            let path = dir.join(format!("report-{threads}.json"));
            let fs = fake_fs(&[("g.dmtl", scenario)]);
            let out = run_cli(
                &args(&[
                    "run",
                    "g.dmtl",
                    "--horizon",
                    "0..10",
                    "--threads",
                    threads,
                    "--stats-json",
                    path.to_str().unwrap(),
                ]),
                fs,
            )
            .unwrap();
            outputs.push(out);
            reports.push(Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap());
            std::fs::remove_file(&path).ok();
        }
        // Derived facts are byte-identical across thread counts.
        assert_eq!(outputs[0], outputs[1]);
        // So are all derivation counts, per rule and in total.
        for field in ["derived_tuples", "rule_evaluations", "derived_components"] {
            assert_eq!(
                reports[0].get("totals").unwrap().get(field).unwrap(),
                reports[1].get("totals").unwrap().get(field).unwrap(),
                "{field}"
            );
        }
        let rule_counts = |r: &Json| -> Vec<(u64, u64)> {
            r.get("rules")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|rule| {
                    (
                        rule.get("derivations").and_then(Json::as_u64).unwrap(),
                        rule.get("tuples_derived").and_then(Json::as_u64).unwrap(),
                    )
                })
                .collect()
        };
        assert_eq!(rule_counts(&reports[0]), rule_counts(&reports[1]));
        // The threaded run reports one worker slot per requested thread.
        let workers = |r: &Json| r.get("workers").and_then(Json::as_array).unwrap().len();
        assert_eq!(workers(&reports[0]), 1);
        assert_eq!(workers(&reports[1]), 4);
    }

    const STREAMABLE: &str = "isOpen(A) :- tranM(A, M).\n\
                              isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                              rate(base, 0.5).\n\
                              tranM(acc1, 20.0)@3.\n\
                              tranM(acc2, 5.0)@5.\n\
                              withdraw(acc1)@8.";

    #[test]
    fn session_mode_matches_batch_byte_for_byte() {
        let batch = run_cli(
            &args(&["run", "demo.dmtl", "--horizon", "0..20", "--facts"]),
            fake_fs(&[("demo.dmtl", STREAMABLE)]),
        )
        .unwrap();
        let streamed = run_cli(
            &args(&[
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--facts",
                "--session",
            ]),
            fake_fs(&[("demo.dmtl", STREAMABLE)]),
        )
        .unwrap();
        assert_eq!(batch, streamed);
        assert!(batch.contains("isOpen(acc1)@[7]"), "{batch}");
        assert!(!batch.contains("isOpen(acc1)@[8]"), "{batch}");
    }

    #[test]
    fn stream_applies_retractions_and_late_facts() {
        // Retract acc1's opening transaction and deliver acc3's late: the
        // session must equal a batch run over the corrected fact set.
        let stream = "# corrections arriving out of order\n\
                      advance 10\n\
                      retract tranM(acc1, 20.0)@3.\n\
                      tranM(acc3, 7.5)@4.\n\
                      \n\
                      % trailing comment\n";
        let corrected = "isOpen(A) :- tranM(A, M).\n\
                         isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                         rate(base, 0.5).\n\
                         tranM(acc2, 5.0)@5.\n\
                         tranM(acc3, 7.5)@4.\n\
                         withdraw(acc1)@8.";
        let streamed = run_cli(
            &args(&[
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--facts",
                "--session",
                "--stream",
                "fix.stream",
            ]),
            fake_fs(&[("demo.dmtl", STREAMABLE), ("fix.stream", stream)]),
        )
        .unwrap();
        let batch = run_cli(
            &args(&["run", "demo.dmtl", "--horizon", "0..20", "--facts"]),
            fake_fs(&[("demo.dmtl", corrected)]),
        )
        .unwrap();
        assert_eq!(streamed, batch);
        assert!(!streamed.contains("isOpen(acc1)"), "{streamed}");
        assert!(streamed.contains("isOpen(acc3)@[4"), "{streamed}");
    }

    #[test]
    fn stream_line_errors_are_named() {
        let run_stream = |stream: &str| {
            run_cli(
                &args(&[
                    "run",
                    "demo.dmtl",
                    "--horizon",
                    "0..20",
                    "--session",
                    "--stream",
                    "fix.stream",
                ]),
                fake_fs(&[("demo.dmtl", STREAMABLE), ("fix.stream", stream)]),
            )
        };
        // Malformed retract line: the parse error names the line.
        let err = run_stream("retract tranM(acc1@3.\n").unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.starts_with("stream line 1:"), "{}", err.message);
        // Retracting a fact that was never submitted is the typed
        // UnknownFact error, not a panic.
        let err = run_stream("advance 10\nretract tranM(ghost, 1.0)@3.\n").unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.starts_with("stream line 2:"), "{}", err.message);
        assert!(err.message.contains("unknown fact"), "{}", err.message);
        assert!(err.message.contains("ghost"), "{}", err.message);
        // A late fact straddling the watermark is rejected with advice.
        let err = run_stream("advance 10\ntranM(acc9, 1.0)@[6, 12].\n").unwrap_err();
        assert!(
            err.message.contains("beyond the watermark"),
            "{}",
            err.message
        );
        // Advancing backwards and past the horizon are both named.
        let err = run_stream("advance 10\nadvance 9\n").unwrap_err();
        assert!(
            err.message.contains("cannot advance backwards"),
            "{}",
            err.message
        );
        let err = run_stream("advance 99\n").unwrap_err();
        assert!(
            err.message.contains("beyond the horizon"),
            "{}",
            err.message
        );
        // Keyword without its argument.
        let err = run_stream("advance soon\n").unwrap_err();
        assert!(err.message.contains("integer target"), "{}", err.message);
    }

    #[test]
    fn stream_retract_after_advance_repairs_history() {
        // Retract *after* the watermark has passed the fact: the repair
        // path must rewrite already-final history.
        let stream = "advance 15\nretract withdraw(acc1)@8.\n";
        let streamed = run_cli(
            &args(&[
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--facts",
                "--session",
                "--stream",
                "fix.stream",
            ]),
            fake_fs(&[("demo.dmtl", STREAMABLE), ("fix.stream", stream)]),
        )
        .unwrap();
        // Without the withdrawal the account stays open to the horizon
        // (components are punctual: the recursion steps instant by instant).
        assert!(streamed.contains("isOpen(acc1)@[9]"), "{streamed}");
        assert!(streamed.contains("isOpen(acc1)@[20]"), "{streamed}");
    }

    #[test]
    fn stream_fuzz_never_panics_and_errors_stay_typed() {
        // Seeded garbage + valid lines in random interleavings: every
        // outcome is Ok or a typed CliError naming the stream line.
        let mut rng = chronolog_obs::SmallRng::seed_from_u64(0x57AB1E);
        let pieces = [
            "advance 5",
            "advance 12",
            "advance -3",
            "advance",
            "advance soon",
            "retract tranM(acc1, 20.0)@3.",
            "retract tranM(acc1, 20.0)@3.", // double retract: UnknownFact
            "retract nonsense",
            "retract",
            "tranM(acc3, 7.5)@4.",
            "tranM(acc4, 1.0)@[2, 18].", // straddles most watermarks
            "withdraw(acc2)@6.",
            "p(X :- q(X).",
            "@@@",
            "# comment",
            "",
        ];
        for case in 0..32 {
            let n = rng.gen_range_usize(1, 10);
            let stream: String = (0..n)
                .map(|_| pieces[rng.gen_range_usize(0, pieces.len())])
                .collect::<Vec<_>>()
                .join("\n");
            let result = run_cli(
                &args(&[
                    "run",
                    "demo.dmtl",
                    "--horizon",
                    "0..20",
                    "--session",
                    "--stream",
                    "fix.stream",
                ]),
                fake_fs(&[("demo.dmtl", STREAMABLE), ("fix.stream", &stream)]),
            );
            if let Err(e) = result {
                assert_eq!(e.code, 1, "case {case}: {stream:?} -> {}", e.message);
                assert!(
                    e.message.starts_with("stream line "),
                    "case {case}: {stream:?} -> {}",
                    e.message
                );
            }
        }
    }

    #[test]
    fn stats_json_reports_repairs_and_budget_trips() {
        let dir = std::env::temp_dir().join("chronolog-cli-repairs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let stream = "advance 10\nretract tranM(acc1, 20.0)@3.\n";
        let report_for = |extra: &[&str], name: &str| {
            let path = dir.join(name);
            let mut a = vec![
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--session",
                "--stream",
                "fix.stream",
                "--stats-json",
                path.to_str().unwrap(),
            ];
            a.extend_from_slice(extra);
            run_cli(
                &args(&a),
                fake_fs(&[("demo.dmtl", STREAMABLE), ("fix.stream", stream)]),
            )
            .unwrap();
            let report = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            std::fs::remove_file(&path).ok();
            report
        };
        let get = |r: &Json, field: &str| {
            r.get("repairs")
                .and_then(|s| s.get(field))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing repairs.{field}"))
        };
        // Incremental path by default.
        let report = report_for(&[], "repair.json");
        assert_eq!(
            report.get("schema_version").and_then(Json::as_u64),
            Some(REPORT_SCHEMA_VERSION)
        );
        assert_eq!(get(&report, "attempted"), 1);
        assert_eq!(get(&report, "incremental"), 1);
        assert_eq!(get(&report, "budget_trips"), 0);
        assert!(get(&report, "cone_tuples") > 0);
        // A zero budget trips on the first cone tuple and falls back.
        let report = report_for(&["--repair-budget", "0"], "budget.json");
        assert_eq!(get(&report, "attempted"), 1);
        assert_eq!(get(&report, "incremental"), 0);
        assert_eq!(get(&report, "fallbacks"), 1);
        assert_eq!(get(&report, "budget_trips"), 1);
    }

    #[test]
    fn stream_results_match_with_and_without_repair() {
        let stream = "advance 10\n\
                      retract tranM(acc1, 20.0)@3.\n\
                      tranM(acc3, 7.5)@4.\n\
                      advance 15\n\
                      retract withdraw(acc1)@8.\n";
        let run_with = |extra: &[&str]| {
            let mut a = vec![
                "run",
                "demo.dmtl",
                "--horizon",
                "0..20",
                "--facts",
                "--session",
                "--stream",
                "fix.stream",
            ];
            a.extend_from_slice(extra);
            run_cli(
                &args(&a),
                fake_fs(&[("demo.dmtl", STREAMABLE), ("fix.stream", stream)]),
            )
            .unwrap()
        };
        // Budget 0 is the run without repair: every correction goes cold.
        let repaired = run_with(&[]);
        let cold = run_with(&["--repair-budget", "0"]);
        assert_eq!(repaired, cold);
    }

    #[test]
    fn stream_usage_errors() {
        let err = run_cli(
            &args(&["run", "demo.dmtl", "--horizon", "0..20", "--stream", "f"]),
            fake_fs(&[("demo.dmtl", STREAMABLE)]),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--session"), "{}", err.message);
        let err = run_cli(
            &args(&["run", "demo.dmtl", "--repair-budget", "lots"]),
            fake_fs(&[("demo.dmtl", STREAMABLE)]),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--repair-budget"), "{}", err.message);
    }

    #[test]
    fn session_mode_usage_errors() {
        let err = run_cli(
            &args(&["run", "demo.dmtl", "--session"]),
            fake_fs(&[("demo.dmtl", STREAMABLE)]),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--horizon"), "{}", err.message);
    }

    #[test]
    fn explain_plans_output_is_stable() {
        // Golden: the plan listing carries no wall times, so the exact
        // bytes are deterministic for a fixed program and input.
        let scenario = "pos(A, P) :- open(A, P).\n\
                        pos(A, P) :- diamondminus pos(A, P), not close(A).\n\
                        fee(A, F) :- pos(A, P), trade(A, S), F = P * S.\n\
                        open(a, 2)@0. trade(a, 3)@1. close(a)@2.";
        let out = run_cli(
            &args(&["run", "g.dmtl", "--horizon", "0..3", "--explain-plans"]),
            fake_fs(&[("g.dmtl", scenario)]),
        )
        .unwrap();
        // `pos` is persisted (rule 1 carries it forward), `trade` is an
        // event: the full plan of rule 2 reaches the event first, and its
        // Δpos variant probes `trade` on the account the delta bound.
        assert_eq!(
            out,
            "-- plans --\n\
             plan r0 (full): 1 executions\n  \
             join open(A, P)                              time-probe       actual      1\n\
             plan r1 (full): 1 executions\n  \
             join diamondminus pos(A, P)                  time-probe       actual      0\n  \
             negate not close(A)                          -                actual      0\n\
             plan r1 (delta literal 0): 1 executions\n  \
             join Δdiamondminus pos(A, P)                 time-probe       actual      1\n  \
             negate not close(A)                          -                actual      1\n\
             plan r2 (full, reordered): 1 executions\n  \
             join trade(A, S)                             time-probe       actual      1\n  \
             join pos(A, P)                               value+time-probe actual      0\n  \
             assign F = (P * S)                           -                actual      0\n\
             plan r2 (delta literal 0): 2 executions\n  \
             join Δpos(A, P)                              time-probe       actual      2\n  \
             join trade(A, S)                             value+time-probe actual      1\n  \
             assign F = (P * S)                           -                actual      1\n"
        );
    }

    #[test]
    fn errors_are_reported_with_codes() {
        let fs = fake_fs(&[("bad.dmtl", "p(X :- q(X).")]);
        let err = run_cli(&args(&["run", "bad.dmtl"]), fs).unwrap_err();
        assert_eq!(err.code, 1);
        let fs = fake_fs(&[]);
        let err = run_cli(&args(&["run", "missing.dmtl"]), fs).unwrap_err();
        assert!(err.message.contains("cannot read"), "{}", err.message);
        let fs = fake_fs(&[]);
        let err = run_cli(&args(&["bogus"]), fs).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn multiple_files_merge() {
        let fs = fake_fs(&[
            ("rules.dmtl", "h(A) :- p(A), q(A)."),
            ("facts.dmtl", "p(x)@[0, 5].\nq(x)@[3, 9]."),
        ]);
        let out = run_cli(
            &args(&[
                "run",
                "rules.dmtl",
                "facts.dmtl",
                "--horizon",
                "0..10",
                "--query",
                "h(X)",
            ]),
            fs,
        )
        .unwrap();
        assert!(out.contains("h(x)@[3,5]"), "{out}");
    }

    #[test]
    fn query_with_constants_filters() {
        let fs = fake_fs(&[("f.dmtl", "p(x, 1)@0.\np(x, 2)@1.\np(y, 1)@2.")]);
        let out = run_cli(&args(&["run", "f.dmtl", "--query", "p(x, N)"]), fs).unwrap();
        assert!(out.contains("p(x, 1)@[0]"), "{out}");
        assert!(out.contains("p(x, 2)@[1]"), "{out}");
        assert!(!out.contains("p(y, 1)"), "{out}");
    }

    /// A recursive scenario with a bound query: the goal-driven default
    /// and the --no-magic ablation must print byte-identical answers, in
    /// batch and in session mode.
    const REACH: &str = "reach(X, Y) :- edge(X, Y).\n\
                         reach(X, Z) :- reach(X, Y), edge(Y, Z).\n\
                         edge(a, b)@[0, 10]. edge(b, c)@[0, 10]. edge(c, d)@[0, 8].\n\
                         edge(z, a)@[0, 6].";

    #[test]
    fn magic_and_no_magic_answers_are_byte_identical() {
        let run = |extra: &[&str]| {
            let mut a = vec![
                "run",
                "g.dmtl",
                "--horizon",
                "0..10",
                "--query",
                "reach(a, T)",
            ];
            a.extend_from_slice(extra);
            run_cli(&args(&a), fake_fs(&[("g.dmtl", REACH)])).unwrap()
        };
        let magic = run(&[]);
        assert_eq!(magic, run(&["--no-magic"]));
        assert_eq!(magic, run(&["--session"]));
        assert_eq!(magic, run(&["--session", "--no-magic"]));
        assert_eq!(magic, run(&["--threads", "4"]));
        assert!(magic.contains("reach(a, d)@[0,8]"), "{magic}");
        assert!(!magic.contains("reach(z"), "{magic}");
    }

    #[test]
    fn windowed_queries_clip_answers_in_both_modes() {
        let run = |extra: &[&str]| {
            let mut a = vec![
                "run",
                "g.dmtl",
                "--horizon",
                "0..10",
                "--query",
                "reach(a, T)@[3, 5]",
            ];
            a.extend_from_slice(extra);
            run_cli(&args(&a), fake_fs(&[("g.dmtl", REACH)])).unwrap()
        };
        let magic = run(&[]);
        assert_eq!(magic, run(&["--no-magic"]));
        assert!(magic.contains("reach(a, d)@[3,5]"), "{magic}");
        assert!(!magic.contains("@[2"), "{magic}");
    }

    #[test]
    fn explain_query_prints_the_rewrite_report() {
        let out = run_cli(
            &args(&[
                "run",
                "g.dmtl",
                "--horizon",
                "0..10",
                "--query",
                "reach(a, T)",
                "--explain-query",
            ]),
            fake_fs(&[("g.dmtl", REACH)]),
        )
        .unwrap();
        assert!(out.contains("-- explain-query reach(a, T) --"), "{out}");
        assert!(out.contains("mode: magic"), "{out}");
        assert!(out.contains("adornments:"), "{out}");
        assert!(out.contains("reach: bf -> magic_reach_bf"), "{out}");
        // The report precedes the answers, which are still printed.
        assert!(out.contains("-- query reach(a, T) --"), "{out}");
        assert!(out.contains("reach(a, b)@[0,10]"), "{out}");
    }

    #[test]
    fn query_parsing_edge_cases() {
        // Inverted window: a usage error naming the window.
        let err = run_cli(
            &args(&["run", "g.dmtl", "--query", "reach(a, T)@[5, 2]"]),
            fake_fs(&[("g.dmtl", REACH)]),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("lo > hi"), "{}", err.message);
        // Garbage atom: a usage error naming the query.
        let err = run_cli(
            &args(&["run", "g.dmtl", "--query", "reach(a"]),
            fake_fs(&[("g.dmtl", REACH)]),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("bad query"), "{}", err.message);
        // Unknown predicate: no matches, identically in both modes.
        let run = |extra: &[&str]| {
            let mut a = vec!["run", "g.dmtl", "--horizon", "0..10", "--query", "ghost(X)"];
            a.extend_from_slice(extra);
            run_cli(&args(&a), fake_fs(&[("g.dmtl", REACH)])).unwrap()
        };
        let magic = run(&[]);
        assert_eq!(magic, run(&["--no-magic"]));
        assert!(magic.contains("(no matches)"), "{magic}");
        // All-variable query (nothing bound): still goal-driven, still
        // byte-identical to the full model.
        let run = |extra: &[&str]| {
            let mut a = vec![
                "run",
                "g.dmtl",
                "--horizon",
                "0..10",
                "--query",
                "reach(X, Y)",
            ];
            a.extend_from_slice(extra);
            run_cli(&args(&a), fake_fs(&[("g.dmtl", REACH)])).unwrap()
        };
        assert_eq!(run(&[]), run(&["--no-magic"]));
    }

    #[test]
    fn negation_in_the_cone_keeps_negated_predicates_unguarded() {
        // `cool` depends on negated `hot`: `hot` (and everything below it)
        // must stay unguarded so the negation sees the complete relation,
        // while `cool` itself still takes a demand guard — answers equal
        // to the full model either way.
        let scenario = "hot(X) :- load(X, L), L > 5.\n\
                        cool(X) :- node(X), not hot(X).\n\
                        node(a)@[0, 9]. node(b)@[0, 9].\n\
                        load(a, 7)@[0, 9]. load(b, 3)@[0, 9].";
        let run = |query: &str, extra: &[&str]| {
            let mut a = vec!["run", "g.dmtl", "--horizon", "0..9", "--query", query];
            a.extend_from_slice(extra);
            run_cli(&args(&a), fake_fs(&[("g.dmtl", scenario)])).unwrap()
        };
        assert_eq!(run("cool(a)", &[]), run("cool(a)", &["--no-magic"]));
        assert_eq!(run("cool(b)", &[]), run("cool(b)", &["--no-magic"]));
        assert!(run("cool(b)", &[]).contains("cool(b)@[0,9]"));
        let report = run("cool(a)", &["--explain-query"]);
        assert!(report.contains("mode: magic"), "{report}");
        assert!(
            report.contains("unguardable (negation/aggregation): hot, load"),
            "{report}"
        );
        assert!(report.contains("hot(X) :- load(X, L), L > 5."), "{report}");
    }

    #[test]
    fn aggregate_queries_degrade_to_cone_mode_with_equal_answers() {
        // An aggregate head cannot take a demand guard (the guard would
        // change the aggregated multiset), so the whole cone is
        // unguardable and the query runs cone-restricted — but the
        // `other` rule outside the cone is still skipped.
        let scenario = "total(sum(M)) :- tran(A, M).\n\
                        other(X) :- noise(X).\n\
                        tran(acc1, 5.0)@[0, 9]. tran(acc2, 2.0)@[0, 9].\n\
                        noise(n)@[0, 9].";
        let run = |extra: &[&str]| {
            let mut a = vec!["run", "g.dmtl", "--horizon", "0..9", "--query", "total(T)"];
            a.extend_from_slice(extra);
            run_cli(&args(&a), fake_fs(&[("g.dmtl", scenario)])).unwrap()
        };
        let cone = run(&[]);
        assert_eq!(cone, run(&["--no-magic"]));
        assert!(cone.contains("total(7"), "{cone}");
        let report = run(&["--explain-query"]);
        assert!(report.contains("mode: cone"), "{report}");
        assert!(!report.contains("other(X)"), "{report}");
    }

    #[test]
    fn stats_json_reports_demand_restriction() {
        let dir = std::env::temp_dir().join("chronolog-cli-magic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_for = |extra: &[&str], name: &str| {
            let path = dir.join(name);
            let mut a = vec![
                "run",
                "g.dmtl",
                "--horizon",
                "0..10",
                "--query",
                "reach(a, T)",
                "--stats-json",
                path.to_str().unwrap(),
            ];
            a.extend_from_slice(extra);
            run_cli(&args(&a), fake_fs(&[("g.dmtl", REACH)])).unwrap();
            let report = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            std::fs::remove_file(&path).ok();
            report
        };
        let get = |r: &Json, field: &str| {
            r.get("magic")
                .and_then(|m| m.get(field))
                .cloned()
                .unwrap_or_else(|| panic!("missing magic.{field}"))
        };
        let goal = report_for(&[], "magic.json");
        assert_eq!(
            goal.get("schema_version").and_then(Json::as_u64),
            Some(REPORT_SCHEMA_VERSION)
        );
        assert_eq!(get(&goal, "mode").as_str(), Some("magic"));
        assert_eq!(get(&goal, "enabled").as_bool(), Some(true));
        assert_eq!(get(&goal, "degraded").as_bool(), Some(false));
        let demanded = get(&goal, "demanded_tuples").as_u64().unwrap();
        let full = report_for(&["--no-magic"], "full.json");
        assert_eq!(get(&full, "mode").as_str(), Some("full"));
        assert_eq!(get(&full, "enabled").as_bool(), Some(false));
        let full_tuples = get(&full, "demanded_tuples").as_u64().unwrap();
        // The bound query must not pay for the z-rooted reachability.
        assert!(
            demanded < full_tuples,
            "demanded {demanded} vs full {full_tuples}"
        );
    }
}
