//! Accounting invariants of the engine's observability layer.
//!
//! The per-rule and per-stratum breakdowns in [`RunStats`] are not
//! best-effort samples: for a batch materialization they must tie out
//! exactly against the run totals — also for rules evaluated in full every
//! round. These tests pin that over the corpus programs and the
//! random-program generator's fact shapes.

use chronolog_core::{parse_source, Database, Reasoner, ReasonerConfig, RunStats};
use chronolog_obs::{SpanRecord, SpanRecorder};

/// Every checked-in corpus program, with a horizon wide enough to cover
/// its inline facts.
fn corpus() -> Vec<(&'static str, String, i64, i64)> {
    ["fibonacci", "funding", "margin", "netting", "sla"]
        .into_iter()
        .map(|name| {
            let path = format!("{}/../../corpus/{name}.dmtl", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            (name, src, 0, 40)
        })
        .collect()
}

fn materialize(src: &str, lo: i64, hi: i64) -> (RunStats, String) {
    let (program, facts) = parse_source(src).unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let m = Reasoner::new(program, ReasonerConfig::default().with_horizon(lo, hi))
        .unwrap()
        .materialize(&db)
        .unwrap();
    let text = m.database.to_facts_text();
    (m.stats, text)
}

/// The value of a span's counter, if it carries one named `key`.
fn counter(span: &SpanRecord, key: &str) -> Option<u64> {
    span.counters
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
}

/// Per-rule and per-stratum sections must sum exactly to the run totals.
fn check_breakdown_ties_out(name: &str, stats: &RunStats) {
    let rule_body_evals: usize = stats.rules.iter().map(|r| r.body_evaluations).sum();
    assert_eq!(
        rule_body_evals, stats.rule_evaluations,
        "{name}: per-rule body_evaluations must sum to rule_evaluations"
    );
    let rule_tuples: usize = stats.rules.iter().map(|r| r.tuples_derived).sum();
    assert_eq!(
        rule_tuples, stats.derived_tuples,
        "{name}: per-rule tuples_derived must sum to derived_tuples"
    );
    let rule_components: usize = stats.rules.iter().map(|r| r.components_added).sum();
    assert_eq!(
        rule_components, stats.derived_components,
        "{name}: per-rule components_added must sum to derived_components"
    );

    let stratum_evals: usize = stats.strata.iter().map(|s| s.rule_evaluations).sum();
    assert_eq!(
        stratum_evals, stats.rule_evaluations,
        "{name}: strata evals"
    );
    let stratum_tuples: usize = stats.strata.iter().map(|s| s.tuples_derived).sum();
    assert_eq!(
        stratum_tuples, stats.derived_tuples,
        "{name}: strata tuples"
    );
    let stratum_components: usize = stats.strata.iter().map(|s| s.components_added).sum();
    assert_eq!(
        stratum_components, stats.derived_components,
        "{name}: strata components"
    );
    assert_eq!(
        stats.strata.len(),
        stats.iterations.len(),
        "{name}: one StratumStats per executed stratum"
    );
    for s in &stats.strata {
        assert_eq!(
            s.iterations, stats.iterations[s.stratum],
            "{name}: stratum {} iteration count mismatch",
            s.stratum
        );
    }
    // Derivation flow is monotone per rule: a rule cannot add more tuples
    // than it produced derivations, nor more components than it emitted.
    for r in &stats.rules {
        assert!(
            r.tuples_derived <= r.derivations,
            "{name}: rule {} derived {} tuples from {} derivations",
            r.rule,
            r.tuples_derived,
            r.derivations
        );
        assert!(
            r.components_added <= r.components_emitted,
            "{name}: rule {} added {} components but emitted {}",
            r.rule,
            r.components_added,
            r.components_emitted
        );
    }
}

#[test]
fn per_rule_sums_equal_run_totals_on_corpus() {
    for (name, src, lo, hi) in corpus() {
        let (stats, _) = materialize(&src, lo, hi);
        check_breakdown_ties_out(name, &stats);
    }
}

/// A current-stratum atom under a box of positive length or under
/// `since`/`until` carries no delta, so its rule is evaluated naively — in
/// full every round; the breakdown must tie out for those rounds too.
#[test]
fn naive_mode_breakdown_also_ties_out() {
    let src = "held(A) :- diamondminus[0, 2] tranM(A, M).\n\
               held(A) :- boxminus[1, 2] held(A), open(A).\n\
               fresh(A) :- tranM(A, M).\n\
               fresh(A) :- since[0, 3](open(A), fresh(A)).\n\
               boxplus[0, 2] due(A) :- withdraw(A).\n\
               due(A) :- until[1, 2](open(A), due(A)).\n\
               tranM(a, 1)@2.\n\
               tranM(b, 5)@9.\n\
               open(a)@[1, 12].\n\
               open(b)@[8, 30].\n\
               withdraw(a)@11.\n\
               withdraw(b)@26.";
    let (stats, _) = materialize(src, 0, 40);
    assert!(
        stats.iterations.iter().any(|&rounds| rounds > 2),
        "the full rules take several rounds"
    );
    check_breakdown_ties_out("full-mode", &stats);
}

/// Rules that never fire still appear in the breakdown (with zero
/// evaluations), so dashboards can distinguish "dead rule" from "missing
/// data"; rule indices are the program order.
#[test]
fn every_rule_is_accounted_for() {
    for (name, src, lo, hi) in corpus() {
        let (program, _) = parse_source(&src).unwrap();
        let n_rules = program.rules.len();
        let (stats, _) = materialize(&src, lo, hi);
        assert_eq!(stats.rules.len(), n_rules, "{name}: one RuleStats per rule");
        for (i, r) in stats.rules.iter().enumerate() {
            assert_eq!(r.rule, i, "{name}: rule index order");
            assert!(
                !r.head.is_empty(),
                "{name}: rule {i} missing head predicate"
            );
            assert!(!r.label.is_empty(), "{name}: rule {i} missing label");
        }
    }
}

/// Every positive-atom lookup lands in exactly one of `index_probes` /
/// `full_scans`, the time index is only ever consulted by an index probe,
/// and it can only rule out tuples that probe skipped.
#[test]
fn join_path_counters_account_for_every_lookup() {
    for (name, src, lo, hi) in corpus() {
        let (stats, _) = materialize(&src, lo, hi);
        assert!(
            stats.index_probes + stats.full_scans >= stats.rule_evaluations as u64,
            "{name}: a body evaluation performs at least one lookup"
        );
        assert!(
            stats.time_index_probes <= stats.index_probes,
            "{name}: time-index probes are a subset of index probes"
        );
        assert!(
            stats.interval_clips_avoided <= stats.index_scan_avoided,
            "{name}: clips avoided only on tuples an index already skipped"
        );
    }
}

/// A semi-naive variant runs only in rounds where its delta relation holds
/// something — and does run when that delta arrives rounds later. `p`, `q`
/// and `r` share a stratum: round 0 evaluates all three in full and derives
/// `p`; round 1 has Δp only, so `q`'s variant and `r`'s Δp variant run and
/// `r`'s Δq variant is skipped; round 2 has Δq only, so `r`'s Δq variant
/// fires (and derives `r`) while its Δp variant and `q` are skipped; round 3
/// has Δr, which nobody reads.
#[test]
fn empty_delta_variants_are_skipped_and_late_deltas_still_fire() {
    let (stats, text) = materialize(
        "p(X) :- e(X).\n\
         q(X) :- diamondminus[1, 1] p(X).\n\
         r(X) :- p(X), q(X).\n\
         e(a)@[0, 5].",
        0,
        10,
    );
    assert!(text.contains("r(a)@[1,5]."), "{text}");
    assert_eq!(stats.iterations, [4]);
    let evals: Vec<usize> = stats.rules.iter().map(|r| r.body_evaluations).collect();
    assert_eq!(evals, [1, 2, 3], "p once, q full + Δp, r full + Δp + Δq");
    assert_eq!(stats.rule_evaluations, 6);
    check_breakdown_ties_out("late delta", &stats);
}

/// Plans belong to the reasoner and keep counting executions for later
/// runs; the explains of a `RunStats` are that run's own and do not move.
#[test]
fn plan_explains_are_a_snapshot_of_their_own_run() {
    let (program, facts) = parse_source(
        "p(X) :- e(X).\n\
         p(X) :- diamondminus[1, 1] p(X), e(X).\n\
         e(a)@[0, 5].",
    )
    .unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let reasoner = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 10)).unwrap();
    let first = reasoner.materialize(&db).unwrap().stats;
    let before = first.plan_explains();
    let second = reasoner.materialize(&db).unwrap().stats;
    assert_eq!(
        first.plan_explains(),
        before,
        "a later run moved the counts"
    );
    assert_eq!(second.plan_explains(), before, "same input, same plans");
    for stats in [&first, &second] {
        for r in &stats.rules {
            let executions: u64 = stats
                .plan_explains()
                .iter()
                .filter(|p| p.rule == r.rule)
                .map(|p| p.executions)
                .sum();
            assert_eq!(executions, r.body_evaluations as u64, "rule {}", r.rule);
        }
    }
}

/// An evaluation is counted twice. `planner_actual_rows` counts bindings —
/// the rows out of each plan's last join step, before the union — and is
/// exactly the sum of the plan explains' `actual_rows`. `derivations`
/// counts head rows after the union: one per head tuple per evaluation
/// (plus chain-closure steps). On netting, with no frame rule, 250 020
/// bindings become 58 260 head rows.
#[test]
fn bindings_and_head_rows_are_counted_apart() {
    for (name, src, lo, hi) in corpus() {
        let (stats, _) = materialize(&src, lo, hi);
        let explained: u64 = stats.plan_explains().iter().map(|p| p.actual_rows).sum();
        assert_eq!(
            stats.planner_actual_rows, explained,
            "{name}: planner actual rows are the plans' binding rows"
        );
        if name == "netting" {
            let rows: usize = stats.rules.iter().map(|r| r.derivations).sum();
            let emitted: usize = stats.rules.iter().map(|r| r.components_emitted).sum();
            assert_eq!((rows, emitted), (58_260, 58_260), "{name}");
            assert_eq!(stats.planner_actual_rows, 250_020, "{name}");
            assert_eq!(stats.derived_components, 7_200, "{name}");
        }
    }
}

/// A lookup against a relation with no facts at all is still a lookup:
/// it must land in `full_scans` (walking zero tuples), not vanish.
#[test]
fn missing_relations_count_as_zero_tuple_full_scans() {
    let (program, facts) = parse_source("h(X) :- e(X), ghost(X).\ne(a)@0.").unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    // `e` is joined first and yields one binding, which looks `ghost` up —
    // a lookup that is still accounted, as a scan of zero tuples.
    let stats = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 5))
        .unwrap()
        .materialize(&db)
        .unwrap()
        .stats;
    assert_eq!(
        (stats.full_scans, stats.index_probes, stats.scanned_tuples),
        (2, 0, 1),
        "the ghost lookup must be accounted: {stats:?}"
    );
}

/// The persistent worker pool is spawned at most once per run and reused
/// across iterations and strata; respawn accounting must reflect that.
#[test]
fn worker_pool_spawns_at_most_once_per_run() {
    for (name, src, lo, hi) in corpus() {
        let (program, facts) = parse_source(&src).unwrap();
        let mut db = Database::new();
        db.extend_facts(&facts).unwrap();
        let stats = Reasoner::new(
            program,
            ReasonerConfig {
                threads: 4,
                ..ReasonerConfig::default().with_horizon(lo, hi)
            },
        )
        .unwrap()
        .materialize(&db)
        .unwrap()
        .stats;
        assert!(
            stats.pool_respawns <= 1,
            "{name}: pool must be constructed at most once per run, got {}",
            stats.pool_respawns
        );
        assert!(
            stats.pool_respawns as usize <= stats.strata.len().max(1),
            "{name}: respawns bounded by executed strata"
        );
        // A sequential run never builds the pool at all.
        let (seq, _) = materialize(&src, lo, hi);
        assert_eq!(
            seq.pool_respawns, 0,
            "{name}: sequential run spawned a pool"
        );
        assert_eq!(seq.pool_reuses, 0, "{name}: sequential run reused a pool");
    }
}

/// Profiler spans and stats wall clocks measure the same run, so they must
/// agree: each `stratum {i}` span brackets that stratum's timed section
/// (span duration >= reported `wall_us`, within µs-truncation slack), and
/// on every lane the root-level spans run serially, so their summed
/// duration cannot exceed the run's total elapsed time.
#[test]
fn profiler_spans_tie_out_against_stratum_walls() {
    for (name, src, lo, hi) in corpus() {
        for threads in [1, 4] {
            let (program, facts) = parse_source(&src).unwrap();
            let mut db = Database::new();
            db.extend_facts(&facts).unwrap();
            let recorder = SpanRecorder::new();
            let stats = Reasoner::new(
                program,
                ReasonerConfig {
                    threads,
                    profiler: Some(recorder.clone()),
                    ..ReasonerConfig::default().with_horizon(lo, hi)
                },
            )
            .unwrap()
            .materialize(&db)
            .unwrap()
            .stats;

            let lanes = recorder.lanes();
            let span = |target: &str| -> Option<&SpanRecord> {
                lanes
                    .iter()
                    .flat_map(|(_, records)| records.iter())
                    .find(|r| r.name == target)
            };
            let span_dur = |target: &str| span(target).map(|r| r.dur_us);
            for s in &stats.strata {
                let dur = span_dur(&format!("stratum {}", s.stratum))
                    .unwrap_or_else(|| panic!("{name}: no span for stratum {}", s.stratum));
                // The span opens before the stratum wall clock starts and
                // closes after it stops; truncating both endpoints to whole
                // µs can shave at most 1 µs off either side.
                assert!(
                    dur + 2 >= s.wall.as_micros() as u64,
                    "{name} ({threads} threads): stratum {} span {}us shorter than wall {}us",
                    s.stratum,
                    dur,
                    s.wall.as_micros() as u64
                );
            }
            // The `materialize` span brackets the whole run (it opens
            // before and closes after the `elapsed` timer), so it both
            // dominates the reported elapsed time and bounds every lane.
            let mat_us = span_dur("materialize").expect("materialize root span");
            assert!(
                mat_us + 2 >= stats.elapsed.as_micros() as u64,
                "{name} ({threads} threads): materialize span {}us shorter than elapsed {:?}",
                mat_us,
                stats.elapsed
            );
            // Its counters are the run totals.
            let mat = span("materialize").unwrap();
            for (key, expected) in [
                ("rules", stats.rules.len()),
                ("strata", stats.strata.len()),
                ("input_tuples", db.tuple_count()),
                ("derived_tuples", stats.derived_tuples),
                ("total_components", stats.total_components),
                ("rule_evaluations", stats.rule_evaluations),
            ] {
                assert_eq!(
                    counter(mat, key),
                    Some(expected as u64),
                    "{name} ({threads} threads): materialize span counter {key}"
                );
            }
            for (lane, records) in &lanes {
                let roots: Vec<_> = records.iter().filter(|r| r.depth == 0).collect();
                let sum: u64 = roots.iter().map(|r| r.dur_us).sum();
                // Root spans on one lane never overlap (one thread runs
                // them back to back) and all fall inside the materialize
                // window, so their sum is bounded by it (1 µs truncation
                // slack per span).
                assert!(
                    sum <= mat_us + roots.len() as u64,
                    "{name} ({threads} threads): lane {lane} root spans sum to {sum}us \
                     but materialize took {mat_us}us"
                );
            }
        }
    }
}

/// The spans are the one timeline: over a session that advances, retracts
/// and late-submits — at the default repair budget and at budget 0, where
/// every correction trips the cold fallback — the `iteration`, `stratum`,
/// `advance` and `repair` spans count and sum to exactly what `RunStats`
/// reports, so nothing the stats say needs a second event stream.
#[test]
fn session_spans_tie_out_against_run_stats() {
    use chronolog_core::{Fact, Value};
    let rules = "isOpen(A) :- tranM(A, M).\n\
         isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
         margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
         changeM(A) :- tranM(A, M).\n\
         changeM(A) :- withdraw(A).\n\
         margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
         margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.";
    let tran = |m: f64, t: i64| Fact::at("tranM", vec![Value::sym("acc"), Value::num(m)], t);
    for budget in [ReasonerConfig::default().repair_budget, 0] {
        let (program, _) = parse_source(rules).unwrap();
        let recorder = SpanRecorder::new();
        let config = ReasonerConfig {
            profiler: Some(recorder.clone()),
            ..ReasonerConfig::default().with_repair_budget(budget)
        };
        let mut session = Reasoner::new(program, config)
            .unwrap()
            .into_session(&Database::new(), 0)
            .unwrap();
        session.submit(tran(97.0, 3)).unwrap();
        session.advance_to(10).unwrap();
        session.submit_late(tran(3.0, 5)).unwrap();
        session.retract(tran(97.0, 3)).unwrap();
        session
            .submit(Fact::at("withdraw", vec![Value::sym("acc")], 12))
            .unwrap();
        session.advance_to(15).unwrap();
        // `into_session` materializes the starting instant: one advance.
        let advances = 3;

        let stats = session.stats();
        assert_eq!(recorder.dropped(), 0);
        let lanes = recorder.lanes();
        let spans: Vec<&SpanRecord> = lanes.iter().flat_map(|(_, r)| r.iter()).collect();
        let named = |name: &str| -> Vec<&SpanRecord> {
            spans.iter().copied().filter(|s| s.name == name).collect()
        };
        let sum = |of: &[&SpanRecord], key: &str| -> u64 {
            of.iter()
                .map(|s| counter(s, key).unwrap_or_else(|| panic!("{} has no {key}", s.name)))
                .sum()
        };

        assert_eq!(
            named("iteration").len(),
            stats.iterations.iter().sum::<usize>(),
            "budget {budget}: one iteration span per counted fixpoint round"
        );
        for row in &stats.strata {
            let of = named(&format!("stratum {}", row.stratum));
            assert_eq!(sum(&of, "iterations"), row.iterations as u64);
            assert_eq!(sum(&of, "tuples_derived"), row.tuples_derived as u64);
            assert_eq!(sum(&of, "components_added"), row.components_added as u64);
        }
        assert_eq!(named("advance").len(), advances, "budget {budget}");

        let repairs = named("repair");
        let r = &stats.repairs;
        assert_eq!(r.attempted, 2);
        assert_eq!(repairs.len() as u64, r.attempted, "budget {budget}");
        assert_eq!(sum(&repairs, "cone_tuples"), r.cone_tuples);
        assert_eq!(
            sum(&repairs, "overdeleted_components"),
            r.overdeleted_components
        );
        assert_eq!(sum(&repairs, "fallback"), r.fallbacks);
        // Both budgets do what they are here for.
        assert_eq!(r.fallbacks, if budget == 0 { 2 } else { 0 });
        assert_eq!(r.budget_trips, r.fallbacks);
        assert!(r.cone_tuples > 0, "budget {budget}: {r:?}");
        assert_eq!(r.overdeleted_components > 0, budget != 0, "{r:?}");
    }
}

/// A read is one span: every `explain` — batch or session — opens one
/// `explain` span whose counters describe the tree it returned, and every
/// goal-driven query one `query` span counting its answers.
#[test]
fn explain_and_query_are_one_span_each() {
    use chronolog_core::{parse_query, Fact, Value};
    let (program, facts) = parse_source(&corpus()[2].1).unwrap();
    let recorder = SpanRecorder::new();
    let config = ReasonerConfig {
        profiler: Some(recorder.clone()),
        ..ReasonerConfig::default().with_horizon(0, 20)
    };
    let mut input = Database::new();
    input.extend_facts(&facts).unwrap();
    let reasoner = Reasoner::new(program, config).unwrap();
    let model = reasoner.materialize(&input).unwrap().database;
    let margin = [Value::sym("acc123"), Value::num(100.0)];
    let batch = reasoner
        .explain(&input, &model, "margin", &margin, 14)
        .unwrap()
        .unwrap();
    let query = parse_query("margin(acc123, M)@[0, 20]").unwrap();
    let answers = reasoner.query(&input, &query).unwrap().answers.len();

    let mut session = reasoner.into_session(&Database::new(), 0).unwrap();
    for fact in facts
        .iter()
        .filter(|f| f.interval.lo().finite().unwrap() > 0.into())
    {
        session.submit(Fact::clone(fact)).unwrap();
    }
    session.advance_to(20).unwrap();
    let streamed = session.explain("margin", &margin, 14).unwrap().unwrap();
    assert_eq!(streamed.to_string(), batch.to_string());
    assert_eq!(session.query(&query).unwrap().answers.len(), answers);

    let lanes = recorder.lanes();
    let named = |name: &str| -> Vec<SpanRecord> {
        lanes
            .iter()
            .flat_map(|(_, r)| r.iter())
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    };
    let explains = named("explain");
    assert_eq!(explains.len(), 2);
    for span in &explains {
        assert_eq!(counter(span, "nodes"), Some(batch.nodes() as u64));
        assert_eq!(counter(span, "height"), Some(batch.height() as u64));
        assert!(counter(span, "rule_instances").unwrap() > 0);
    }
    let queries = named("query");
    assert_eq!(queries.len(), 2);
    for span in &queries {
        assert_eq!(counter(span, "answers"), Some(answers as u64));
    }
}

/// An empty database still produces a well-formed (all-zero) breakdown.
#[test]
fn stats_on_empty_input_are_well_formed() {
    let (program, _) =
        parse_source("p(X) :- q(X).\nr(X) :- boxminus r(X).\nr(X) :- p(X).").unwrap();
    let m = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 10))
        .unwrap()
        .materialize(&Database::new())
        .unwrap();
    check_breakdown_ties_out("empty", &m.stats);
    assert_eq!(m.stats.derived_tuples, 0);
    assert!(m.stats.rules.iter().all(|r| r.tuples_derived == 0));
}
