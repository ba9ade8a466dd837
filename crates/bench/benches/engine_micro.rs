//! Microbenchmarks of the engine substrate: interval-set algebra, operator
//! transforms, parsing, and small materializations.

use chronolog_bench::microbench::{black_box, Bench};
use chronolog_core::{
    parse_program, parse_source, Database, Fact, Reasoner, ReasonerConfig, Value,
};
use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational};

fn bench_interval_sets(c: &mut Bench) {
    let mut group = c.group("interval_set");

    // Insertions that keep coalescing into one component (the propagation
    // pattern of the ETH-PERP recursion).
    group.bench_function("insert_coalescing_1k", |b| {
        b.iter(|| {
            let mut s = IntervalSet::new();
            for t in 0..1_000 {
                s.insert(Interval::closed_int(t, t + 1));
            }
            black_box(s)
        })
    });

    // Insertions that stay fragmented (event-style punctual facts).
    group.bench_function("insert_fragmented_1k", |b| {
        b.iter(|| {
            let mut s = IntervalSet::new();
            for t in 0..1_000 {
                s.insert(Interval::at(2 * t));
            }
            black_box(s)
        })
    });

    let coalesced = IntervalSet::from_interval(Interval::closed_int(0, 2_000));
    let fragmented: IntervalSet = (0..1_000).map(|t| Interval::at(2 * t)).collect();
    let rho = MetricInterval::closed_int(0, 5);

    group.bench_function("box_minus_coalesced", |b| {
        b.iter(|| black_box(coalesced.box_minus(&rho)))
    });
    group.bench_function("box_minus_fragmented_1k", |b| {
        b.iter(|| black_box(fragmented.box_minus(&rho)))
    });
    group.bench_function("diamond_minus_fragmented_1k", |b| {
        b.iter(|| black_box(fragmented.diamond_minus(&rho)))
    });

    let other: IntervalSet = (0..1_000).map(|t| Interval::at(2 * t + 1)).collect();
    group.bench_function("difference_1k_x_1k", |b| {
        b.iter(|| black_box(fragmented.difference(&other)))
    });
    group.bench_function("intersect_1k_x_1k", |b| {
        b.iter(|| black_box(fragmented.intersect(&other)))
    });
    group.bench_function("contains_binary_search_1k", |b| {
        b.iter(|| {
            let mut hits = 0;
            for t in 0..2_000 {
                if fragmented.contains(Rational::integer(t)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_parser(c: &mut Bench) {
    let perp_source = chronolog_perp::program::source(&chronolog_perp::MarketParams::default());
    c.bench_function("parse_ethperp_program", |b| {
        b.iter(|| parse_program(black_box(&perp_source)).unwrap())
    });
}

fn bench_small_materialization(c: &mut Bench) {
    // The isOpen/margin recursion over a 1000-step horizon.
    let (program, facts) = parse_source(
        "isOpen(A) :- tranM(A, M).\n\
         isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
         margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
         changeM(A) :- tranM(A, M).\n\
         margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
         tranM(acc1, 50.0)@3.\n\
         tranM(acc2, 70.0)@100.\n\
         withdraw(acc2)@600.",
    )
    .unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    c.bench_function("materialize_recursion_1k_steps", |b| {
        b.iter_batched(
            || {
                Reasoner::new(
                    program.clone(),
                    ReasonerConfig::default().with_horizon(0, 1_000),
                )
                .unwrap()
            },
            |r| r.materialize(&db).unwrap(),
        )
    });
}

/// A join-heavy workload: two 600-tuple relations joined on a key drawn
/// from 40 distinct values, plus a second rule re-joining the result. Each
/// binding probes a ~15-tuple value-index bucket instead of walking the 600
/// tuples. The workload has >256 bindings per rule, so the `threads4`
/// variant also exercises the binding fan-out inside a rule.
fn bench_join_heavy(c: &mut Bench) {
    let src = "linked(X, Z) :- r(X, K), s(K, Z).\n\
               closed(X, Z) :- linked(X, Z), r(Z, K2), s(K2, X).";
    let program = parse_program(src).unwrap();
    let mut db = Database::new();
    for i in 0..600i64 {
        db.assert_at("r", &[Value::Int(i), Value::Int(i % 40)], i % 8);
        db.assert_at("s", &[Value::Int(i % 40), Value::Int(i)], i % 8);
    }

    let run = |threads: usize, db: &Database| {
        let config = ReasonerConfig::default()
            .with_horizon(0, 8)
            .with_threads(threads);
        Reasoner::new(program.clone(), config)
            .unwrap()
            .materialize(db)
            .unwrap()
    };

    let mut group = c.group("join_heavy");
    group.sample_size(10);
    group.bench_function("indexed/threads1", |b| b.iter(|| black_box(run(1, &db))));
    group.bench_function("indexed/threads4", |b| b.iter(|| black_box(run(4, &db))));
    // Same workload, but one `Reasoner` — and therefore one persistent
    // worker pool — reused across runs. The plain `threads4` variant above
    // builds a fresh `Reasoner` per run, so every run pays the pool spawn;
    // this one pays it once.
    let warm = Reasoner::new(
        program.clone(),
        ReasonerConfig::default().with_horizon(0, 8).with_threads(4),
    )
    .unwrap();
    group.bench_function("indexed/threads4_warm_pool", |b| {
        b.iter(|| black_box(warm.materialize(&db).unwrap()))
    });
    group.finish();
}

/// A windowed join over a long-lived relation: `load` holds 4000 punctual
/// tuples spread over t∈[0,4000), but each outer binding only needs the
/// ~3-instant slice its pushed-down mask selects: the time index
/// binary-searches the sorted endpoint array for that slice instead of
/// clipping every candidate tuple's interval set against the mask.
fn bench_windowed_join(c: &mut Bench) {
    // `unkeyed`: the inner literal has no bound argument, so the time
    // index is the only selective access path.
    // `keyed`: the inner literal is also value-bound, so the probe is the
    // composed (value, window) lookup from the most-selective bucket.
    let src = "near(X, L) :- ev(X), diamondminus[0, 2] load(L).\n\
               linked(X, L) :- evk(X, K), diamondminus[0, 2] loadk(K, L).";
    let program = parse_program(src).unwrap();
    let mut db = Database::new();
    for j in 0..4000i64 {
        db.assert_at("load", &[Value::Int(j)], j);
        db.assert_at("loadk", &[Value::Int(j % 40), Value::Int(j)], j);
    }
    for i in 0..50i64 {
        db.assert_at("ev", &[Value::Int(i)], i);
        db.assert_at("evk", &[Value::Int(i), Value::Int(i % 40)], i);
    }

    let run = |db: &Database| {
        Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(0, 50),
        )
        .unwrap()
        .materialize(db)
        .unwrap()
    };

    let mut group = c.group("windowed_join");
    group.sample_size(10);
    group.bench_function("time_indexed", |b| b.iter(|| black_box(run(&db))));
    group.finish();
}

/// Span-profiler overhead on the join-heavy workload: the same
/// materialization with no recorder, with a recorder attached (spans
/// written to per-lane buffers), and the export step on its own. The
/// `profiled` variant bounds the per-span cost in context; `disabled`
/// is the baseline that must stay unaffected.
fn bench_profiling_overhead(c: &mut Bench) {
    let src = "linked(X, Z) :- r(X, K), s(K, Z).\n\
               closed(X, Z) :- linked(X, Z), r(Z, K2), s(K2, X).";
    let program = parse_program(src).unwrap();
    let mut db = Database::new();
    for i in 0..600i64 {
        db.assert_at("r", &[Value::Int(i), Value::Int(i % 40)], i % 8);
        db.assert_at("s", &[Value::Int(i % 40), Value::Int(i)], i % 8);
    }

    let run = |profiler: Option<chronolog_obs::SpanRecorder>, db: &Database| {
        let config = ReasonerConfig {
            profiler,
            ..ReasonerConfig::default().with_horizon(0, 8)
        };
        Reasoner::new(program.clone(), config)
            .unwrap()
            .materialize(db)
            .unwrap()
    };

    let mut group = c.group("profiling");
    group.sample_size(10);
    group.bench_function("disabled", |b| b.iter(|| black_box(run(None, &db))));
    group.bench_function("profiled", |b| {
        b.iter(|| {
            let rec = chronolog_obs::SpanRecorder::new();
            black_box(run(Some(rec.clone()), &db));
            black_box(rec.spans_recorded())
        })
    });
    let rec = chronolog_obs::SpanRecorder::new();
    run(Some(rec.clone()), &db);
    group.bench_function("export_chrome_trace", |b| {
        b.iter(|| black_box(rec.to_chrome_trace().to_compact()))
    });
    group.bench_function("export_folded", |b| b.iter(|| black_box(rec.to_folded())));
    group.finish();
}

/// The streaming execution model vs repeated batch runs: one event per
/// tick over the margin recursion. The warm chain advances a single
/// `Session` (boundary-slice seeding, clone-preserved indexes); the cold
/// chain re-materializes the growing database from scratch at every tick.
fn bench_session_stream(c: &mut Bench) {
    let src = "isOpen(A) :- tranM(A, M).\n\
               isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
               changeM(A) :- tranM(A, M).\n\
               margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
               margin(A, M) :- diamondminus margin(A, M), not changeM(A).";
    let program = parse_program(src).unwrap();
    const STEPS: i64 = 40;
    let accounts = ["acc0", "acc1", "acc2"];

    let mut group = c.group("session_stream");
    group.sample_size(10);
    group.bench_function("warm_advance_chain", |b| {
        b.iter(|| {
            let mut s = Reasoner::new(program.clone(), ReasonerConfig::default())
                .unwrap()
                .into_session(&Database::new(), 0)
                .unwrap();
            for t in 1..=STEPS {
                let acc = accounts[(t % 3) as usize];
                s.submit(Fact::at(
                    "tranM",
                    vec![Value::sym(acc), Value::num(t as f64)],
                    t,
                ))
                .unwrap();
                s.advance_to(t).unwrap();
            }
            black_box(s.database().tuple_count())
        })
    });
    group.bench_function("cold_rematerialize_chain", |b| {
        b.iter(|| {
            let mut db = Database::new();
            let mut last = 0;
            for t in 1..=STEPS {
                let acc = accounts[(t % 3) as usize];
                db.assert_at("tranM", &[Value::sym(acc), Value::num(t as f64)], t);
                let m = Reasoner::new(
                    program.clone(),
                    ReasonerConfig::default().with_horizon(0, t),
                )
                .unwrap()
                .materialize(&db)
                .unwrap();
                last = m.database.tuple_count();
            }
            black_box(last)
        })
    });
    group.finish();
}

/// One selective rule over a 20k-tuple relation, and the relation's storage
/// footprint as `bytes_per_tuple` in the JSON report (with the `Value` /
/// `Interval` ABI sizes in `environment` for context). The figure recorded
/// in `BENCH_engine.json` was taken with the value and time indexes
/// switched off — a raw scan of the flat `u32` columns per binding; that
/// switch is retired (`docs/PERFORMANCE.md`, "Retired ablations"), so a
/// fresh run times the default probe of the same workload instead.
fn bench_columnar_scan(c: &mut Bench) {
    let src = "hit(X, V) :- sel(X), big(X, V).";
    let program = parse_program(src).unwrap();
    const TUPLES: i64 = 20_000;
    let mut db = Database::new();
    for i in 0..TUPLES {
        db.assert_at("big", &[Value::Int(i % 500), Value::Int(i)], i % 16);
    }
    for t in 0..16i64 {
        db.assert_at("sel", &[Value::Int(7)], t);
        db.assert_at("sel", &[Value::Int(333)], t);
    }

    let run = |db: &Database| {
        Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(0, 16),
        )
        .unwrap()
        .materialize(db)
        .unwrap()
    };

    let mut group = c.group("columnar_scan");
    group.sample_size(10);
    group.bench_function("columnar", |b| b.iter(|| black_box(run(&db))));
    group.finish();
    let per_tuple = db.storage_bytes() as f64 / db.tuple_count().max(1) as f64;
    c.annotate_bytes_per_tuple("columnar_scan/columnar", per_tuple);
}

fn bench_repair(c: &mut Bench) {
    // Out-of-order corrections on a warm session: each iteration is a
    // state-restoring retract + late-resubmit of one mid-history fact, so
    // the session is identical before and after and iterations are
    // comparable. `repair_small_cone` takes the incremental DRed path
    // (overdelete the affected cone, rederive from the boundary);
    // `repair_fallback_cold` runs on a zero repair budget, which every cone
    // trips into the cold re-materialization fallback — the gap between
    // the two is the payoff of the incremental path.
    let src = "isOpen(A) :- tranM(A, M).\n\
               isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
               changeM(A) :- tranM(A, M).\n\
               margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
               margin(A, M) :- diamondminus margin(A, M), not changeM(A).";
    let program = parse_program(src).unwrap();
    const STEPS: i64 = 40;
    let accounts = ["acc0", "acc1", "acc2"];
    let build_session = |config: ReasonerConfig| {
        let mut s = Reasoner::new(program.clone(), config)
            .unwrap()
            .into_session(&Database::new(), 0)
            .unwrap();
        for t in 1..=STEPS {
            let acc = accounts[(t % 3) as usize];
            s.submit(Fact::at(
                "tranM",
                vec![Value::sym(acc), Value::num(t as f64)],
                t,
            ))
            .unwrap();
            s.advance_to(t).unwrap();
        }
        s
    };
    // A fact near the watermark: the affected cone is a short suffix of
    // the timeline, the case the incremental path exists for.
    let churn = Fact::at(
        "tranM",
        vec![Value::sym(accounts[35 % 3]), Value::num(35.0)],
        35,
    );

    let mut group = c.group("repair");
    group.sample_size(10);
    let mut warm = build_session(ReasonerConfig::default());
    // One unmeasured cycle up front: it proves the path assertion below
    // even when a --filter skips the timed iterations, and warms the
    // session so the first sample is comparable to the rest.
    warm.retract(churn.clone()).unwrap();
    warm.submit_late(churn.clone()).unwrap();
    group.bench_function("repair_small_cone", |b| {
        b.iter(|| {
            warm.retract(churn.clone()).unwrap();
            let report = warm.submit_late(churn.clone()).unwrap();
            black_box(report.cone_tuples)
        })
    });
    assert!(warm.stats().repairs.incremental > 0);
    let mut cold = build_session(ReasonerConfig::default().with_repair_budget(0));
    cold.retract(churn.clone()).unwrap();
    cold.submit_late(churn.clone()).unwrap();
    group.bench_function("repair_fallback_cold", |b| {
        b.iter(|| {
            cold.retract(churn.clone()).unwrap();
            let report = cold.submit_late(churn.clone()).unwrap();
            black_box(report.cone_tuples)
        })
    });
    assert!(cold.stats().repairs.fallbacks > 0);
    group.finish();
}

/// Goal-driven point queries vs full materialization. The netting corpus
/// is the magic-sets showcase: a bound-counterparty `exposure` query
/// demands a few hundred tuples of a ~7k-tuple model, so the rewrite
/// should win outright. The ETH-PERP funding query lands in cone mode
/// (the funding pipeline leans on negation/aggregation, which cannot be
/// demand-guarded) — there the comparison bounds the cost of degradation
/// instead.
fn bench_point_query(c: &mut Bench) {
    let netting = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/netting.dmtl"),
    )
    .unwrap();
    let (program, facts) = parse_source(&netting).unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let reasoner = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 20)).unwrap();
    let query = chronolog_core::parse_query("exposure(cp0, X)").unwrap();

    let mut group = c.group("point_query");
    group.sample_size(10);
    group.bench_function("netting_magic", |b| {
        b.iter(|| black_box(reasoner.query(&db, &query).unwrap().answers.len()))
    });
    group.bench_function("netting_full", |b| {
        b.iter(|| {
            let m = reasoner.materialize(&db).unwrap();
            black_box(m.database.query(&query.atom, None).len())
        })
    });

    let config = chronolog_market::paper_intervals().remove(1);
    let trace = chronolog_market::generate(&config);
    let params = chronolog_perp::MarketParams::default();
    let perp_program = chronolog_perp::program::build(&params).unwrap();
    let encoded = chronolog_perp::encode::encode(&trace);
    let perp_reasoner = Reasoner::new(
        perp_program,
        ReasonerConfig::default().with_horizon(encoded.horizon.0, encoded.horizon.1),
    )
    .unwrap();
    let frs = chronolog_core::parse_query("frs(F)").unwrap();
    group.bench_function("ethperp_frs_magic", |b| {
        b.iter(|| {
            black_box(
                perp_reasoner
                    .query(&encoded.database, &frs)
                    .unwrap()
                    .answers
                    .len(),
            )
        })
    });
    group.bench_function("ethperp_frs_full", |b| {
        b.iter(|| {
            let m = perp_reasoner.materialize(&encoded.database).unwrap();
            black_box(m.database.query(&frs.atom, None).len())
        })
    });
    group.finish();
}

fn main() {
    let mut c = Bench::from_env();
    bench_interval_sets(&mut c);
    bench_parser(&mut c);
    bench_small_materialization(&mut c);
    bench_join_heavy(&mut c);
    bench_profiling_overhead(&mut c);
    bench_windowed_join(&mut c);
    bench_columnar_scan(&mut c);
    bench_session_stream(&mut c);
    bench_repair(&mut c);
    bench_point_query(&mut c);
    c.set_env("value_size_bytes", std::mem::size_of::<Value>() as u64);
    c.set_env(
        "interval_size_bytes",
        std::mem::size_of::<Interval>() as u64,
    );
}
