//! Storage and interval-algebra replays over a workload's own final
//! state. They run only inside the traced pass, so they never lengthen a
//! timed one; each figure is "what this layer costs on the data this
//! workload actually produces".

use crate::metrics::Outcome;
use crate::probe::Probe;
use crate::stats::{median, ratio};
use chronolog_core::{
    Database, Fact, Interval, IntervalSet, MetricInterval, Rational, Symbol, Value,
};
use chronolog_obs::SmallRng;
use std::hint::black_box;

/// Probes per index kind.
const PROBES: usize = 2_000;

/// Runs every replay over `db`, the final materialization, whose
/// validity lies within `window`.
pub fn run(db: &Database, window: (i64, i64), seed: u64, probe: &Probe, out: &mut Outcome) {
    let components = db.component_count() as f64;
    let tuples = db.tuple_count() as f64;
    out.set(
        "temporal.components_per_tuple",
        ratio(components, tuples),
        1,
    );
    out.set(
        "core.database.bytes_per_component",
        ratio(db.storage_bytes() as f64, components),
        1,
    );
    let (freed, reused) = db.arena_reuse_counts();
    out.set(
        "core.database.arena_reuse_share",
        ratio(reused as f64, freed as f64),
        1,
    );

    for _ in 0..3 {
        black_box(probe.layer("core.database.clone", || db.clone()));
    }
    out.set(
        "core.database.clone_ms",
        probe.median_ns("core.database.clone") / 1e6,
        3,
    );

    let text = probe.layer("core.database.facts_text", || db.to_facts_text());
    black_box(text);
    out.set(
        "core.database.facts_text_ms",
        probe.median_ns("core.database.facts_text") / 1e6,
        1,
    );

    // Re-merge the model tuple by tuple into an empty database.
    let model: Vec<(Symbol, Vec<Value>, IntervalSet)> = db
        .iter()
        .map(|(p, t, comps)| (p, t.to_vec(), IntervalSet::from_sorted(comps.to_vec())))
        .collect();
    let mut rebuilt = Database::new();
    probe.layer("core.database.merge", || {
        for (pred, tuple, set) in &model {
            rebuilt
                .merge(*pred, tuple, set)
                .expect("re-merging an interned model cannot exhaust the interner");
        }
    });
    out.set(
        "core.database.merge_ns_per_component",
        ratio(probe.median_ns("core.database.merge"), components),
        model.len(),
    );

    // Load the same content as base facts, one component per fact.
    let facts: Vec<Fact> = model
        .iter()
        .flat_map(|(pred, tuple, set)| {
            set.components().iter().map(|&interval| Fact {
                pred: *pred,
                args: tuple.clone(),
                interval,
            })
        })
        .take(200_000)
        .collect();
    let mut loaded = Database::new();
    probe.layer("core.database.load_model", || {
        loaded
            .extend_facts(&facts)
            .expect("loading an interned model cannot exhaust the interner")
    });
    out.set(
        "core.database.load_us_per_fact",
        ratio(
            probe.median_ns("core.database.load_model") / 1e3,
            facts.len() as f64,
        ),
        facts.len(),
    );

    probes(db, window, seed, probe, out);
    algebra(&model, probe, out);
}

/// Value-index and time-index probes against the relations of `db`,
/// spread over relations in proportion to their size.
fn probes(db: &Database, window: (i64, i64), seed: u64, probe: &Probe, out: &mut Outcome) {
    let mut rng = SmallRng::seed_from_u64(0x0091_20BE ^ seed);
    let mut preds: Vec<Symbol> = db.predicates().collect();
    preds.sort();
    let relations: Vec<_> = preds
        .iter()
        .filter_map(|p| db.relation(*p))
        .filter(|r| !r.is_empty())
        .collect();
    let total: usize = relations.iter().map(|r| r.len()).sum();
    if total == 0 {
        return;
    }
    for rel in relations {
        let share = (PROBES * rel.len()).div_ceil(total);
        for _ in 0..share {
            let id = rng.gen_range_usize(0, rel.len()) as u32;
            let (tuple, _) = rel.entry(id);
            if !tuple.is_empty() {
                let pos = rng.gen_range_usize(0, tuple.len());
                let ground = [(pos, tuple.value(pos))];
                // The first probe of a position builds its index; only
                // the warm probe is measured.
                black_box(rel.probe(&ground));
                black_box(probe.layer("core.database.probe", || rel.probe(&ground)));
            }
            let at = Interval::at(rng.gen_range_i64(window.0, window.1 + 1));
            black_box(rel.probe_time(&at));
            black_box(probe.layer("core.database.probe_time", || rel.probe_time(&at)));
        }
    }
    for (metric, span) in [
        ("core.database.probe_ns", "core.database.probe"),
        ("core.database.probe_time_ns", "core.database.probe_time"),
    ] {
        let samples = probe.samples_ns(span);
        out.set(metric, median(&samples), samples.len());
    }
}

/// Insert, shift, intersect and difference over the model's interval
/// sets — the operations a `[1,1]`-chained persistence rule performs.
fn algebra(model: &[(Symbol, Vec<Value>, IntervalSet)], probe: &Probe, out: &mut Outcome) {
    let components: usize = model.iter().map(|m| m.2.components().len()).sum();
    let one = MetricInterval::punctual(Rational::integer(1));
    let mut shifted: Vec<IntervalSet> = Vec::with_capacity(model.len());
    probe.layer("temporal.insert", || {
        for (_, _, set) in model {
            let mut rebuilt = IntervalSet::new();
            for &c in set.components() {
                rebuilt.insert(c);
            }
            black_box(rebuilt);
        }
    });
    probe.layer("temporal.shift", || {
        for (_, _, set) in model {
            shifted.push(set.diamond_minus(&one));
        }
    });
    probe.layer("temporal.intersect", || {
        for ((_, _, set), moved) in model.iter().zip(&shifted) {
            black_box(set.intersect(moved));
        }
    });
    probe.layer("temporal.difference", || {
        for ((_, _, set), moved) in model.iter().zip(&shifted) {
            black_box(set.difference(moved));
        }
    });
    for (metric, span) in [
        ("temporal.insert_ns_per_component", "temporal.insert"),
        ("temporal.shift_ns_per_component", "temporal.shift"),
        ("temporal.intersect_ns_per_component", "temporal.intersect"),
        (
            "temporal.difference_ns_per_component",
            "temporal.difference",
        ),
    ] {
        out.set(
            metric,
            ratio(probe.median_ns(span), components as f64),
            components,
        );
    }
}
