//! The DatalogMTL materialization engine.
//!
//! [`Reasoner::materialize`] computes the horizon-bounded least model of a
//! stratified DatalogMTL program over a temporal database: strata are
//! processed in order; within a stratum, aggregate rules run once (their
//! inputs are strictly lower, per stratified aggregation) and the remaining
//! rules run to fixpoint with semi-naive deltas where the operators permit
//! (see [`eval::delta_eligible`]).

mod aggregate;
mod chain;
mod eval;
mod explain;
pub(crate) mod plan;
mod pool;
mod session;

pub(crate) use eval::{compare, eval_expr};
pub use explain::Explanation;
pub use plan::{PlanExplain, PlanStepExplain};
pub use session::{BaseEvent, RepairPath, RepairReport, Session};

use crate::analysis::{check_program, DependencyGraph, Stratification};
use crate::ast::{HeadOp, Literal, Program, Rule};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::rewrite::{self, Query};
use crate::symbol::Symbol;
use crate::value::Tuple;
use chain::{Chains, GuardSets};
use chronolog_obs::{Json, SpanRecorder};
use eval::{delta_eligible, execute_heads, EvalCtx, JoinCounters};
use mtl_temporal::{Interval, IntervalSet};
use pool::WorkerPool;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Minimum evaluation wall time of the *previous* fixpoint iteration for
/// the next one to use worker threads. Even with the persistent pool,
/// dispatching and latching cost microseconds per task; iterations cheaper
/// than this lose more to hand-off than they could recoup, so they run on
/// the main thread.
const PAR_MIN_EVAL_WALL: Duration = Duration::from_millis(2);

/// Reasoner configuration.
#[derive(Clone, Debug)]
pub struct ReasonerConfig {
    /// The reasoning horizon: derivations are clipped to this interval (the
    /// paper's "interval under analysis"). With temporal recursion, a
    /// bounded horizon is what guarantees termination.
    pub horizon: Interval,
    /// Maximum fixpoint iterations per stratum.
    pub max_iterations: usize,
    /// Maximum total interval components in the materialization.
    pub max_components: usize,
    /// Semi-naive evaluation. `false` re-evaluates every rule fully on every
    /// iteration: the reference for programs outside the naive oracle's
    /// integer-punctual fragment.
    pub semi_naive: bool,
    /// When set, the engine records hierarchical timing spans
    /// (materialize → stratum → iteration → rule → join step) into this
    /// recorder, one lane per evaluating thread. `None` (the default)
    /// costs one `Option` check per site and allocates no spans.
    pub profiler: Option<SpanRecorder>,
    /// Worker threads for stratum evaluation (rule fan-out and the binding
    /// fan-out inside skewed joins). `1` is fully sequential; any value
    /// produces bit-identical output and derivation counts — evaluation
    /// always reads the iteration-start snapshot and merges in fixed rule
    /// order.
    pub threads: usize,
    /// Budget for one repair's overdelete cone ([`Session::retract`] /
    /// [`Session::submit_late`]), counted in tuples whose validity
    /// intersects the repair window. Exceeding it abandons the incremental
    /// path and falls back to cold re-materialization from the session's
    /// base-fact log — past this size a full rebuild is cheaper than
    /// patching. `0` sends every correction down the cold path.
    pub repair_budget: u64,
}

impl Default for ReasonerConfig {
    fn default() -> Self {
        ReasonerConfig {
            horizon: Interval::ALL,
            max_iterations: 1_000_000,
            max_components: 50_000_000,
            semi_naive: true,
            profiler: None,
            threads: 1,
            repair_budget: 50_000,
        }
    }
}

impl ReasonerConfig {
    /// Convenience: a bounded integer horizon.
    pub fn with_horizon(mut self, lo: i64, hi: i64) -> Self {
        self.horizon = Interval::closed_int(lo, hi);
        self
    }

    /// Convenience: set the evaluation worker count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Convenience: set the repair overdelete budget (tuples touched).
    pub fn with_repair_budget(mut self, budget: u64) -> Self {
        self.repair_budget = budget;
        self
    }
}

/// Per-rule statistics of one run, attributable to a single program rule.
///
/// Invariants (checked by the test suite):
/// * `Σ body_evaluations` over all rules = [`RunStats::rule_evaluations`];
/// * `Σ tuples_derived` over all rules = [`RunStats::derived_tuples`]
///   (batch runs);
/// * `Σ components_added` over all rules =
///   [`RunStats::derived_components`].
#[derive(Clone, Debug, Default)]
pub struct RuleStats {
    /// Index of the rule in [`Program::rules`](crate::ast::Program).
    pub rule: usize,
    /// The rule's label, or `r<index>` when unlabeled.
    pub label: String,
    /// Head predicate name.
    pub head: String,
    /// Stratum the rule evaluates in.
    pub stratum: usize,
    /// Body evaluations (full or semi-naive variants).
    pub body_evaluations: usize,
    /// Tuples read from the delta database by semi-naive variants.
    pub delta_tuples: usize,
    /// Head rows produced by body evaluations: one per distinct head tuple
    /// per evaluation, after the union over its bindings (the bindings
    /// themselves are the planner's `actual_rows`), plus the steps of this
    /// rule's chain closures.
    pub derivations: usize,
    /// Head tuples this rule derived that did not previously exist.
    pub tuples_derived: usize,
    /// Interval components of the head rows (after head operators, the
    /// window clip and chain closure) offered to the merge.
    pub components_emitted: usize,
    /// Interval components that survived merge coalescing (net growth).
    pub components_added: usize,
    /// Wall-clock time spent evaluating this rule (including merges).
    pub wall: Duration,
}

/// Per-stratum statistics: one entry per stratum. A batch materialization
/// runs each stratum once; a [`Session`] re-runs every stratum per advance
/// and per repair and sums those runs into the stratum's one entry.
#[derive(Clone, Debug, Default)]
pub struct StratumStats {
    /// Stratum index.
    pub stratum: usize,
    /// Fixpoint iterations.
    pub iterations: usize,
    /// Body evaluations within the stratum.
    pub rule_evaluations: usize,
    /// New tuples derived by the stratum.
    pub tuples_derived: usize,
    /// Net interval components added by the stratum.
    pub components_added: usize,
    /// Wall-clock time of the stratum fixpoint.
    pub wall: Duration,
}

/// Per-worker statistics of the stratum evaluation pool.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Worker index (`0..threads`).
    pub worker: usize,
    /// Rule-evaluation tasks this worker executed.
    pub tasks: usize,
    /// Busy wall-clock time (task execution, excluding idle waits).
    pub busy: Duration,
}

/// Statistics of the session repair path (out-of-order corrections):
/// the `repairs` section of stats-json. A cold fallback still counts
/// as one attempt, so `incremental + fallbacks == attempted`.
#[derive(Clone, Debug, Default)]
pub struct RepairStats {
    /// Corrections that entered the repair path (retract, late submit,
    /// or a combined correct — one attempt each).
    pub attempted: u64,
    /// Attempts completed by in-place overdelete + re-derive.
    pub incremental: u64,
    /// Attempts completed by cold re-materialization from the base-fact
    /// log (budget trips or incremental errors).
    pub fallbacks: u64,
    /// Fallbacks caused specifically by the overdelete cone exceeding
    /// [`ReasonerConfig::repair_budget`].
    pub budget_trips: u64,
    /// Tuples whose validity intersected a repair window, summed over
    /// all overdelete passes (the budgeted quantity).
    pub cone_tuples: u64,
    /// Interval components actually removed by overdeletion.
    pub overdeleted_components: u64,
}

/// What one overdelete pass did (the collection feeding [`RepairStats`]).
#[derive(Debug, Default)]
pub(crate) struct OverdeleteOutcome {
    /// Tuples whose validity intersected the repair window.
    pub cone_tuples: u64,
    /// Interval components removed from the materialization.
    pub removed_components: u64,
    /// The cone exceeded the budget; nothing was removed.
    pub budget_tripped: bool,
}

/// What the magic-sets demand transformation did for a goal-driven query
/// run (all defaults — `enabled: false`, mode `"off"` — for plain
/// materializations). Surfaced as the `magic` section of stats-json.
#[derive(Clone, Debug)]
pub struct MagicStats {
    /// `true` when the run evaluated a demand-guarded program.
    pub enabled: bool,
    /// `"off"` (plain materialization), `"magic"` (guarded rewrite),
    /// `"cone"` (cone-restricted, no guards), or `"full"` (a query served
    /// from an unrestricted materialization, e.g. `--no-magic`).
    pub mode: String,
    /// The guarded program failed validation or blew its budget and the
    /// run fell back to the unguarded cone.
    pub degraded: bool,
    /// Predicates in the query's dependency cone.
    pub cone_preds: u64,
    /// Rules in the cone, out of `program_rules` in the source program.
    pub cone_rules: u64,
    /// Rules in the source program.
    pub program_rules: u64,
    /// Cone rules that received a demand guard.
    pub rules_rewritten: u64,
    /// Magic demand-propagation rules evaluated.
    pub magic_rules: u64,
    /// Magic seed facts inserted.
    pub seeds: u64,
    /// Live tuples of non-magic predicates in the final database — the
    /// slice of the model this query actually paid for (compare with the
    /// same figure of a `"full"` run).
    pub demanded_tuples: u64,
    /// Live tuples of the magic predicates themselves (the demand
    /// bookkeeping overhead; never part of answers).
    pub magic_tuples: u64,
}

impl Default for MagicStats {
    fn default() -> MagicStats {
        MagicStats {
            enabled: false,
            mode: "off".to_string(),
            degraded: false,
            cone_preds: 0,
            cone_rules: 0,
            program_rules: 0,
            rules_rewritten: 0,
            magic_rules: 0,
            seeds: 0,
            demanded_tuples: 0,
            magic_tuples: 0,
        }
    }
}

/// Statistics of one materialization run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Fixpoint iterations per stratum (`iterations[s.stratum] ==
    /// s.iterations` for every entry `s` of `strata`, sessions included).
    pub iterations: Vec<usize>,
    /// Number of rule applications (body evaluations).
    pub rule_evaluations: usize,
    /// Tuples in the result that were not in the input.
    pub derived_tuples: usize,
    /// Interval components in the result.
    pub total_components: usize,
    /// Net interval components added by rule derivations.
    pub derived_components: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Positive-atom lookups answered through a secondary index probe.
    pub index_probes: u64,
    /// Tuples index probes skipped relative to full scans.
    pub index_scan_avoided: u64,
    /// Positive-atom lookups that scanned the whole relation.
    pub full_scans: u64,
    /// Tuples visited by full scans.
    pub scanned_tuples: u64,
    /// Candidate tuples visited by index probes (`scanned + probed +
    /// avoided` partitions every present-relation lookup).
    pub probed_tuples: u64,
    /// Positive-atom lookups that consulted the sorted-endpoint time index.
    pub time_index_probes: u64,
    /// Candidate tuples the time index ruled out before their interval sets
    /// were clipped against the read mask.
    pub interval_clips_avoided: u64,
    /// Secondary indexes carried over by database clones (session advances,
    /// snapshot copies) instead of being rebuilt from scratch.
    pub index_rebuilds_avoided: u64,
    /// Physical plans put to use: one per `(rule, delta-literal)` variant
    /// the run executed. The reasoner compiles each variant's plan once,
    /// from the program text, so a session's count stops growing once
    /// every variant it needs has run.
    pub plans_built: u64,
    /// Always 0: kept for `benchmark/src/perp.rs`, goes with the next PR
    /// allowed to edit `benchmark/`.
    pub replans: u64,
    /// Used plans whose join order differs from the textual delta-first
    /// order.
    pub reorders_applied: u64,
    /// Always 0: kept for `benchmark/src/perp.rs`, goes with the next PR
    /// allowed to edit `benchmark/`.
    pub planner_estimated_rows: u64,
    /// Bindings the executed plans' join pipelines produced: per
    /// execution, the rows out of the last join step (one seed row for a
    /// join-free plan), before the per-evaluation union into head rows —
    /// the sum of the `actual_rows` of [`RunStats::plan_explains`].
    pub planner_actual_rows: u64,
    /// Worker-pool dispatches that reused already-running workers.
    pub pool_reuses: u64,
    /// Worker-pool constructions (`<= strata` by the pool-lifecycle
    /// invariant: the pool is spawned once per reasoner and reused).
    pub pool_respawns: u64,
    /// The plan of each `(rule, delta-literal)` variant the run executed —
    /// rendered on demand by [`RunStats::plan_explains`].
    used_plans: UsedPlans,
    /// Per-rule breakdown, indexed by rule position in the program.
    pub rules: Vec<RuleStats>,
    /// Per-stratum breakdown (one entry per stratum, indexed by stratum).
    pub strata: Vec<StratumStats>,
    /// Per-worker breakdown of the evaluation pool (one entry per worker,
    /// accumulated across strata and advances).
    pub workers: Vec<WorkerStats>,
    /// Session repair-path breakdown (all zeros for batch runs).
    pub repairs: RepairStats,
    /// Relation-storage breakdown (interning, arena, clone traffic).
    pub storage: StorageStats,
    /// Goal-driven (magic-sets) query breakdown (defaults for plain runs).
    pub magic: MagicStats,
}

/// Relation-storage statistics: what the columnar store interns and
/// allocates. The interner and symbol counts are process-global (interning
/// is shared across databases); the byte and clone figures are snapshots
/// taken when the run's stats were captured.
#[derive(Clone, Debug, Default)]
pub struct StorageStats {
    /// Distinct predicate/constant/variable names interned process-wide.
    pub interned_symbols: usize,
    /// Distinct constant values interned process-wide.
    pub interned_values: usize,
    /// Bytes held by the result database's interval arenas.
    pub interval_bytes: usize,
    /// Bytes held by the result database's `u32` value columns.
    pub value_bytes: usize,
    /// Arena slabs released by `Relation::remove` emptying a tuple
    /// (result database, cumulative over its relations' lifetimes).
    pub arena_slabs_freed: u64,
    /// Freed arena slabs later reused by another tuple's intervals.
    pub arena_slabs_reused: u64,
    /// Flat column vectors copied by database clones, process-wide — the
    /// snapshot cost.
    pub column_clones: u64,
}

/// Per `(rule, delta-literal)` variant, a plan and a reading of its
/// counters.
type VariantPlans = BTreeMap<(usize, Option<usize>), (Arc<plan::RulePlan>, plan::PlanCounts)>;

/// The plan of every `(rule, delta-literal)` variant the run executed and
/// what it executed and produced for this [`RunStats`], with the program
/// whose rules the plans index — what [`RunStats::plan_explains`] renders
/// from. The plans belong to the reasoner and keep counting for later runs;
/// the counts here are this run's own and stay put. Recording copies a few
/// integers per variant per stratum run; the explain text is only built
/// when somebody reads it.
#[derive(Clone, Default)]
struct UsedPlans {
    program: Option<Arc<Program>>,
    plans: VariantPlans,
}

impl UsedPlans {
    /// Records the plans one stratum run used, each with the reading taken
    /// before it first ran there; a variant an earlier stratum run recorded
    /// (sessions re-run strata) adds to its counts. Returns the plans new
    /// to this run and the bindings the stratum run's plans produced.
    fn record(
        &mut self,
        program: &Arc<Program>,
        used: VariantPlans,
    ) -> (Vec<Arc<plan::RulePlan>>, u64) {
        if self.program.is_none() {
            self.program = Some(Arc::clone(program));
        }
        let mut new = Vec::new();
        let mut bindings = 0;
        for (variant, (plan, before)) in used {
            let ran = plan::PlanCounts::since(&plan.counts(), &before);
            bindings += plan.bindings(&ran);
            let slot = self.plans.entry(variant).or_insert_with(|| {
                new.push(Arc::clone(&plan));
                (Arc::clone(&plan), plan::PlanCounts::default())
            });
            slot.1.add(&ran);
        }
        (new, bindings)
    }
}

impl std::fmt::Debug for UsedPlans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UsedPlans({} variants)", self.plans.len())
    }
}

impl RunStats {
    /// The plan of each `(rule, delta-literal)` variant the run executed,
    /// with accumulated actual rows (what `--explain-plans` prints), in
    /// stratum, rule, variant order. The execution and row counts are those
    /// of this run alone — in a session, of every advance and repair the
    /// plan served.
    pub fn plan_explains(&self) -> Vec<PlanExplain> {
        let Some(program) = &self.used_plans.program else {
            return Vec::new();
        };
        let mut out: Vec<PlanExplain> = self
            .used_plans
            .plans
            .iter()
            .map(|(&(rule, _), (compiled, counts))| {
                plan::explain(
                    rule,
                    &self.rules[rule].label,
                    &program.rules[rule],
                    compiled,
                    counts,
                )
            })
            .collect();
        out.sort_by_key(|e| (self.rules[e.rule].stratum, e.rule, e.delta_literal));
        out
    }
}

impl RunStats {
    /// The stats as a JSON object with `totals`, `strata`, and `rules`
    /// sections — the stable payload of `--stats-json` reports (see
    /// `docs/OBSERVABILITY.md` for the schema).
    pub fn to_json(&self) -> Json {
        let totals = Json::from_pairs([
            ("rule_evaluations", Json::from(self.rule_evaluations)),
            ("derived_tuples", Json::from(self.derived_tuples)),
            ("total_components", Json::from(self.total_components)),
            ("derived_components", Json::from(self.derived_components)),
            (
                "iterations",
                Json::Arr(self.iterations.iter().map(|&i| Json::from(i)).collect()),
            ),
            ("elapsed_us", Json::from(self.elapsed.as_micros() as u64)),
            ("index_probes", Json::from(self.index_probes)),
            ("index_scan_avoided", Json::from(self.index_scan_avoided)),
            ("full_scans", Json::from(self.full_scans)),
            ("scanned_tuples", Json::from(self.scanned_tuples)),
            ("probed_tuples", Json::from(self.probed_tuples)),
            ("time_index_probes", Json::from(self.time_index_probes)),
            (
                "interval_clips_avoided",
                Json::from(self.interval_clips_avoided),
            ),
            (
                "index_rebuilds_avoided",
                Json::from(self.index_rebuilds_avoided),
            ),
        ]);
        let strata = Json::Arr(
            self.strata
                .iter()
                .map(|s| {
                    Json::from_pairs([
                        ("stratum", Json::from(s.stratum)),
                        ("iterations", Json::from(s.iterations)),
                        ("rule_evaluations", Json::from(s.rule_evaluations)),
                        ("tuples_derived", Json::from(s.tuples_derived)),
                        ("components_added", Json::from(s.components_added)),
                        ("wall_us", Json::from(s.wall.as_micros() as u64)),
                    ])
                })
                .collect(),
        );
        let rules = Json::Arr(
            self.rules
                .iter()
                .map(|r| {
                    Json::from_pairs([
                        ("rule", Json::from(r.rule)),
                        ("label", Json::from(r.label.as_str())),
                        ("head", Json::from(r.head.as_str())),
                        ("stratum", Json::from(r.stratum)),
                        ("body_evaluations", Json::from(r.body_evaluations)),
                        ("delta_tuples", Json::from(r.delta_tuples)),
                        ("derivations", Json::from(r.derivations)),
                        ("tuples_derived", Json::from(r.tuples_derived)),
                        ("components_emitted", Json::from(r.components_emitted)),
                        ("components_added", Json::from(r.components_added)),
                        ("wall_us", Json::from(r.wall.as_micros() as u64)),
                    ])
                })
                .collect(),
        );
        let workers = Json::Arr(
            self.workers
                .iter()
                .map(|w| {
                    Json::from_pairs([
                        ("worker", Json::from(w.worker)),
                        ("tasks", Json::from(w.tasks)),
                        ("busy_us", Json::from(w.busy.as_micros() as u64)),
                    ])
                })
                .collect(),
        );
        let plans = Json::Arr(
            self.plan_explains()
                .iter()
                .map(|p| {
                    Json::from_pairs([
                        ("rule", Json::from(p.rule)),
                        ("label", Json::from(p.label.as_str())),
                        // `-1` = no delta literal (full evaluation); keeps
                        // the field's JSON type stable for schema checks.
                        (
                            "delta_literal",
                            Json::from(p.delta_literal.map_or(-1i64, |d| d as i64)),
                        ),
                        ("reordered", Json::from(p.reordered)),
                        ("executions", Json::from(p.executions)),
                        ("actual_rows", Json::from(p.actual_rows)),
                        (
                            "steps",
                            Json::Arr(
                                p.steps
                                    .iter()
                                    .map(|s| {
                                        Json::from_pairs([
                                            ("desc", Json::from(s.desc.as_str())),
                                            ("access_path", Json::from(s.access)),
                                            ("actual_rows", Json::from(s.actual_rows)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let planner = Json::from_pairs([
            ("plans_built", Json::from(self.plans_built)),
            ("reorders_applied", Json::from(self.reorders_applied)),
            ("actual_rows", Json::from(self.planner_actual_rows)),
            ("plans", plans),
        ]);
        let pool = Json::from_pairs([
            ("reuses", Json::from(self.pool_reuses)),
            ("respawns", Json::from(self.pool_respawns)),
        ]);
        let repairs = Json::from_pairs([
            ("attempted", Json::from(self.repairs.attempted)),
            ("incremental", Json::from(self.repairs.incremental)),
            ("fallbacks", Json::from(self.repairs.fallbacks)),
            ("budget_trips", Json::from(self.repairs.budget_trips)),
            ("cone_tuples", Json::from(self.repairs.cone_tuples)),
            (
                "overdeleted_components",
                Json::from(self.repairs.overdeleted_components),
            ),
        ]);
        let storage = Json::from_pairs([
            (
                "interned_symbols",
                Json::from(self.storage.interned_symbols),
            ),
            ("interned_values", Json::from(self.storage.interned_values)),
            ("interval_bytes", Json::from(self.storage.interval_bytes)),
            ("value_bytes", Json::from(self.storage.value_bytes)),
            (
                "arena_slabs_freed",
                Json::from(self.storage.arena_slabs_freed),
            ),
            (
                "arena_slabs_reused",
                Json::from(self.storage.arena_slabs_reused),
            ),
            ("column_clones", Json::from(self.storage.column_clones)),
        ]);
        let magic = Json::from_pairs([
            ("enabled", Json::from(self.magic.enabled)),
            ("mode", Json::from(self.magic.mode.as_str())),
            ("degraded", Json::from(self.magic.degraded)),
            ("cone_predicates", Json::from(self.magic.cone_preds)),
            ("cone_rules", Json::from(self.magic.cone_rules)),
            ("program_rules", Json::from(self.magic.program_rules)),
            ("rules_rewritten", Json::from(self.magic.rules_rewritten)),
            ("magic_rules", Json::from(self.magic.magic_rules)),
            ("seeds", Json::from(self.magic.seeds)),
            ("demanded_tuples", Json::from(self.magic.demanded_tuples)),
            ("magic_tuples", Json::from(self.magic.magic_tuples)),
        ]);
        Json::from_pairs([
            ("totals", totals),
            ("strata", strata),
            ("rules", rules),
            ("workers", workers),
            ("planner", planner),
            ("pool", pool),
            ("repairs", repairs),
            ("storage", storage),
            ("magic", magic),
        ])
    }
}

/// The result of a goal-driven point query ([`Reasoner::query`]).
pub struct QueryOutcome {
    /// Matching tuples with their validity intervals, clipped to the
    /// query window and sorted by tuple (deterministic across thread
    /// counts and evaluation modes).
    pub answers: Vec<(Tuple, IntervalSet)>,
    /// Statistics of the inner sub-program materialization, with the
    /// `magic` section describing the rewrite.
    pub stats: RunStats,
}

/// The result of materializing a program over a database.
pub struct Materialization {
    /// Input facts plus everything entailed (within the horizon).
    pub database: Database,
    /// Run statistics.
    pub stats: RunStats,
}

/// A compiled, validated DatalogMTL reasoner.
pub struct Reasoner {
    /// Shared with the [`RunStats`] of every run, which render their plan
    /// explains from it on demand.
    program: Arc<Program>,
    strat: Stratification,
    /// Per stratum, what the fixpoint driver needs and the program alone
    /// determines (aggregate groups, fixpoint modes, variants and their
    /// physical plans, self-chain rules) — compiled here once instead of
    /// on every stratum run.
    compiled: Vec<CompiledStratum>,
    config: ReasonerConfig,
    /// Persistent evaluation worker pool, spawned lazily on the first
    /// multi-threaded dispatch and reused across fixpoint iterations,
    /// strata, and session advances.
    pool: OnceLock<WorkerPool>,
}

/// One semi-naive variant of a rule: the predicate of the body literal
/// read from the delta (whose delta relation must be non-empty for the
/// variant to derive anything) and the variant's plan, which names the
/// literal.
#[derive(Clone)]
struct Variant {
    pred: Symbol,
    plan: Arc<plan::RulePlan>,
}

/// How a rule participates in its stratum's fixpoint (distinct from the
/// physical [`plan::RulePlan`], which fixes the join order of one body
/// evaluation).
enum FixpointMode {
    /// No body dependency on the current stratum: runs only on iteration 0.
    Once,
    /// Every current-stratum dependency sits in a delta-eligible literal:
    /// these variants drive the semi-naive rounds.
    SemiNaive(Vec<Variant>),
    /// Some current-stratum dependency is not delta-eligible (non-punctual
    /// box, since/until): full re-evaluation each iteration.
    Full,
}

/// The program-only facts about one non-aggregate rule of a stratum.
struct CompiledRule {
    /// Index into [`Program::rules`].
    idx: usize,
    /// The plan of a full evaluation.
    full: Arc<plan::RulePlan>,
    mode: FixpointMode,
    /// Iteration 0 of a seeded (session) run: one variant per positive
    /// literal, read from the seed. `None` when some positive literal is
    /// not delta-eligible — or there is none at all, and no seed could
    /// reach the rule — and the rule is evaluated in full over the (narrow)
    /// re-derivation window instead.
    seeded: Option<Vec<Variant>>,
}

/// Everything about one stratum that depends on the program alone.
struct CompiledStratum {
    /// Aggregate rules grouped by head predicate, in first-rule order, each
    /// with the plan of its body.
    agg_groups: Vec<(Symbol, Vec<(usize, plan::RulePlan)>)>,
    /// The remaining rules in program order — also the task, merge and
    /// therefore output order of every round.
    rules: Vec<CompiledRule>,
    /// The stratum's self-chain (frame) rules.
    chains: Chains,
}

impl CompiledStratum {
    /// Compiles the rules `rule_indices` of one stratum of `program`, whose
    /// persisted predicates are `persisted`.
    fn compile(
        program: &Program,
        rule_indices: &[usize],
        semi_naive: bool,
        persisted: &HashSet<Symbol>,
    ) -> CompiledStratum {
        let current_preds: HashSet<Symbol> = rule_indices
            .iter()
            .map(|&i| program.rules[i].head.atom.pred)
            .collect();
        let mut agg_groups: Vec<(Symbol, Vec<(usize, plan::RulePlan)>)> = Vec::new();
        let mut normal: Vec<usize> = Vec::new();
        for &i in rule_indices {
            let rule = &program.rules[i];
            if rule.head.aggregate.is_some() {
                let member = (i, plan::build_plan(rule, None, persisted));
                match agg_groups
                    .iter_mut()
                    .find(|(p, _)| *p == rule.head.atom.pred)
                {
                    Some((_, v)) => v.push(member),
                    None => agg_groups.push((rule.head.atom.pred, vec![member])),
                }
            } else {
                normal.push(i);
            }
        }
        let rules = normal
            .iter()
            .map(|&idx| {
                let rule = &program.rules[idx];
                // One plan per delta literal, shared by the semi-naive and
                // the seeded variant over it.
                let variants: Vec<Option<Variant>> = rule
                    .body
                    .iter()
                    .enumerate()
                    .map(|(literal, lit)| {
                        delta_eligible(lit).map(|pred| Variant {
                            pred,
                            plan: Arc::new(plan::build_plan(rule, Some(literal), persisted)),
                        })
                    })
                    .collect();
                let variant = |literal: usize| variants[literal].clone();
                let mut dep_variants = Vec::new();
                let mut blocked = false;
                let mut has_dep = false;
                for (li, lit) in rule.body.iter().enumerate() {
                    let mentions_current = match lit {
                        Literal::Pos(m) | Literal::Neg(m) => {
                            m.atoms().iter().any(|a| current_preds.contains(&a.pred))
                        }
                        Literal::Constraint(..) => false,
                    };
                    if !mentions_current {
                        continue;
                    }
                    has_dep = true;
                    match variant(li) {
                        Some(v) => dep_variants.push(v),
                        None => blocked = true,
                    }
                }
                let mode = if !has_dep {
                    FixpointMode::Once
                } else if blocked || !semi_naive {
                    FixpointMode::Full
                } else {
                    FixpointMode::SemiNaive(dep_variants)
                };
                let seeded: Option<Vec<Variant>> = rule
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| matches!(l, Literal::Pos(_)))
                    .map(|(li, _)| variant(li))
                    .collect::<Option<Vec<_>>>()
                    .filter(|variants| !variants.is_empty());
                CompiledRule {
                    idx,
                    full: Arc::new(plan::build_plan(rule, None, persisted)),
                    mode,
                    seeded,
                }
            })
            .collect();
        let chains = Chains::detect(
            normal.iter().map(|&i| (i, &program.rules[i])),
            &current_preds,
        );
        CompiledStratum {
            agg_groups,
            rules,
            chains,
        }
    }
}

/// One body evaluation of a round: the rule, the plan of the variant to
/// run (a full evaluation, or semi-naive over one delta literal) and the
/// delta database a semi-naive variant reads.
struct Task<'d> {
    rule: usize,
    plan: &'d Arc<plan::RulePlan>,
    delta: Option<&'d Database>,
}

impl<'d> Task<'d> {
    fn full(rule: &'d CompiledRule) -> Task<'d> {
        Task {
            rule: rule.idx,
            plan: &rule.full,
            delta: None,
        }
    }
}

/// Pushes one task per variant whose delta relation in `delta` holds
/// anything; an empty delta relation cannot derive, so the variant is not
/// dispatched.
fn push_variants<'d>(
    tasks: &mut Vec<Task<'d>>,
    rule: usize,
    variants: &'d [Variant],
    delta: Option<&'d Database>,
) {
    let Some(delta) = delta else { return };
    for v in variants {
        if delta.relation(v.pred).is_some_and(|r| r.live_len() > 0) {
            tasks.push(Task {
                rule,
                plan: &v.plan,
                delta: Some(delta),
            });
        }
    }
}

impl Reasoner {
    /// Validates (safety, arity, stratification) and compiles a program.
    pub fn new(program: Program, config: ReasonerConfig) -> Result<Reasoner> {
        check_program(&program)?;
        let strat = Stratification::compute(&program)?;
        let persisted = plan::persisted_predicates(&program);
        let compiled = strat
            .rules_by_stratum
            .iter()
            .map(|rules| CompiledStratum::compile(&program, rules, config.semi_naive, &persisted))
            .collect();
        Ok(Reasoner {
            program: Arc::new(program),
            strat,
            compiled,
            config,
            pool: OnceLock::new(),
        })
    }

    /// The persistent worker pool, when multi-threaded evaluation is
    /// configured (spawned on first use, then reused for the lifetime of
    /// the reasoner — including every `Session::advance_to`).
    fn worker_pool(&self) -> Option<&WorkerPool> {
        if self.config.threads <= 1 {
            return None;
        }
        Some(
            self.pool
                .get_or_init(|| WorkerPool::new(self.config.threads)),
        )
    }

    /// The validated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The stratification.
    pub fn stratification(&self) -> &Stratification {
        &self.strat
    }

    /// The active configuration.
    pub fn config(&self) -> &ReasonerConfig {
        &self.config
    }

    /// Materializes all consequences of the program over `input`.
    pub fn materialize(&self, input: &Database) -> Result<Materialization> {
        let mut mat_span = self.config.profiler.as_ref().map(|p| p.span("materialize"));
        let start = Instant::now();
        let mut total = input.clone();
        let mut stats = RunStats::default();
        // Cloning preserves already-built secondary indexes: every index the
        // input carries over is one the fixpoint loop does not rebuild.
        stats.index_rebuilds_avoided += total.built_index_count() as u64;
        self.init_rule_stats(&mut stats);
        let input_tuples = input.tuple_count();

        let horizon = self.config.horizon;
        self.run_strata(&mut total, None, &mut stats, horizon, horizon)?;

        stats.derived_tuples = total.tuple_count().saturating_sub(input_tuples);
        stats.total_components = total.component_count();
        stats.elapsed = start.elapsed();
        capture_storage_stats(&total, &mut stats);
        if let Some(s) = mat_span.as_mut() {
            s.add("rules", self.program.rules.len() as u64);
            s.add("strata", self.compiled.len() as u64);
            s.add("input_tuples", input_tuples as u64);
            s.add("derived_tuples", stats.derived_tuples as u64);
            s.add("total_components", stats.total_components as u64);
            s.add("rule_evaluations", stats.rule_evaluations as u64);
        }
        Ok(Materialization {
            database: total,
            stats,
        })
    }

    /// Answers a point query goal-driven: the program is magic-sets
    /// rewritten to the query's dependency cone with demand guards (see
    /// [`crate::rewrite`]), the rewritten sub-program is materialized
    /// against a private snapshot of `input` (which is never mutated, so
    /// concurrent full materializations and sessions are undisturbed),
    /// and the answers are read back clipped to the query window.
    ///
    /// Answers are byte-identical to full materialization followed by
    /// [`Database::query`] (pinned by the `magic_equivalence` suite);
    /// only the `demanded_tuples` slice of the model is computed. When
    /// the guarded program fails validation (magic can break
    /// stratification in corner cases) or exceeds the iteration budget,
    /// the query degrades to unguarded cone-restricted evaluation —
    /// `stats.magic` records which mode ran.
    pub fn query(&self, input: &Database, query: &Query) -> Result<QueryOutcome> {
        self.query_within(input, query, self.config.horizon)
    }

    /// [`Reasoner::query`] with an explicit horizon override (the session
    /// path clips to its watermark).
    pub(crate) fn query_within(
        &self,
        input: &Database,
        query: &Query,
        horizon: Interval,
    ) -> Result<QueryOutcome> {
        let mut span = self.config.profiler.as_ref().map(|p| p.span("query"));
        let reserved: Vec<Symbol> = input.predicates().collect();
        let rw = rewrite::rewrite(&self.program, query, &reserved);
        let outcome = if rw.is_guarded() {
            match self.run_rewritten(input, query, &rw, horizon, true, false) {
                // Guard edges can close a cycle through negation
                // (NotStratifiable) and unbounded backward demand spread
                // can blow the iteration budget where the forward
                // fixpoint converged; both degrade to the unguarded cone.
                Err(Error::NotStratifiable(_) | Error::Unsafe(_) | Error::BudgetExceeded(_)) => {
                    self.run_rewritten(input, query, &rw, horizon, false, true)
                }
                guarded => guarded,
            }
        } else {
            self.run_rewritten(input, query, &rw, horizon, false, false)
        }?;
        if let Some(s) = span.as_mut() {
            s.add("answers", outcome.answers.len() as u64);
            s.add("demanded_tuples", outcome.stats.magic.demanded_tuples);
        }
        Ok(outcome)
    }

    /// Evaluates either the guarded program plus seeds (`magic`) or the
    /// unguarded cone program against a snapshot of `input`.
    fn run_rewritten(
        &self,
        input: &Database,
        query: &Query,
        rw: &rewrite::MagicRewrite,
        horizon: Interval,
        magic: bool,
        degraded: bool,
    ) -> Result<QueryOutcome> {
        let mut config = self.config.clone();
        config.horizon = horizon;
        let program = if magic {
            rw.program.clone()
        } else {
            rw.cone_program.clone()
        };
        let inner = Reasoner::new(program, config)?;
        let mut db = input.clone();
        let mut seeds_inserted = 0u64;
        if magic {
            for seed in &rw.seeds {
                if let Some(iv) = seed.interval.intersect(&horizon) {
                    db.insert(seed.pred, &seed.args, iv)?;
                    seeds_inserted += 1;
                }
            }
        }
        let mat = inner.materialize(&db)?;
        let mut answers = mat.database.query(&query.atom, query.window.as_ref());
        answers.sort_by(|a, b| a.0.cmp(&b.0));
        let mut stats = mat.stats;
        let mut demanded = 0u64;
        let mut magic_tuples = 0u64;
        for pred in mat.database.predicates() {
            let n = mat.database.relation(pred).map_or(0, |r| r.live_len()) as u64;
            if rw.magic_preds.contains(&pred) {
                magic_tuples += n;
            } else {
                demanded += n;
            }
        }
        stats.magic = MagicStats {
            enabled: magic,
            mode: if magic { "magic" } else { "cone" }.to_string(),
            degraded,
            cone_preds: rw.counters.cone_preds as u64,
            cone_rules: rw.counters.cone_rules as u64,
            program_rules: rw.counters.program_rules as u64,
            rules_rewritten: if magic {
                rw.counters.guarded_rules as u64
            } else {
                0
            },
            magic_rules: if magic {
                rw.counters.magic_rules as u64
            } else {
                0
            },
            seeds: seeds_inserted,
            demanded_tuples: demanded,
            magic_tuples,
        };
        Ok(QueryOutcome { answers, stats })
    }

    /// A deterministic report of what the magic rewrite does for `query`
    /// (cone, adornments, guarded and magic rules, seeds) — the body of
    /// the CLI's `--explain-query` view. Purely static: nothing is
    /// evaluated.
    pub fn explain_query(&self, input: &Database, query: &Query) -> String {
        let reserved: Vec<Symbol> = input.predicates().collect();
        let rw = rewrite::rewrite(&self.program, query, &reserved);
        let mut out = rw.explain(query);
        if rw.is_guarded() {
            if let Err(e) = Reasoner::new(rw.program.clone(), self.config.clone()) {
                out.push_str(&format!(
                    "note: guarded program fails validation ({e}); \
                     this query degrades to cone-only evaluation\n"
                ));
            }
        }
        out
    }

    /// Sizes `stats.rules` to the program, filling the static columns
    /// (index, label, head predicate, stratum). Idempotent, so a [`Session`]
    /// can call it once and accumulate across advances.
    fn init_rule_stats(&self, stats: &mut RunStats) {
        if !stats.rules.is_empty() {
            return;
        }
        stats.rules = self
            .program
            .rules
            .iter()
            .enumerate()
            .map(|(i, rule)| RuleStats {
                rule: i,
                label: rule.label.clone().unwrap_or_else(|| format!("r{i}")),
                head: rule.head.atom.pred.as_str(),
                ..RuleStats::default()
            })
            .collect();
        for (stratum, indices) in self.strat.rules_by_stratum.iter().enumerate() {
            for &i in indices {
                stats.rules[i].stratum = stratum;
            }
        }
    }

    /// Predicates whose derivations can depend, directly or transitively,
    /// on any of `changed` — the predicate dimension of a repair cone.
    /// Includes the changed predicates themselves: a corrected base
    /// predicate can carry derived intervals of its own in the
    /// materialization (e.g. when it also appears in a rule head).
    pub(crate) fn affected_predicates(&self, changed: &[Symbol]) -> HashSet<Symbol> {
        let graph = DependencyGraph::build(&self.program);
        let mut affected: HashSet<Symbol> = changed.iter().copied().collect();
        let mut frontier: Vec<Symbol> = changed.to_vec();
        while let Some(p) = frontier.pop() {
            for (from, to, _) in &graph.edges {
                if *from == p && affected.insert(*to) {
                    frontier.push(*to);
                }
            }
        }
        affected
    }

    /// DRed-style overdeletion: within `window`, removes from `total`
    /// every affected tuple's validity except the parts backed by a
    /// surviving base fact. Over-approximate by design — anything still
    /// derivable is restored by the re-derivation pass, seeded from the
    /// surviving facts around the window.
    ///
    /// The budget is checked during the (read-only) collection phase, so
    /// a tripped pass leaves `total` untouched and the caller can fall
    /// back to cold re-materialization without repairing the repair.
    pub(crate) fn overdelete(
        &self,
        total: &mut Database,
        base: &Database,
        affected: &HashSet<Symbol>,
        window: Interval,
        budget: u64,
    ) -> OverdeleteOutcome {
        let mut outcome = OverdeleteOutcome::default();
        // Sorted predicate order keeps the pass deterministic (HashSet
        // iteration is not).
        let mut preds: Vec<Symbol> = affected.iter().copied().collect();
        preds.sort();
        let mut dead: Vec<(Symbol, Tuple, IntervalSet)> = Vec::new();
        for &pred in &preds {
            let Some(rel) = total.relation(pred) else {
                continue;
            };
            for (tuple, ivs) in rel.iter() {
                let clipped = IntervalSet::clip_components(ivs, &window);
                if clipped.is_empty() {
                    continue;
                }
                outcome.cone_tuples += 1;
                if outcome.cone_tuples > budget {
                    outcome.budget_tripped = true;
                    return outcome;
                }
                let owned = tuple.to_vec();
                let surviving = base.intervals(pred, &owned);
                let doomed = clipped.difference(&surviving);
                if !doomed.is_empty() {
                    dead.push((pred, owned.into_boxed_slice(), doomed));
                }
            }
        }
        for (pred, tuple, doomed) in dead {
            let removed = total.remove(pred, &tuple, &doomed);
            outcome.removed_components += removed.components().len() as u64;
        }
        outcome
    }

    /// The one strata loop of every run: evaluates each stratum in order to
    /// fixpoint over the derivation `window` of `total`, with `top` holding
    /// on the whole horizon (a batch run: both are the reasoning horizon; a
    /// session advance or repair: the window it re-derives, of `[start,
    /// t]`). With a `seed`, iteration 0 of every stratum is semi-naive
    /// against it, and every stratum's additions are merged into it so that
    /// later strata see them.
    pub(crate) fn run_strata(
        &self,
        total: &mut Database,
        mut seed: Option<&mut Database>,
        stats: &mut RunStats,
        window: Interval,
        top: Interval,
    ) -> Result<()> {
        for stratum in 0..self.compiled.len() {
            self.run_stratum(stratum, total, seed.as_deref_mut(), stats, window, top)?;
        }
        Ok(())
    }

    /// Runs one stratum to fixpoint.
    ///
    /// * `seed` — incremental mode: iteration 0 evaluates semi-naive
    ///   variants against this delta (covering *all* predicates) instead of
    ///   re-evaluating every rule in full; rules with a positive literal
    ///   that is not delta-eligible fall back to a full evaluation. The seed
    ///   is read at iteration 0 only, and takes every addition of the
    ///   stratum as it is merged: the aggregate groups' first, so
    ///   same-stratum readers of an aggregate head see it in iteration 0,
    ///   then each round's, for the strata above.
    /// * `window` — the re-derivation window: bodies are evaluated and
    ///   heads clipped inside it (the whole reasoning horizon for a batch
    ///   run; `[now, t]` for a session advance, `[cut, now]` for a repair).
    /// * `top` — where `top` holds: the whole reasoning horizon, of which a
    ///   session's `window` is only the end.
    ///
    /// Folds the run into `stats.strata[stratum]` and
    /// `stats.iterations[stratum]` (one row per stratum, however many times
    /// a session re-runs it).
    fn run_stratum(
        &self,
        stratum: usize,
        total: &mut Database,
        mut seed: Option<&mut Database>,
        stats: &mut RunStats,
        window: Interval,
        top: Interval,
    ) -> Result<()> {
        // Opened before the wall-clock so the span always contains the
        // measured stratum wall time (span dur ≥ `StratumStats::wall`).
        let mut stratum_span = self
            .config
            .profiler
            .as_ref()
            .map(|p| p.span(format!("stratum {stratum}")));
        let stratum_start = Instant::now();
        let compiled = &self.compiled[stratum];
        let rules = &self.program.rules;
        let evals_before = stats.rule_evaluations;
        let mut stratum_tuples = 0usize;
        let mut stratum_components = 0usize;
        let threads = self.config.threads.max(1);
        let counters = JoinCounters::default();
        // One WorkerStats slot per configured worker, reused across strata
        // (and across a session's advances).
        if stats.workers.len() < threads {
            for w in stats.workers.len()..threads {
                stats.workers.push(WorkerStats {
                    worker: w,
                    ..WorkerStats::default()
                });
            }
        }

        // --- Aggregate rules: once, inputs are strictly lower strata. ---
        for (pred, indices) in &compiled.agg_groups {
            let group_start = Instant::now();
            let group: Vec<(&Rule, &plan::RulePlan)> =
                indices.iter().map(|(i, p)| (&rules[*i], p)).collect();
            let ctx = EvalCtx {
                total,
                delta: None,
                horizon: window,
                top,
                threads: 1,
                pool: None,
                counters: &counters,
                profiler: self.config.profiler.as_ref(),
            };
            let derived = aggregate::eval_aggregate_rules(&group, &ctx)?;
            stats.rule_evaluations += indices.len();
            for (i, _) in indices {
                stats.rules[*i].body_evaluations += 1;
            }
            // Derivations of a merged aggregate group are attributed to its
            // first rule — the group shares one head predicate.
            let lead = indices[0].0;
            stats.rules[lead].derivations += derived.len();
            for (tuple, interval) in derived {
                let mut ivs = IntervalSet::from_interval(interval);
                for op in &rules[lead].head.ops {
                    ivs = apply_head_op(op, &ivs)?;
                }
                let ivs = ivs.intersect_interval(&window);
                if ivs.is_empty() {
                    continue;
                }
                stats.rules[lead].components_emitted += ivs.components().len();
                let is_new = total
                    .relation(*pred)
                    .and_then(|r| r.components_of(&tuple))
                    .is_none_or(|c| c.is_empty());
                let added = total.merge(*pred, &tuple, &ivs)?;
                if !added.is_empty() {
                    if is_new {
                        stats.rules[lead].tuples_derived += 1;
                        stratum_tuples += 1;
                    }
                    stats.rules[lead].components_added += added.components().len();
                    stratum_components += added.components().len();
                    if let Some(seed) = seed.as_deref_mut() {
                        seed.merge(*pred, &tuple, &added)?;
                    }
                }
            }
            stats.rules[lead].wall += group_start.elapsed();
        }

        // --- Fixpoint. ---
        let mut guard_sets = GuardSets::new();
        // The plan of each variant that ran, with its counters as they
        // stood before it first ran here, for `RunStats::plan_explains`.
        let mut used_plans = VariantPlans::new();
        // Last round's additions: all of them, and per self-chain rule the
        // ones *other* rules made to its head predicate.
        let mut prev_delta = Database::new();
        let mut chain_prev: BTreeMap<usize, Database> = BTreeMap::new();
        let mut iteration = 0usize;
        // Adaptive parallelism gate: an iteration only pays for worker
        // threads when the *previous* iteration's evaluation was expensive
        // enough to amortize the spawns. Cheap fixpoint tails (the common
        // case: hundreds of sub-millisecond delta iterations) stay on the
        // main thread. The gate never changes results — merge order is
        // fixed either way — only where the work runs.
        let mut last_eval_wall = Duration::ZERO;
        loop {
            // One span per fixpoint iteration. The name is not indexed so
            // folded stacks collapse all iterations into one frame; the
            // index travels as a counter instead.
            let mut iter_span = self.config.profiler.as_ref().map(|p| {
                let mut s = p.span("iteration");
                s.add("iteration", iteration as u64);
                s
            });
            if iteration >= self.config.max_iterations {
                return Err(budget_exceeded_iterations(&self.config));
            }
            if total.component_count() > self.config.max_components {
                return Err(budget_exceeded_components(&self.config));
            }
            let mut next_delta = Database::new();
            let mut chain_next: BTreeMap<usize, Database> = BTreeMap::new();
            let mut grew = false;

            // Which evaluations to run this iteration, flattened into a
            // fixed-order task list. The task order is also the merge
            // order, so output and stats are bit-identical for every thread
            // count.
            let mut tasks: Vec<Task<'_>> = Vec::new();
            let seed_delta = seed.as_deref().filter(|_| iteration == 0);
            for rule in &compiled.rules {
                match (&rule.mode, iteration, seed_delta) {
                    // Incremental iteration 0: semi-naive against the seed
                    // when every positive literal supports it.
                    (_, 0, Some(seed)) => match &rule.seeded {
                        Some(variants) => push_variants(&mut tasks, rule.idx, variants, Some(seed)),
                        None => tasks.push(Task::full(rule)),
                    },
                    (FixpointMode::Once, 0, None) => tasks.push(Task::full(rule)),
                    (FixpointMode::Once, _, _) => {}
                    (FixpointMode::Full, _, _) => tasks.push(Task::full(rule)),
                    (FixpointMode::SemiNaive(_), 0, None) => tasks.push(Task::full(rule)),
                    (FixpointMode::SemiNaive(variants), _, _) => {
                        let delta = if compiled.chains.contains(rule.idx) {
                            chain_prev.get(&rule.idx)
                        } else {
                            Some(&prev_delta)
                        };
                        push_variants(&mut tasks, rule.idx, variants, delta);
                    }
                }
            }

            // A plan new to this stratum run has its counters read before
            // it runs, so the run reports its own executions only.
            for task in &tasks {
                used_plans
                    .entry((task.rule, task.plan.delta_literal))
                    .or_insert_with(|| (Arc::clone(task.plan), task.plan.counts()));
            }

            // Evaluate every task against the iteration-start snapshot of
            // `total`. With several tasks the rule fan-out gets the worker
            // budget; a lone task hands it to the binding fan-out inside
            // its joins instead (no nested oversubscription either way).
            let pool_threads = if last_eval_wall >= PAR_MIN_EVAL_WALL {
                threads
            } else {
                1
            };
            let pool = (pool_threads > 1).then(|| self.worker_pool()).flatten();
            let inner_threads = if tasks.len() > 1 { 1 } else { pool_threads };
            type EvalOut = (Result<Vec<(Tuple, IntervalSet)>>, Duration);
            let eval_out: Vec<EvalOut> = {
                let total_snapshot: &Database = total;
                fan_out(tasks.len(), pool_threads, pool, &mut stats.workers, |i| {
                    let task = &tasks[i];
                    // One span per rule evaluation. When the rule fan-out
                    // dispatches to the pool this runs on a worker thread,
                    // so the span lands on that worker's own lane.
                    let mut rule_span = self.config.profiler.as_ref().map(|p| {
                        let mut s = p.span(rule_span_name(&rules[task.rule], task.rule));
                        if let Some(d) = task.plan.delta_literal {
                            s.add("delta_literal", d as u64);
                        }
                        s
                    });
                    let ctx = EvalCtx {
                        total: total_snapshot,
                        delta: task.delta,
                        horizon: window,
                        top,
                        threads: inner_threads,
                        // The binding fan-out only gets the pool when the
                        // rule fan-out is not using it (a lone task), so
                        // pool dispatch always comes from this thread.
                        pool: if inner_threads > 1 { pool } else { None },
                        counters: &counters,
                        profiler: self.config.profiler.as_ref(),
                    };
                    let eval_start = Instant::now();
                    let r = execute_heads(&rules[task.rule], task.plan, &ctx);
                    if let (Some(s), Ok(rows)) = (rule_span.as_mut(), &r) {
                        s.add("derivations", rows.len() as u64);
                    }
                    (r, eval_start.elapsed())
                })
            };
            last_eval_wall = eval_out.iter().map(|(_, d)| *d).sum();
            // What the merge needs of each task, read before the seed takes
            // this round's additions.
            let done: Vec<(usize, Option<usize>)> = tasks
                .iter()
                .map(|task| (task.rule, task.delta.map(Database::tuple_count)))
                .collect();

            // Merge every task's head rows back in fixed task order.
            for ((rule_idx, delta_tuples), (results, eval_wall)) in done.into_iter().zip(eval_out) {
                let rule = &rules[rule_idx];
                let head = rule.head.atom.pred;
                let merge_start = Instant::now();
                let results = results?;
                stats.rule_evaluations += 1;
                let rstats = &mut stats.rules[rule_idx];
                rstats.body_evaluations += 1;
                rstats.wall += eval_wall;
                if let Some(n) = delta_tuples {
                    rstats.delta_tuples += n;
                }
                rstats.derivations += results.len();
                for (tuple, ivs) in results {
                    let mut out = ivs;
                    for op in &rule.head.ops {
                        out = apply_head_op(op, &out)?;
                    }
                    let mut out = out.intersect_interval(&window);
                    if out.is_empty() {
                        continue;
                    }
                    let stored = total
                        .relation(head)
                        .and_then(|r| r.components_of(&tuple))
                        .unwrap_or(&[]);
                    let is_new = stored.is_empty();
                    if compiled.chains.contains(rule_idx) {
                        // Guards read the finished lower strata of `total`;
                        // the merge phase is sequential, so the closure is
                        // identical for every thread count.
                        let ctx = EvalCtx {
                            total,
                            delta: None,
                            horizon: window,
                            top,
                            threads: 1,
                            pool: None,
                            counters: &counters,
                            profiler: self.config.profiler.as_ref(),
                        };
                        let Some(closed) = compiled.chains.close(
                            &mut guard_sets,
                            rule_idx,
                            rule,
                            &tuple,
                            out,
                            stored,
                            &ctx,
                            &self.config,
                            iteration,
                        )?
                        else {
                            continue;
                        };
                        stats.rules[rule_idx].derivations += closed.steps;
                        out = closed.out;
                    }
                    stats.rules[rule_idx].components_emitted += out.components().len();
                    if covers(stored, &out) {
                        continue;
                    }
                    let added = total.merge(head, &tuple, &out)?;
                    if !added.is_empty() {
                        grew = true;
                        let rstats = &mut stats.rules[rule_idx];
                        if is_new {
                            rstats.tuples_derived += 1;
                            stratum_tuples += 1;
                        }
                        rstats.components_added += added.components().len();
                        stratum_components += added.components().len();
                        next_delta.merge(head, &tuple, &added)?;
                        for other in compiled.chains.others_over(head, rule_idx) {
                            chain_next
                                .entry(other)
                                .or_default()
                                .merge(head, &tuple, &added)?;
                        }
                        if let Some(seed) = seed.as_deref_mut() {
                            seed.merge(head, &tuple, &added)?;
                        }
                    }
                }
                stats.rules[rule_idx].wall += merge_start.elapsed();
            }

            if let Some(s) = iter_span.as_mut() {
                s.add("delta_tuples", next_delta.tuple_count() as u64);
                s.add("grew", grew as u64);
            }
            if !grew {
                break;
            }
            prev_delta = next_delta;
            chain_prev = chain_next;
            iteration += 1;
        }

        // Fold the join-path counters into the run totals.
        stats.index_probes += counters.index_probes.load(Ordering::Relaxed);
        stats.index_scan_avoided += counters.index_scan_avoided.load(Ordering::Relaxed);
        stats.full_scans += counters.full_scans.load(Ordering::Relaxed);
        stats.scanned_tuples += counters.scanned_tuples.load(Ordering::Relaxed);
        stats.probed_tuples += counters.probed_tuples.load(Ordering::Relaxed);
        stats.time_index_probes += counters.time_index_probes.load(Ordering::Relaxed);
        stats.interval_clips_avoided += counters.interval_clips_avoided.load(Ordering::Relaxed);

        // Planner counters, and the stratum's share of pool lifecycle
        // events (swapped out so a session advance only counts its own).
        let (new_plans, bindings) = stats.used_plans.record(&self.program, used_plans);
        for new in new_plans {
            stats.plans_built += 1;
            stats.reorders_applied += u64::from(new.reordered);
        }
        stats.planner_actual_rows += bindings;
        if let Some(pool) = self.pool.get() {
            stats.pool_respawns += pool.respawns.swap(0, Ordering::Relaxed);
            stats.pool_reuses += pool.reuses.swap(0, Ordering::Relaxed);
        }

        let iterations = iteration + 1;
        if let Some(s) = stratum_span.as_mut() {
            s.add("iterations", iterations as u64);
            s.add("tuples_derived", stratum_tuples as u64);
            s.add("components_added", stratum_components as u64);
        }
        let wall = stratum_start.elapsed();
        // One row per stratum: a session's advances and repairs re-run the
        // strata and sum into the rows instead of appending new ones.
        for s in stats.strata.len()..=stratum {
            stats.strata.push(StratumStats {
                stratum: s,
                ..StratumStats::default()
            });
            stats.iterations.push(0);
        }
        stats.iterations[stratum] += iterations;
        let row = &mut stats.strata[stratum];
        row.iterations += iterations;
        row.rule_evaluations += stats.rule_evaluations - evals_before;
        row.tuples_derived += stratum_tuples;
        row.components_added += stratum_components;
        row.wall += wall;
        stats.derived_components += stratum_components;
        Ok(())
    }
}

/// The iteration-budget error, shared by the fixpoint loop and the chain
/// closure (whose steps are charged against the same budget).
fn budget_exceeded_iterations(config: &ReasonerConfig) -> Error {
    Error::BudgetExceeded(format!(
        "stratum exceeded {} iterations (unbounded temporal recursion? \
         set a bounded horizon)",
        config.max_iterations
    ))
}

/// The component-budget error, shared like [`budget_exceeded_iterations`].
fn budget_exceeded_components(config: &ReasonerConfig) -> Error {
    Error::BudgetExceeded(format!(
        "materialization exceeded {} interval components",
        config.max_components
    ))
}

/// Profiler span name of one rule's evaluation (and of its chain closures).
fn rule_span_name(rule: &Rule, rule_idx: usize) -> String {
    match &rule.label {
        Some(l) => format!("rule {l}"),
        None => format!("rule r{rule_idx}"),
    }
}

/// Deterministic task fan-out: runs `f` over `0..n` on up to `threads`
/// workers of the persistent pool and returns the results in task-index
/// order, regardless of how the dynamic work-stealing interleaved
/// execution. Worker busy time and task counts accumulate into `workers`
/// (indexed by worker slot; the sequential path attributes to worker 0).
fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    pool: Option<&WorkerPool>,
    workers: &mut [WorkerStats],
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    let Some(pool) = pool.filter(|_| threads > 1 && n > 1) else {
        let start = Instant::now();
        let out: Vec<T> = (0..n).map(&f).collect();
        if let Some(w) = workers.first_mut() {
            w.tasks += n;
            w.busy += start.elapsed();
        }
        return out;
    };
    let run = pool.run(n, f);
    for (slot, tasks, busy) in run.workers {
        if let Some(ws) = workers.get_mut(slot) {
            ws.tasks += tasks;
            ws.busy += busy;
        }
    }
    run.results
}

/// A head operator spreads the derived validity:
/// `⊟ρ P` derived at `T` means `P` holds on `T ⊖ ρ` (towards the past);
/// `⊞ρ P` derived at `T` means `P` holds on `T ⊕ ρ` (towards the future).
fn apply_head_op(op: &HeadOp, ivs: &IntervalSet) -> Result<IntervalSet> {
    let out = match op {
        HeadOp::BoxMinus(rho) => ivs.checked_diamond_plus(rho),
        HeadOp::BoxPlus(rho) => ivs.checked_diamond_minus(rho),
    };
    out.map_err(Error::from)
}

/// Snapshots the relation-storage figures for one run: interner/symbol
/// table sizes (process-global), the result database's byte footprint, its
/// cumulative arena reuse counts, and the process-wide column-clone count.
pub(crate) fn capture_storage_stats(db: &Database, stats: &mut RunStats) {
    let (freed, reused) = db.arena_reuse_counts();
    stats.storage = StorageStats {
        interned_symbols: Symbol::interned_count(),
        interned_values: crate::intern::interned_value_count(),
        interval_bytes: db.interval_arena_bytes(),
        value_bytes: db.storage_bytes().saturating_sub(db.interval_arena_bytes()),
        arena_slabs_freed: freed,
        arena_slabs_reused: reused,
        column_clones: crate::database::column_clone_count(),
    };
}

/// Does a tuple's `stored` component slice hold every point of `row`? Then
/// merging the row would add nothing.
fn covers(stored: &[Interval], row: &IntervalSet) -> bool {
    row.hull()
        .is_some_and(|hull| row.subset_of(&IntervalSet::clip_components(stored, &hull)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_facts, parse_program};
    use crate::Value;

    fn run(rules: &str, facts: &str, horizon: (i64, i64)) -> Database {
        let program = parse_program(rules).unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        let reasoner = Reasoner::new(
            program,
            ReasonerConfig::default().with_horizon(horizon.0, horizon.1),
        )
        .unwrap();
        reasoner.materialize(&db).unwrap().database
    }

    #[test]
    fn non_recursive_derivation() {
        let db = run(
            "h(A) :- p(A), q(A).",
            "p(x)@[0, 5].\nq(x)@[3, 9].",
            (0, 100),
        );
        assert!(db.holds_at("h", &[Value::sym("x")], 4));
        assert!(!db.holds_at("h", &[Value::sym("x")], 2));
    }

    #[test]
    fn temporal_recursion_propagates_to_horizon() {
        // The paper's rule 2 pattern: isOpen propagates forever until withdraw.
        let db = run(
            "isOpen(A) :- tranM(A, M).\n\
             isOpen(A) :- boxminus isOpen(A), not withdraw(A).",
            "tranM(acc, 20)@3.\nwithdraw(acc)@7.",
            (0, 20),
        );
        for t in 3..=6 {
            assert!(db.holds_at("isOpen", &[Value::sym("acc")], t), "t={t}");
        }
        // withdraw at 7 blocks the derivation at 7 itself and onwards.
        for t in 7..=20 {
            assert!(!db.holds_at("isOpen", &[Value::sym("acc")], t), "t={t}");
        }
        assert!(!db.holds_at("isOpen", &[Value::sym("acc")], 2));
    }

    #[test]
    fn stratified_negation_and_recursion_interact() {
        // margin propagation (paper rule 7): carry value unless changed.
        let db = run(
            "margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
             isOpen(A) :- tranM(A, M).\n\
             isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
             changeM(A) :- tranM(A, M).\n\
             margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
             margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.",
            "tranM(acc, 97)@1.\ntranM(acc, 3)@5.",
            (0, 10),
        );
        assert!(db.holds_at("margin", &[Value::sym("acc"), Value::Int(97)], 1));
        assert!(db.holds_at("margin", &[Value::sym("acc"), Value::Int(97)], 4));
        assert!(db.holds_at("margin", &[Value::sym("acc"), Value::Int(100)], 5));
        assert!(db.holds_at("margin", &[Value::sym("acc"), Value::Int(100)], 10));
        assert!(!db.holds_at("margin", &[Value::sym("acc"), Value::Int(97)], 5));
    }

    #[test]
    fn head_box_operators_spread_validity() {
        let db = run(
            "boxplus[0, 3] alert(X) :- spike(X).",
            "spike(s)@10.",
            (0, 100),
        );
        for t in 10..=13 {
            assert!(db.holds_at("alert", &[Value::sym("s")], t), "t={t}");
        }
        assert!(!db.holds_at("alert", &[Value::sym("s")], 14));
        let db = run(
            "boxminus[1, 2] pre(X) :- spike(X).",
            "spike(s)@10.",
            (0, 100),
        );
        assert!(db.holds_at("pre", &[Value::sym("s")], 8));
        assert!(db.holds_at("pre", &[Value::sym("s")], 9));
        assert!(!db.holds_at("pre", &[Value::sym("s")], 10));
    }

    #[test]
    fn aggregates_feed_recursion() {
        // skew pattern: event sums feed a recursive accumulator.
        let db = run(
            "event(sum(S)) :- modPos(A, S).\n\
             skew(K) :- startSkew(K).\n\
             skew(K) :- diamondminus skew(K), not event(_).\n\
             skew(K) :- diamondminus skew(X), event(S), K = X + S.",
            "startSkew(0)@0.\nmodPos(a, 5)@2.\nmodPos(b, -2)@2.\nmodPos(a, 1)@4.",
            (0, 6),
        );
        assert!(db.holds_at("skew", &[Value::Int(0)], 1));
        assert!(db.holds_at("skew", &[Value::Int(3)], 2));
        assert!(db.holds_at("skew", &[Value::Int(3)], 3));
        assert!(db.holds_at("skew", &[Value::Int(4)], 4));
        assert!(db.holds_at("skew", &[Value::Int(4)], 6));
        assert!(!db.holds_at("skew", &[Value::Int(0)], 2));
    }

    #[test]
    fn unbounded_recursion_hits_iteration_budget() {
        let program = parse_program(
            "p(X) :- q(X).\n\
             p(X) :- boxminus p(X).",
        )
        .unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts("q(a)@0.").unwrap()).unwrap();
        let reasoner = Reasoner::new(
            program,
            ReasonerConfig {
                max_iterations: 50,
                ..ReasonerConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            reasoner.materialize(&db),
            Err(Error::BudgetExceeded(_))
        ));
    }

    /// The chain closure runs inside one fixpoint round, so the budgets
    /// must reach into it: under the default unbounded horizon a frame
    /// rule never saturates, and the closure has to stop after O(budget)
    /// steps (and components) instead of allocating until it is killed.
    #[test]
    fn unbounded_chain_closure_is_charged_against_the_budgets() {
        let program = parse_program(
            "p(X) :- q(X).\n\
             p(X) :- boxminus p(X).",
        )
        .unwrap();
        let run = |facts: &str, config: ReasonerConfig| {
            let mut db = Database::new();
            db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
            let started = Instant::now();
            let err = Reasoner::new(program.clone(), config)
                .unwrap()
                .materialize(&db)
                .err()
                .expect("an unbounded chain must exhaust a budget");
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "budget tripped only after {:?}",
                started.elapsed()
            );
            match err {
                Error::BudgetExceeded(msg) => msg,
                other => panic!("expected a budget error, got {other}"),
            }
        };
        // A run of points is charged its teeth before it is built: one
        // unbounded progression costs no memory, only steps — whatever the
        // step budget is.
        for max_iterations in [10_000, usize::MAX] {
            let msg = run(
                "q(a)@0.",
                ReasonerConfig {
                    max_iterations,
                    max_components: 1_000,
                    ..ReasonerConfig::default()
                },
            );
            assert!(
                msg.contains(&format!("{max_iterations} iterations")),
                "{msg}"
            );
        }
        // A row of positive length is stepped, one component a step: there
        // a generous step budget leaves the component budget to bound the
        // closure's memory.
        let msg = run(
            "q(a)@[0, 0.5].",
            ReasonerConfig {
                max_components: 1_000,
                ..ReasonerConfig::default()
            },
        );
        assert!(msg.contains("1000 interval components"), "{msg}");
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let rules = "isOpen(A) :- tranM(A, M).\n\
                     isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                     pair(A, B) :- isOpen(A), isOpen(B).";
        let facts = "tranM(x, 1)@0.\ntranM(y, 2)@3.\nwithdraw(x)@6.";
        let program = parse_program(rules).unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        let mk = |semi| {
            Reasoner::new(
                program.clone(),
                ReasonerConfig {
                    semi_naive: semi,
                    ..ReasonerConfig::default().with_horizon(0, 12)
                },
            )
            .unwrap()
            .materialize(&db)
            .unwrap()
            .database
        };
        let a = mk(true);
        let b = mk(false);
        assert_eq!(a.to_facts_text(), b.to_facts_text());
    }

    #[test]
    fn stats_are_populated() {
        let program = parse_program("h(A) :- p(A).").unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts("p(x)@1.").unwrap()).unwrap();
        let m = Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .materialize(&db)
            .unwrap();
        assert_eq!(m.stats.derived_tuples, 1);
        assert_eq!(m.stats.iterations.len(), 1);
        assert!(m.stats.rule_evaluations >= 1);
    }

    #[test]
    fn rigid_facts_combine_with_temporal_ones() {
        let db = run(
            "h(A, R) :- p(A), rate(R).",
            "p(x)@[2, 4].\nrate(0.5).",
            (0, 10),
        );
        assert!(db.holds_at("h", &[Value::sym("x"), Value::num(0.5)], 3));
        assert!(!db.holds_at("h", &[Value::sym("x"), Value::num(0.5)], 5));
    }
}
