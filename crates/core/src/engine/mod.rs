//! The DatalogMTL materialization engine.
//!
//! [`Reasoner::materialize`] computes the horizon-bounded least model of a
//! stratified DatalogMTL program over a temporal database: strata are
//! processed in order; within a stratum, aggregate rules run once (their
//! inputs are strictly lower, per stratified aggregation) and the remaining
//! rules run to fixpoint, semi-naive: round 0 evaluates every rule in full,
//! and each later round runs one variant per positive literal over a
//! current-stratum predicate, that literal read from the last round's delta.
//! A chain of diamonds and punctual boxes over one atom reads the new
//! points; any other literal — a box of positive length, `since`, `until` —
//! reads the tuples that grew, each with its whole validity.
//!
//! Round 0 has two phases. The frame phase evaluates the stratum's
//! self-chain (frame) rules and merges their rows, closed over their guard
//! sets (`engine/chain.rs`); then the other rules' full plans are evaluated
//! against the model that already holds those rows. What the frame phase
//! merged is in no delta but that of another frame rule over the same
//! head: its own rule has nothing left to derive from it (the closure is
//! closed under the rule), and every other rule read it in full. So when a
//! session advance merely continues the open persistence runs and no other
//! rule derives anything new, the delta stays empty and the stratum ends
//! after one round.

mod aggregate;
mod chain;
mod eval;
mod explain;
pub(crate) mod plan;
mod session;

pub(crate) use eval::{compare, eval_expr};
pub use explain::Explanation;
pub use plan::{PlanExplain, PlanStepExplain};
pub use session::{BaseEvent, RepairPath, RepairReport, Session};

use crate::analysis::{check_program, DependencyGraph, Stratification};
use crate::ast::{HeadOp, Literal, Program, Rule};
use crate::database::{Database, IndexSpec};
use crate::error::{Error, Result};
use crate::rewrite::{self, Query};
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use chain::{Chains, GuardSets};
use chronolog_obs::{Json, SpanRecorder};
use eval::{delta_read, execute_heads, DeltaRead, EvalCtx, LookupCounts};
use mtl_temporal::{Interval, IntervalSet};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum tuples the lookups of the *previous* fixpoint round visited,
/// scanned or probed and summed over its tasks, for the next round to use
/// worker threads. A dispatch spawns and joins its scoped workers afresh
/// (0.1–0.3 ms for two workers on a 2-core VM), so a round much cheaper
/// than that cannot win the spawn back; it runs on the calling thread. A
/// visited tuple costs about 0.35 µs of evaluation on the netting
/// programs, so the gate sits near 2 ms of work. It is a count, so which
/// rounds fan out is the same on every run.
const PAR_MIN_ROUND_TUPLES: u64 = 6_000;

/// Reasoner configuration: the horizon the model is clipped to, resource
/// budgets, worker threads and profiling. Beyond the horizon, none of them
/// changes the model — only whether, how fast and how observably it is
/// computed. The fixpoint strategy is not a setting: every rule runs
/// semi-naive over its current-stratum literals. The model is checked
/// against one independent reference, the brute-force oracle of
/// [`crate::naive`].
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
    /// When set, the engine records hierarchical timing spans
    /// (materialize → stratum → iteration → rule → join step) into this
    /// recorder, one lane per evaluating thread. `None` (the default)
    /// costs one `Option` check per site and allocates no spans.
    pub profiler: Option<SpanRecorder>,
    /// Worker threads for stratum evaluation: the rule evaluations of one
    /// fixpoint round fan out over up to this many scoped threads. `1` is
    /// fully sequential and spawns nothing; any value produces
    /// bit-identical output and derivation counts — evaluation always
    /// reads the iteration-start snapshot and merges in fixed rule order.
    pub threads: usize,
}

impl Default for ReasonerConfig {
    fn default() -> Self {
        ReasonerConfig {
            horizon: Interval::ALL,
            max_iterations: 1_000_000,
            max_components: 50_000_000,
            profiler: None,
            threads: 1,
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

/// Per-slot statistics of the rule fan-out. Slot `k` is the `k`-th worker
/// thread of each dispatch (named `worker-<k>`); the sequential path runs
/// as slot 0.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Worker slot (`0..threads`).
    pub worker: usize,
    /// Rule-evaluation tasks this worker executed.
    pub tasks: usize,
    /// Busy wall-clock time (task execution, excluding idle waits).
    pub busy: Duration,
}

/// Statistics of the session repair path (out-of-order corrections):
/// the `repairs` section of stats-json. An attempt that fails is rolled
/// back, so `attempted - incremental` counts the failed corrections.
#[derive(Clone, Debug, Default)]
pub struct RepairStats {
    /// Corrections that entered the repair path (retract, late submit,
    /// or a combined correct — one attempt each).
    pub attempted: u64,
    /// Attempts completed by in-place overdelete + re-derive.
    pub incremental: u64,
    /// Tuples whose validity intersected a repair window, summed over
    /// the completed repairs.
    pub cone_tuples: u64,
    /// Interval components removed by the completed repairs'
    /// overdeletion.
    pub overdeleted_components: u64,
}

/// What one overdelete pass did (the collection feeding [`RepairStats`]).
#[derive(Debug, Default)]
pub(crate) struct OverdeleteOutcome {
    /// Tuples whose validity intersected the repair window.
    pub cone_tuples: u64,
    /// Interval components removed from the materialization.
    pub removed_components: u64,
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
    /// from an unrestricted materialization, e.g. `--facts` or `--session`).
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
    /// Always 0: no worker thread outlives its dispatch. Kept for
    /// `benchmark/src/perp.rs`, goes with the next PR allowed to edit
    /// `benchmark/`.
    pub pool_reuses: u64,
    /// Always 0, like [`RunStats::pool_reuses`].
    pub pool_respawns: u64,
    /// The plan of each `(rule, delta-literal)` variant the run executed —
    /// rendered on demand by [`RunStats::plan_explains`].
    used_plans: UsedPlans,
    /// Per-rule breakdown, indexed by rule position in the program.
    pub rules: Vec<RuleStats>,
    /// Per-stratum breakdown (one entry per stratum, indexed by stratum).
    pub strata: Vec<StratumStats>,
    /// Per-slot breakdown of the rule fan-out (one entry per worker slot,
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

/// The plan of every `(rule, delta-literal)` variant the run executed and
/// what it executed and produced in this run, with the program whose rules
/// the plans index — what [`RunStats::plan_explains`] renders from. The
/// plans are the reasoner's, immutable; the counts are this run's own. The
/// explain text is only built when somebody reads it.
#[derive(Clone, Default)]
struct UsedPlans {
    program: Option<Arc<Program>>,
    plans: BTreeMap<(usize, Option<usize>), (Arc<plan::RulePlan>, plan::PlanCounts)>,
}

impl std::fmt::Debug for UsedPlans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UsedPlans({} variants)", self.plans.len())
    }
}

impl RunStats {
    /// Adds the counts of one evaluation's lookups.
    fn add_lookups(&mut self, c: &LookupCounts) {
        self.index_probes += c.index_probes;
        self.index_scan_avoided += c.index_scan_avoided;
        self.full_scans += c.full_scans;
        self.scanned_tuples += c.scanned_tuples;
        self.probed_tuples += c.probed_tuples;
        self.time_index_probes += c.time_index_probes;
        self.interval_clips_avoided += c.interval_clips_avoided;
    }

    /// Adds one execution of `plan`, a variant of rule `rule` whose steps
    /// produced `step_rows`. A variant the run has not executed before
    /// counts as a plan built.
    fn add_execution(&mut self, rule: usize, plan: &Arc<plan::RulePlan>, step_rows: &[u64]) {
        let used = &mut self.used_plans.plans;
        let (_, counts) = used.entry((rule, plan.delta_literal)).or_insert_with(|| {
            self.plans_built += 1;
            self.reorders_applied += u64::from(plan.reordered);
            (Arc::clone(plan), plan::PlanCounts::default())
        });
        counts.add_execution(step_rows);
        self.planner_actual_rows += plan.bindings(1, step_rows);
    }

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
        let repairs = Json::from_pairs([
            ("attempted", Json::from(self.repairs.attempted)),
            ("incremental", Json::from(self.repairs.incremental)),
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
            ("repairs", repairs),
            ("storage", storage),
            ("magic", magic),
        ])
    }
}

/// The result of a point query ([`Reasoner::query`] or
/// [`Session::query`]).
pub struct QueryOutcome {
    /// Matching tuples with their validity intervals, clipped to the
    /// query window and sorted by tuple (deterministic across thread
    /// counts and evaluation modes).
    pub answers: Vec<(Tuple, IntervalSet)>,
    /// Statistics of the inner sub-program materialization, with the
    /// `magic` section describing the rewrite (all defaults for a
    /// session query, which reads the live materialization).
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
    /// determines (aggregate groups, variants and their physical plans,
    /// self-chain rules) — compiled here once instead of on every stratum
    /// run.
    compiled: Vec<CompiledStratum>,
    /// Per predicate of the program, the predicates whose derivations
    /// depend on it, directly or transitively: the static half of every
    /// repair cone, built once here instead of on every correction.
    downstream: HashMap<Symbol, Vec<Symbol>>,
    /// The indexes the compiled plans can probe, per predicate: declared
    /// on every database the fixpoint reads.
    indexes: Arc<IndexSpec>,
    config: ReasonerConfig,
}

/// One semi-naive variant of a rule: the body literal read from the delta,
/// what of the delta it reads, and the variant's plan, which names the
/// literal.
struct Variant {
    /// The literal's current-stratum predicates: the variant can derive
    /// something only in a round after one of them grew.
    preds: Vec<Symbol>,
    read: DeltaRead,
    plan: Arc<plan::RulePlan>,
}

/// The program-only facts about one non-aggregate rule of a stratum.
struct CompiledRule {
    /// Index into [`Program::rules`].
    idx: usize,
    /// The plan of a full evaluation: round 0 of every stratum run.
    full: Arc<plan::RulePlan>,
    /// One variant per positive literal over a current-stratum predicate:
    /// the rounds after round 0. A rule with none runs on round 0 only.
    variants: Vec<Variant>,
}

/// Everything about one stratum that depends on the program alone.
struct CompiledStratum {
    /// Aggregate rules grouped by head predicate, in first-rule order, each
    /// with the plan of its body.
    agg_groups: Vec<(Symbol, Vec<(usize, plan::RulePlan)>)>,
    /// The remaining rules in program order — also the task, merge and
    /// therefore output order of every round.
    rules: Vec<CompiledRule>,
    /// Some variant reads [`DeltaRead::Tuples`]: a round hands on the
    /// tuples it grew with their whole validity.
    reads_tuples: bool,
    /// The stratum's self-chain (frame) rules.
    chains: Chains,
}

impl CompiledStratum {
    /// Compiles the rules `rule_indices` of one stratum of `program`, whose
    /// persisted predicates are `persisted`, noting in `spec` the indexes
    /// its plans can probe.
    fn compile(
        program: &Program,
        rule_indices: &[usize],
        persisted: &HashSet<Symbol>,
        spec: &mut IndexSpec,
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
                let member = (i, plan::build_plan(rule, None, persisted, spec));
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
        let rules: Vec<CompiledRule> = normal
            .iter()
            .map(|&idx| {
                let rule = &program.rules[idx];
                // Negation reads strictly lower strata, so only positive
                // literals can mention a current-stratum predicate.
                let variants = (rule.body.iter().enumerate())
                    .filter_map(|(li, lit)| {
                        let Literal::Pos(m) = lit else { return None };
                        let preds: Vec<Symbol> = (m.atoms().iter())
                            .map(|a| a.pred)
                            .filter(|p| current_preds.contains(p))
                            .collect();
                        (!preds.is_empty()).then(|| Variant {
                            preds,
                            read: delta_read(m),
                            plan: Arc::new(plan::build_plan(rule, Some(li), persisted, spec)),
                        })
                    })
                    .collect();
                CompiledRule {
                    idx,
                    full: Arc::new(plan::build_plan(rule, None, persisted, spec)),
                    variants,
                }
            })
            .collect();
        let reads_tuples =
            (rules.iter().flat_map(|r| &r.variants)).any(|v| v.read == DeltaRead::Tuples);
        // A self-chain rule's guard lookups need no indexes of their own:
        // its variant over the chain literal joins every guard with the
        // head variables bound, so that plan declares what they probe.
        let chains = Chains::detect(
            normal.iter().map(|&i| (i, &program.rules[i])),
            &current_preds,
        );
        CompiledStratum {
            agg_groups,
            rules,
            reads_tuples,
            chains,
        }
    }
}

/// The tuples of `added` (a round's additions), each with its whole validity
/// in `total`: what a [`DeltaRead::Tuples`] variant reads next round.
fn grown_tuples(added: &Database, total: &Database, indexes: &Arc<IndexSpec>) -> Result<Database> {
    let mut grown = Database::new().declare(indexes);
    for (pred, tuple, _) in added.iter() {
        let tuple = tuple.to_vec();
        let stored = (total.relation(pred).and_then(|r| r.components_of(&tuple))).unwrap_or(&[]);
        grown.merge(pred, &tuple, &IntervalSet::from_sorted(stored.to_vec()))?;
    }
    Ok(grown)
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

/// The semi-naive tasks of a round after round 0, in rule order, produced
/// lazily: each rule's variants over the last round's additions — `delta`
/// for most rules, `chain[rule]` for a self-chain rule (none if nothing else
/// fed it), `tuples` (the grown tuples with their whole validity) for a
/// [`DeltaRead::Tuples`] variant. A variant whose predicates did not grow
/// cannot derive, so it is not dispatched.
fn delta_tasks<'d>(
    compiled: &'d CompiledStratum,
    delta: &'d Database,
    chain: &'d BTreeMap<usize, Database>,
    tuples: &'d Database,
) -> impl Iterator<Item = Task<'d>> {
    compiled.rules.iter().flat_map(move |rule| {
        let points = if compiled.chains.contains(rule.idx) {
            chain.get(&rule.idx)
        } else {
            Some(delta)
        };
        rule.variants.iter().filter_map(move |v| {
            let delta = match v.read {
                DeltaRead::Points => points?,
                DeltaRead::Tuples => tuples,
            };
            let grew = |p: &Symbol| delta.relation(*p).is_some_and(|r| r.live_len() > 0);
            v.preds.iter().any(grew).then_some(Task {
                rule: rule.idx,
                plan: &v.plan,
                delta: Some(delta),
            })
        })
    })
}

/// Every predicate of `graph` with the predicates reachable from it along
/// its edges (itself only through a cycle).
fn downstream_predicates(graph: &DependencyGraph) -> HashMap<Symbol, Vec<Symbol>> {
    let mut successors: HashMap<Symbol, Vec<Symbol>> = HashMap::new();
    for (from, to, _) in &graph.edges {
        successors.entry(*from).or_default().push(*to);
    }
    graph
        .predicates
        .iter()
        .map(|&p| {
            let mut reached: HashSet<Symbol> = HashSet::new();
            let mut frontier = vec![p];
            while let Some(q) = frontier.pop() {
                for &to in successors.get(&q).into_iter().flatten() {
                    if reached.insert(to) {
                        frontier.push(to);
                    }
                }
            }
            (p, reached.into_iter().collect())
        })
        .collect()
}

impl Reasoner {
    /// Validates (safety, arity, stratification) and compiles a program.
    pub fn new(program: Program, config: ReasonerConfig) -> Result<Reasoner> {
        check_program(&program)?;
        let strat = Stratification::compute(&program)?;
        let persisted = plan::persisted_predicates(&program);
        let mut indexes = IndexSpec::default();
        let compiled = strat
            .rules_by_stratum
            .iter()
            .map(|rules| CompiledStratum::compile(&program, rules, &persisted, &mut indexes))
            .collect();
        let downstream = downstream_predicates(&DependencyGraph::build(&program));
        Ok(Reasoner {
            program: Arc::new(program),
            strat,
            compiled,
            downstream,
            indexes: Arc::new(indexes),
            config,
        })
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
        let mut total = input.clone().declare(&self.indexes);
        let mut stats = RunStats::default();
        self.init_rule_stats(&mut stats);
        let input_tuples = input.tuple_count();

        let horizon = self.config.horizon;
        self.run_strata(&mut total, &mut stats, horizon, horizon)?;

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
        let mut span = self.config.profiler.as_ref().map(|p| p.span("query"));
        let reserved: Vec<Symbol> = input.predicates().collect();
        let rw = rewrite::rewrite(&self.program, query, &reserved);
        let outcome = if rw.is_guarded() {
            match self.run_rewritten(input, query, &rw, true, false) {
                // Guard edges can close a cycle through negation
                // (NotStratifiable) and unbounded backward demand spread
                // can blow the iteration budget where the forward
                // fixpoint converged; both degrade to the unguarded cone.
                Err(Error::NotStratifiable(_) | Error::Unsafe(_) | Error::BudgetExceeded(_)) => {
                    self.run_rewritten(input, query, &rw, false, true)
                }
                guarded => guarded,
            }
        } else {
            self.run_rewritten(input, query, &rw, false, false)
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
        magic: bool,
        degraded: bool,
    ) -> Result<QueryOutcome> {
        let program = if magic {
            rw.program.clone()
        } else {
            rw.cone_program.clone()
        };
        let inner = Reasoner::new(program, self.config.clone())?;
        let mut db = input.clone();
        let mut seeds_inserted = 0u64;
        if magic {
            for seed in &rw.seeds {
                if let Some(iv) = seed.interval.intersect(&self.config.horizon) {
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
    /// (index, label, head predicate, stratum), and names the program the
    /// plan explains render from. Idempotent, so a [`Session`] can call it
    /// once and accumulate across advances.
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
        stats.used_plans.program = Some(Arc::clone(&self.program));
    }

    /// Predicates whose derivations can depend, directly or transitively,
    /// on any of `changed` — the predicate dimension of a repair cone.
    /// Includes the changed predicates themselves: a corrected base
    /// predicate can carry derived intervals of its own in the
    /// materialization (e.g. when it also appears in a rule head).
    pub(crate) fn affected_predicates(&self, changed: &[Symbol]) -> HashSet<Symbol> {
        let mut affected: HashSet<Symbol> = changed.iter().copied().collect();
        for p in changed {
            affected.extend(self.downstream.get(p).into_iter().flatten());
        }
        affected
    }

    /// DRed-style overdeletion: within `window`, removes from `total`
    /// every affected tuple's validity except the parts backed by a
    /// surviving base fact. Over-approximate by design — anything still
    /// derivable is restored by the re-derivation pass over the window.
    pub(crate) fn overdelete(
        &self,
        total: &mut Database,
        base: &Database,
        affected: &HashSet<Symbol>,
        window: Interval,
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
    /// t]`). Iteration 0 of every stratum evaluates each rule in full over
    /// the window; later iterations are semi-naive on the last one's
    /// additions.
    pub(crate) fn run_strata(
        &self,
        total: &mut Database,
        stats: &mut RunStats,
        window: Interval,
        top: Interval,
    ) -> Result<()> {
        for stratum in 0..self.compiled.len() {
            self.run_stratum(stratum, total, stats, window, top)?;
        }
        Ok(())
    }

    /// Runs one stratum to fixpoint.
    ///
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
        stats: &mut RunStats,
        window: Interval,
        top: Interval,
    ) -> Result<()> {
        let profiler = self.config.profiler.as_ref();
        // Opened before the wall-clock so the span always contains the
        // measured stratum wall time (span dur ≥ `StratumStats::wall`).
        let mut stratum_span = profiler.map(|p| p.span(format!("stratum {stratum}")));
        let stratum_start = Instant::now();
        let compiled = &self.compiled[stratum];
        let rules = &self.program.rules;
        let evals_before = stats.rule_evaluations;
        // What the stratum's rules have derived so far: the stratum run's
        // growth is the difference across it.
        let rule_growth = |stats: &RunStats| {
            let rows = self.strat.rules_by_stratum[stratum].iter();
            rows.map(|&i| &stats.rules[i]).fold((0, 0), |(t, c), r| {
                (t + r.tuples_derived, c + r.components_added)
            })
        };
        let (tuples_before, components_before) = rule_growth(stats);
        let threads = self.config.threads.max(1);
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
            let ctx = EvalCtx::new(total, window, top, profiler);
            let derived = aggregate::eval_aggregate_rules(&group, &ctx)?;
            stats.add_lookups(&ctx.lookups.get());
            stats.rule_evaluations += indices.len();
            for (i, _) in indices {
                stats.rules[*i].body_evaluations += 1;
            }
            // Derivations of a merged aggregate group are attributed to its
            // first rule — the group shares one head predicate.
            let lead = indices[0].0;
            stats.rules[lead].derivations += derived.len();
            for (tuple, interval) in derived {
                let row = IntervalSet::from_interval(interval);
                let out = head_validity(&rules[lead], row, window)?;
                if !out.is_empty() {
                    merge_row(total, &mut stats.rules[lead], *pred, &tuple, out)?;
                }
            }
            stats.rules[lead].wall += group_start.elapsed();
        }

        // --- Fixpoint. ---
        let mut guard_sets = GuardSets::new();
        // A stratum whose rules read none of its own predicates (no cycle
        // passes through it) runs round 0 only, and nothing collects what
        // that round adds.
        let recursive = compiled.rules.iter().any(|r| !r.variants.is_empty());
        // Last round's additions, from round 1 on: all of them, per
        // self-chain rule the ones *other* rules made to its head predicate,
        // and the tuples they grew with their whole validity.
        let mut prev: Option<(Database, BTreeMap<usize, Database>, Database)> = None;
        let mut iteration = 0usize;
        // Parallelism gate: a round only pays for worker threads when the
        // *previous* round's lookups visited enough tuples to amortize the
        // spawns. Cheap fixpoint tails (the common case: hundreds of small
        // delta rounds) stay on the main thread. The gate never changes
        // results — merge order is fixed either way — only where the work
        // runs.
        let mut last_visited = 0u64;
        loop {
            // One span per fixpoint iteration. The name is not indexed so
            // folded stacks collapse all iterations into one frame; the
            // index travels as a counter instead.
            let mut iter_span = profiler.map(|p| {
                let mut s = p.span("iteration");
                s.add("iteration", iteration as u64);
                s
            });
            if iteration >= self.config.max_iterations {
                return Err(budget_exceeded_iterations(&self.config));
            }
            let mut next_delta = recursive.then(|| Database::new().declare(&self.indexes));
            let mut chain_next: BTreeMap<usize, Database> = BTreeMap::new();
            let mut grew = false;

            // Which evaluations to run this round, as fixed-order task
            // lists. The task order is also the merge order, so output and
            // stats are bit-identical for every thread count. Round 0 runs
            // in two phases: the frame rules in full, merged before the
            // other rules' full plans are evaluated, so those read every
            // run the frame rules continued (module docs).
            let phases: Vec<(bool, Vec<Task<'_>>)> = match &prev {
                None => {
                    let (frames, rest): (Vec<_>, Vec<_>) = (compiled.rules.iter())
                        .partition(|rule| compiled.chains.contains(rule.idx));
                    vec![
                        (true, frames.into_iter().map(Task::full).collect()),
                        (false, rest.into_iter().map(Task::full).collect()),
                    ]
                }
                Some((delta, chain, grown)) => {
                    vec![(false, delta_tasks(compiled, delta, chain, grown).collect())]
                }
            };

            // Both phases of round 0 fan out as the previous round allows.
            let fan_threads = if last_visited >= PAR_MIN_ROUND_TUPLES {
                threads
            } else {
                1
            };
            last_visited = 0;
            for (frame_phase, tasks) in phases {
                // Evaluate every task against the phase-start snapshot of
                // `total`, fanned out over the worker budget. Each task
                // hands back what it counted with its head rows.
                let eval_out: Vec<_> = {
                    let total_snapshot: &Database = total;
                    fan_out(tasks.len(), fan_threads, &mut stats.workers, |i| {
                        let task = &tasks[i];
                        // One span per rule evaluation. When the rule
                        // fan-out spawns workers this runs on a worker
                        // thread, so the span lands on that worker's lane.
                        let mut rule_span = profiler.map(|p| {
                            let mut s = p.span(rule_span_name(&rules[task.rule], task.rule));
                            if let Some(d) = task.plan.delta_literal {
                                s.add("delta_literal", d as u64);
                            }
                            s
                        });
                        let ctx = EvalCtx {
                            delta: task.delta,
                            ..EvalCtx::new(total_snapshot, window, top, profiler)
                        };
                        let eval_start = Instant::now();
                        let r = execute_heads(&rules[task.rule], task.plan, &ctx);
                        if let (Some(s), Ok((rows, _))) = (rule_span.as_mut(), &r) {
                            s.add("derivations", rows.len() as u64);
                        }
                        (r, ctx.lookups.get(), eval_start.elapsed())
                    })
                };
                last_visited += eval_out.iter().map(|(_, l, _)| l.visited()).sum::<u64>();
                // Merge every task's counts and head rows back in fixed
                // task order: the one place a rule evaluation reaches
                // `stats`.
                for (task, (result, lookups, eval_wall)) in tasks.iter().zip(eval_out) {
                    let rule_idx = task.rule;
                    let rule = &rules[rule_idx];
                    let head = rule.head.atom.pred;
                    let merge_start = Instant::now();
                    let (rows, step_rows) = result?;
                    stats.add_lookups(&lookups);
                    stats.add_execution(rule_idx, task.plan, &step_rows);
                    stats.rule_evaluations += 1;
                    let rstats = &mut stats.rules[rule_idx];
                    rstats.body_evaluations += 1;
                    rstats.wall += eval_wall;
                    if let Some(delta) = task.delta {
                        rstats.delta_tuples += delta.tuple_count();
                    }
                    rstats.derivations += rows.len();
                    for (tuple, ivs) in rows {
                        let mut out = head_validity(rule, ivs, window)?;
                        if out.is_empty() {
                            continue;
                        }
                        if compiled.chains.contains(rule_idx) {
                            // Guards read the finished lower strata of
                            // `total`; the merge phase is sequential, so the
                            // closure is identical for every thread count.
                            let stored = (total.relation(head))
                                .and_then(|r| r.components_of(&tuple))
                                .unwrap_or(&[]);
                            let ctx = EvalCtx::new(total, window, top, profiler);
                            let closed = compiled.chains.close(
                                &mut guard_sets,
                                rule_idx,
                                rule,
                                &tuple,
                                out,
                                stored,
                                &ctx,
                                &self.config,
                                iteration,
                            );
                            stats.add_lookups(&ctx.lookups.get());
                            let Some(closed) = closed? else {
                                continue;
                            };
                            stats.rules[rule_idx].derivations += closed.steps;
                            if !closed.links.is_empty() {
                                total.relink(head, &tuple, &closed.links);
                            }
                            if closed.out.is_empty() {
                                continue;
                            }
                            out = closed.out;
                        }
                        let added =
                            merge_row(total, &mut stats.rules[rule_idx], head, &tuple, out)?;
                        if added.is_empty() {
                            continue;
                        }
                        // What the frame phase merged, every full plan of
                        // the round reads: it is nobody's delta but that
                        // of another frame rule over the same head.
                        if !frame_phase {
                            grew = true;
                            if let Some(next_delta) = next_delta.as_mut() {
                                next_delta.merge(head, &tuple, &added)?;
                            }
                        }
                        for other in compiled.chains.others_over(head, rule_idx) {
                            grew = true;
                            chain_next
                                .entry(other)
                                .or_insert_with(|| Database::new().declare(&self.indexes))
                                .merge(head, &tuple, &added)?;
                        }
                    }
                    stats.rules[rule_idx].wall += merge_start.elapsed();
                }
            }

            if let Some(s) = iter_span.as_mut() {
                let delta_tuples = next_delta.as_ref().map_or(0, Database::tuple_count);
                s.add("delta_tuples", delta_tuples as u64);
                s.add("grew", grew as u64);
            }
            // Checked on every round's result, the stratum's last included.
            if total.component_count() > self.config.max_components {
                return Err(budget_exceeded_components(&self.config));
            }
            // The next round runs only if some variant reads what this one
            // grew (the grown tuples hold the predicates of `next_delta`): a
            // round with no task is neither run nor counted.
            let Some(next_delta) = next_delta else { break };
            if delta_tasks(compiled, &next_delta, &chain_next, &next_delta)
                .next()
                .is_none()
            {
                break;
            }
            let grown = if compiled.reads_tuples {
                grown_tuples(&next_delta, total, &self.indexes)?
            } else {
                Database::new()
            };
            prev = Some((next_delta, chain_next, grown));
            iteration += 1;
        }

        let (tuples_after, components_after) = rule_growth(stats);
        let stratum_tuples = tuples_after - tuples_before;
        let stratum_components = components_after - components_before;
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
/// scoped worker threads (`worker-<slot>`) that pull task indices from one
/// shared counter, and returns the results in task-index order, however
/// the workers interleaved. One thread or one task runs on the calling
/// thread and spawns nothing. A spawn the OS refuses is not an error: the
/// workers already running take its share, and with none running the
/// calling thread takes all of it. A worker's panic is re-raised here
/// with its original payload. Busy time and task counts accumulate into
/// `workers`, indexed by slot.
fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    workers: &mut [WorkerStats],
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let start = Instant::now();
        let out: Vec<T> = (0..n).map(&f).collect();
        if let Some(w) = workers.first_mut() {
            w.tasks += n;
            w.busy += start.elapsed();
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    // One participant's share: `(slot, busy, (task, result) pairs)`.
    let work = |slot: usize| {
        let start = Instant::now();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(i)));
        }
        (slot, start.elapsed(), done)
    };
    let shares: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map_while(|slot| {
                std::thread::Builder::new()
                    .name(format!("worker-{slot}"))
                    .spawn_scoped(scope, move || work(slot))
                    .ok()
            })
            .collect();
        if handles.is_empty() {
            return vec![work(0)];
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut results = Vec::with_capacity(n);
    for (slot, busy, done) in shares {
        if let Some(w) = workers.get_mut(slot) {
            w.tasks += done.len();
            w.busy += busy;
        }
        results.extend(done);
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
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

/// A head row's validity through `rule`'s head operators, clipped to the
/// derivation `window`.
fn head_validity(rule: &Rule, row: IntervalSet, window: Interval) -> Result<IntervalSet> {
    let mut out = row;
    for op in &rule.head.ops {
        out = apply_head_op(op, &out)?;
    }
    Ok(out.intersect_interval(&window))
}

/// Merges head row `(tuple, out)` — its validity through [`head_validity`]
/// and, for a self-chain rule, closed — into `head` of `total`, charging
/// the rule's stats `rstats`. Returns what the row added.
fn merge_row(
    total: &mut Database,
    rstats: &mut RuleStats,
    head: Symbol,
    tuple: &[Value],
    out: IntervalSet,
) -> Result<IntervalSet> {
    rstats.components_emitted += out.components().len();
    let stored = (total.relation(head))
        .and_then(|r| r.components_of(tuple))
        .unwrap_or(&[]);
    if covers(stored, &out) {
        return Ok(IntervalSet::new());
    }
    let is_new = stored.is_empty();
    let added = total.merge(head, tuple, &out)?;
    if !added.is_empty() {
        rstats.tuples_derived += usize::from(is_new);
        rstats.components_added += added.components().len();
    }
    Ok(added)
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

    fn slots(threads: usize) -> Vec<WorkerStats> {
        (0..threads)
            .map(|worker| WorkerStats {
                worker,
                ..WorkerStats::default()
            })
            .collect()
    }

    #[test]
    fn fan_out_returns_results_in_task_order() {
        let data: Vec<usize> = (0..100).map(|i| i * 2).collect();
        for threads in [1, 2, 4] {
            let mut workers = slots(threads);
            let out = fan_out(100, threads, &mut workers, |i| data[i]);
            assert_eq!(out, data);
            let tasks: usize = workers.iter().map(|w| w.tasks).sum();
            assert_eq!(tasks, 100, "threads = {threads}");
        }
    }

    #[test]
    fn fan_out_runs_a_single_task() {
        let mut workers = slots(3);
        assert_eq!(fan_out(1, 3, &mut workers, |i| i + 42), vec![42]);
        assert_eq!(workers[0].tasks, 1);
    }

    /// A thread budget far past the task count spawns one worker per task
    /// at most, so `--threads` cannot ask the OS for threads it never uses.
    #[test]
    fn fan_out_spawns_no_more_threads_than_tasks() {
        let mut workers = slots(3);
        let out = fan_out(3, 10_000, &mut workers, |i| {
            (i, std::thread::current().id())
        });
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let threads: HashSet<_> = out.iter().map(|&(_, id)| id).collect();
        assert!(threads.len() <= 3, "{} threads ran 3 tasks", threads.len());
        assert_eq!(workers.iter().map(|w| w.tasks).sum::<usize>(), 3);
    }

    #[test]
    fn fan_out_borrows_from_the_caller_frame() {
        let data: Vec<usize> = (0..64).collect();
        let out = fan_out(8, 2, &mut slots(2), |i| data[i * 8]);
        assert_eq!(out, vec![0, 8, 16, 24, 32, 40, 48, 56]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn fan_out_propagates_a_worker_panic() {
        fan_out(4, 2, &mut slots(2), |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn fan_out_reraises_a_worker_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(4, 2, &mut slots(2), |i| {
                if i == 1 {
                    panic!("original failure at task {i}");
                }
                i
            })
        })
        .expect_err("the worker panic must propagate to the caller");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert_eq!(msg, "original failure at task 1");
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

    /// Semi-naive rounds and the naive oracle agree on recursion through
    /// negation and a join of the recursive predicate with itself, at
    /// every integer and half-integer point.
    #[test]
    fn naive_and_seminaive_agree() {
        let rules = "isOpen(A) :- tranM(A, M).\n\
                     isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                     pair(A, B) :- isOpen(A), isOpen(B).";
        let facts = "tranM(x, 1)@0.\ntranM(y, 2)@3.\nwithdraw(x)@6.";
        let program = parse_program(rules).unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        let engine = Reasoner::new(
            program.clone(),
            ReasonerConfig::default().with_horizon(0, 12),
        )
        .unwrap()
        .materialize(&db)
        .unwrap()
        .database;
        let oracle = crate::naive::naive_materialize(&program, &db, 0, 12).unwrap();
        assert_eq!(crate::naive::grid_text(&engine, 0, 12), oracle.to_text());
    }

    /// Every lookup the fixpoint makes finds the indexes it probes
    /// declared: the five corpus programs, batch and (all but `sla`, whose
    /// head operators a session rejects) through a session that also
    /// repairs a retraction and its late re-submission, never filter a
    /// relation large enough to probe.
    #[test]
    fn plan_lookups_probe_declared_indexes() {
        use crate::database::UNINDEXED_PROBES;
        use mtl_temporal::{Rational, TimeBound};
        let unindexed = || UNINDEXED_PROBES.with(|n| n.get());
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let mut probes = 0;
        for name in ["fibonacci", "funding", "margin", "netting", "sla"] {
            let src = std::fs::read_to_string(format!("{corpus}/{name}.dmtl")).unwrap();
            let (program, facts) = crate::parser::parse_source(&src).unwrap();
            let config = ReasonerConfig::default().with_horizon(0, 20);
            let mut input = Database::new();
            let mut initial = Database::new();
            let mut stream: Vec<&crate::ast::Fact> = Vec::new();
            for fact in &facts {
                input.insert_fact(fact).unwrap();
                match fact.interval.lo() {
                    TimeBound::Finite(lo) if lo > Rational::ZERO => stream.push(fact),
                    _ => {
                        initial.insert_fact(fact).unwrap();
                    }
                }
            }
            stream.sort_by(|a, b| a.interval.cmp_position(&b.interval));
            let before = unindexed();

            let reasoner = Reasoner::new(program.clone(), config.clone()).unwrap();
            probes += reasoner.materialize(&input).unwrap().stats.index_probes;
            assert_eq!(unindexed(), before, "{name}: batch filtered a relation");

            if name == "sla" {
                // Its head operators are outside the session fragment.
                continue;
            }
            let reasoner = Reasoner::new(program, config).unwrap();
            let mut session = reasoner.into_session(&initial, 0).unwrap();
            let mut target = 0;
            for (i, fact) in stream.iter().enumerate() {
                session.submit((*fact).clone()).unwrap();
                if let TimeBound::Finite(hi) = fact.interval.hi() {
                    target = target.max(hi.ceil());
                }
                if stream.get(i + 1).map(|f| f.interval.lo()) != Some(fact.interval.lo()) {
                    session.advance_to(target.min(20)).unwrap();
                }
            }
            session.advance_to(20).unwrap();
            if let Some(last) = stream.last() {
                session.retract((*last).clone()).unwrap();
                session.submit_late((*last).clone()).unwrap();
            }
            probes += session.stats().index_probes;
            assert_eq!(unindexed(), before, "{name}: session filtered a relation");
        }
        assert!(probes > 0, "the corpus probes no index");
    }

    /// The reads the corpus leaves out: a negation, the right operand of a
    /// `since` (ground through the left one's variables) and the guard of a
    /// self-chain rule (ground through the head, where the rule's full plan
    /// joins it first, unbound), each over a relation large enough to
    /// probe, find their indexes declared too.
    #[test]
    fn negation_since_and_chain_guard_lookups_probe_declared_indexes() {
        let mut facts = String::from("start(0)@0.\n");
        for i in 0..10 {
            facts.push_str(&format!(
                "g({i})@[0, 20].\na({i})@[0, 20].\nd({i}, 1)@[0, 5].\nb({i}, {i})@[0, 20].\nc({i})@[0, 20].\n"
            ));
        }
        let before = crate::database::UNINDEXED_PROBES.with(|n| n.get());
        let db = run(
            "p(X) :- start(X).\n\
             p(X) :- diamondminus[1, 1] p(X), g(X).\n\
             h(X) :- a(X), not d(X, 1).\n\
             k(X) :- a(X), since[0, 5](b(X, Y), c(Y)).",
            &facts,
            (0, 20),
        );
        assert_eq!(crate::database::UNINDEXED_PROBES.with(|n| n.get()), before);
        assert!(db.holds_at("p", &[Value::Int(0)], 20));
        assert!(db.holds_at("h", &[Value::Int(3)], 6) && !db.holds_at("h", &[Value::Int(3)], 5));
        assert!(db.holds_at("k", &[Value::Int(3)], 20));
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
