//! The memory-resident execution model of §3.1: a continuously running
//! reasoning process that "takes as input the actions that the users send
//! to the smart contract … and updates multiple state amounts".
//!
//! A [`Session`] wraps a compiled program, accepts facts as they happen,
//! and *advances a watermark* instead of re-materializing from scratch.
//! This is sound for the paper's forward-propagating fragment
//! (DatalogMTL^FP): past-only operators mean a derivation at time `u`
//! depends only on facts at times `≤ u`, so once every fact up to the
//! watermark is known, everything derived below it is final.
//!
//! An advance to `t` is therefore a batch run over the window `[now, t]`:
//! the pending facts go into the materialization, and the strata run to
//! fixpoint exactly as [`Reasoner::materialize`] runs them — round 0
//! evaluates every rule in full, the frame rules first, later rounds are
//! semi-naive on the last round's additions. What the frame rules add in
//! round 0 is the open persistence runs continued over the window; every
//! other rule reads it in full, so it enters no delta, and a stratum in
//! which only the frame rules derive anything ends after one round. The
//! frame rules run no plan there (`engine/chain.rs`): each reads its guards
//! once over the window, and a run whose last stored tooth the chain
//! continues into the window, and whose guard set holds at every point the
//! chain reaches in it — from `now` itself on — has its last component
//! widened to `t` in place; only the runs an exception interrupts (a
//! blocking event, a guard run that ends) are closed and merged. Bodies
//! are evaluated and heads clipped inside the window, and the time index
//! keeps a full evaluation's reads inside it plus the look-back its
//! operators reach, so an advance never rescans the session's history.
//! Aggregates and negation read the materialization itself. A repair
//! re-derives the window `[cut, now]` the same way, after overdeleting it.

use crate::ast::{Literal, MetricAtom, Program};
use crate::database::Database;
use crate::engine::{Explanation, Reasoner, RunStats};
use crate::error::{Error, Result};
use crate::symbol::Symbol;
use crate::value::{same_tuple, Tuple, Value};
use crate::Fact;
use mtl_temporal::{Interval, IntervalSet, Rational, TimeBound};

/// One entry of the session's append-only base-fact log. Replaying the
/// log (asserts minus retractions) reconstructs exactly the surviving
/// base-fact set.
/// Pending (not yet materialized) facts never enter the log: they are
/// asserted when an advance drains them into the materialization, and a
/// retraction that only cancels a queued fact leaves no trace here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaseEvent {
    /// The fact entered the base set: genesis, the advance-time drain of
    /// a submission, a late submit, or the replacement half of a
    /// correction.
    Assert(Fact),
    /// The fact left the base set: a retraction, or the removal half of
    /// a correction.
    Retract(Fact),
}

/// Which path completed an out-of-order correction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairPath {
    /// Only the pending queue (or the future) changed; the existing
    /// materialization needed no patching.
    Pending,
    /// In-place DRed-style repair: overdelete the affected temporal
    /// cone, then re-derive from the surviving base facts.
    Incremental,
}

/// What one correction ([`Session::retract`], [`Session::submit_late`],
/// or [`Session::correct`]) did to the materialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairReport {
    /// The path that completed the correction.
    pub path: RepairPath,
    /// Tuples whose validity intersected the repair window (zero on the
    /// pending path).
    pub cone_tuples: u64,
    /// Interval components removed by overdeletion.
    pub overdeleted_components: u64,
}

impl RepairReport {
    /// A correction that only touched the pending queue (or the future).
    fn pending() -> RepairReport {
        RepairReport {
            path: RepairPath::Pending,
            cone_tuples: 0,
            overdeleted_components: 0,
        }
    }
}

/// Exact match between a correction's target and a stored fact: same
/// predicate, same interval, and pairwise semantically equal arguments
/// (the equivalence the database stores tuples under, so `p(2)` matches a
/// submitted `p(2.0)`).
fn same_fact(a: &Fact, b: &Fact) -> bool {
    a.pred == b.pred && a.interval == b.interval && same_tuple(&a.args, &b.args)
}

/// The closed window `[lo, hi]`, or [`Error::EmptyWindow`] saying `what`
/// collapsed when `lo > hi`.
fn closed_window(lo: Rational, hi: Rational, what: std::fmt::Arguments<'_>) -> Result<Interval> {
    Interval::new(TimeBound::Finite(lo), true, TimeBound::Finite(hi), true)
        .ok_or_else(|| Error::EmptyWindow(what.to_string()))
}

fn unknown_fact(fact: &Fact) -> Error {
    Error::UnknownFact(format!(
        "{fact} does not match any surviving base fact (never submitted, \
         already retracted, or a different interval)"
    ))
}

/// A live, incrementally maintained materialization.
///
/// ```
/// use chronolog_core::{parse_program, Database, Fact, Reasoner, ReasonerConfig, Value};
///
/// let program = parse_program(
///     "isOpen(A) :- tranM(A, M).\n\
///      isOpen(A) :- boxminus isOpen(A), not withdraw(A).",
/// )
/// .unwrap();
/// let mut session = Reasoner::new(program, ReasonerConfig::default())
///     .unwrap()
///     .into_session(&Database::new(), 0)
///     .unwrap();
///
/// session
///     .submit(Fact::at("tranM", vec![Value::sym("acc"), Value::num(20.0)], 3))
///     .unwrap();
/// session.advance_to(5).unwrap();
/// assert!(session.database().holds_at("isOpen", &[Value::sym("acc")], 5));
///
/// // Derivations below the watermark are final; the session keeps going.
/// session
///     .submit(Fact::at("withdraw", vec![Value::sym("acc")], 7))
///     .unwrap();
/// session.advance_to(10).unwrap();
/// assert!(!session.database().holds_at("isOpen", &[Value::sym("acc")], 8));
/// ```
pub struct Session {
    reasoner: Reasoner,
    total: Database,
    pending: Vec<Fact>,
    /// Surviving base facts (genesis plus drained submissions, minus
    /// retractions), kept as the individual facts that arrived so that
    /// overlapping submissions can be retracted one at a time without
    /// losing the coverage the others still provide.
    asserted: Vec<Fact>,
    /// Append-only history of every base-set edit, in arrival order.
    /// Invariant: folding the log (asserts minus retractions) yields
    /// exactly `asserted`.
    log: Vec<BaseEvent>,
    start: Rational,
    now: Rational,
    stats: RunStats,
}

impl Reasoner {
    /// Turns this reasoner into a live session starting at `start` with the
    /// given initial database (genesis facts; rigid facts go here).
    ///
    /// Fails unless the program is in the forward-propagating fragment:
    /// no future operators (`◇⁺`, `⊞`, `until`) in bodies, no head
    /// operators, and finite operator windows.
    pub fn into_session(self, initial: &Database, start: i64) -> Result<Session> {
        program_reach(self.program())?;
        let start = Rational::integer(start);
        let total = initial.clone().declare(&self.indexes);
        let stats = RunStats::default();
        // Genesis facts seed the base-fact log: overdeletion keeps them,
        // and a retraction can name them.
        let mut asserted = Vec::new();
        for (pred, tuple, ivs) in initial.iter() {
            for &interval in ivs {
                asserted.push(Fact {
                    pred,
                    args: tuple.to_vec(),
                    interval,
                });
            }
        }
        let log = asserted.iter().cloned().map(BaseEvent::Assert).collect();
        let mut session = Session {
            reasoner: self,
            total,
            pending: Vec::new(),
            asserted,
            log,
            start,
            now: start,
            stats,
        };
        // Materialize the starting instant so `database()` is consistent
        // with `now` from the first moment.
        session.run_advance(start)?;
        Ok(session)
    }
}

impl Session {
    /// The current watermark: everything at or before it is final.
    pub fn now(&self) -> Rational {
        self.now
    }

    /// The materialization up to the watermark.
    pub fn database(&self) -> &Database {
        &self.total
    }

    /// Cumulative statistics across all advances.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The append-only base-fact log: every base-set edit since genesis.
    pub fn log(&self) -> &[BaseEvent] {
        &self.log
    }

    /// The surviving base facts (genesis plus materialized submissions,
    /// minus retractions), in arrival order.
    pub fn base_facts(&self) -> &[Fact] {
        &self.asserted
    }

    /// Answers a point query from the live materialization: exactly
    /// [`Database::query`] on [`Session::database`], sorted by tuple. The
    /// session already holds every answer up to its watermark, so no
    /// rewrite runs and `stats` stays at its defaults. Pending (not yet
    /// advanced-over) submissions are not visible.
    pub fn query(&self, query: &crate::rewrite::Query) -> Result<super::QueryOutcome> {
        let mut span = self
            .reasoner
            .config()
            .profiler
            .as_ref()
            .map(|p| p.span("query"));
        let mut answers = self.total.query(&query.atom, query.window.as_ref());
        answers.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(s) = span.as_mut() {
            s.add("answers", answers.len() as u64);
        }
        Ok(super::QueryOutcome {
            answers,
            stats: RunStats::default(),
        })
    }

    /// Explains why `pred(args)` holds at `t` in the session's
    /// materialization, exactly as [`Reasoner::explain`] explains a batch
    /// run over the surviving base facts on `[start, now]`. `Ok(None)`
    /// above the watermark and when the fact does not hold.
    pub fn explain(&self, pred: &str, args: &[Value], t: i64) -> Result<Option<Explanation>> {
        if Rational::integer(t) > self.now {
            return Ok(None);
        }
        let window = self.session_horizon(self.now)?;
        self.reasoner
            .explain_within(&self.surviving_base()?, &self.total, pred, args, t, window)
    }

    /// Submits a fact that happened strictly after the watermark. It takes
    /// effect at the next [`Session::advance_to`]. Facts at or below the
    /// watermark are corrections — use [`Session::submit_late`] (or
    /// [`Session::retract`] / [`Session::correct`]) for those.
    pub fn submit(&mut self, fact: Fact) -> Result<()> {
        match fact.interval.lo() {
            TimeBound::Finite(lo) if lo > self.now => {
                self.pending.push(fact);
                Ok(())
            }
            _ => Err(Error::Watermark {
                pred: fact.pred.to_string(),
                interval: format!("{}", fact.interval),
                watermark: format!("{}", self.now),
            }),
        }
    }

    /// Retracts a base fact — queued or already materialized — and
    /// patches the materialization. The fact must match one surviving
    /// submission exactly (predicate, arguments, interval); to shrink an
    /// interval, retract the original fact and late-submit the remainder.
    pub fn retract(&mut self, fact: Fact) -> Result<RepairReport> {
        // A queued fact was never materialized: cancelling it is free.
        if let Some(pos) = self.pending.iter().position(|p| same_fact(p, &fact)) {
            self.pending.remove(pos);
            return Ok(RepairReport::pending());
        }
        self.transact(|s| {
            let cut = s.remove_base_fact(&fact)?;
            s.repair(vec![fact.pred], cut)
        })
    }

    /// Submits a fact at or below the watermark and patches the
    /// materialization. Facts starting strictly after the watermark are
    /// queued exactly like [`Session::submit`]; facts straddling it
    /// (start at or below, end beyond) are rejected — advance past the
    /// end first, or split the fact at the watermark.
    pub fn submit_late(&mut self, fact: Fact) -> Result<RepairReport> {
        if self.is_future(&fact)? {
            self.submit(fact)?;
            return Ok(RepairReport::pending());
        }
        self.transact(|s| {
            let cut = s.add_base_fact(&fact)?;
            s.repair(vec![fact.pred], cut)
        })
    }

    /// Replaces `old` with `new` in one atomic correction: both edits are
    /// applied, then a single repair pass covers their union. `old` must
    /// match a surviving (or queued) base fact; `new` obeys the same
    /// rules as [`Session::submit_late`]. Validation happens before any
    /// mutation, so an invalid correction leaves the session unchanged.
    pub fn correct(&mut self, old: Fact, new: Fact) -> Result<RepairReport> {
        let old_pending = self.pending.iter().position(|p| same_fact(p, &old));
        if old_pending.is_none() && !self.asserted.iter().any(|a| same_fact(a, &old)) {
            return Err(unknown_fact(&old));
        }
        let new_is_future = self.is_future(&new)?;
        self.transact(|s| {
            let mut cuts: Vec<Rational> = Vec::new();
            let mut preds: Vec<Symbol> = Vec::new();
            match old_pending {
                Some(pos) => {
                    s.pending.remove(pos);
                }
                None => {
                    preds.push(old.pred);
                    cuts.push(s.remove_base_fact(&old)?);
                }
            }
            if new_is_future {
                s.submit(new)?;
            } else {
                preds.push(new.pred);
                cuts.push(s.add_base_fact(&new)?);
            }
            let Some(cut) = cuts.into_iter().min() else {
                // Both halves only touched the pending queue.
                return Ok(RepairReport::pending());
            };
            preds.sort();
            preds.dedup();
            s.repair(preds, cut)
        })
    }

    /// Whether `fact` starts strictly after the watermark (a plain
    /// submission rather than a late one). A late fact must also end at
    /// or below the watermark: one straddling it is an error.
    fn is_future(&self, fact: &Fact) -> Result<bool> {
        if matches!(fact.interval.lo(), TimeBound::Finite(lo) if lo > self.now) {
            return Ok(true);
        }
        match fact.interval.hi() {
            TimeBound::Finite(hi) if hi <= self.now => Ok(false),
            _ => Err(Error::Eval(format!(
                "late fact {fact} extends beyond the watermark {}; advance \
                 past its end first, or split it at the watermark",
                self.now
            ))),
        }
    }

    /// Runs one correction as a transaction: `edit` applies the base edits
    /// and repairs the materialization in place. If it fails, the session
    /// is restored — materialization, pending queue, surviving base facts
    /// and log — so a failed correction changes nothing, like an invalid
    /// one. Only the statistics keep the work the failed attempt did.
    fn transact(
        &mut self,
        edit: impl FnOnce(&mut Self) -> Result<RepairReport>,
    ) -> Result<RepairReport> {
        let total = self.total.clone();
        let pending = self.pending.clone();
        let asserted = self.asserted.clone();
        let logged = self.log.len();
        let result = edit(self);
        if result.is_err() {
            self.total = total;
            self.pending = pending;
            self.asserted = asserted;
            self.log.truncate(logged);
        }
        result
    }

    /// Advances the watermark to `t`, deriving everything in `(now, t]`.
    pub fn advance_to(&mut self, t: i64) -> Result<&Database> {
        let t = Rational::integer(t);
        if t < self.now {
            return Err(Error::Eval(format!(
                "cannot advance backwards: watermark {} > target {t}",
                self.now
            )));
        }
        if let Some(f) = self
            .pending
            .iter()
            .find(|f| matches!(f.interval.hi(), TimeBound::Finite(hi) if hi > t))
            .or_else(|| self.pending.iter().find(|f| !f.interval.hi().is_finite()))
        {
            return Err(Error::Eval(format!(
                "pending fact {f} extends beyond the advance target {t}"
            )));
        }
        self.run_advance(t)?;
        Ok(&self.total)
    }

    /// Removes one materialized base fact: drops it from the surviving
    /// set, logs the retraction, and strips the no-longer-backed part of
    /// its validity from the materialization. Returns the repair cut.
    fn remove_base_fact(&mut self, fact: &Fact) -> Result<Rational> {
        let pos = self
            .asserted
            .iter()
            .position(|a| same_fact(a, fact))
            .ok_or_else(|| unknown_fact(fact))?;
        self.asserted.remove(pos);
        self.log.push(BaseEvent::Retract(fact.clone()));
        // Other surviving submissions may overlap the retracted interval;
        // only the part no longer backed by any of them leaves the
        // database. The within-window part would be overdeleted anyway,
        // but the explicit removal also covers validity outside the
        // repair window (genesis facts below the session start, or beyond
        // the watermark), where nothing at or below `now` depends on it.
        let mut backed = IntervalSet::new();
        for a in &self.asserted {
            if a.pred == fact.pred && same_tuple(&a.args, &fact.args) {
                backed.insert(a.interval);
            }
        }
        let doomed = IntervalSet::from_interval(fact.interval).difference(&backed);
        if !doomed.is_empty() {
            let tuple: Tuple = fact.args.clone().into_boxed_slice();
            self.total.remove(fact.pred, &tuple, &doomed);
        }
        Ok(self.cut_for(fact))
    }

    /// Adds one late base fact to the materialization, then to the
    /// surviving set and the log — only once the insert succeeded, so a
    /// failed insert ([`Error::InternerOverflow`]) logs nothing the
    /// materialization did not receive. Returns the repair cut.
    fn add_base_fact(&mut self, fact: &Fact) -> Result<Rational> {
        self.total.insert_fact(fact)?;
        self.asserted.push(fact.clone());
        self.log.push(BaseEvent::Assert(fact.clone()));
        Ok(self.cut_for(fact))
    }

    /// The earliest instant whose derivations a base edit at `fact` can
    /// affect: the fact's start, clamped to the session start (there are
    /// no derivations below the start; look-backs below it read the
    /// database directly and see the already-applied base edit).
    fn cut_for(&self, fact: &Fact) -> Rational {
        match fact.interval.lo() {
            TimeBound::Finite(lo) => lo.max(self.start),
            _ => self.start,
        }
    }

    /// The surviving base-fact set as a database (what overdeletion must
    /// not remove, and the input of explanations).
    fn surviving_base(&self) -> Result<Database> {
        let mut base = Database::new();
        base.extend_facts(&self.asserted)?;
        Ok(base)
    }

    /// Patches the materialization after a base edit whose cut is `cut`:
    /// overdelete the affected cone within `[cut, now]`, then re-derive
    /// from the surviving facts. An error leaves the materialization
    /// half-repaired; [`Session::transact`] restores it.
    fn repair(&mut self, changed: Vec<Symbol>, cut: Rational) -> Result<RepairReport> {
        let started = std::time::Instant::now();
        self.reasoner.init_rule_stats(&mut self.stats);
        self.stats.repairs.attempted += 1;
        let mut repair_span = self
            .reasoner
            .config()
            .profiler
            .as_ref()
            .map(|p| p.span("repair"));

        let report = if cut > self.now {
            // The edit lies entirely above the watermark: in the
            // forward-propagating fragment nothing at or below `now` can
            // depend on it, so the base edit alone was the repair.
            RepairReport {
                path: RepairPath::Incremental,
                cone_tuples: 0,
                overdeleted_components: 0,
            }
        } else {
            self.repair_window(&changed, cut)?
        };
        let repairs = &mut self.stats.repairs;
        repairs.incremental += 1;
        repairs.cone_tuples += report.cone_tuples;
        repairs.overdeleted_components += report.overdeleted_components;

        if let Some(s) = repair_span.as_mut() {
            // This repair's share of the `repairs` section, so the spans
            // sum to it.
            s.add("cone_tuples", report.cone_tuples);
            s.add("overdeleted_components", report.overdeleted_components);
        }
        self.stats.elapsed += started.elapsed();
        self.stats.total_components = self.total.component_count();
        super::capture_storage_stats(&self.total, &mut self.stats);
        Ok(report)
    }

    /// The overdelete/re-derive pass over the repair window `[cut, now]`.
    fn repair_window(&mut self, changed: &[Symbol], cut: Rational) -> Result<RepairReport> {
        let window = closed_window(
            cut,
            self.now,
            format_args!("repair window {cut}..{} collapsed", self.now),
        )?;
        let base = self.surviving_base()?;
        let affected = self.reasoner.affected_predicates(changed);
        let outcome = {
            let mut od_span = self
                .reasoner
                .config()
                .profiler
                .as_ref()
                .map(|p| p.span("overdelete"));
            let out = self
                .reasoner
                .overdelete(&mut self.total, &base, &affected, window);
            if let Some(s) = od_span.as_mut() {
                s.add("cone_tuples", out.cone_tuples);
                s.add("removed_components", out.removed_components);
            }
            out
        };

        {
            let _rd_span = self
                .reasoner
                .config()
                .profiler
                .as_ref()
                .map(|p| p.span("rederive"));
            // Everything below the cut is untouched by the edit and final
            // (forward-propagating fragment), so only the repair window is
            // re-derived, and `top` keeps holding from the session start.
            let top = self.session_horizon(self.now)?;
            self.reasoner
                .run_strata(&mut self.total, &mut self.stats, window, top)?;
        }
        Ok(RepairReport {
            path: RepairPath::Incremental,
            cone_tuples: outcome.cone_tuples,
            overdeleted_components: outcome.removed_components,
        })
    }

    /// The session's whole derivation horizon `[start, t]` as an interval:
    /// what an explanation covers, and where `top` holds while a warm run
    /// re-derives only the end of it.
    fn session_horizon(&self, t: Rational) -> Result<Interval> {
        closed_window(
            self.start,
            t,
            format_args!(
                "session horizon {}..{t} collapsed (target below start)",
                self.start
            ),
        )
    }

    fn run_advance(&mut self, t: Rational) -> Result<()> {
        let mut advance_span = self
            .reasoner
            .config()
            .profiler
            .as_ref()
            .map(|p| p.span("advance"));
        let started = std::time::Instant::now();
        self.reasoner.init_rule_stats(&mut self.stats);
        let pending_count = self.pending.len();
        for fact in self.pending.drain(..) {
            self.total.insert_fact(&fact)?;
            // Draining materializes the fact: it becomes part of the base
            // set the repair path preserves.
            self.asserted.push(fact.clone());
            self.log.push(BaseEvent::Assert(fact));
        }
        // Counted after the drain: a drained fact whose tuple is already
        // stored (a repeated `price(P)`) adds no tuple.
        let tuples_before = self.total.tuple_count();

        // Everything at or below the watermark is final, so only `[now, t]`
        // is re-derived, exactly as a batch run derives its horizon: round 0
        // evaluates every rule in full over the window (the time index
        // keeps its reads inside it, plus the look-back its operators
        // reach), later rounds are semi-naive. `top` keeps holding on all
        // of `[start, t]`.
        let window = closed_window(
            self.now,
            t,
            format_args!(
                "advance window {}..{t} collapsed (target below the watermark)",
                self.now
            ),
        )?;
        let top = self.session_horizon(t)?;
        self.reasoner
            .run_strata(&mut self.total, &mut self.stats, window, top)?;
        self.now = t;
        if let Some(s) = advance_span.as_mut() {
            s.add("pending", pending_count as u64);
        }
        self.stats.derived_tuples += self.total.tuple_count().saturating_sub(tuples_before);
        self.stats.elapsed += started.elapsed();
        self.stats.total_components = self.total.component_count();
        super::capture_storage_stats(&self.total, &mut self.stats);
        Ok(())
    }
}

/// The maximal temporal look-back of any body literal: how far into the
/// past a single rule application can reach. Errors on future operators,
/// head operators, and unbounded windows (outside the session fragment),
/// which makes it the session's fragment check.
fn program_reach(program: &Program) -> Result<Rational> {
    fn chain_reach(m: &MetricAtom) -> Result<Rational> {
        match m {
            MetricAtom::Top | MetricAtom::Bottom => Ok(Rational::ZERO),
            MetricAtom::Rel(_) => Ok(Rational::ZERO),
            MetricAtom::DiamondMinus(rho, inner) | MetricAtom::BoxMinus(rho, inner) => {
                let hi = match rho.as_interval().hi() {
                    TimeBound::Finite(h) => h,
                    _ => {
                        return Err(Error::Eval(
                            "session mode requires finite operator windows".into(),
                        ))
                    }
                };
                hi.checked_add(chain_reach(inner)?).ok_or_else(|| {
                    Error::TimeOverflow("program look-back overflows the rational timeline".into())
                })
            }
            MetricAtom::DiamondPlus(..) | MetricAtom::BoxPlus(..) | MetricAtom::Until(..) => {
                Err(Error::Eval(
                    "session mode requires the forward-propagating fragment \
                     (no future operators)"
                        .into(),
                ))
            }
            MetricAtom::Since(m1, rho, m2) => {
                let hi = match rho.as_interval().hi() {
                    TimeBound::Finite(h) => h,
                    _ => {
                        return Err(Error::Eval(
                            "session mode requires finite operator windows".into(),
                        ))
                    }
                };
                hi.checked_add(chain_reach(m1)?.max(chain_reach(m2)?))
                    .ok_or_else(|| {
                        Error::TimeOverflow(
                            "program look-back overflows the rational timeline".into(),
                        )
                    })
            }
        }
    }
    let mut reach = Rational::ZERO;
    for rule in &program.rules {
        if !rule.head.ops.is_empty() {
            return Err(Error::Eval(
                "session mode does not support head operators".into(),
            ));
        }
        for lit in &rule.body {
            if let Literal::Pos(m) | Literal::Neg(m) = lit {
                reach = reach.max(chain_reach(m)?);
            }
        }
    }
    Ok(reach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReasonerConfig;
    use crate::parser::{parse_facts, parse_program};
    use crate::Value;

    const MARGIN_RULES: &str = "isOpen(A) :- tranM(A, M).\n\
         isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
         margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
         changeM(A) :- tranM(A, M).\n\
         changeM(A) :- withdraw(A).\n\
         margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
         margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.";

    fn session() -> Session {
        let program = parse_program(MARGIN_RULES).unwrap();
        Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .into_session(&Database::new(), 0)
            .unwrap()
    }

    #[test]
    fn streaming_matches_batch() {
        // Stream the quickstart scenario event by event...
        let mut s = session();
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("acc"), Value::num(97.0)],
            9,
        ))
        .unwrap();
        s.advance_to(9).unwrap();
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("acc"), Value::num(3.0)],
            10,
        ))
        .unwrap();
        s.advance_to(12).unwrap();
        s.submit(Fact::at("withdraw", vec![Value::sym("acc")], 15))
            .unwrap();
        s.advance_to(20).unwrap();

        // ...and compare against the batch materialization.
        let program = parse_program(MARGIN_RULES).unwrap();
        let mut db = Database::new();
        db.extend_facts(
            &parse_facts("tranM(acc, 97.0)@9.\ntranM(acc, 3.0)@10.\nwithdraw(acc)@15.").unwrap(),
        )
        .unwrap();
        let batch = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 20))
            .unwrap()
            .materialize(&db)
            .unwrap()
            .database;
        assert_eq!(s.database().to_facts_text(), batch.to_facts_text());
    }

    #[test]
    fn derivations_below_watermark_are_final() {
        let mut s = session();
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("a"), Value::num(50.0)],
            5,
        ))
        .unwrap();
        s.advance_to(8).unwrap();
        let before = s.database().to_facts_text();
        // Advancing with no new facts only extends, never rewrites.
        s.advance_to(12).unwrap();
        let after = s.database().to_facts_text();
        for line in before.lines() {
            assert!(after.contains(line), "lost fact {line}");
        }
        assert!(s
            .database()
            .holds_at("margin", &[Value::sym("a"), Value::num(50.0)], 12));
    }

    #[test]
    fn rejects_facts_at_or_before_watermark() {
        let mut s = session();
        s.advance_to(10).unwrap();
        assert!(s
            .submit(Fact::at(
                "tranM",
                vec![Value::sym("a"), Value::num(1.0)],
                10
            ))
            .is_err());
        assert!(s
            .submit(Fact::at("tranM", vec![Value::sym("a"), Value::num(1.0)], 3))
            .is_err());
        assert!(s
            .submit(Fact::at(
                "tranM",
                vec![Value::sym("a"), Value::num(1.0)],
                11
            ))
            .is_ok());
    }

    #[test]
    fn rejects_backward_advance_and_overshooting_facts() {
        let mut s = session();
        s.advance_to(10).unwrap();
        assert!(s.advance_to(5).is_err());
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("a"), Value::num(1.0)],
            20,
        ))
        .unwrap();
        // The pending fact lies beyond the advance target.
        assert!(s.advance_to(15).is_err());
        assert!(s.advance_to(25).is_ok());
    }

    #[test]
    fn rejects_programs_outside_the_fragment() {
        let future = parse_program("h(X) :- diamondplus[0, 2] p(X).").unwrap();
        assert!(Reasoner::new(future, ReasonerConfig::default())
            .unwrap()
            .into_session(&Database::new(), 0)
            .is_err());
        let head_op = parse_program("boxplus[0, 2] h(X) :- p(X).").unwrap();
        assert!(Reasoner::new(head_op, ReasonerConfig::default())
            .unwrap()
            .into_session(&Database::new(), 0)
            .is_err());
        let unbounded = parse_program("h(X) :- diamondminus[0, inf) p(X).").unwrap();
        assert!(Reasoner::new(unbounded, ReasonerConfig::default())
            .unwrap()
            .into_session(&Database::new(), 0)
            .is_err());
    }

    #[test]
    fn rigid_genesis_facts_extend_with_the_watermark() {
        let program = parse_program("h(X) :- p(X), rate(X, R).").unwrap();
        let mut init = Database::new();
        init.extend_facts(&parse_facts("rate(a, 0.5).").unwrap())
            .unwrap();
        let mut s = Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .into_session(&init, 0)
            .unwrap();
        s.submit(Fact::over(
            "p",
            vec![Value::sym("a")],
            Interval::closed_int(3, 8),
        ))
        .unwrap();
        s.advance_to(10).unwrap();
        assert!(s.database().holds_at("h", &[Value::sym("a")], 5));
        assert!(!s.database().holds_at("h", &[Value::sym("a")], 9));
    }

    /// Cold-run oracle: materialize `facts` over `[0, hi]` with the
    /// margin program and render the result.
    fn cold_margin(facts: &str, hi: i64) -> String {
        let program = parse_program(MARGIN_RULES).unwrap();
        let mut db = Database::new();
        db.extend_facts(&parse_facts(facts).unwrap()).unwrap();
        Reasoner::new(program, ReasonerConfig::default().with_horizon(0, hi))
            .unwrap()
            .materialize(&db)
            .unwrap()
            .database
            .to_facts_text()
    }

    #[test]
    fn watermark_error_names_predicate_and_interval() {
        let mut s = session();
        s.advance_to(10).unwrap();
        let err = s
            .submit(Fact::at("tranM", vec![Value::sym("a"), Value::num(1.0)], 7))
            .unwrap_err();
        match &err {
            Error::Watermark {
                pred,
                interval,
                watermark,
            } => {
                assert_eq!(pred, "tranM");
                assert!(interval.contains('7'), "interval rendered: {interval}");
                assert_eq!(watermark, "10");
            }
            other => panic!("expected Error::Watermark, got {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("tranM"), "message: {rendered}");
    }

    #[test]
    fn retract_of_unknown_fact_is_typed() {
        let mut s = session();
        let err = s
            .retract(Fact::at("tranM", vec![Value::sym("a"), Value::num(1.0)], 5))
            .unwrap_err();
        assert!(matches!(err, Error::UnknownFact(_)), "got {err:?}");
        // Same interval-mismatch case: the fact exists but over a
        // different interval.
        s.submit(Fact::at("tranM", vec![Value::sym("a"), Value::num(1.0)], 3))
            .unwrap();
        s.advance_to(5).unwrap();
        let err = s
            .retract(Fact::at("tranM", vec![Value::sym("a"), Value::num(1.0)], 4))
            .unwrap_err();
        assert!(matches!(err, Error::UnknownFact(_)), "got {err:?}");
    }

    #[test]
    fn retract_of_pending_fact_skips_repair() {
        let mut s = session();
        let f = Fact::at("tranM", vec![Value::sym("a"), Value::num(9.0)], 6);
        s.submit(f.clone()).unwrap();
        let report = s.retract(f).unwrap();
        assert_eq!(report.path, RepairPath::Pending);
        assert_eq!(s.stats().repairs.attempted, 0);
        s.advance_to(10).unwrap();
        assert_eq!(s.database().to_facts_text(), cold_margin("", 10));
    }

    #[test]
    fn retract_patches_to_cold_equivalent() {
        let mut s = session();
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("acc"), Value::num(97.0)],
            3,
        ))
        .unwrap();
        s.advance_to(6).unwrap();
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("acc"), Value::num(3.0)],
            8,
        ))
        .unwrap();
        s.advance_to(12).unwrap();
        // The first transaction turns out to be bogus: retract it.
        let report = s
            .retract(Fact::at(
                "tranM",
                vec![Value::sym("acc"), Value::num(97.0)],
                3,
            ))
            .unwrap();
        assert_eq!(report.path, RepairPath::Incremental);
        assert!(report.cone_tuples > 0);
        assert_eq!(
            s.database().to_facts_text(),
            cold_margin("tranM(acc, 3.0)@8.", 12)
        );
        assert_eq!(s.stats().repairs.attempted, 1);
        assert_eq!(s.stats().repairs.incremental, 1);
        // The session keeps working after a repair.
        s.advance_to(15).unwrap();
        assert_eq!(
            s.database().to_facts_text(),
            cold_margin("tranM(acc, 3.0)@8.", 15)
        );
    }

    #[test]
    fn late_submit_patches_to_cold_equivalent() {
        let mut s = session();
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("acc"), Value::num(3.0)],
            8,
        ))
        .unwrap();
        s.advance_to(12).unwrap();
        // A transaction from t=3 arrives late.
        let report = s
            .submit_late(Fact::at(
                "tranM",
                vec![Value::sym("acc"), Value::num(97.0)],
                3,
            ))
            .unwrap();
        assert_eq!(report.path, RepairPath::Incremental);
        assert_eq!(
            s.database().to_facts_text(),
            cold_margin("tranM(acc, 97.0)@3.\ntranM(acc, 3.0)@8.", 12)
        );
    }

    #[test]
    fn late_fact_straddling_the_watermark_is_rejected() {
        let mut s = session();
        s.advance_to(10).unwrap();
        let err = s
            .submit_late(Fact::over(
                "tranM",
                vec![Value::sym("a"), Value::num(1.0)],
                Interval::closed_int(5, 15),
            ))
            .unwrap_err();
        assert!(matches!(err, Error::Eval(_)), "got {err:?}");
        // A future fact through submit_late just queues.
        let report = s
            .submit_late(Fact::at(
                "tranM",
                vec![Value::sym("a"), Value::num(1.0)],
                12,
            ))
            .unwrap();
        assert_eq!(report.path, RepairPath::Pending);
    }

    #[test]
    fn correct_replaces_in_one_repair() {
        let mut s = session();
        s.submit(Fact::at(
            "tranM",
            vec![Value::sym("acc"), Value::num(97.0)],
            3,
        ))
        .unwrap();
        s.advance_to(10).unwrap();
        // The amount was wrong: 97 → 42, one atomic correction.
        let report = s
            .correct(
                Fact::at("tranM", vec![Value::sym("acc"), Value::num(97.0)], 3),
                Fact::at("tranM", vec![Value::sym("acc"), Value::num(42.0)], 3),
            )
            .unwrap();
        assert_eq!(report.path, RepairPath::Incremental);
        assert_eq!(s.stats().repairs.attempted, 1);
        assert_eq!(
            s.database().to_facts_text(),
            cold_margin("tranM(acc, 42.0)@3.", 10)
        );
        // Correcting an unknown fact errors before mutating anything.
        let before = s.database().to_facts_text();
        assert!(matches!(
            s.correct(
                Fact::at("tranM", vec![Value::sym("acc"), Value::num(1.0)], 4),
                Fact::at("tranM", vec![Value::sym("acc"), Value::num(2.0)], 4),
            ),
            Err(Error::UnknownFact(_))
        ));
        assert_eq!(s.database().to_facts_text(), before);
        assert_eq!(s.stats().repairs.attempted, 1);
    }

    #[test]
    fn failed_correction_rolls_back() {
        // The materialization (p(a), h(a)) fits under the component cap;
        // re-deriving h(b) after a late p(b) does not.
        let program = parse_program("h(X) :- p(X).").unwrap();
        let config = ReasonerConfig {
            max_components: 3,
            ..ReasonerConfig::default()
        };
        let mut s = Reasoner::new(program, config)
            .unwrap()
            .into_session(&Database::new(), 0)
            .unwrap();
        s.submit(Fact::at("p", vec![Value::sym("a")], 2)).unwrap();
        s.advance_to(10).unwrap();
        let facts = s.database().to_facts_text();
        let base = s.base_facts().to_vec();
        let log = s.log().to_vec();

        let err = s
            .submit_late(Fact::at("p", vec![Value::sym("b")], 3))
            .unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded(_)), "got {err:?}");
        assert_eq!(s.database().to_facts_text(), facts);
        assert_eq!(s.base_facts(), base);
        assert_eq!(s.log(), log);
        // The session keeps working after the rollback.
        s.advance_to(12).unwrap();
        assert!(s.database().holds_at("h", &[Value::sym("a")], 2));
    }

    #[test]
    fn overlapping_submissions_retract_independently() {
        let program = parse_program("h(X) :- p(X).").unwrap();
        let mut s = Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .into_session(&Database::new(), 0)
            .unwrap();
        s.submit(Fact::over(
            "p",
            vec![Value::sym("a")],
            Interval::closed_int(1, 5),
        ))
        .unwrap();
        s.submit(Fact::over(
            "p",
            vec![Value::sym("a")],
            Interval::closed_int(3, 8),
        ))
        .unwrap();
        s.advance_to(10).unwrap();
        // Retracting the second submission must keep the first's [1, 5]
        // coverage intact even though the intervals coalesced in storage.
        s.retract(Fact::over(
            "p",
            vec![Value::sym("a")],
            Interval::closed_int(3, 8),
        ))
        .unwrap();
        assert!(s.database().holds_at("h", &[Value::sym("a")], 5));
        assert!(!s.database().holds_at("h", &[Value::sym("a")], 6));
        // Retracting it again is an error: it no longer survives.
        assert!(matches!(
            s.retract(Fact::over(
                "p",
                vec![Value::sym("a")],
                Interval::closed_int(3, 8),
            )),
            Err(Error::UnknownFact(_))
        ));
    }

    #[test]
    fn genesis_facts_can_be_retracted() {
        let program = parse_program("h(X) :- p(X), rate(X, R).").unwrap();
        let mut init = Database::new();
        init.extend_facts(&parse_facts("rate(a, 0.5).").unwrap())
            .unwrap();
        let mut s = Reasoner::new(program, ReasonerConfig::default())
            .unwrap()
            .into_session(&init, 0)
            .unwrap();
        s.submit(Fact::over(
            "p",
            vec![Value::sym("a")],
            Interval::closed_int(3, 8),
        ))
        .unwrap();
        s.advance_to(10).unwrap();
        assert!(s.database().holds_at("h", &[Value::sym("a")], 5));
        // Retract the rigid genesis fact (its interval is (-inf, inf)).
        s.retract(Fact {
            pred: crate::Symbol::new("rate"),
            args: vec![Value::sym("a"), Value::num(0.5)],
            interval: Interval::ALL,
        })
        .unwrap();
        assert!(!s.database().holds_at("h", &[Value::sym("a")], 5));
        assert!(!s
            .database()
            .holds_at("rate", &[Value::sym("a"), Value::num(0.5)], 5));
        assert!(s.database().holds_at("p", &[Value::sym("a")], 5));
    }

    #[test]
    fn log_replay_matches_surviving_set() {
        let mut s = session();
        let f1 = Fact::at("tranM", vec![Value::sym("a"), Value::num(1.0)], 2);
        let f2 = Fact::at("tranM", vec![Value::sym("b"), Value::num(2.0)], 4);
        s.submit(f1.clone()).unwrap();
        s.submit(f2.clone()).unwrap();
        s.advance_to(5).unwrap();
        s.retract(f1.clone()).unwrap();
        // Fold the log: asserts minus retractions == surviving base set.
        let mut folded: Vec<Fact> = Vec::new();
        for ev in s.log() {
            match ev {
                BaseEvent::Assert(f) => folded.push(f.clone()),
                BaseEvent::Retract(f) => {
                    let pos = folded.iter().position(|a| a == f).unwrap();
                    folded.remove(pos);
                }
            }
        }
        assert_eq!(folded, s.base_facts());
    }

    #[test]
    fn aggregates_stream_correctly() {
        let program = parse_program(
            "event(sum(S)) :- modPos(A, S).\n\
             skew(K) :- startSkew(K).\n\
             skew(K) :- diamondminus skew(K), not event(_).\n\
             skew(K) :- diamondminus skew(X), event(S), K = X + S.",
        )
        .unwrap();
        let mut init = Database::new();
        init.extend_facts(&parse_facts("startSkew(0)@0.").unwrap())
            .unwrap();
        let mut s = Reasoner::new(program.clone(), ReasonerConfig::default())
            .unwrap()
            .into_session(&init, 0)
            .unwrap();
        s.submit(Fact::at("modPos", vec![Value::sym("a"), Value::Int(5)], 2))
            .unwrap();
        s.advance_to(3).unwrap();
        assert!(s.database().holds_at("skew", &[Value::Int(5)], 3));
        s.submit(Fact::at("modPos", vec![Value::sym("b"), Value::Int(-2)], 4))
            .unwrap();
        s.advance_to(6).unwrap();
        assert!(s.database().holds_at("skew", &[Value::Int(3)], 6));
        // Batch agreement.
        let mut db = Database::new();
        db.extend_facts(
            &parse_facts("startSkew(0)@0.\nmodPos(a, 5)@2.\nmodPos(b, -2)@4.").unwrap(),
        )
        .unwrap();
        let batch = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 6))
            .unwrap()
            .materialize(&db)
            .unwrap()
            .database;
        assert_eq!(s.database().to_facts_text(), batch.to_facts_text());
    }
}
