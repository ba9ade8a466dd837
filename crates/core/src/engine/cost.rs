//! Cardinality estimation for the physical planner.
//!
//! Estimates are derived from *live* relation sizes and per-position
//! distinct counts: relations maintain distinct semantic-class counts per
//! column as tuples are born and die, so the planner gets exact distincts
//! for free. Reads are strictly read-only — the planner never forces an
//! index build. Unknown quantities fall back to conservative defaults, so
//! a cold start plans in textual order and only deviates once the
//! statistics justify it.

use crate::database::Database;
use crate::symbol::Symbol;
use std::collections::HashSet;

/// Assumed distinct values per argument position when the storage layer
/// has no count (no relation yet, or a position past its widest arity).
/// Deliberately small: it keeps the estimated selectivity of a bound
/// position modest, so cold plans only reorder on large size differences
/// (which are reliable even without distinct counts).
const DEFAULT_DISTINCT: usize = 8;

/// Live cardinalities the planner reads when costing a rule body.
pub(crate) trait CardinalitySource {
    /// Number of distinct tuples of `pred` in the full materialization.
    fn relation_size(&self, pred: Symbol) -> usize;
    /// Number of distinct tuples of `pred` in the current delta.
    fn delta_size(&self, pred: Symbol) -> usize;
    /// Distinct live values at argument position `pos`, when known.
    fn distinct_at(&self, pred: Symbol, pos: usize) -> Option<usize>;
}

/// Cardinalities read from the live total/delta databases.
pub(crate) struct DbCardinalities<'a> {
    pub total: &'a Database,
    pub delta: Option<&'a Database>,
    /// Magic (demand) predicates of a goal-driven sub-program. Their size
    /// estimates are floored at one tuple: demand relations legitimately
    /// start empty (the seed may not have landed, derived demand spreads
    /// per fixpoint iteration), and a hard zero would make every guarded
    /// pipeline estimate collapse — the planner would stop
    /// distinguishing access paths exactly where the guard placement
    /// matters most.
    pub magic_floor: &'a HashSet<Symbol>,
}

impl CardinalitySource for DbCardinalities<'_> {
    // Sizes are *live* tuple counts: entries emptied by `Relation::remove`
    // keep their dense ids (and are still walked by scans) but no longer
    // count toward cardinality, so post-repair replans estimate against
    // survivors instead of phantom rows.
    fn relation_size(&self, pred: Symbol) -> usize {
        let n = self.total.relation(pred).map_or(0, |r| r.live_len());
        if n == 0 && self.magic_floor.contains(&pred) {
            1
        } else {
            n
        }
    }

    fn delta_size(&self, pred: Symbol) -> usize {
        self.delta
            .and_then(|d| d.relation(pred))
            .map_or(0, |r| r.live_len())
    }

    fn distinct_at(&self, pred: Symbol, pos: usize) -> Option<usize> {
        self.total
            .relation(pred)
            .and_then(|r| r.distinct_count(pos))
    }
}

/// A source that knows nothing: every estimate degenerates to the default,
/// so plans keep the original literal order. `eval_body` (aggregate
/// bodies, unit tests) plans with this.
pub(crate) struct NoCardinalities;

impl CardinalitySource for NoCardinalities {
    fn relation_size(&self, _pred: Symbol) -> usize {
        0
    }

    fn delta_size(&self, _pred: Symbol) -> usize {
        0
    }

    fn distinct_at(&self, _pred: Symbol, _pos: usize) -> Option<usize> {
        None
    }
}

/// Estimated rows a lookup of `pred` produces per outer binding, given
/// `size` stored tuples and the set of argument positions that are ground
/// at lookup time. The most selective known position wins, mirroring
/// [`Relation::probe`](crate::database::Relation)'s smallest-bucket choice.
pub(crate) fn estimate_rows(
    cards: &dyn CardinalitySource,
    pred: Symbol,
    size: usize,
    bound_positions: &[usize],
) -> u64 {
    if size == 0 {
        return 0;
    }
    if bound_positions.is_empty() {
        return size as u64;
    }
    let best_distinct = bound_positions
        .iter()
        .map(|&pos| {
            cards
                .distinct_at(pred, pos)
                .unwrap_or(DEFAULT_DISTINCT)
                .clamp(1, size)
        })
        .max()
        .unwrap_or(1);
    (size as u64).div_ceil(best_distinct as u64)
}

/// Buckets a size into a coarse magnitude class for plan fingerprints:
/// a plan is only invalidated when a relation crosses a power-of-two
/// boundary, not on every single-tuple delta change.
pub(crate) fn size_bucket(size: usize) -> u64 {
    (size + 1).next_power_of_two() as u64
}
