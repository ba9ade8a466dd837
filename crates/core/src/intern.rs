//! Global value interning for columnar relation storage.
//!
//! Columnar relations store every constant as a dense `u32` **vid** (value
//! id) so argument columns are flat `Vec<u32>`s. Two ids matter per value:
//!
//! * **vid** — structural identity. `Int(3)` and `Num(3.0)` get *different*
//!   vids because they render differently (`3` vs `3.0`) and output must
//!   print what was stored.
//! * **sid** — semantic class. `Int(3)` and `Num(3.0)` share a sid because
//!   `Value::semantic_eq` coerces Int/Num through `f64`, exactly like the
//!   secondary-index buckets (`IndexKey::of`). Join unification compares
//!   sids (one `u32` compare) and only decodes vids on success.
//!
//! The sid bucketing keys numerics on `f64::to_bits`, which is sound as a
//! proxy for `semantic_eq` on every reachable value: `OrdF64` normalizes
//! `-0.0` to `0.0` at construction and rejects NaN, and `Int` cannot produce
//! a negative zero, so bit-equality of the coerced `f64` coincides with
//! semantic equality.
//!
//! Like [`crate::symbol`], the table is process-global: programs reuse the
//! same constants across databases, sessions, and snapshots, and global ids
//! are what make `Relation::clone` a plain column memcpy.

use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use crate::symbol::Symbol;
use crate::value::Value;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// Column padding sentinel for positions past a tuple's arity. Never a
/// valid vid: the interner refuses to allocate it.
pub(crate) const NONE_VID: u32 = u32::MAX;

/// Semantic-class key, mirroring `IndexKey` in `database.rs`: numerics
/// bucket on the coerced `f64` bit pattern, everything else structurally.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SemKey {
    Num(u64),
    Sym(Symbol),
    Bool(bool),
}

impl SemKey {
    fn of(v: &Value) -> SemKey {
        match v.as_f64() {
            Some(f) => SemKey::Num(f.to_bits()),
            None => match v {
                Value::Sym(s) => SemKey::Sym(*s),
                Value::Bool(b) => SemKey::Bool(*b),
                Value::Int(_) | Value::Num(_) => unreachable!("numeric handled via as_f64"),
            },
        }
    }
}

/// The vid/sid tables. Public only through the module-level functions and
/// the read guard handed to hot loops.
pub(crate) struct ValueInterner {
    vids: FxHashMap<Value, u32>,
    sems: FxHashMap<SemKey, u32>,
    /// vid → (value, sid). The sid of a class is the vid of its first
    /// interned member, so sids need no second table.
    table: Vec<(Value, u32)>,
    /// Maximum table size; `NONE_VID` for the global instance, small for
    /// overflow tests.
    cap: u32,
}

impl ValueInterner {
    pub(crate) fn with_capacity_limit(cap: u32) -> ValueInterner {
        ValueInterner {
            vids: FxHashMap::default(),
            sems: FxHashMap::default(),
            table: Vec::new(),
            // `cap` is a u32 so it can never exceed `NONE_VID` (u32::MAX);
            // the sentinel stays unmintable because `intern` errors at `cap`
            // *before* handing out the id equal to it.
            cap,
        }
    }

    /// Interns a value, returning its vid. Fails with a typed
    /// [`Error::InternerOverflow`] once the id space is exhausted instead
    /// of panicking mid-materialization.
    pub(crate) fn intern(&mut self, v: Value) -> Result<u32> {
        if let Some(&vid) = self.vids.get(&v) {
            return Ok(vid);
        }
        let vid = self.table.len() as u64;
        if vid >= self.cap as u64 {
            return Err(Error::InternerOverflow(format!(
                "value interner exhausted its {} distinct-constant id space interning {v}",
                self.cap
            )));
        }
        let vid = vid as u32;
        let sid = *self.sems.entry(SemKey::of(&v)).or_insert(vid);
        self.table.push((v, sid));
        self.vids.insert(v, vid);
        Ok(vid)
    }

    /// Structural lookup without interning.
    pub(crate) fn vid_of(&self, v: &Value) -> Option<u32> {
        self.vids.get(v).copied()
    }

    /// Semantic-class id of a value, if any member of its class has been
    /// interned. `None` means no stored tuple can semantically match `v`.
    pub(crate) fn sid_of(&self, v: &Value) -> Option<u32> {
        self.sems.get(&SemKey::of(v)).copied()
    }

    /// The value a vid stands for.
    #[inline]
    pub(crate) fn decode(&self, vid: u32) -> Value {
        self.table[vid as usize].0
    }

    /// The semantic-class id of a vid.
    #[inline]
    pub(crate) fn sid(&self, vid: u32) -> u32 {
        self.table[vid as usize].1
    }

    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }
}

fn global() -> &'static RwLock<ValueInterner> {
    static INTERNER: OnceLock<RwLock<ValueInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(ValueInterner::with_capacity_limit(NONE_VID)))
}

/// Read access for hot loops: take the guard once per `eval_rel` call and
/// resolve vids/sids through it. Interning (a write lock) only happens on
/// the single-threaded merge path, never concurrently with evaluation, so
/// readers don't contend with writers in practice.
pub(crate) fn read() -> RwLockReadGuard<'static, ValueInterner> {
    global().read().expect("value interner poisoned")
}

/// Interns through the global table (read fast path, write on miss).
pub(crate) fn intern(v: Value) -> Result<u32> {
    if let Some(vid) = read().vid_of(&v) {
        return Ok(vid);
    }
    global().write().expect("value interner poisoned").intern(v)
}

/// Number of distinct values interned so far (stats-json `storage`).
pub(crate) fn interned_value_count() -> usize {
    read().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vid_is_structural_sid_is_semantic() {
        let i3 = intern(Value::Int(3)).unwrap();
        let n3 = intern(Value::num(3.0)).unwrap();
        let again = intern(Value::Int(3)).unwrap();
        assert_eq!(i3, again, "re-interning is idempotent");
        assert_ne!(i3, n3, "Int(3) and Num(3.0) render differently");
        let g = read();
        assert_eq!(g.sid(i3), g.sid(n3), "but share a semantic class");
        assert_eq!(g.decode(i3), Value::Int(3));
        assert_eq!(g.decode(n3), Value::num(3.0));
    }

    #[test]
    fn negative_zero_buckets_with_zero() {
        let z = intern(Value::num(0.0)).unwrap();
        let nz = intern(Value::num(-0.0)).unwrap();
        let iz = intern(Value::Int(0)).unwrap();
        // OrdF64 normalizes -0.0 at construction, so the vids collapse too.
        assert_eq!(z, nz);
        let g = read();
        assert_eq!(g.sid(z), g.sid(iz));
    }

    #[test]
    #[should_panic(expected = "NaN cannot be a DatalogMTL value")]
    fn nan_never_reaches_the_interner() {
        // The interner buckets floats by `f64::to_bits`, where every NaN
        // payload would be its own id and `semantic_eq` (IEEE `==`) would
        // never match it — so NaN is rejected upstream, at value
        // construction, before any interning can happen.
        let _ = intern(Value::num(f64::NAN));
    }

    #[test]
    fn to_bits_bucketing_matches_semantic_eq() {
        // The hash bucket key is the normalized bit pattern: values that
        // `semantic_eq` as floats must collapse to one semantic class even
        // when their source spelling differs, and genuinely different
        // floats never share one.
        let a = intern(Value::num(2.5)).unwrap();
        let b = intern(Value::num(2.5)).unwrap();
        let c = intern(Value::num(2.5000000000000004)).unwrap();
        assert_eq!(a, b, "identical bit patterns share a vid");
        assert_ne!(a, c, "one-ulp-apart floats stay distinct");
        let g = read();
        assert_ne!(g.sid(a), g.sid(c));
    }

    #[test]
    fn sid_of_misses_mean_no_match() {
        let mut local = ValueInterner::with_capacity_limit(16);
        local.intern(Value::Int(1)).unwrap();
        assert_eq!(local.sid_of(&Value::num(1.0)), local.vid_of(&Value::Int(1)));
        assert_eq!(local.sid_of(&Value::Int(999)), None);
    }

    #[test]
    fn overflow_is_a_typed_error_not_a_panic() {
        let mut local = ValueInterner::with_capacity_limit(2);
        local.intern(Value::Int(1)).unwrap();
        local.intern(Value::Int(2)).unwrap();
        // Re-interning existing values still works at capacity.
        assert!(local.intern(Value::Int(1)).is_ok());
        let err = local.intern(Value::Int(3)).unwrap_err();
        assert!(
            matches!(err, Error::InternerOverflow(_)),
            "expected InternerOverflow, got {err:?}"
        );
        assert!(err.to_string().contains("interner"));
    }
}
