//! The temporal database: ground tuples annotated with interval sets.
//!
//! A database `D` in the paper is a finite set of facts `P(v̄)@ρ`; here each
//! `(P, v̄)` maps to the coalesced [`IntervalSet`] of all its annotations,
//! which is the canonical representation of the induced interpretation.
//!
//! ## Storage layout
//!
//! Relations are columnar: constants are interned to dense `u32` vids (see
//! `crate::intern`) and stored struct-of-arrays — one flat `Vec<u32>` per
//! argument position, plus a single interval **arena** per relation holding
//! every tuple's components contiguously behind `(offset, len)` handles.
//! Joins, value-index probes, and the time index walk flat memory; a
//! snapshot `clone` is a handful of column memcpys.

use crate::ast::Fact;
use crate::error::Result;
use crate::hash::{hash_ids, FxHashMap};
use crate::intern::{self, NONE_VID};
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};
use mtl_temporal::{Interval, IntervalSet, Rational};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::RwLock;

/// Process-wide count of flat column buffers copied by
/// `Relation::clone` (value columns + interval arena per clone). Surfaced
/// in the stats-json `storage` section as `column_clones`.
static COLUMN_CLONES: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of column buffers memcpy'd by snapshot clones.
pub(crate) fn column_clone_count() -> u64 {
    COLUMN_CLONES.load(AtomicOrdering::Relaxed)
}

/// Index key of one argument value, normalized so semantically equal values
/// (`3` and `3.0`) land in the same bucket. Numeric values key on the `f64`
/// bit pattern — exactly the equivalence [`Value::semantic_eq`] uses, so an
/// index probe never misses a tuple a full scan would unify with.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum IndexKey {
    Num(u64),
    Sym(Symbol),
    Bool(bool),
}

impl IndexKey {
    fn of(v: &Value) -> IndexKey {
        match v.as_f64() {
            // `-0.0` is normalized at Value construction and `Int` cannot
            // produce it, so the bit pattern is canonical.
            Some(f) => IndexKey::Num(f.to_bits()),
            None => match v {
                Value::Sym(s) => IndexKey::Sym(*s),
                Value::Bool(b) => IndexKey::Bool(*b),
                Value::Int(_) | Value::Num(_) => unreachable!("numeric handled above"),
            },
        }
    }
}

/// Per-argument-position secondary indexes: `value → tuple ids`, built
/// lazily on first probe and maintained incrementally afterwards. Bucket id
/// lists are kept in ascending (insertion) order so a probe visits tuples
/// in the same order a full scan would — determinism is preserved.
#[derive(Default, Debug, Clone)]
struct SecondaryIndexes {
    by_pos: FxHashMap<usize, FxHashMap<IndexKey, Vec<u32>>>,
    time: Option<TimeIndex>,
}

/// Minimum pending-tail length at which a [`TimeIndex`] merges the tail
/// into its sorted entries; probes scan the tail linearly below this, so
/// read-side calls never need a write lock. The effective threshold grows
/// with the index (an eighth of the sorted run) so sustained insertion
/// streams pay amortized-linear maintenance rather than re-merging a large
/// run every few dozen notes.
const TIME_INDEX_PENDING_MAX: usize = 64;

/// Sorted-endpoint time index: every finite interval component of every
/// tuple as a `(lo, hi, id)` entry ordered by `lo`, one sorted run per
/// *length class* (class `k` holds the components shorter than `16^k`). A
/// window probe binary-searches, in each class, the entries whose component
/// can overlap the window — `lo ∈ [window.lo − max_len, window.hi]`, with
/// `max_len` the longest component the class has seen — and filters by `hi`.
///
/// A progression is indexed by its hull, as one entry. The classes are what
/// keep that cheap: one 7 200 s persistence run widens the scan of its own
/// (sparsely populated) class only, not the scan over the thousands of
/// punctual entries next to it, which a single index-wide length bound
/// would start at 0.
///
/// The index is an over-approximation: endpoint closedness and the gaps
/// between teeth are ignored, and components superseded by later coalescing
/// (a run extended in place leaves its shorter self behind) are retained.
/// That is sound because the union of all indexed extents always covers the
/// tuple's true interval set (every `insert`ed interval and every `merge`
/// delta is indexed), so a probe can return false positives — removed by
/// the caller's exact `intersect_interval` clip — but never false negatives.
#[derive(Clone, Debug, Default)]
struct TimeIndex {
    /// `classes[k]`: the entries of length `< 16^k`.
    classes: Vec<LengthClass>,
    /// Recent insertions not yet merged into `classes`, scanned linearly.
    pending: Vec<(Rational, Rational, u32)>,
    /// Total entries across `classes`.
    sorted: usize,
    /// Ids of tuples with an unbounded (or overflow-length) component;
    /// always candidates. Sorted, deduplicated.
    unbounded: Vec<u32>,
}

/// The entries of one length class of a [`TimeIndex`].
#[derive(Clone, Debug, Default)]
struct LengthClass {
    /// Sorted by `(lo, hi, id)`.
    entries: Vec<(Rational, Rational, u32)>,
    /// Upper bound on the length of any entry; bounds how far before a
    /// window an overlapping entry can start.
    max_len: Rational,
}

/// The length class of a component `len` long: the least `k` with
/// `len < 16^k`.
fn length_class(len: Rational) -> usize {
    let bits = u64::BITS - (len.floor() as u64).leading_zeros();
    bits.div_ceil(4) as usize
}

impl TimeIndex {
    fn build<'a>(entries: impl Iterator<Item = (u32, &'a [Interval])>) -> TimeIndex {
        let mut idx = TimeIndex::default();
        for (id, comps) in entries {
            for comp in comps {
                idx.note(comp, id);
            }
        }
        idx.flush();
        idx
    }

    /// Records one interval component of tuple `id`.
    fn note(&mut self, comp: &Interval, id: u32) {
        // Overflow-length components are demoted to `unbounded`.
        let bounded = comp
            .finite_endpoints()
            .filter(|(lo, hi)| hi.checked_sub(*lo).is_some());
        match bounded {
            Some((lo, hi)) => {
                self.pending.push((lo, hi, id));
                if self.pending.len() > TIME_INDEX_PENDING_MAX.max(self.sorted / 8) {
                    self.flush();
                }
            }
            None => {
                if let Err(pos) = self.unbounded.binary_search(&id) {
                    self.unbounded.insert(pos, id);
                }
            }
        }
    }

    /// Merges the pending tail into the sorted classes. Only the tail is
    /// sorted; each class's share is then stitched in with a linear merge
    /// (or a plain append when it lands entirely after the sorted run, the
    /// common case for monotone streams), so a flush never re-sorts the
    /// full index.
    fn flush(&mut self) {
        self.pending.sort_unstable();
        self.sorted += self.pending.len();
        let mut tails: Vec<Vec<(Rational, Rational, u32)>> = Vec::new();
        for e in self.pending.drain(..) {
            let len = e.1 - e.0;
            let class = length_class(len);
            if tails.len() <= class {
                tails.resize_with(class + 1, Vec::new);
                self.classes
                    .resize_with(self.classes.len().max(class + 1), Default::default);
            }
            let max_len = &mut self.classes[class].max_len;
            *max_len = len.max(*max_len);
            tails[class].push(e);
        }
        for (class, mut tail) in self.classes.iter_mut().zip(tails) {
            let entries = &mut class.entries;
            if tail.is_empty() {
                continue;
            }
            if entries.last() <= tail.first() {
                entries.append(&mut tail);
                continue;
            }
            let mut merged = Vec::with_capacity(entries.len() + tail.len());
            let (mut i, mut j) = (0, 0);
            while i < entries.len() && j < tail.len() {
                if entries[i] <= tail[j] {
                    merged.push(entries[i]);
                    i += 1;
                } else {
                    merged.push(tail[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&entries[i..]);
            merged.extend_from_slice(&tail[j..]);
            *entries = merged;
        }
    }

    /// Tuple ids whose indexed extent can overlap `window`, in ascending
    /// (= insertion) order, so scan determinism is preserved.
    fn probe_into(&self, window: &Interval, ids: &mut Vec<u32>) {
        let wlo = window.lo().finite();
        let whi = window.hi().finite();
        let overlaps =
            |lo: Rational, hi: Rational| wlo.is_none_or(|a| hi >= a) && whi.is_none_or(|b| lo <= b);
        ids.clear();
        ids.extend_from_slice(&self.unbounded);
        for class in self.classes.iter().filter(|c| !c.entries.is_empty()) {
            let entries = &class.entries;
            let start = match wlo.and_then(|a| a.checked_sub(class.max_len)) {
                // An entry starting before `window.lo − max_len` ends
                // before the window; skip it. On −∞ or overflow, scan from 0.
                Some(cut) => entries.partition_point(|&(lo, _, _)| lo < cut),
                None => 0,
            };
            for &(lo, hi, id) in &entries[start..] {
                if whi.is_some_and(|b| lo > b) {
                    break;
                }
                if overlaps(lo, hi) {
                    ids.push(id);
                }
            }
        }
        for &(lo, hi, id) in &self.pending {
            if overlaps(lo, hi) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        ids.dedup();
    }
}

/// Arena slab handle: `len` live components at `off`, in a slab of
/// power-of-two capacity `cap` (0 for the never-allocated empty handle).
#[derive(Clone, Copy, Default, Debug)]
struct Handle {
    off: u32,
    len: u32,
    cap: u32,
}

/// The per-relation interval arena: every tuple's components live in one
/// flat `Vec<Interval>` in power-of-two slabs. Emptied or outgrown slabs
/// go on a per-size free list and are reused by later allocations, so
/// repair churn (retract → re-derive) recycles space instead of leaking it.
#[derive(Default, Clone, Debug)]
struct Arena {
    data: Vec<Interval>,
    /// Free slab offsets by capacity class (index = log2 of capacity).
    free: Vec<Vec<u32>>,
    freed: u64,
    reused: u64,
}

impl Arena {
    fn alloc(&mut self, len: usize) -> Handle {
        debug_assert!(len > 0, "empty sets use the default handle");
        let cap = len.next_power_of_two();
        let class = cap.trailing_zeros() as usize;
        if let Some(off) = self.free.get_mut(class).and_then(Vec::pop) {
            self.reused += 1;
            return Handle {
                off,
                len: len as u32,
                cap: cap as u32,
            };
        }
        let off = u32::try_from(self.data.len()).expect("interval arena offset overflow");
        // Pad the slab to its full capacity; the pad values are never read
        // (slices stop at `len`).
        self.data.resize(self.data.len() + cap, Interval::ALL);
        Handle {
            off,
            len: len as u32,
            cap: cap as u32,
        }
    }

    fn release(&mut self, h: Handle) {
        if h.cap == 0 {
            return;
        }
        let class = h.cap.trailing_zeros() as usize;
        if self.free.len() <= class {
            self.free.resize(class + 1, Vec::new());
        }
        self.free[class].push(h.off);
        self.freed += 1;
    }

    fn slice(&self, h: Handle) -> &[Interval] {
        &self.data[h.off as usize..(h.off + h.len) as usize]
    }
}

/// Open-addressing tuple-id table keyed by the tuples' vid columns
/// themselves: slots hold `id + 1` (0 = empty) and key comparison reads
/// the columns, so the table owns no keys and clones as one memcpy.
#[derive(Default, Clone, Debug)]
struct IdTable {
    slots: Vec<u32>,
    len: usize,
}

impl IdTable {
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                s => {
                    let id = s - 1;
                    if eq(id) {
                        return Some(id);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts an id whose key is known absent.
    fn insert_new(&mut self, hash: u64, id: u32, hash_of: impl Fn(u32) -> u64) {
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow(&hash_of);
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = id + 1;
        self.len += 1;
    }

    fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let cap = (self.slots.len() * 2).max(16);
        let mut slots = vec![0u32; cap];
        let mask = cap - 1;
        for &s in &self.slots {
            if s != 0 {
                let mut i = (hash_of(s - 1) as usize) & mask;
                while slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                slots[i] = s;
            }
        }
        self.slots = slots;
    }
}

/// The columnar tuple store: interned-vid columns + interval arena (module
/// docs).
#[derive(Default, Debug, Clone)]
pub(crate) struct ColumnStore {
    /// One column per argument position up to the widest arity seen;
    /// positions past a tuple's arity hold `NONE_VID`.
    cols: Vec<Vec<u32>>,
    /// Arity of each tuple.
    lens: Vec<u32>,
    /// Arena handle of each tuple's interval components.
    handles: Vec<Handle>,
    arena: Arena,
    ids: IdTable,
}

impl ColumnStore {
    pub(crate) fn len(&self) -> usize {
        self.lens.len()
    }

    /// The full vid column for `pos`, or `None` when no stored tuple
    /// reaches that arity. Hot loops hoist these slices once instead of
    /// paying `vid_at`'s outer-vector lookup per candidate.
    #[inline]
    pub(crate) fn col(&self, pos: usize) -> Option<&[u32]> {
        self.cols.get(pos).map(Vec::as_slice)
    }

    /// The per-tuple arity column (parallel to every vid column).
    #[inline]
    pub(crate) fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// The vid at `pos` of tuple `id` (`NONE_VID` past the tuple's arity).
    #[inline]
    pub(crate) fn vid_at(&self, pos: usize, id: u32) -> u32 {
        match self.cols.get(pos) {
            Some(col) => col[id as usize],
            None => NONE_VID,
        }
    }

    /// Arity of tuple `id`.
    #[inline]
    pub(crate) fn len_of(&self, id: u32) -> usize {
        self.lens[id as usize] as usize
    }

    /// The interval components of tuple `id` (sorted, non-connected).
    #[inline]
    pub(crate) fn comps_of(&self, id: u32) -> &[Interval] {
        self.arena.slice(self.handles[id as usize])
    }

    fn find_id(&self, vids: &[u32]) -> Option<u32> {
        let h = hash_ids(vids.iter().copied());
        self.ids.find(h, |id| {
            self.len_of(id) == vids.len()
                && vids
                    .iter()
                    .enumerate()
                    .all(|(p, &v)| self.cols[p][id as usize] == v)
        })
    }

    /// Looks a tuple up by value without interning anything new.
    fn lookup(&self, tuple: &[Value]) -> Option<u32> {
        let g = intern::read();
        let mut vids = Vec::with_capacity(tuple.len());
        for v in tuple {
            vids.push(g.vid_of(v)?);
        }
        drop(g);
        self.find_id(&vids)
    }

    /// Writes a component slice into a tuple's slab, growing / releasing
    /// slabs as needed, and returns `(before, after)` component counts.
    fn store_comps(&mut self, id: u32, comps: &[Interval]) -> (usize, usize) {
        let h = self.handles[id as usize];
        let before = h.len as usize;
        let after = comps.len();
        if after == 0 {
            // Emptied entries give their slab back (repair churn reuses
            // it); the id itself stays allocated — see `Relation::remove`.
            self.arena.release(h);
            self.handles[id as usize] = Handle::default();
            return (before, 0);
        }
        if after <= h.cap as usize {
            let off = h.off as usize;
            self.arena.data[off..off + after].copy_from_slice(comps);
            self.handles[id as usize].len = after as u32;
        } else {
            self.arena.release(h);
            let nh = self.arena.alloc(after);
            let off = nh.off as usize;
            self.arena.data[off..off + after].copy_from_slice(comps);
            self.handles[id as usize] = nh;
        }
        (before, after)
    }

    /// Appends a sorted, non-connected `run` to the tail of a tuple's
    /// component slab in place when it lies entirely past the stored last
    /// component (merging the run's first component into it when
    /// connected), avoiding the decode → difference → full-copy round-trip
    /// of the general path: the slab is extended while its capacity allows
    /// and re-allocated (one copy) when it does not. Returns the
    /// `(before, after)` component counts, or `None` when the run may
    /// overlap stored components and the caller must take the general path.
    fn append_run(&mut self, id: u32, run: &[Interval]) -> Option<(usize, usize)> {
        let (first, rest) = run.split_first()?;
        let h = self.handles[id as usize];
        if h.len == 0 {
            let nh = self.arena.alloc(run.len());
            let off = nh.off as usize;
            self.arena.data[off..off + run.len()].copy_from_slice(run);
            self.handles[id as usize] = nh;
            return Some((0, run.len()));
        }
        let before = h.len as usize;
        let last = self.arena.data[h.off as usize + before - 1];
        if !last.entirely_before(first) {
            return None;
        }
        // Touching at the boundary — or continuing a stored progression by
        // exactly one step — extends the stored last component; the rest of
        // the run is appended behind it either way.
        let (last, tail) = match last.union_if_connected(first) {
            // A lone point that becomes the start of a run may in turn
            // continue the lone point before it: a reshaping again.
            Some(u) if before > 1 && u.is_strided() && !last.is_strided() => return None,
            Some(u) => (u, rest),
            // A tooth touching an interval has to be absorbed by it: that
            // reshapes the stored component, so the general path decides.
            None if last.hi() == first.lo() && (last.is_strided() || first.is_strided()) => {
                return None
            }
            None => (last, run),
        };
        let after = before + tail.len();
        let off = if after <= h.cap as usize {
            self.handles[id as usize].len = after as u32;
            h.off as usize
        } else {
            let nh = self.arena.alloc(after);
            let (src, dst) = (h.off as usize, nh.off as usize);
            self.arena.data.copy_within(src..src + before, dst);
            self.arena.release(h);
            self.handles[id as usize] = nh;
            dst
        };
        self.arena.data[off + before - 1] = last;
        self.arena.data[off + before..off + after].copy_from_slice(tail);
        Some((before, after))
    }
}

/// A borrowed tuple. Values are decoded from their vids through the global
/// interner on access (display, query, and snapshot paths — the join hot
/// path compares interned ids and never materializes a `TupleRef`).
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    store: &'a ColumnStore,
    id: u32,
}

impl TupleRef<'_> {
    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.store.len_of(self.id)
    }

    /// `true` iff the tuple has no arguments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at position `i` (panics out of bounds).
    pub fn value(&self, i: usize) -> Value {
        assert!(i < self.len(), "tuple position out of bounds");
        intern::read().decode(self.store.vid_at(i, self.id))
    }

    /// All values, decoded once.
    pub fn to_vec(&self) -> Vec<Value> {
        let g = intern::read();
        (0..self.len())
            .map(|p| g.decode(self.store.vid_at(p, self.id)))
            .collect()
    }

    /// An owned boxed tuple.
    pub fn to_tuple(&self) -> Tuple {
        self.to_vec().into_boxed_slice()
    }
}

impl fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.to_vec()).finish()
    }
}

/// All tuples of one predicate with their validity intervals.
///
/// Tuples live in a dense, insertion-ordered id space with a hash lookup
/// for exact-tuple access; value indexes hang off the side under a lock so
/// read-only evaluation threads can build them on first use.
#[derive(Debug, Default)]
pub struct Relation {
    store: ColumnStore,
    /// Live interval components across all tuples, maintained on every
    /// mutation so `Database::component_count` is O(relations).
    live_components: usize,
    /// Tuples currently holding at least one interval component. Unlike
    /// [`Relation::len`] this shrinks when [`Relation::remove`] empties an
    /// entry.
    live_tuples: usize,
    indexes: RwLock<SecondaryIndexes>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        // Built indexes are carried over: a cloned database (session window
        // advance, threaded stratum snapshot) keeps its warm access paths
        // and patches them incrementally instead of rebuilding on the next
        // probe.
        let indexes = self
            .indexes
            .read()
            .expect("relation index lock poisoned")
            .clone();
        // A snapshot clone is a flat-buffer memcpy per value column plus one
        // for the interval arena.
        COLUMN_CLONES.fetch_add(self.store.cols.len() as u64 + 1, AtomicOrdering::Relaxed);
        Relation {
            store: self.store.clone(),
            live_components: self.live_components,
            live_tuples: self.live_tuples,
            indexes: RwLock::new(indexes),
        }
    }
}

impl Relation {
    /// The tuple store, for the executor's hot loops (`eval_rel` hoists the
    /// column slices once and runs its candidate loop on flat memory).
    pub(crate) fn store(&self) -> &ColumnStore {
        &self.store
    }

    /// The id of `tuple`, allocating a fresh entry (and updating any built
    /// indexes) when unseen. Fails only when the value interner exhausts
    /// its id space.
    fn id_of(&mut self, tuple: &[Value]) -> Result<u32> {
        let s = &mut self.store;
        let mut vids = Vec::with_capacity(tuple.len());
        for v in tuple {
            vids.push(intern::intern(*v)?);
        }
        if let Some(id) = s.find_id(&vids) {
            return Ok(id);
        }
        let id = u32::try_from(s.len()).expect("relation tuple-id overflow");
        if s.cols.len() < tuple.len() {
            // Widest arity grew: pad new columns for old rows.
            s.cols
                .resize_with(tuple.len(), || vec![NONE_VID; id as usize]);
        }
        for (pos, col) in s.cols.iter_mut().enumerate() {
            match vids.get(pos) {
                Some(&vid) => col.push(vid),
                None => col.push(NONE_VID),
            }
        }
        s.lens.push(tuple.len() as u32);
        s.handles.push(Handle::default());
        let h = hash_ids(vids.iter().copied());
        let ColumnStore {
            ids, cols, lens, ..
        } = s;
        ids.insert_new(h, id, |other| {
            let len = lens[other as usize] as usize;
            hash_ids((0..len).map(|p| cols[p][other as usize]))
        });
        let indexes = self
            .indexes
            .get_mut()
            .expect("relation index lock poisoned");
        for (&pos, buckets) in indexes.by_pos.iter_mut() {
            if let Some(v) = tuple.get(pos) {
                buckets.entry(IndexKey::of(v)).or_default().push(id);
            }
        }
        Ok(id)
    }

    /// Notes freshly added components in the time index, if built.
    fn note_time(&mut self, delta: &IntervalSet, id: u32) {
        if let Some(time) = self
            .indexes
            .get_mut()
            .expect("relation index lock poisoned")
            .time
            .as_mut()
        {
            for comp in delta.iter() {
                time.note(comp, id);
            }
        }
    }

    /// Reads a tuple's current interval set (owned).
    fn set_of(&self, id: u32) -> IntervalSet {
        IntervalSet::from_sorted(self.store.comps_of(id).to_vec())
    }

    /// Writes a tuple's interval set back, updating the live statistics.
    fn write_set(&mut self, id: u32, set: &IntervalSet) {
        let (before, after) = self.store.store_comps(id, set.components());
        self.apply_component_delta(before, after);
    }

    /// Folds one tuple's `(before, after)` component-count transition into
    /// the relation's live statistics: the O(1) component total and the
    /// live tuple count. Every mutation path — general write-back and
    /// in-place append alike — funnels through here, so the counts can
    /// never drift from the stored intervals.
    fn apply_component_delta(&mut self, before: usize, after: usize) {
        self.live_components = self.live_components - before + after;
        if before == 0 && after > 0 {
            self.live_tuples += 1;
        } else if before > 0 && after == 0 {
            self.live_tuples -= 1;
        }
    }

    /// Fast path shared by [`Relation::insert`] and [`Relation::merge`]:
    /// when the sorted, non-connected `run` lies entirely past the stored
    /// last component (the shape monotone temporal recursion produces — one
    /// instant per iteration, or a whole closed chain at once), the
    /// genuinely new part is exactly `run` and the stored tail is extended
    /// in place ([`ColumnStore::append_run`]) — no owned-set decode, no
    /// difference, no full slab copy. Returns `false` when the run is empty
    /// or may overlap and the general path must decide.
    fn append_fast(&mut self, id: u32, run: &[Interval]) -> bool {
        let Some((before, after)) = self.store.append_run(id, run) else {
            return false;
        };
        self.apply_component_delta(before, after);
        true
    }

    /// Inserts an interval for a tuple; returns `true` iff the set grew.
    pub fn insert(&mut self, tuple: &[Value], interval: Interval) -> Result<bool> {
        let id = self.id_of(tuple)?;
        if self.append_fast(id, &[interval]) {
            self.note_time(&IntervalSet::from_interval(interval), id);
            return Ok(true);
        }
        let mut set = self.set_of(id);
        let grew = set.insert(interval);
        if grew {
            self.write_set(id, &set);
            self.note_time(&IntervalSet::from_interval(interval), id);
        }
        Ok(grew)
    }

    /// Merges an interval set for a tuple; returns the genuinely new part
    /// (empty when nothing grew).
    pub fn merge(&mut self, tuple: &[Value], ivs: &IntervalSet) -> Result<IntervalSet> {
        let id = self.id_of(tuple)?;
        if self.append_fast(id, ivs.components()) {
            self.note_time(ivs, id);
            return Ok(ivs.clone());
        }
        let mut set = self.set_of(id);
        let delta = ivs.difference(&set);
        if !delta.is_empty() {
            // All of `ivs`, not just the new part: a run that overlaps a
            // stored tooth joins it.
            set.union_with(ivs);
            self.write_set(id, &set);
            self.note_time(&delta, id);
        }
        Ok(delta)
    }

    /// Removes `ivs` from a tuple's validity; returns the part actually
    /// removed (empty when the tuple is absent or disjoint).
    ///
    /// The entry itself is kept even when its interval set empties out:
    /// tuple ids stay dense and stable, so the per-position value indexes
    /// remain exact (a probe returning an emptied tuple yields no intervals
    /// after the caller's clip). The emptied tuple's
    /// arena slab is released to a free list and reused by later merges, so
    /// repair churn does not leak arena space. The time index is
    /// deliberately left untouched — its contract is over-approximation
    /// (coverage ⊇ truth), and removal only shrinks truth, so stale entries
    /// can produce false positives but never a missed tuple.
    pub fn remove(&mut self, tuple: &[Value], ivs: &IntervalSet) -> IntervalSet {
        let Some(id) = self.store.lookup(tuple) else {
            return IntervalSet::new();
        };
        let set = self.set_of(id);
        let removed = set.intersect(ivs);
        if !removed.is_empty() {
            self.write_set(id, &set.difference(ivs));
        }
        removed
    }

    /// The interval components of a tuple, if present (sorted,
    /// non-connected; empty slice for emptied-but-kept entries).
    pub fn components_of(&self, tuple: &[Value]) -> Option<&[Interval]> {
        self.store.lookup(tuple).map(|id| self.store.comps_of(id))
    }

    /// Iterates `(tuple, components)` in insertion order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (TupleRef<'_>, &[Interval])> {
        let len = self.store.len() as u32;
        (0..len).map(move |id| self.entry(id))
    }

    /// The tuple and interval components stored under a tuple id (from
    /// [`Relation::probe`]).
    pub fn entry(&self, id: u32) -> (TupleRef<'_>, &[Interval]) {
        let store = &self.store;
        (TupleRef { store, id }, store.comps_of(id))
    }

    /// Number of distinct tuples, *including* emptied-but-kept entries
    /// (tuple ids are dense and never reclaimed). This is the count access
    /// paths iterate over; [`Relation::live_len`] counts the survivors.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Number of tuples currently holding at least one interval component.
    /// Unlike [`Relation::len`] this shrinks when [`Relation::remove`]
    /// empties an entry. O(1).
    pub fn live_len(&self) -> usize {
        self.live_tuples
    }

    /// `true` iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Live interval components across all tuples (O(1)).
    pub(crate) fn live_component_count(&self) -> usize {
        self.live_components
    }

    /// Bytes held by interval storage (the arena buffer).
    pub(crate) fn interval_bytes(&self) -> usize {
        std::mem::size_of_val(self.store.arena.data.as_slice())
    }

    /// Bytes held by tuple-value storage (the vid and arity columns).
    pub(crate) fn value_bytes(&self) -> usize {
        let s = &self.store;
        s.cols.iter().map(|c| c.len() * 4).sum::<usize>() + s.lens.len() * 4
    }

    /// `(freed, reused)` arena slab counts.
    pub(crate) fn arena_reuse(&self) -> (u64, u64) {
        (self.store.arena.freed, self.store.arena.reused)
    }

    /// Ensures the position index for `pos` exists, building it from the
    /// current entries when missing.
    fn ensure_index(&self, pos: usize) {
        if self
            .indexes
            .read()
            .expect("relation index lock poisoned")
            .by_pos
            .contains_key(&pos)
        {
            return;
        }
        let mut w = self.indexes.write().expect("relation index lock poisoned");
        // Double-checked: another thread may have built it while we waited.
        if w.by_pos.contains_key(&pos) {
            return;
        }
        let mut buckets: FxHashMap<IndexKey, Vec<u32>> = FxHashMap::default();
        let g = intern::read();
        for id in 0..self.store.len() as u32 {
            let vid = self.store.vid_at(pos, id);
            if vid != NONE_VID {
                buckets
                    .entry(IndexKey::of(&g.decode(vid)))
                    .or_default()
                    .push(id);
            }
        }
        drop(g);
        w.by_pos.insert(pos, buckets);
    }

    /// Index probe: tuple ids whose argument at some ground position
    /// semantically equals the bound value, using the most selective
    /// (smallest-bucket) position among `ground`. Candidate ids come back
    /// in insertion order, i.e. the order a full scan would visit them, so
    /// callers only need to re-verify with full unification.
    ///
    /// Builds missing per-position indexes on first use; they are then
    /// maintained incrementally by [`Relation::insert`] /
    /// [`Relation::merge`].
    pub fn probe(&self, ground: &[(usize, Value)]) -> Vec<u32> {
        let mut out = Vec::new();
        self.probe_into(ground, &mut out);
        out
    }

    /// [`Relation::probe`] into a reused buffer (the executor keeps one
    /// per thread to avoid a bucket-sized allocation per lookup).
    pub fn probe_into(&self, ground: &[(usize, Value)], out: &mut Vec<u32>) {
        out.clear();
        // Steady-state fast path: one read-lock acquisition covers the
        // built-check and the bucket lookups. Only a position whose index
        // is missing drops to the build path (once per position).
        loop {
            {
                let r = self.indexes.read().expect("relation index lock poisoned");
                if ground.iter().all(|(pos, _)| r.by_pos.contains_key(pos)) {
                    let mut best: Option<&Vec<u32>> = None;
                    for (pos, v) in ground {
                        let bucket = r.by_pos[pos].get(&IndexKey::of(v));
                        match bucket {
                            // A ground position with no bucket means no
                            // tuple can match.
                            None => return,
                            Some(b) => {
                                if best.is_none_or(|cur| b.len() < cur.len()) {
                                    best = Some(b);
                                }
                            }
                        }
                    }
                    if let Some(b) = best {
                        out.extend_from_slice(b);
                    }
                    return;
                }
            }
            for &(pos, _) in ground {
                self.ensure_index(pos);
            }
        }
    }

    /// Ensures the time index exists, building it from the current entries
    /// when missing (double-checked, like [`Relation::ensure_index`]).
    fn ensure_time_index(&self) {
        if self
            .indexes
            .read()
            .expect("relation index lock poisoned")
            .time
            .is_some()
        {
            return;
        }
        let mut w = self.indexes.write().expect("relation index lock poisoned");
        if w.time.is_none() {
            let s = &self.store;
            w.time = Some(TimeIndex::build(
                (0..s.len() as u32).map(|id| (id, s.comps_of(id))),
            ));
        }
    }

    /// Time-index probe: tuple ids whose validity can overlap `window`, in
    /// insertion order. Over-approximate (see [`TimeIndex`]): callers must
    /// still clip each candidate's interval set exactly. Builds the index
    /// on first use; it is then maintained incrementally by
    /// [`Relation::insert`] / [`Relation::merge`] and survives cloning.
    pub fn probe_time(&self, window: &Interval) -> Vec<u32> {
        let mut out = Vec::new();
        self.probe_time_into(window, &mut out);
        out
    }

    /// [`Relation::probe_time`] into a reused buffer.
    pub fn probe_time_into(&self, window: &Interval, out: &mut Vec<u32>) {
        // Steady-state fast path: probe under the single read guard; only
        // the very first call pays the build detour.
        {
            let r = self.indexes.read().expect("relation index lock poisoned");
            if let Some(t) = r.time.as_ref() {
                t.probe_into(window, out);
                return;
            }
        }
        self.ensure_time_index();
        self.indexes
            .read()
            .expect("relation index lock poisoned")
            .time
            .as_ref()
            .expect("time index built above")
            .probe_into(window, out);
    }

    /// Number of built indexes (per-position value indexes + time index).
    pub fn built_index_count(&self) -> usize {
        let r = self.indexes.read().expect("relation index lock poisoned");
        r.by_pos.len() + usize::from(r.time.is_some())
    }
}

/// A temporal database: one [`Relation`] per predicate.
#[derive(Clone, Debug, Default)]
pub struct Database {
    rels: FxHashMap<Symbol, Relation>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts a parsed fact. Returns `true` iff the database grew.
    pub fn insert_fact(&mut self, fact: &Fact) -> Result<bool> {
        self.insert(fact.pred, &fact.args, fact.interval)
    }

    /// Inserts facts from an iterator.
    pub fn extend_facts<'a, I: IntoIterator<Item = &'a Fact>>(&mut self, facts: I) -> Result<()> {
        for f in facts {
            self.insert_fact(f)?;
        }
        Ok(())
    }

    /// Inserts a single `(pred, tuple)@interval`. Returns `true` iff grew.
    /// Fails only on value-interner exhaustion.
    pub fn insert(&mut self, pred: Symbol, tuple: &[Value], interval: Interval) -> Result<bool> {
        self.rel_mut(pred).insert(tuple, interval)
    }

    fn rel_mut(&mut self, pred: Symbol) -> &mut Relation {
        self.rels.entry(pred).or_default()
    }

    /// Convenience insertion with builder-style values (panics on the
    /// process-level interner-exhaustion limit; use [`Database::insert`]
    /// for the fallible form).
    pub fn assert_at(&mut self, pred: &str, args: &[Value], t: i64) -> &mut Self {
        self.insert(Symbol::new(pred), args, Interval::at(t))
            .expect("value interner exhausted");
        self
    }

    /// Convenience insertion over an interval.
    pub fn assert_over(&mut self, pred: &str, args: &[Value], interval: Interval) -> &mut Self {
        self.insert(Symbol::new(pred), args, interval)
            .expect("value interner exhausted");
        self
    }

    /// The relation for a predicate, if any tuple exists.
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.rels.get(&pred)
    }

    /// Merges `(pred, tuple)@ivs`; returns the genuinely new intervals.
    pub fn merge(
        &mut self,
        pred: Symbol,
        tuple: &[Value],
        ivs: &IntervalSet,
    ) -> Result<IntervalSet> {
        self.rel_mut(pred).merge(tuple, ivs)
    }

    /// Removes `ivs` from `(pred, tuple)`'s validity; returns the part
    /// actually removed. See [`Relation::remove`] for the index-soundness
    /// contract (entries are kept, the time index stays over-approximate).
    pub fn remove(&mut self, pred: Symbol, tuple: &[Value], ivs: &IntervalSet) -> IntervalSet {
        self.rels
            .get_mut(&pred)
            .map(|r| r.remove(tuple, ivs))
            .unwrap_or_default()
    }

    /// The interval set of a specific ground atom.
    pub fn intervals(&self, pred: Symbol, args: &[Value]) -> IntervalSet {
        self.rels
            .get(&pred)
            .and_then(|r| r.components_of(args))
            .map(|comps| IntervalSet::from_sorted(comps.to_vec()))
            .unwrap_or_default()
    }

    /// Does `pred(args)` hold at time `t`?
    pub fn holds_at(&self, pred: &str, args: &[Value], t: i64) -> bool {
        self.holds_at_rational(Symbol::new(pred), args, Rational::integer(t))
    }

    /// Does `pred(args)` hold at rational time `t`?
    pub fn holds_at_rational(&self, pred: Symbol, args: &[Value], t: Rational) -> bool {
        self.rels
            .get(&pred)
            .and_then(|r| r.components_of(args))
            .is_some_and(|comps| IntervalSet::components_contain(comps, t))
    }

    /// All predicates present.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.rels.keys().copied()
    }

    /// Iterates every `(pred, tuple, components)`.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, TupleRef<'_>, &[Interval])> {
        self.rels
            .iter()
            .flat_map(|(p, r)| r.iter().map(move |(t, ivs)| (*p, t, ivs)))
    }

    /// Renders the database as parseable fact text, sorted for determinism.
    pub fn to_facts_text(&self) -> String {
        let mut lines: Vec<String> = self
            .iter()
            .flat_map(|(p, tuple, comps)| {
                let args = tuple
                    .to_vec()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                // One line per tooth: the text never shows how a run is
                // stored.
                comps
                    .iter()
                    .flat_map(Interval::atoms)
                    .map(move |iv| format!("{p}({args})@{iv}."))
                    .collect::<Vec<_>>()
            })
            .collect();
        lines.sort();
        lines.join("\n")
    }

    /// Total number of distinct tuples across relations.
    pub fn tuple_count(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }

    /// Pattern query: all tuples of `pattern.pred` unifying with the
    /// pattern's arguments (variables bind, repeated variables must agree,
    /// constants filter — numeric constants match semantically), together
    /// with their validity. Optionally restricted to a time window.
    ///
    /// ```
    /// use chronolog_core::{parse_facts, Atom, Database, Term, Value};
    /// let mut db = Database::new();
    /// db.extend_facts(&parse_facts("p(a, 1)@3.\np(a, 2)@5.\np(b, 1)@4.").unwrap())
    ///     .unwrap();
    /// let pattern = Atom::new("p", vec![Term::Val(Value::sym("a")), Term::var("N")]);
    /// let hits = db.query(&pattern, None);
    /// assert_eq!(hits.len(), 2);
    /// ```
    pub fn query(
        &self,
        pattern: &crate::ast::Atom,
        window: Option<&Interval>,
    ) -> Vec<(Tuple, IntervalSet)> {
        let Some(rel) = self.rels.get(&pattern.pred) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        'tuples: for (tuple, comps) in rel.iter() {
            if tuple.len() != pattern.args.len() {
                continue;
            }
            let values = tuple.to_vec();
            let mut bound: FxHashMap<Symbol, Value> = FxHashMap::default();
            for (term, v) in pattern.args.iter().zip(values.iter()) {
                match term {
                    crate::ast::Term::Val(c) => {
                        if !c.semantic_eq(v) {
                            continue 'tuples;
                        }
                    }
                    crate::ast::Term::Var(x) => match bound.get(x) {
                        Some(prev) if !prev.semantic_eq(v) => continue 'tuples,
                        _ => {
                            bound.insert(*x, *v);
                        }
                    },
                }
            }
            let clipped = match window {
                Some(w) => IntervalSet::clip_components(comps, w),
                None => IntervalSet::from_sorted(comps.to_vec()),
            };
            if !clipped.is_empty() {
                out.push((values.into_boxed_slice(), clipped));
            }
        }
        out
    }

    /// Parses fact text (as produced by [`Database::to_facts_text`]) back
    /// into a database — the snapshot counterpart of the renderer.
    pub fn from_facts_text(text: &str) -> crate::error::Result<Database> {
        let facts = crate::parser::parse_facts(text)?;
        let mut db = Database::new();
        db.extend_facts(&facts)?;
        Ok(db)
    }

    /// Total number of interval components (a proxy for memory footprint).
    /// O(relations): each relation maintains its live count on mutation.
    pub fn component_count(&self) -> usize {
        self.rels.values().map(Relation::live_component_count).sum()
    }

    /// Total number of built secondary indexes across relations. A clone
    /// carries these over, so the count right after cloning measures the
    /// index rebuilds the clone avoided.
    pub fn built_index_count(&self) -> usize {
        self.rels.values().map(Relation::built_index_count).sum()
    }

    /// Bytes held by interval storage across relations (the arenas).
    pub fn interval_arena_bytes(&self) -> usize {
        self.rels.values().map(Relation::interval_bytes).sum()
    }

    /// Approximate bytes of tuple-value + interval storage across
    /// relations (excludes hash tables and indexes); divide by
    /// [`Database::tuple_count`] for a bytes-per-tuple figure.
    pub fn storage_bytes(&self) -> usize {
        self.rels
            .values()
            .map(|r| r.value_bytes() + r.interval_bytes())
            .sum()
    }

    /// `(freed, reused)` interval-arena slab counts summed over relations.
    pub fn arena_reuse_counts(&self) -> (u64, u64) {
        self.rels
            .values()
            .map(Relation::arena_reuse)
            .fold((0, 0), |(f, r), (df, dr)| (f + df, r + dr))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_facts_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut db = Database::new();
        db.assert_at("price", &[Value::num(1300.0)], 10);
        assert!(db.holds_at("price", &[Value::num(1300.0)], 10));
        assert!(!db.holds_at("price", &[Value::num(1300.0)], 11));
        assert!(!db.holds_at("price", &[Value::num(9.0)], 10));
    }

    #[test]
    fn repeated_insert_reports_growth_correctly() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        let tup = [Value::Int(1)];
        assert!(db.insert(pred, &tup, Interval::closed_int(0, 5)).unwrap());
        assert!(!db.insert(pred, &tup, Interval::closed_int(2, 4)).unwrap());
        assert!(db.insert(pred, &tup, Interval::closed_int(4, 8)).unwrap());
    }

    #[test]
    fn merge_returns_only_new_part() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        let tup = [Value::Int(1)];
        db.insert(pred, &tup, Interval::closed_int(0, 5)).unwrap();
        let delta = db
            .merge(
                pred,
                &tup,
                &IntervalSet::from_interval(Interval::closed_int(3, 8)),
            )
            .unwrap();
        assert_eq!(
            delta.components(),
            &[Interval::new(
                Rational::integer(5).into(),
                false,
                Rational::integer(8).into(),
                true
            )
            .unwrap()]
        );
    }

    #[test]
    fn facts_text_is_sorted_and_parseable() {
        let mut db = Database::new();
        db.assert_at("b", &[Value::Int(2)], 3);
        db.assert_at("a", &[Value::sym("x")], 1);
        let text = db.to_facts_text();
        assert!(text.starts_with("a(x)@[1]."));
        let reparsed = crate::parser::parse_facts(&text).unwrap();
        assert_eq!(reparsed.len(), 2);
    }

    #[test]
    fn query_patterns() {
        let mut db = Database::new();
        db.extend_facts(
            &crate::parser::parse_facts("p(a, 1)@3.\np(a, 2)@5.\np(b, 1)@4.\nq(a)@1.").unwrap(),
        )
        .unwrap();
        use crate::ast::{Atom, Term};
        // All p-tuples.
        let all = db.query(&Atom::new("p", vec![Term::var("X"), Term::var("Y")]), None);
        assert_eq!(all.len(), 3);
        // Constant filter.
        let a_only = db.query(
            &Atom::new("p", vec![Term::Val(Value::sym("a")), Term::var("Y")]),
            None,
        );
        assert_eq!(a_only.len(), 2);
        // Repeated variable: p(X, X) matches nothing here.
        let diag = db.query(&Atom::new("p", vec![Term::var("X"), Term::var("X")]), None);
        assert!(diag.is_empty());
        // Window restriction.
        let windowed = db.query(
            &Atom::new("p", vec![Term::var("X"), Term::var("Y")]),
            Some(&Interval::closed_int(4, 5)),
        );
        assert_eq!(windowed.len(), 2);
        // Unknown predicate.
        assert!(db.query(&Atom::new("zzz", vec![]), None).is_empty());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut db = Database::new();
        db.extend_facts(
            &crate::parser::parse_facts(
                "margin(acc1, 97.5)@[3, 9].\nprice(1330.0)@4.\nflag(true).",
            )
            .unwrap(),
        )
        .unwrap();
        let text = db.to_facts_text();
        let back = Database::from_facts_text(&text).unwrap();
        assert_eq!(back.to_facts_text(), text);
    }

    #[test]
    fn probe_finds_semantic_matches_in_scan_order() {
        let mut db = Database::new();
        db.extend_facts(
            &crate::parser::parse_facts(
                "p(a, 1)@0.\np(b, 2)@1.\np(a, 3.0)@2.\np(c, 1.0)@3.\np(a, 2)@4.",
            )
            .unwrap(),
        )
        .unwrap();
        let rel = db.relation(Symbol::new("p")).unwrap();
        // Probe on position 0 = a.
        let ids = rel.probe(&[(0, Value::sym("a"))]);
        assert_eq!(ids.len(), 3);
        // Insertion (scan) order preserved.
        assert_eq!(rel.entry(ids[0]).0.value(1), Value::Int(1));
        assert_eq!(rel.entry(ids[1]).0.value(1), Value::num(3.0));
        assert_eq!(rel.entry(ids[2]).0.value(1), Value::Int(2));
        // Numeric buckets are semantic: Int 1 and Num 1.0 share one.
        let ids = rel.probe(&[(1, Value::num(1.0))]);
        assert_eq!(ids.len(), 2);
        let ids = rel.probe(&[(1, Value::Int(3))]);
        assert_eq!(ids.len(), 1);
        // Most selective position wins: (a, 3.0) → bucket of size 1.
        let ids = rel.probe(&[(0, Value::sym("a")), (1, Value::Int(3))]);
        assert_eq!(ids.len(), 1);
        // A ground value with no bucket short-circuits to no candidates.
        assert!(rel.probe(&[(0, Value::sym("zzz"))]).is_empty());
    }

    #[test]
    fn probe_indexes_stay_fresh_under_inserts_and_merges() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        db.assert_at("p", &[Value::sym("a"), Value::Int(1)], 0);
        // Build the index...
        assert_eq!(
            db.relation(pred)
                .unwrap()
                .probe(&[(0, Value::sym("a"))])
                .len(),
            1
        );
        // ...then grow the relation through both mutation paths.
        db.assert_at("p", &[Value::sym("a"), Value::Int(2)], 1);
        db.merge(
            pred,
            &[Value::sym("a"), Value::num(2.0)],
            &IntervalSet::from_interval(Interval::at(2)),
        )
        .unwrap();
        let rel = db.relation(pred).unwrap();
        assert_eq!(rel.probe(&[(0, Value::sym("a"))]).len(), 3);
        // Int 2 and Num 2.0 are distinct tuples but share a value bucket.
        assert_eq!(rel.probe(&[(1, Value::Int(2))]).len(), 2);
        // Cloning keeps both built position indexes warm...
        let mut cloned = rel.clone();
        assert_eq!(cloned.built_index_count(), 2);
        assert_eq!(cloned.probe(&[(0, Value::sym("a"))]).len(), 3);
        // ...and the carried-over index stays fresh under further growth.
        cloned
            .insert(&[Value::sym("a"), Value::Int(9)], Interval::at(5))
            .unwrap();
        assert_eq!(cloned.probe(&[(0, Value::sym("a"))]).len(), 4);
    }

    #[test]
    fn time_probe_overlaps_only_window() {
        let mut db = Database::new();
        db.assert_over("p", &[Value::Int(0)], Interval::closed_int(0, 4));
        db.assert_over("p", &[Value::Int(1)], Interval::closed_int(10, 12));
        db.assert_over("p", &[Value::Int(2)], Interval::closed_int(20, 24));
        db.assert_over(
            "p",
            &[Value::Int(3)],
            Interval::from_instant(Rational::integer(100)),
        );
        let rel = db.relation(Symbol::new("p")).unwrap();
        // Unbounded tuple 3 is always a candidate; exact clipping is the
        // caller's job.
        assert_eq!(rel.probe_time(&Interval::closed_int(11, 21)), vec![1, 2, 3]);
        assert_eq!(rel.probe_time(&Interval::closed_int(5, 9)), vec![3]);
        assert_eq!(
            rel.probe_time(&Interval::closed_int(0, 100)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn time_index_stays_fresh_under_growth_and_clone() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        db.assert_over("p", &[Value::Int(0)], Interval::closed_int(0, 2));
        // Build the index, then grow through both mutation paths.
        assert_eq!(
            db.relation(pred)
                .unwrap()
                .probe_time(&Interval::closed_int(0, 100))
                .len(),
            1
        );
        db.assert_over("p", &[Value::Int(0)], Interval::closed_int(50, 52));
        db.merge(
            pred,
            &[Value::Int(1)],
            &IntervalSet::from_interval(Interval::closed_int(60, 61)),
        )
        .unwrap();
        let rel = db.relation(pred).unwrap();
        assert_eq!(rel.probe_time(&Interval::closed_int(49, 70)), vec![0, 1]);
        assert_eq!(rel.probe_time(&Interval::closed_int(0, 3)), vec![0]);
        assert!(rel.probe_time(&Interval::closed_int(10, 20)).is_empty());
        // The clone carries the index and keeps patching it.
        let mut cloned = rel.clone();
        assert_eq!(cloned.built_index_count(), 1);
        cloned
            .insert(&[Value::Int(2)], Interval::closed_int(15, 16))
            .unwrap();
        assert_eq!(cloned.probe_time(&Interval::closed_int(10, 20)), vec![2]);
    }

    #[test]
    fn time_probe_never_misses_after_coalescing() {
        // Coalescing leaves stale sub-entries behind; they may only add
        // false positives, never hide a tuple.
        let mut db = Database::new();
        let pred = Symbol::new("p");
        db.assert_over("p", &[Value::Int(0)], Interval::closed_int(0, 1));
        db.relation(pred).unwrap().probe_time(&Interval::at(0)); // build
        db.assert_over("p", &[Value::Int(0)], Interval::closed_int(3, 9));
        db.assert_over("p", &[Value::Int(0)], Interval::closed_int(1, 3)); // glue
        let rel = db.relation(pred).unwrap();
        for t in 0..=9 {
            assert_eq!(rel.probe_time(&Interval::at(t)), vec![0], "at t={t}");
        }
        // The same for persistence runs, indexed by their hull: one that is
        // extended in place, one cut in two by a removal, one removed
        // altogether — a probe may name a tuple that no longer holds there
        // (the caller's clip drops it), never miss one that does.
        let run = |from: i64, steps: u32| {
            let run = Interval::progression(from.into(), Rational::ONE, steps);
            IntervalSet::from_interval(run.expect("a small progression"))
        };
        for id in 1..=3 {
            db.merge(pred, &[Value::Int(id)], &run(100 * id, 40))
                .unwrap();
        }
        db.merge(pred, &[Value::Int(1)], &run(141, 30)).unwrap(); // extend
        db.remove(pred, &[Value::Int(2)], &run(210, 10)); // split
        db.remove(pred, &[Value::Int(3)], &run(300, 40)); // remove
        let rel = db.relation(pred).unwrap();
        assert_eq!(rel.components_of(&[Value::Int(1)]).unwrap().len(), 1);
        assert_eq!(rel.components_of(&[Value::Int(2)]).unwrap().len(), 2);
        for t in 0..400 {
            let holding: Vec<u32> = (0..4)
                .filter(|&id| IntervalSet::components_contain(rel.entry(id).1, t.into()))
                .collect();
            let probed = rel.probe_time(&Interval::at(t));
            assert!(
                holding.iter().all(|id| probed.contains(id)),
                "at t={t}: probe {probed:?} misses one of {holding:?}"
            );
        }
        // A long run does not drag the short entries of other tuples into
        // every probe: far from tuple 0's [0, 9], only the run answers.
        assert_eq!(rel.probe_time(&Interval::at(150)), vec![1]);
    }

    #[test]
    fn remove_clips_exactly_and_keeps_entries() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        let tup = [Value::Int(1)];
        db.insert(pred, &tup, Interval::closed_int(0, 10)).unwrap();
        // Removing the middle leaves two components.
        let removed = db.remove(
            pred,
            &tup,
            &IntervalSet::from_interval(Interval::closed_int(4, 6)),
        );
        assert_eq!(removed.components(), &[Interval::closed_int(4, 6)]);
        assert!(db.holds_at("p", &[Value::Int(1)], 3));
        assert!(!db.holds_at("p", &[Value::Int(1)], 5));
        assert!(db.holds_at("p", &[Value::Int(1)], 7));
        // Disjoint removal is a no-op; unknown tuples and predicates too.
        assert!(db
            .remove(
                pred,
                &tup,
                &IntervalSet::from_interval(Interval::closed_int(40, 60)),
            )
            .is_empty());
        assert!(db
            .remove(
                pred,
                &[Value::Int(9)],
                &IntervalSet::from_interval(Interval::ALL),
            )
            .is_empty());
        assert!(db
            .remove(
                Symbol::new("zzz"),
                &tup,
                &IntervalSet::from_interval(Interval::ALL),
            )
            .is_empty());
        // Emptying the set keeps the entry (stable ids) but drops it
        // from the rendered facts and the component count.
        db.remove(pred, &tup, &IntervalSet::from_interval(Interval::ALL));
        assert_eq!(db.tuple_count(), 1);
        assert_eq!(db.component_count(), 0);
        assert_eq!(db.to_facts_text(), "");
        // The tuple can come back through the ordinary merge path.
        let added = db
            .merge(
                pred,
                &tup,
                &IntervalSet::from_interval(Interval::closed_int(1, 2)),
            )
            .unwrap();
        assert!(!added.is_empty());
        assert!(db.holds_at("p", &[Value::Int(1)], 2));
    }

    #[test]
    fn remove_keeps_value_and_time_probes_sound() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        db.assert_over("p", &[Value::sym("a")], Interval::closed_int(0, 4));
        db.assert_over("p", &[Value::sym("b")], Interval::closed_int(10, 14));
        // Build both index kinds, then remove tuple `a` entirely.
        assert_eq!(
            db.relation(pred).unwrap().probe(&[(0, Value::sym("a"))]),
            vec![0]
        );
        assert_eq!(
            db.relation(pred)
                .unwrap()
                .probe_time(&Interval::closed_int(0, 4)),
            vec![0]
        );
        db.remove(
            pred,
            &[Value::sym("a")],
            &IntervalSet::from_interval(Interval::ALL),
        );
        let rel = db.relation(pred).unwrap();
        // Probes may still surface the emptied tuple (over-approximation)
        // but its interval set is empty, so the exact clip drops it.
        for &id in &rel.probe(&[(0, Value::sym("a"))]) {
            assert!(
                IntervalSet::clip_components(rel.entry(id).1, &Interval::closed_int(0, 4))
                    .is_empty()
            );
        }
        assert_eq!(rel.probe(&[(0, Value::sym("b"))]), vec![1]);
        assert!(rel
            .probe_time(&Interval::closed_int(10, 14))
            .contains(&1u32));
    }

    #[test]
    fn counts() {
        let mut db = Database::new();
        db.assert_at("p", &[Value::Int(1)], 0);
        db.assert_at("p", &[Value::Int(1)], 2); // second component
        db.assert_at("p", &[Value::Int(2)], 0);
        assert_eq!(db.tuple_count(), 2);
        assert_eq!(db.component_count(), 3);
    }

    /// Retracting most of a relation must shrink `live_len` even though the
    /// dense id space — and with it `len()` — keeps the emptied entries.
    #[test]
    fn remove_shrinks_live_stats_to_survivors() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        for i in 0..20 {
            db.insert(pred, &[Value::Int(i), Value::sym("hub")], Interval::at(0))
                .unwrap();
        }
        {
            let rel = db.relation(pred).unwrap();
            assert_eq!(rel.len(), 20);
            assert_eq!(rel.live_len(), 20);
        }
        // Retract 18 of the 20 tuples entirely.
        for i in 0..18 {
            db.remove(
                pred,
                &[Value::Int(i), Value::sym("hub")],
                &IntervalSet::from_interval(Interval::ALL),
            );
        }
        {
            let rel = db.relation(pred).unwrap();
            assert_eq!(rel.len(), 20, "ids stay dense");
            assert_eq!(rel.live_len(), 2, "live count tracks survivors");
        }
        // Revival through merge counts the tuple again.
        db.merge(
            pred,
            &[Value::Int(0), Value::sym("hub")],
            &IntervalSet::from_interval(Interval::at(1)),
        )
        .unwrap();
        let rel = db.relation(pred).unwrap();
        assert_eq!(rel.live_len(), 3);
    }

    /// The in-place tail-append fast path in `insert`/`merge` must produce
    /// exactly the same stored components, deltas, and live statistics as
    /// the general difference/union path — across disjoint appends, touching
    /// merges, slab growth, and overlap fallbacks.
    #[test]
    fn append_fast_path_matches_general_path() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        let tup = [Value::Int(7)];
        let mut oracle = IntervalSet::new();
        let steps = [
            Interval::closed_int(0, 2),   // birth
            Interval::closed_int(5, 6),   // disjoint append
            Interval::closed_int(8, 9),   // append forcing slab growth
            Interval::closed_int(12, 12), // punctual append
            Interval::closed_int(1, 7),   // overlap: general path
            Interval::closed_int(20, 21), // append again after fallback
        ];
        for iv in steps {
            let expect = IntervalSet::from_interval(iv).difference(&oracle);
            let delta = db
                .merge(pred, &tup, &IntervalSet::from_interval(iv))
                .unwrap();
            assert_eq!(delta.components(), expect.components(), "delta for {iv}");
            oracle.union_with(&IntervalSet::from_interval(iv));
            let rel = db.relation(pred).unwrap();
            assert_eq!(rel.components_of(&tup).unwrap(), oracle.components());
            assert_eq!(rel.live_len(), 1);
            assert_eq!(rel.live_component_count(), oracle.components().len());
        }
        // A touching append extends the last component in place.
        let open_touch = Interval::new(
            Rational::integer(21).into(),
            false,
            Rational::integer(25).into(),
            true,
        )
        .unwrap();
        db.merge(pred, &tup, &IntervalSet::from_interval(open_touch))
            .unwrap();
        oracle.union_with(&IntervalSet::from_interval(open_touch));
        let rel = db.relation(pred).unwrap();
        assert_eq!(rel.components_of(&tup).unwrap(), oracle.components());
        assert_eq!(rel.live_component_count(), oracle.components().len());
    }

    /// Multi-component runs take the same in-place append: seeded runs that
    /// land after the stored tail — with a gap, touching its closed end, or
    /// extending it through an open boundary — and runs that overlap it
    /// (general path) must all leave the components, deltas, and live
    /// statistics the `IntervalSet` algebra predicts.
    #[test]
    fn append_run_fast_path_matches_general_path() {
        use chronolog_obs::SmallRng;
        for seed in 0..32u64 {
            let mut db = Database::new();
            let mut rng = SmallRng::seed_from_u64(0xA99E ^ seed);
            let pred = Symbol::new("p");
            let tup = [Value::Int(seed as i64)];
            let mut oracle = IntervalSet::new();
            let mut end = 0i64;
            for round in 0..12 {
                // Where the run starts relative to the stored tail: past
                // a gap, extending it through an open boundary, or
                // reaching back into it (general path).
                let (start, open) = match rng.gen_range_usize(0, 4) {
                    0 | 1 => (end + rng.gen_range_i64(1, 4), false),
                    2 => (end, true),
                    _ => ((end - rng.gen_range_i64(0, 6)).max(0), false),
                };
                let mut run = IntervalSet::new();
                let mut t = start;
                for k in 0..rng.gen_range_usize(1, 40) {
                    let open_lo = open && k == 0;
                    // A third of the pieces are persistence runs: with the
                    // 1–3 s gaps between pieces they continue the piece (or
                    // the stored tail) before them, start a run of another
                    // step, or land one step short of coalescing.
                    let (iv, hi) = if !open_lo && rng.gen_bool(0.35) {
                        let step = rng.gen_range_i64(1, 4);
                        let steps = rng.gen_range_i64(1, 20);
                        let run = Interval::progression(
                            Rational::integer(t),
                            Rational::integer(step),
                            steps as u32,
                        );
                        (run.expect("a small progression"), t + step * steps)
                    } else {
                        let hi = t + rng.gen_range_i64(open_lo as i64, 3);
                        let iv = Interval::new(
                            Rational::integer(t).into(),
                            !open_lo,
                            Rational::integer(hi).into(),
                            true,
                        );
                        (iv.expect("non-empty by construction"), hi)
                    };
                    run.insert(iv);
                    end = end.max(hi);
                    t = hi + rng.gen_range_i64(1, 4);
                }
                let expect = run.difference(&oracle);
                let delta = db.merge(pred, &tup, &run).unwrap();
                assert_eq!(
                    delta.components(),
                    expect.components(),
                    "seed {seed} round {round}: delta"
                );
                oracle.union_with(&run);
                let rel = db.relation(pred).unwrap();
                assert_eq!(
                    rel.components_of(&tup).unwrap(),
                    oracle.components(),
                    "seed {seed} round {round}: stored"
                );
                assert_eq!(rel.live_component_count(), oracle.components().len());
                assert_eq!(
                    rel.probe_time(&Interval::closed_int(start, t)),
                    vec![0],
                    "seed {seed} round {round}: time index lost the run"
                );
                // Every stored second is reachable through the index, also
                // those of a run extended in place.
                for at in oracle.atoms().filter_map(|a| a.punctual_value()) {
                    assert_eq!(
                        rel.probe_time(&Interval::point(at)),
                        vec![0],
                        "seed {seed} round {round}: time index lost second {at}"
                    );
                }
            }
        }
    }

    /// `probe` / `probe_time` against a linear filter over the stored
    /// entries, on seeded relations, after `remove` and on a `clone`: the
    /// value probe returns exactly the ids whose position matches
    /// semantically (`3` finds `3.0`); the time probe may over-approximate
    /// but never misses a tuple whose validity meets the window.
    #[test]
    fn probes_agree_with_a_linear_filter_after_remove_and_clone() {
        use chronolog_obs::SmallRng;
        fn check(rel: &Relation, rng: &mut SmallRng, what: &str) {
            for _ in 0..24 {
                let (pos, key) = match rng.gen_range_usize(0, 3) {
                    0 => (0, Value::sym(&format!("k{}", rng.gen_range_i64(0, 5)))),
                    1 => (1, Value::Int(rng.gen_range_i64(0, 7))),
                    _ => (1, Value::num(rng.gen_range_i64(0, 7) as f64)),
                };
                let want: Vec<u32> = (0..rel.len() as u32)
                    .filter(|&id| rel.entry(id).0.value(pos).semantic_eq(&key))
                    .collect();
                assert_eq!(rel.probe(&[(pos, key)]), want, "{what}: probe {pos}={key}");
                let lo = rng.gen_range_i64(0, 60);
                let window = Interval::closed_int(lo, lo + rng.gen_range_i64(0, 12));
                let got = rel.probe_time(&window);
                assert!(got.windows(2).all(|w| w[0] < w[1]), "{what}: id order");
                for id in 0..rel.len() as u32 {
                    let live = !IntervalSet::clip_components(rel.entry(id).1, &window).is_empty();
                    assert!(!live || got.contains(&id), "{what}: {window} missed {id}");
                }
            }
        }
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(0x9E0B ^ seed);
            let mut rel = Relation::default();
            let mut tuples = Vec::new();
            for _ in 0..40 {
                let n = rng.gen_range_i64(0, 7);
                let second = if rng.gen_bool(0.5) {
                    Value::Int(n)
                } else {
                    Value::num(n as f64)
                };
                let tuple = [Value::sym(&format!("k{}", rng.gen_range_i64(0, 5))), second];
                let lo = rng.gen_range_i64(0, 60);
                let iv = Interval::closed_int(lo, lo + rng.gen_range_i64(0, 9));
                rel.insert(&tuple, iv).unwrap();
                tuples.push((tuple, iv));
                if tuples.len() == 10 {
                    // Build both index kinds early so later inserts and
                    // removes exercise the incremental maintenance.
                    check(&rel, &mut rng, "built");
                }
            }
            for (tuple, iv) in tuples.iter().step_by(3) {
                rel.remove(tuple, &IntervalSet::from_interval(*iv));
            }
            check(&rel, &mut rng, "after remove");
            let mut copy = rel.clone();
            copy.insert(
                &[Value::sym("k1"), Value::Int(3)],
                Interval::closed_int(70, 71),
            )
            .unwrap();
            check(&copy, &mut rng, "clone");
            check(&rel, &mut rng, "original after clone");
        }
    }

    #[test]
    fn columnar_ids_are_stable_across_clone() {
        let mut db = Database::new();
        db.assert_over("p", &[Value::sym("a"), Value::Int(1)], Interval::at(0));
        db.assert_over("p", &[Value::sym("b"), Value::num(1.0)], Interval::at(1));
        let rel = db.relation(Symbol::new("p")).unwrap();
        let ids = rel.probe(&[(1, Value::Int(1))]);
        assert_eq!(ids, vec![0, 1]);
        let values: Vec<Vec<Value>> = ids.iter().map(|&id| rel.entry(id).0.to_vec()).collect();
        let cloned = rel.clone();
        // Same ids decode to the same values after cloning: vids are
        // global, the clone shares the id space.
        for (&id, vals) in ids.iter().zip(&values) {
            assert_eq!(&cloned.entry(id).0.to_vec(), vals);
            assert_eq!(cloned.entry(id).1, rel.entry(id).1);
        }
    }

    #[test]
    fn arena_reuses_slabs_released_by_remove() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        db.assert_over("p", &[Value::Int(0)], Interval::closed_int(0, 10));
        let bytes_before = db.interval_arena_bytes();
        // Churn: empty the tuple, then refill it, many times over. Without
        // slab reuse every refill would extend the arena.
        for round in 0..64 {
            db.remove(
                pred,
                &[Value::Int(0)],
                &IntervalSet::from_interval(Interval::ALL),
            );
            db.merge(
                pred,
                &[Value::Int(0)],
                &IntervalSet::from_interval(Interval::closed_int(round, round + 10)),
            )
            .unwrap();
        }
        let (freed, reused) = db.arena_reuse_counts();
        assert!(
            freed >= 64,
            "every emptied slab is released (freed={freed})"
        );
        assert!(reused >= 64, "released slabs are reused (reused={reused})");
        assert_eq!(
            db.interval_arena_bytes(),
            bytes_before,
            "steady-state churn does not grow the arena"
        );
    }

    #[test]
    fn interned_ids_are_stable_across_relation_clone() {
        // The id-stability contract: cloning a relation (or the database
        // holding it) copies the `u32` columns verbatim — the clone's ids
        // decode through the same global interner, so no re-interning, no
        // remapping, and bit-identical column contents.
        let mut db = Database::new();
        let pred = Symbol::new("p");
        db.assert_over(
            "p",
            &[Value::Int(3), Value::num(3.0)],
            Interval::closed_int(0, 5),
        );
        db.assert_over(
            "p",
            &[Value::num(2.5), Value::Int(7)],
            Interval::closed_int(1, 4),
        );
        let clone = db.clone();
        let (orig, copy) = (db.relation(pred).unwrap(), clone.relation(pred).unwrap());
        assert_eq!(orig.len(), copy.len());
        let (a, b) = (&orig.store, &copy.store);
        for id in 0..orig.len() as u32 {
            assert_eq!(a.len_of(id), b.len_of(id));
            for pos in 0..a.len_of(id) {
                assert_eq!(
                    a.vid_at(pos, id),
                    b.vid_at(pos, id),
                    "clone must not remap interned ids"
                );
            }
        }
        // Interning new values after the clone does not disturb either
        // copy: ids are append-only and process-global.
        let before = crate::intern::interned_value_count();
        db.assert_over(
            "p",
            &[Value::Int(-12345), Value::Int(-54321)],
            Interval::at(9),
        );
        assert!(crate::intern::interned_value_count() > before);
        assert_eq!(
            clone.relation(pred).unwrap().len(),
            2,
            "clone is unaffected by post-clone inserts"
        );
    }

    #[test]
    fn mixed_arity_tuples_coexist() {
        let mut db = Database::new();
        let pred = Symbol::new("p");
        db.insert(pred, &[Value::Int(1)], Interval::at(0)).unwrap();
        db.insert(pred, &[Value::Int(1), Value::Int(2)], Interval::at(1))
            .unwrap();
        let rel = db.relation(pred).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.entry(0).0.len(), 1);
        assert_eq!(rel.entry(1).0.len(), 2);
        assert_eq!(rel.entry(1).0.value(1), Value::Int(2));
        assert!(db.holds_at("p", &[Value::Int(1)], 0));
        assert!(db.holds_at("p", &[Value::Int(1), Value::Int(2)], 1));
        assert!(!db.holds_at("p", &[Value::Int(1), Value::Int(2)], 0));
    }
}
