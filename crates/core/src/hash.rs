//! In-tree Fx-style hashing for the engine's internal maps.
//!
//! The workspace is dependency-free by design, so this is a minimal
//! re-implementation of the well-known `rustc-hash` mixing function: one
//! rotate + xor + multiply per word. It is *not* DoS-resistant, which is
//! fine for every map it backs — tuple-id tables, index buckets, guard sets —
//! because keys are internal dense ids and interned symbols, never
//! attacker-controlled strings.
//!
//! Determinism note: swapping `RandomState` for a fixed-seed hasher cannot
//! change observable output. `RandomState` is already randomly seeded per
//! process, so no engine output may depend on map iteration order (anything
//! user-visible is explicitly sorted); a fixed seed only makes iteration
//! order reproducible, never *more* load-bearing.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiplicative hasher (rustc-hash style).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Fold the tail length in so "ab" and "ab\0" hash differently.
            self.add(u64::from_le_bytes(buf) ^ (rem.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes a slice of interned ids directly (used by the open-addressing
/// tuple-id table, which stores no owned keys at all).
#[inline]
pub fn hash_ids(ids: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = FxHasher::default();
    for id in ids {
        h.write_u32(id);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"hello world");
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn tail_length_disambiguates() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"ab");
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        m.insert(11, "eleven");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.len(), 2);
    }
}
