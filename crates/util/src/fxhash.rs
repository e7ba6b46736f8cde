//! A fast, deterministic hasher for integer-keyed hot-path maps.
//!
//! The simulators key several per-request bookkeeping maps by plain
//! row, word or page indexes:
//!
//! * the PRAM cell array (`pram::cell`), probed once per programmed
//!   word;
//! * the PRAM SSD's set of programmed words (`storage::optane`), probed
//!   once per written word;
//! * selective-erase touch tracking and fault line state (`pram-ctrl`);
//! * LRU residency of the page caches (`storage::cache`).
//!
//! `std`'s default SipHash is both slower than the map operation it
//! guards and randomly seeded per process, while these maps want the
//! opposite trade: minimal per-lookup cost and run-to-run determinism.
//! [`FxHasher`] is the classic Fx multiply-fold (as used by rustc): one
//! wrapping multiply per integer field, zero seed state.
//!
//! These tables are filled with simulator-internal keys, never
//! attacker-controlled input, so HashDoS resistance is not a concern.
//! Restoring a snapshot does not change that: an image carries only
//! maps the simulator itself wrote, so it brings back the same keys.
//! The hasher never shows in an image either, because `util::json`
//! renders hash maps and sets in key order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-fold hasher (Firefox/rustc "Fx" construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The odd multiplier from the Fx construction: truncation of
/// 2^64 / phi, which distributes consecutive integers well.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(last));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Deterministic zero-state builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the deterministic Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the deterministic Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 32, i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m[&(i * 32)], i as u32);
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
    }

    #[test]
    fn byte_writes_distinguish_lengths() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(&[1, 0]);
        b.write(&[1]);
        assert_ne!(a.finish(), b.finish());
    }
}
