//! Shared 64-bit FNV-1a content fingerprinting.
//!
//! Several layers commit to content with the same hash — `accel::trace`
//! fingerprints packed op streams, `workloads::cache` content-addresses
//! memoized schedules, and the record/replay layer chains a
//! `RunFingerprint` over the backend-request stream. They all fold
//! through this one [`Fnv64`] accumulator so the constants and mixing
//! discipline live in exactly one place.
//!
//! Two mixing granularities are provided and they are *not*
//! interchangeable: [`Fnv64::mix_bytes`] is classic byte-at-a-time
//! FNV-1a, [`Fnv64::mix_u64`] folds whole 64-bit lanes per step (the
//! fast path for multi-megabyte packed streams). Callers must keep
//! using whichever granularity their stored fingerprints were minted
//! with.
//!
//! # Examples
//!
//! ```
//! use util::fingerprint::Fnv64;
//!
//! let mut a = Fnv64::new();
//! a.mix_bytes(b"hello");
//! let mut b = Fnv64::new();
//! b.mix_bytes(b"hello");
//! assert_eq!(a.value(), b.value());
//! assert_ne!(a.value(), Fnv64::new().value());
//! ```

/// The FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    h: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh accumulator at the offset basis.
    pub fn new() -> Self {
        Fnv64 { h: OFFSET }
    }

    /// Folds one 64-bit lane: `h = (h ^ v) * PRIME`.
    ///
    /// One multiply per 8 bytes — the fast-path granularity used for
    /// packed op streams. Not byte-compatible with [`Fnv64::mix_bytes`].
    #[inline]
    pub fn mix_u64(&mut self, v: u64) {
        self.h ^= v;
        self.h = self.h.wrapping_mul(PRIME);
    }

    /// Folds bytes one at a time — classic FNV-1a.
    #[inline]
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(PRIME);
        }
    }

    /// The current digest.
    #[inline]
    pub fn value(&self) -> u64 {
        self.h
    }
}

/// One-shot classic FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut f = Fnv64::new();
    f.mix_bytes(bytes);
    f.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn lane_and_byte_mixing_differ() {
        let mut lanes = Fnv64::new();
        lanes.mix_u64(u64::from_le_bytes(*b"abcdefgh"));
        let mut bytes = Fnv64::new();
        bytes.mix_bytes(b"abcdefgh");
        assert_ne!(lanes.value(), bytes.value());
    }

    #[test]
    fn order_and_content_sensitivity() {
        let mut a = Fnv64::new();
        a.mix_u64(1);
        a.mix_u64(2);
        let mut b = Fnv64::new();
        b.mix_u64(2);
        b.mix_u64(1);
        assert_ne!(a.value(), b.value());
    }
}
