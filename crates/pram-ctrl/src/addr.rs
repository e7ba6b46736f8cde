//! Global address decomposition across channels and modules.
//!
//! §III-B: "the server initiates a memory request based on **512 bytes per
//! channel (32 bytes per bank)**". The controller therefore stripes the
//! flat accelerator address space:
//!
//! * 512-byte *stripes* alternate between the two channels;
//! * within a stripe, consecutive 32-byte words go to consecutive modules
//!   (16 modules × 32 B = 512 B);
//! * within a module, consecutive words stripe across the 16 partitions
//!   (see [`pram::geometry::PramGeometry::decode`]).
//!
//! The net effect: a sequential stream engages both channels, all 32
//! modules and all partitions — maximum device parallelism, which is what
//! the multi-resource aware interleaving scheduler then exploits.
//!
//! Every geometry field here is a power of two in the paper layout, so
//! the per-word math goes through [`util::pow2`] (shift and mask, with
//! a division fallback for other layouts).

use util::pow2;

/// Where one word-aligned fragment of a request lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// Channel index.
    pub channel: usize,
    /// Module index within the channel.
    pub module: usize,
    /// Byte address within the module's private space.
    pub module_addr: u64,
}

util::json_struct!(Target {
    channel,
    module,
    module_addr
});

/// A word-aligned fragment of a larger request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// Where the fragment lands.
    pub target: Target,
    /// Global byte address of the fragment start.
    pub global_addr: u64,
    /// Fragment length (1..=32, never crossing a word boundary).
    pub len: u32,
}

util::json_struct!(Fragment {
    target,
    global_addr,
    len
});

/// The controller's global striping function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// Number of channels (paper: 2).
    pub channels: usize,
    /// Modules per channel (paper: 16).
    pub modules_per_channel: usize,
    /// Word size in bytes (paper: 32).
    pub word_bytes: u64,
}

util::json_struct!(AddressMap {
    channels,
    modules_per_channel,
    word_bytes
});

impl Default for AddressMap {
    fn default() -> Self {
        Self::paper()
    }
}

impl AddressMap {
    /// The paper layout: 2 channels × 16 modules × 32 B words.
    pub const fn paper() -> Self {
        AddressMap {
            channels: 2,
            modules_per_channel: 16,
            word_bytes: 32,
        }
    }

    /// Bytes in one channel stripe (512 in the paper layout).
    pub fn stripe_bytes(&self) -> u64 {
        self.word_bytes * self.modules_per_channel as u64
    }

    /// Decomposes a global byte address.
    pub fn decompose(&self, addr: u64) -> Target {
        let (stripe_bytes, channels) = (self.stripe_bytes(), self.channels as u64);
        let stripe = pow2::div(addr, stripe_bytes);
        let channel = pow2::rem(stripe, channels) as usize;
        let channel_stripe = pow2::div(stripe, channels);
        let within = pow2::rem(addr, stripe_bytes);
        let module = pow2::div(within, self.word_bytes) as usize;
        let module_addr = channel_stripe * self.word_bytes + pow2::rem(addr, self.word_bytes);
        Target {
            channel,
            module,
            module_addr,
        }
    }

    /// Splits `[addr, addr+len)` into word-aligned fragments, each mapped
    /// to its target. Fragments never cross a 32 B word boundary, so each
    /// maps to exactly one device row.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn split(&self, addr: u64, len: u32) -> Vec<Fragment> {
        self.frags(addr, len).collect()
    }

    /// Allocation-free version of [`AddressMap::split`]: the request
    /// paths iterate fragments directly instead of materializing a `Vec`
    /// per request. (`AddressMap` is `Copy`, so the iterator owns its
    /// map and borrows nothing.)
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn frags(&self, addr: u64, len: u32) -> FragIter {
        assert!(len > 0, "zero-length request");
        FragIter {
            map: *self,
            target: self.decompose(addr),
            cur: addr,
            end: addr + len as u64,
        }
    }

    /// The global capacity served by `module_capacity`-byte modules.
    pub fn total_capacity(&self, module_capacity: u64) -> u64 {
        module_capacity * self.channels as u64 * self.modules_per_channel as u64
    }

    /// The global word index of an address (used as the selective-erase
    /// bookkeeping key).
    pub fn word_index(&self, addr: u64) -> u64 {
        pow2::div(addr, self.word_bytes)
    }
}

/// Iterator over the word-aligned fragments of one request (see
/// [`AddressMap::frags`]).
///
/// Only the first fragment is decomposed. Each later one lands where
/// [`AddressMap::decompose`] would put the next word, so the iterator
/// steps there: the next module of the stripe, past the last module
/// the same stripe on the next channel, and past the last channel the
/// next word of every module.
#[derive(Debug, Clone)]
pub struct FragIter {
    map: AddressMap,
    /// Where the fragment at `cur` lands.
    target: Target,
    cur: u64,
    end: u64,
}

impl Iterator for FragIter {
    type Item = Fragment;

    #[inline]
    fn next(&mut self) -> Option<Fragment> {
        if self.cur >= self.end {
            return None;
        }
        let wb = self.map.word_bytes;
        let word_end = self.cur - pow2::rem(self.cur, wb) + wb;
        let frag_end = word_end.min(self.end);
        let frag = Fragment {
            target: self.target,
            global_addr: self.cur,
            len: (frag_end - self.cur) as u32,
        };
        self.cur = frag_end;
        let t = &mut self.target;
        t.module_addr -= pow2::rem(t.module_addr, wb);
        t.module += 1;
        if t.module == self.map.modules_per_channel {
            t.module = 0;
            t.channel += 1;
            if t.channel == self.map.channels {
                t.channel = 0;
                t.module_addr += wb;
            }
        }
        Some(frag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stripe_is_512_bytes() {
        assert_eq!(AddressMap::paper().stripe_bytes(), 512);
    }

    #[test]
    fn sequential_words_cover_all_modules_then_switch_channel() {
        let m = AddressMap::paper();
        // First 512 B: channel 0, modules 0..16.
        for w in 0..16u64 {
            let t = m.decompose(w * 32);
            assert_eq!((t.channel, t.module), (0, w as usize));
            assert_eq!(t.module_addr, 0);
        }
        // Next 512 B: channel 1, modules 0..16, same module row.
        for w in 0..16u64 {
            let t = m.decompose(512 + w * 32);
            assert_eq!((t.channel, t.module), (1, w as usize));
            assert_eq!(t.module_addr, 0);
        }
        // Third stripe: back to channel 0, next module word.
        let t = m.decompose(1024);
        assert_eq!((t.channel, t.module, t.module_addr), (0, 0, 32));
    }

    #[test]
    fn decompose_keeps_intra_word_offset() {
        let m = AddressMap::paper();
        let t = m.decompose(1024 + 32 + 7);
        assert_eq!((t.channel, t.module), (0, 1));
        assert_eq!(t.module_addr, 32 + 7);
    }

    #[test]
    fn split_respects_word_boundaries() {
        let m = AddressMap::paper();
        let frags = m.split(30, 40); // crosses two word boundaries
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].len, 2); // 30..32
        assert_eq!(frags[1].len, 32); // 32..64
        assert_eq!(frags[2].len, 6); // 64..70
        assert_eq!(frags.iter().map(|f| f.len).sum::<u32>(), 40);
        // Adjacent fragments are contiguous.
        for w in frags.windows(2) {
            assert_eq!(w[0].global_addr + w[0].len as u64, w[1].global_addr);
        }
    }

    #[test]
    fn split_512b_touches_16_distinct_modules() {
        let m = AddressMap::paper();
        let frags = m.split(0, 512);
        assert_eq!(frags.len(), 16);
        let modules: std::collections::HashSet<_> = frags
            .iter()
            .map(|f| (f.target.channel, f.target.module))
            .collect();
        assert_eq!(modules.len(), 16);
        assert!(frags.iter().all(|f| f.target.channel == 0));
    }

    #[test]
    fn split_1kib_uses_both_channels() {
        let m = AddressMap::paper();
        let frags = m.split(0, 1024);
        let ch0 = frags.iter().filter(|f| f.target.channel == 0).count();
        let ch1 = frags.iter().filter(|f| f.target.channel == 1).count();
        assert_eq!((ch0, ch1), (16, 16));
    }

    #[test]
    fn total_capacity() {
        let m = AddressMap::paper();
        assert_eq!(m.total_capacity(1 << 30), 32u64 << 30);
    }

    #[test]
    fn stepped_fragments_land_where_decompose_puts_them() {
        // The iterator decomposes only a request's first word and steps
        // the rest; every fragment must still land exactly where
        // `decompose` puts its address, on the paper layout and on
        // layouts whose counts are not powers of two.
        util::for_each_case!(64, |rng| {
            let map = AddressMap {
                channels: rng.range_usize(1, 3),
                modules_per_channel: rng.range_usize(1, 17),
                word_bytes: 32,
            };
            let addr = rng.range_u64(0, 1 << 24);
            let len = rng.range_u64(1, 8192) as u32;
            let mut cur = addr;
            for f in map.frags(addr, len) {
                assert_eq!(f.global_addr, cur);
                assert_eq!(f.target, map.decompose(cur), "{map:?} at {cur}");
                cur += f.len as u64;
            }
            assert_eq!(cur, addr + len as u64);
        });
    }

    #[test]
    #[should_panic(expected = "zero-length request")]
    fn zero_split_rejected() {
        AddressMap::paper().split(0, 0);
    }
}
