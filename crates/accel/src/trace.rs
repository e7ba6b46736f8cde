//! Kernel execution traces.
//!
//! A [`Trace`] is what a compiled kernel looks like to the performance
//! model: alternating compute blocks (instruction counts per functional
//! unit class) and explicit memory operations with addresses. The
//! [`workloads`] crate produces traces by *actually running* each
//! Polybench kernel with instrumented array accesses, so the address
//! streams and read/write mixes are the real ones.
//!
//! Traces are the dominant allocation of a sweep, so the op stream is
//! stored *packed*: one tag byte per op, memory addresses as
//! zigzag-varint deltas against the previous address, lengths elided
//! when they repeat (they almost always do — kernels touch fixed-width
//! elements). That turns the ~24 bytes of an enum-in-a-`Vec` into
//! ~2–4 bytes per op. Consumers decode on iterate ([`Trace::iter`]) —
//! nothing ever materializes a `Vec<TraceOp>` per cell.
//!
//! [`workloads`]: https://docs.rs/workloads

/// Instruction counts of one compute block, by functional-unit class
/// (Figure 6b: a PE has two of each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrBlock {
    /// `.M` (multiply / DSP-intrinsic MAC) instructions.
    pub m: u64,
    /// `.L` (logical / compare) instructions.
    pub l: u64,
    /// `.S` (general arithmetic / branch) instructions.
    pub s: u64,
    /// `.D` (address generation / load-store assist) instructions.
    pub d: u64,
}

util::json_struct!(InstrBlock { m, l, s, d });

impl InstrBlock {
    /// A block of `n` balanced ALU instructions.
    pub fn alu(n: u64) -> Self {
        InstrBlock {
            m: 0,
            l: n / 2,
            s: n - n / 2,
            d: 0,
        }
    }

    /// A block of multiply-accumulate work with its address math.
    pub fn mac(muls: u64, addr_ops: u64) -> Self {
        InstrBlock {
            m: muls,
            l: 0,
            s: addr_ops / 2,
            d: addr_ops - addr_ops / 2,
        }
    }

    /// Total instructions in the block.
    pub fn total(&self) -> u64 {
        self.m + self.l + self.s + self.d
    }

    /// Issue cycles on a PE with two units per class (VLIW: all four
    /// classes issue in parallel, two instructions per class per cycle).
    pub fn cycles(&self) -> u64 {
        let per = |n: u64| n.div_ceil(2);
        per(self.m)
            .max(per(self.l))
            .max(per(self.s))
            .max(per(self.d))
            .max(
                // A non-empty block takes at least a cycle.
                u64::from(self.total() > 0),
            )
    }

    /// Merges another block into this one.
    pub fn merge(&mut self, other: InstrBlock) {
        self.m += other.m;
        self.l += other.l;
        self.s += other.s;
        self.d += other.d;
    }
}

/// One step of a kernel trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Execute a compute block on the functional units.
    Compute(InstrBlock),
    /// Load `len` bytes from `addr` (blocks the PE until data arrives).
    Load {
        /// Byte address in the accelerator's data space.
        addr: u64,
        /// Access size in bytes.
        len: u32,
    },
    /// Store `len` bytes to `addr`.
    Store {
        /// Byte address in the accelerator's data space.
        addr: u64,
        /// Access size in bytes.
        len: u32,
    },
}

util::json_enum!(TraceOp {
    Compute(block),
    Load { addr, len },
    Store { addr, len },
});

// --- packed encoding -------------------------------------------------
//
// Each op starts with a tag byte:
//   0 — Compute: four varints (m, l, s, d)
//   1 — Load, same length as the previous memory op: one zigzag varint
//       (address delta)
//   2 — Load, new length: zigzag varint delta + varint length
//   3 / 4 — Store, same two layouts
// Encoder and decoder carry the same (last_addr, last_len) prediction
// state, so the stream is self-contained from the front.

const TAG_COMPUTE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_LOAD_LEN: u8 = 2;
const TAG_STORE: u8 = 3;
const TAG_STORE_LEN: u8 = 4;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A per-PE instruction/memory trace (packed storage; see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The packed op stream.
    bytes: Vec<u8>,
    /// Ops encoded in `bytes` (excluding `tail`).
    encoded: usize,
    /// Trailing compute block kept unencoded so [`Trace::compute`] can
    /// merge adjacent blocks before they are frozen into the stream.
    tail: Option<InstrBlock>,
    /// Encoder prediction state: previous memory address.
    last_addr: u64,
    /// Encoder prediction state: previous access length.
    last_len: u32,
    /// [`Trace::fingerprint`], once asked for. The schedule cache and
    /// the record/replay layer ask for every trace of every cell, and a
    /// trace changes only through [`Trace::compute`], [`Trace::load`]
    /// and [`Trace::store`], which clear it.
    fingerprint: FingerprintMemo,
}

/// A memoized content fingerprint. Equality ignores it: two traces of
/// the same ops are equal whether or not either was fingerprinted.
#[derive(Debug, Clone, Default)]
struct FingerprintMemo(std::sync::OnceLock<u64>);

impl PartialEq for FingerprintMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FingerprintMemo {}

// Serialized as `{ "ops": [...] }` — the exact layout the old
// `Vec<TraceOp>` representation had, so trace JSON is unchanged.
impl util::json::ToJson for Trace {
    fn to_json(&self) -> util::json::Json {
        use util::json::Json;
        Json::Obj(vec![(
            "ops".to_string(),
            Json::Arr(self.iter().map(|op| op.to_json()).collect()),
        )])
    }
}

impl util::json::FromJson for Trace {
    fn from_json(v: &util::json::Json) -> Result<Self, util::json::JsonError> {
        util::json::deny_unknown_keys(v, &["ops"]).map_err(|e| e.context("Trace"))?;
        let ops: Vec<TraceOp> = util::json::field(v, "ops")?;
        Ok(ops.into_iter().collect())
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes the operations in order, front to back. Decoding is
    /// allocation-free — the iterator walks the packed stream.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            bytes: &self.bytes,
            pos: 0,
            remaining: self.encoded,
            tail: self.tail,
            last_addr: 0,
            last_len: 0,
        }
    }

    /// Content fingerprint of the op stream (64-bit FNV-1a over the
    /// packed encoding plus the open tail block).
    ///
    /// The packed encoding is a pure function of the op sequence, so two
    /// traces fingerprint equal iff they decode to the same ops (modulo
    /// a 2^-64 collision). Used as a content-addressed cache key for
    /// derived artifacts such as `MemSchedule`. Computed once per
    /// content: later calls return the memo until the trace changes.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .0
            .get_or_init(|| self.content_fingerprint())
    }

    fn content_fingerprint(&self) -> u64 {
        let mut fp = util::fingerprint::Fnv64::new();
        // FNV-1a over 64-bit lanes: fingerprinting runs per schedule
        // lookup, and a byte-at-a-time walk of a multi-megabyte stream
        // was measurable in sweep profiles. A trailing partial lane is
        // zero-padded; the exact byte length is mixed in below, so
        // padded and genuine zero bytes cannot alias.
        let mut chunks = self.bytes.chunks_exact(8);
        for c in &mut chunks {
            fp.mix_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            fp.mix_u64(u64::from_le_bytes(last));
        }
        fp.mix_u64(self.bytes.len() as u64);
        fp.mix_u64(self.encoded as u64);
        fp.mix_u64(self.tail.is_some() as u64);
        if let Some(t) = &self.tail {
            for v in [t.m, t.l, t.s, t.d] {
                fp.mix_u64(v);
            }
        }
        fp.value()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.encoded + usize::from(self.tail.is_some())
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packed size in bytes (diagnostics; an unpacked `Vec<TraceOp>`
    /// would be `24 * len`).
    pub fn packed_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn flush_tail(&mut self) {
        if let Some(b) = self.tail.take() {
            self.bytes.push(TAG_COMPUTE);
            put_varint(&mut self.bytes, b.m);
            put_varint(&mut self.bytes, b.l);
            put_varint(&mut self.bytes, b.s);
            put_varint(&mut self.bytes, b.d);
            self.encoded += 1;
        }
    }

    fn push_mem(&mut self, store: bool, addr: u64, len: u32) {
        self.fingerprint.0.take();
        self.flush_tail();
        let delta = zigzag(addr.wrapping_sub(self.last_addr) as i64);
        if len == self.last_len {
            self.bytes.push(if store { TAG_STORE } else { TAG_LOAD });
            put_varint(&mut self.bytes, delta);
        } else {
            self.bytes
                .push(if store { TAG_STORE_LEN } else { TAG_LOAD_LEN });
            put_varint(&mut self.bytes, delta);
            put_varint(&mut self.bytes, u64::from(len));
            self.last_len = len;
        }
        self.last_addr = addr;
        self.encoded += 1;
    }

    /// Appends a compute block, merging into a preceding compute op so
    /// traces stay compact.
    pub fn compute(&mut self, block: InstrBlock) {
        if block.total() == 0 {
            return;
        }
        self.fingerprint.0.take();
        match self.tail.as_mut() {
            Some(last) => last.merge(block),
            None => self.tail = Some(block),
        }
    }

    /// Appends a load.
    pub fn load(&mut self, addr: u64, len: u32) {
        assert!(len > 0, "zero-length load");
        self.push_mem(false, addr, len);
    }

    /// Appends a store.
    pub fn store(&mut self, addr: u64, len: u32) {
        assert!(len > 0, "zero-length store");
        self.push_mem(true, addr, len);
    }

    /// Total instructions (compute + one per memory op).
    pub fn instructions(&self) -> u64 {
        self.iter()
            .map(|op| match op {
                TraceOp::Compute(b) => b.total(),
                _ => 1,
            })
            .sum()
    }

    /// `(loads, stores, bytes_loaded, bytes_stored)`.
    pub fn memory_profile(&self) -> (u64, u64, u64, u64) {
        let mut p = (0, 0, 0, 0);
        for op in self.iter() {
            match op {
                TraceOp::Load { len, .. } => {
                    p.0 += 1;
                    p.2 += len as u64;
                }
                TraceOp::Store { len, .. } => {
                    p.1 += 1;
                    p.3 += len as u64;
                }
                TraceOp::Compute(_) => {}
            }
        }
        p
    }

    /// The trace with DSP intrinsics *removed*: §VI's ported Polybench
    /// embeds multi-way multiply/add and 16-bit integer intrinsics that
    /// "merge multiple multiply and accumulation operations into one";
    /// the scalarized variant issues those operations individually (the
    /// un-optimized port), roughly tripling `.M`-class issue pressure.
    /// Used by the intrinsics ablation bench.
    pub fn scalarized(&self) -> Trace {
        self.iter()
            .map(|op| match op {
                TraceOp::Compute(b) => TraceOp::Compute(InstrBlock {
                    m: b.m * 3,
                    l: b.l,
                    s: b.s + b.m, // extra move/accumulate glue
                    d: b.d,
                }),
                other => other,
            })
            .collect()
    }

    /// The distinct store target addresses, word-aligned — exactly what
    /// the server announces to the PRAM controller for selective erasing.
    pub fn store_targets(&self, word_bytes: u64) -> Vec<u64> {
        let mut set = std::collections::BTreeSet::new();
        for op in self.iter() {
            if let TraceOp::Store { addr, len } = op {
                let first = addr / word_bytes;
                let last = (addr + len as u64 - 1) / word_bytes;
                for w in first..=last {
                    set.insert(w * word_bytes);
                }
            }
        }
        set.into_iter().collect()
    }
}

/// Decoding iterator over a packed [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceIter<'t> {
    bytes: &'t [u8],
    pos: usize,
    remaining: usize,
    tail: Option<InstrBlock>,
    last_addr: u64,
    last_len: u32,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        if self.remaining == 0 {
            return self.tail.take().map(TraceOp::Compute);
        }
        self.remaining -= 1;
        let tag = self.bytes[self.pos];
        self.pos += 1;
        if tag == TAG_COMPUTE {
            let m = get_varint(self.bytes, &mut self.pos);
            let l = get_varint(self.bytes, &mut self.pos);
            let s = get_varint(self.bytes, &mut self.pos);
            let d = get_varint(self.bytes, &mut self.pos);
            return Some(TraceOp::Compute(InstrBlock { m, l, s, d }));
        }
        let delta = unzigzag(get_varint(self.bytes, &mut self.pos));
        let addr = self.last_addr.wrapping_add(delta as u64);
        self.last_addr = addr;
        if tag == TAG_LOAD_LEN || tag == TAG_STORE_LEN {
            self.last_len = get_varint(self.bytes, &mut self.pos) as u32;
        }
        let len = self.last_len;
        Some(match tag {
            TAG_LOAD | TAG_LOAD_LEN => TraceOp::Load { addr, len },
            TAG_STORE | TAG_STORE_LEN => TraceOp::Store { addr, len },
            other => unreachable!("corrupt trace stream: tag {other}"),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining + usize::from(self.tail.is_some());
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

impl<'t> IntoIterator for &'t Trace {
    type Item = TraceOp;
    type IntoIter = TraceIter<'t>;

    fn into_iter(self) -> TraceIter<'t> {
        self.iter()
    }
}

impl FromIterator<TraceOp> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Self {
        let mut t = Trace::new();
        for op in iter {
            match op {
                TraceOp::Compute(b) => t.compute(b),
                TraceOp::Load { addr, len } => t.load(addr, len),
                TraceOp::Store { addr, len } => t.store(addr, len),
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::json::{FromJson, ToJson};

    #[test]
    fn memoized_fingerprint_follows_every_change() {
        // The memo is the content fingerprint: after each of `compute`,
        // `load` and `store` it matches a fresh trace of the same ops,
        // whether the memo was filled before the change or not, and a
        // clone carries a memo that is still its own content's.
        let mut t = Trace::new();
        let mut ops = Vec::new();
        let fresh = |ops: &[TraceOp]| ops.iter().copied().collect::<Trace>().content_fingerprint();
        for (i, op) in [
            TraceOp::Compute(InstrBlock::alu(4)),
            TraceOp::Load { addr: 64, len: 8 },
            TraceOp::Compute(InstrBlock::alu(2)),
            TraceOp::Compute(InstrBlock::mac(1, 1)),
            TraceOp::Store { addr: 32, len: 8 },
        ]
        .into_iter()
        .enumerate()
        {
            if i % 2 == 0 {
                t.fingerprint();
            }
            match op {
                TraceOp::Compute(b) => t.compute(b),
                TraceOp::Load { addr, len } => t.load(addr, len),
                TraceOp::Store { addr, len } => t.store(addr, len),
            }
            ops.push(op);
            assert_eq!(t.fingerprint(), fresh(&ops), "after op {i}");
            let mut c = t.clone();
            assert_eq!(c, t);
            c.load(0, 4);
            assert_ne!(c.fingerprint(), t.fingerprint());
            assert_eq!(t.fingerprint(), fresh(&ops));
        }
    }

    #[test]
    fn instr_block_cycles_parallel_issue() {
        // 8 instructions spread over all classes issue in one cycle.
        let b = InstrBlock {
            m: 2,
            l: 2,
            s: 2,
            d: 2,
        };
        assert_eq!(b.cycles(), 1);
        // 8 multiplies alone need 4 cycles (two .M units).
        let b = InstrBlock {
            m: 8,
            ..Default::default()
        };
        assert_eq!(b.cycles(), 4);
        // Empty block: zero cycles.
        assert_eq!(InstrBlock::default().cycles(), 0);
        // One instruction: one cycle.
        assert_eq!(
            InstrBlock {
                l: 1,
                ..Default::default()
            }
            .cycles(),
            1
        );
    }

    #[test]
    fn compute_blocks_coalesce() {
        let mut t = Trace::new();
        t.compute(InstrBlock::alu(4));
        t.compute(InstrBlock::alu(4));
        assert_eq!(t.len(), 1);
        t.load(0, 8);
        t.compute(InstrBlock::alu(2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.instructions(), 11);
    }

    #[test]
    fn memory_profile_counts() {
        let mut t = Trace::new();
        t.load(0, 8);
        t.load(64, 8);
        t.store(128, 4);
        let (l, s, bl, bs) = t.memory_profile();
        assert_eq!((l, s, bl, bs), (2, 1, 16, 4));
    }

    #[test]
    fn packed_stream_round_trips_every_op_shape() {
        // Backward deltas, repeated lengths, length changes, interleaved
        // compute blocks — decode must reproduce the exact sequence.
        let mut t = Trace::new();
        t.compute(InstrBlock::mac(7, 3));
        t.load(1 << 40, 8);
        t.load(64, 8); // huge backward delta, same len
        t.store(65, 4); // +1 delta, new len
        t.store(65, 4); // zero delta, same len
        t.compute(InstrBlock::alu(5));
        t.load(0, 1);
        t.compute(InstrBlock::alu(1)); // trailing unencoded block
        let ops: Vec<TraceOp> = t.iter().collect();
        assert_eq!(
            ops,
            vec![
                TraceOp::Compute(InstrBlock::mac(7, 3)),
                TraceOp::Load {
                    addr: 1 << 40,
                    len: 8
                },
                TraceOp::Load { addr: 64, len: 8 },
                TraceOp::Store { addr: 65, len: 4 },
                TraceOp::Store { addr: 65, len: 4 },
                TraceOp::Compute(InstrBlock::alu(5)),
                TraceOp::Load { addr: 0, len: 1 },
                TraceOp::Compute(InstrBlock::alu(1)),
            ]
        );
        assert_eq!(t.len(), ops.len());
        assert_eq!(t.iter().len(), ops.len());
        // Rebuilding from the decoded ops is representation-identical.
        let rebuilt: Trace = ops.into_iter().collect();
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn packed_storage_is_compact() {
        // A realistic stride-8 stream must pack far below 24 B/op.
        let mut t = Trace::new();
        for i in 0..10_000u64 {
            t.load(i * 8, 8);
            t.compute(InstrBlock::alu(4));
        }
        assert!(
            t.packed_bytes() < t.len() * 8,
            "{} bytes for {} ops",
            t.packed_bytes(),
            t.len()
        );
    }

    #[test]
    fn trace_json_layout_is_the_ops_array() {
        let mut t = Trace::new();
        t.compute(InstrBlock::alu(2));
        t.load(8, 8);
        let text = t.to_json_pretty();
        assert!(text.contains("\"ops\""));
        assert!(text.contains("\"Compute\""));
        assert!(text.contains("\"Load\""));
        let back = Trace::from_json_str(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn store_targets_are_word_aligned_and_deduped() {
        let mut t = Trace::new();
        t.store(100, 8); // word 3 (96..128)
        t.store(104, 8); // word 3 again
        t.store(30, 8); // words 0 and 1
        let targets = t.store_targets(32);
        assert_eq!(targets, vec![0, 32, 96]);
    }

    #[test]
    fn scalarized_traces_need_more_cycles() {
        let mut t = Trace::new();
        t.compute(InstrBlock {
            m: 8,
            l: 2,
            s: 2,
            d: 2,
        });
        t.load(0, 8);
        let s = t.scalarized();
        let cycles = |tr: &Trace| -> u64 {
            tr.iter()
                .map(|op| match op {
                    TraceOp::Compute(b) => b.cycles(),
                    _ => 0,
                })
                .sum()
        };
        assert!(cycles(&s) > cycles(&t));
        // Memory behaviour is untouched.
        assert_eq!(s.memory_profile(), t.memory_profile());
    }

    #[test]
    fn zero_compute_blocks_dropped() {
        let mut t = Trace::new();
        t.compute(InstrBlock::default());
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero-length load")]
    fn zero_load_rejected() {
        Trace::new().load(0, 0);
    }
}
