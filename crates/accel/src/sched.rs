//! Timing-free memory schedules: the front half of both fidelity tiers.
//!
//! A key structural fact of the execution model ([`crate::exec`]): each
//! agent's L1/L2 are private and the replacement state advances only on
//! that agent's own op stream — never on timing, never on the backend.
//! So the *sequence* of backend requests an agent will make (which line
//! fills, how many write-backs, where the hits land) is a pure function
//! of `(trace, cache geometry)`. [`MemSchedule::build`] performs the
//! exact cache walk a per-op trace execution would — including the
//! end-of-kernel flush — without a clock or a backend, and records the
//! per-agent counts plus the ordered request stream. Unit tests hold it
//! to the per-op trace walker kept as a test reference in
//! `crate::exec`.
//!
//! The accurate tier replays this schedule through the real backend
//! ([`crate::exec::Accelerator::run_schedule_at`]); the analytic tier
//! (`dramless::analytic`) prices it with calibrated closed-form
//! coefficients instead of simulating every request. Because the
//! schedule is system-independent, both reuse one schedule across every
//! system of a sweep row.
//!
//! A schedule stores only what the replay reads. Kernel loops repeat a
//! handful of compute blocks and hit patterns, so each agent keeps a
//! table of its distinct step words (its *classes*) and one class id per
//! op — a byte while the agent has at most 256 classes. Event words are
//! stored only for ops that issue backend requests, plus the completion
//! flush: an op served by one hit run carries the run in its step word.
//! The request stream ([`AgentSchedule::ops`]) is read back from the
//! stored fill and write-back words.

use crate::cache::{Cache, CacheConfig, CacheLevelStats};
use crate::trace::{Trace, TraceOp};
use util::fxhash::FxHashMap;

/// One backend request in an agent's issue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendOp {
    /// An L2 line fill (backend read) at this line-aligned address.
    Fill(u64),
    /// A write-back posted through the MCU write queue at this
    /// line-aligned address (L2 evictions plus the end-of-kernel flush).
    Writeback(u64),
}

/// One decoded word of an agent's replay program — one trace op.
///
/// The schedule-driven executor ([`crate::exec::Accelerator::run_schedule_at`])
/// walks these instead of re-decoding the trace and re-simulating the
/// caches on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStep {
    /// A compute block: issue cycles and retired instructions.
    Compute {
        /// Issue cycles the block occupies.
        cycles: u64,
        /// Instructions the block retires.
        instrs: u64,
    },
    /// A memory op (load or store) consuming the next `events` stored
    /// words of the agent's event stream.
    Mem {
        /// Whether the op is a store (loads otherwise).
        store: bool,
        /// Event-stream words this op consumes.
        events: u64,
    },
    /// A memory op served by a single run of cache hits, decoded from
    /// the step word itself. The schedule stores no event word for it.
    HitRun {
        /// Whether the op is a store (loads otherwise).
        store: bool,
        /// L1 hits in the run.
        l1: u64,
        /// Fill-path L2 hits in the run.
        l2: u64,
    },
}

/// One decoded word of an agent's event stream: what happens, in order,
/// inside one memory op (or the completion flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEvent {
    /// A run of cache hits between backend requests: `l1` L1 hits plus
    /// `l2` fill-path L2 hits. Hits are pure time advances, so a run
    /// collapses to one word — the order of individual hits inside a run
    /// does not affect timing (integer picosecond adds commute).
    Hits {
        /// L1 hits in the run.
        l1: u64,
        /// Fill-path L2 hits in the run.
        l2: u64,
    },
    /// A blocking L2 line fill at this line-aligned address.
    Fill(u64),
    /// A posted write-back at this line-aligned address.
    Writeback(u64),
}

// Packed word layout (one `u64` per step class / event). Tag in bits[0:2].
const TAG_COMPUTE: u64 = 0; // cycles in bits[2:33], instrs in bits[33:64]
const TAG_LOAD: u64 = 1; // see MEM_HIT_RUN
const TAG_STORE: u64 = 2; // see MEM_HIT_RUN
const TAG_COMPUTE_BIG: u64 = 3; // index into `big` in bits[2:64]
const TAG_HITS: u64 = 0; // l1 count in bits[2:33], l2 count in bits[33:64]
const TAG_FILL: u64 = 1; // address in bits[2:64]
const TAG_WB: u64 = 2; // address in bits[2:64]
const TAG_FAR: u64 = 3; // write-back flag in bit 2, index into `far` in bits[3:64]
const HALF_BITS: u64 = 31;
const HALF_MASK: u64 = (1 << HALF_BITS) - 1;
// Load/store step flag in bit 2. Set: the op is one hit run, l1 count in
// bits[3:33], l2 count in bits[33:63]. Clear: event-word count in
// bits[3:64].
const MEM_HIT_RUN: u64 = 1 << 2;
const RUN_BITS: u64 = 30;
const RUN_MASK: u64 = (1 << RUN_BITS) - 1;

#[inline]
fn pack2(tag: u64, lo: u64, hi: u64) -> Option<u64> {
    (lo <= HALF_MASK && hi <= HALF_MASK).then_some(tag | (lo << 2) | (hi << (2 + HALF_BITS)))
}

/// An agent's step stream: one class id per op, a byte each while the
/// agent has at most 256 classes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ClassIds {
    Narrow(Vec<u8>),
    Wide(Vec<u32>),
}

impl Default for ClassIds {
    fn default() -> Self {
        ClassIds::Narrow(Vec::new())
    }
}

impl ClassIds {
    fn len(&self) -> usize {
        match self {
            ClassIds::Narrow(ids) => ids.len(),
            ClassIds::Wide(ids) => ids.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            ClassIds::Narrow(ids) => ids[i] as usize,
            ClassIds::Wide(ids) => ids[i] as usize,
        }
    }

    fn push(&mut self, id: usize) {
        match self {
            ClassIds::Narrow(ids) => match u8::try_from(id) {
                Ok(id) => ids.push(id),
                Err(_) => {
                    let mut wide: Vec<u32> = ids.iter().map(|&id| id.into()).collect();
                    wide.push(u32::try_from(id).expect("class ids fit 32 bits"));
                    *self = ClassIds::Wide(wide);
                }
            },
            ClassIds::Wide(ids) => ids.push(u32::try_from(id).expect("class ids fit 32 bits")),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            ClassIds::Narrow(ids) => ids.shrink_to_fit(),
            ClassIds::Wide(ids) => ids.shrink_to_fit(),
        }
    }
}

/// The backend-facing behaviour of one agent's kernel, exactly as the
/// accurate engine would produce it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentSchedule {
    /// Instructions retired (compute totals + one per memory op).
    pub instructions: u64,
    /// Issue cycles of all compute blocks.
    pub compute_cycles: u64,
    /// Memory ops that are loads.
    pub loads: u64,
    /// Memory ops that are stores.
    pub stores: u64,
    /// L1 line lookups that hit (each costs `l1_hit_cycles`).
    pub l1_hits: u64,
    /// Fill-path L2 lookups that hit (each costs `l2_hit_cycles`; L2
    /// hits on the L1-victim write-back path are free in the engine).
    pub l2_hits: u64,
    /// Exact L1 counters the accurate engine would report.
    pub l1_stats: CacheLevelStats,
    /// Exact L2 counters the accurate engine would report.
    pub l2_stats: CacheLevelStats,
    /// The agent's distinct packed step words, in first-use order
    /// (decode with [`AgentSchedule::class`]).
    classes: Vec<u64>,
    /// The replay program: one class id per trace op.
    steps: ClassIds,
    /// Packed event words of the ops that issue backend requests, then
    /// the completion flush (decode with [`AgentSchedule::event`]); each
    /// `Mem` step consumes the next `events` words, a `HitRun` step none.
    events: Vec<u64>,
    /// Overflow storage for compute blocks whose cycles/instrs exceed the
    /// packed 31-bit fields.
    big: Vec<(u64, u64)>,
    /// Overflow storage for request addresses that exceed the packed
    /// 62-bit field (addresses at or above 2^62).
    far: Vec<u64>,
    /// Index into `events` where the completion-flush section starts
    /// (fills and write-backs issued after the last trace op).
    flush_start: usize,
    /// Fill words in `events`, counted as they are stored.
    fill_requests: u64,
    /// Write-back words in `events`, counted as they are stored.
    writeback_requests: u64,
    /// `Trace::store_targets(32)` memoized — the engine's per-run
    /// announce-overwrites payload.
    pub store_targets: Vec<u64>,
}

impl AgentSchedule {
    /// Number of replay steps (= trace ops).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Decodes replay step `i`.
    pub fn step(&self, i: usize) -> ReplayStep {
        self.class(self.class_id(i))
    }

    /// The class id of replay step `i`: an index below
    /// [`AgentSchedule::class_count`].
    #[inline]
    pub(crate) fn class_id(&self, i: usize) -> usize {
        self.steps.get(i)
    }

    /// Number of distinct replay steps.
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Bytes each replay step stores: 1 while the agent has at most 256
    /// classes, 4 otherwise.
    pub fn bytes_per_step(&self) -> usize {
        match self.steps {
            ClassIds::Narrow(_) => 1,
            ClassIds::Wide(_) => 4,
        }
    }

    /// Decodes step class `c`.
    pub(crate) fn class(&self, c: usize) -> ReplayStep {
        let w = self.classes[c];
        match w & 3 {
            TAG_COMPUTE => ReplayStep::Compute {
                cycles: (w >> 2) & HALF_MASK,
                instrs: w >> (2 + HALF_BITS),
            },
            tag @ (TAG_LOAD | TAG_STORE) => {
                let store = tag == TAG_STORE;
                if w & MEM_HIT_RUN != 0 {
                    ReplayStep::HitRun {
                        store,
                        l1: (w >> 3) & RUN_MASK,
                        l2: w >> (3 + RUN_BITS),
                    }
                } else {
                    ReplayStep::Mem {
                        store,
                        events: w >> 3,
                    }
                }
            }
            _ => {
                let (cycles, instrs) = self.big[(w >> 2) as usize];
                ReplayStep::Compute { cycles, instrs }
            }
        }
    }

    /// Decodes stored event word `i`.
    #[inline]
    pub fn event(&self, i: usize) -> ReplayEvent {
        self.decode_event(self.events[i])
    }

    #[inline]
    fn decode_event(&self, w: u64) -> ReplayEvent {
        match w & 3 {
            TAG_HITS => ReplayEvent::Hits {
                l1: (w >> 2) & HALF_MASK,
                l2: w >> (2 + HALF_BITS),
            },
            TAG_FILL => ReplayEvent::Fill(w >> 2),
            TAG_WB => ReplayEvent::Writeback(w >> 2),
            _ => {
                let addr = self.far[(w >> 3) as usize];
                if w & 4 != 0 {
                    ReplayEvent::Writeback(addr)
                } else {
                    ReplayEvent::Fill(addr)
                }
            }
        }
    }

    /// Where the completion-flush section of the stored event words
    /// begins.
    pub fn flush_start(&self) -> usize {
        self.flush_start
    }

    /// Stored event words (flush section included).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Backend requests with addresses, in issue order — what buffered
    /// backends' page-cache behaviour (hits, misses, dirty evictions) is
    /// replayed from.
    pub fn ops(&self) -> impl Iterator<Item = BackendOp> + '_ {
        self.events
            .iter()
            .filter_map(|&w| match self.decode_event(w) {
                ReplayEvent::Fill(addr) => Some(BackendOp::Fill(addr)),
                ReplayEvent::Writeback(addr) => Some(BackendOp::Writeback(addr)),
                ReplayEvent::Hits { .. } => None,
            })
    }

    /// Backend reads (L2 line fills) this agent issues.
    pub fn fill_count(&self) -> u64 {
        self.fill_requests
    }

    /// Backend write-backs this agent posts.
    pub fn writeback_count(&self) -> u64 {
        self.writeback_requests
    }

    /// The fill addresses in issue order.
    pub fn fills(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops().filter_map(|op| match op {
            BackendOp::Fill(addr) => Some(addr),
            BackendOp::Writeback(_) => None,
        })
    }
}

/// Assembles one [`AgentSchedule`] during the cache walk.
#[derive(Default)]
struct AgentBuilder {
    s: AgentSchedule,
    /// Step word → class id.
    class_ids: FxHashMap<u64, usize>,
}

impl AgentBuilder {
    fn push_step(&mut self, word: u64) {
        let next = self.s.classes.len();
        let id = *self.class_ids.entry(word).or_insert(next);
        if id == next {
            self.s.classes.push(word);
        }
        self.s.steps.push(id);
    }

    fn push_compute(&mut self, cycles: u64, instrs: u64) {
        let w = pack2(TAG_COMPUTE, cycles, instrs).unwrap_or_else(|| {
            self.s.big.push((cycles, instrs));
            TAG_COMPUTE_BIG | ((self.s.big.len() - 1) as u64) << 2
        });
        self.push_step(w);
    }

    /// Closes a memory op whose event words start at `first_event`. An
    /// op that is a single hit run carries the run in its step word and
    /// drops its event word.
    fn push_mem(&mut self, store: bool, first_event: usize) {
        let tag = if store { TAG_STORE } else { TAG_LOAD };
        let hit_run = match self.s.events[first_event..] {
            [w] if w & 3 == TAG_HITS => {
                let (l1, l2) = ((w >> 2) & HALF_MASK, w >> (2 + HALF_BITS));
                (l1 <= RUN_MASK && l2 <= RUN_MASK)
                    .then_some(tag | MEM_HIT_RUN | l1 << 3 | l2 << (3 + RUN_BITS))
            }
            _ => None,
        };
        let w = match hit_run {
            Some(w) => {
                self.s.events.truncate(first_event);
                w
            }
            None => tag | ((self.s.events.len() - first_event) as u64) << 3,
        };
        self.push_step(w);
    }

    fn push_hits(&mut self, l1: u64, l2: u64) {
        if l1 == 0 && l2 == 0 {
            return;
        }
        let mut l1 = l1;
        let mut l2 = l2;
        // A single op can touch more lines than fit one packed run;
        // split (runs are additive, so the split is timing-neutral).
        while l1 > HALF_MASK || l2 > HALF_MASK {
            let c1 = l1.min(HALF_MASK);
            let c2 = l2.min(HALF_MASK);
            self.s
                .events
                .push(pack2(TAG_HITS, c1, c2).expect("clamped"));
            l1 -= c1;
            l2 -= c2;
        }
        if l1 > 0 || l2 > 0 {
            self.s
                .events
                .push(pack2(TAG_HITS, l1, l2).expect("clamped"));
        }
    }

    fn push_request(&mut self, op: BackendOp) {
        let (tag, addr) = match op {
            BackendOp::Fill(addr) => {
                self.s.fill_requests += 1;
                (TAG_FILL, addr)
            }
            BackendOp::Writeback(addr) => {
                self.s.writeback_requests += 1;
                (TAG_WB, addr)
            }
        };
        let w = if addr < 1 << 62 {
            tag | addr << 2
        } else {
            self.s.far.push(addr);
            TAG_FAR | u64::from(tag == TAG_WB) << 2 | ((self.s.far.len() - 1) as u64) << 3
        };
        self.s.events.push(w);
    }

    fn finish(mut self) -> AgentSchedule {
        self.s.steps.shrink_to_fit();
        self.s.events.shrink_to_fit();
        self.s
    }
}

/// Per-agent [`AgentSchedule`]s for one `(traces, cache geometry)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSchedule {
    /// One schedule per trace, in agent order.
    pub agents: Vec<AgentSchedule>,
    /// L2 line size — the transfer unit of every fill and write-back.
    pub l2_line: u32,
    /// L1 geometry the schedule was derived under.
    pub l1: CacheConfig,
    /// L2 geometry the schedule was derived under.
    pub l2: CacheConfig,
}

impl MemSchedule {
    /// Replays `traces` through private L1/L2 pairs, mirroring the
    /// per-op trace walker's cache walk (write-allocate, write-back LRU,
    /// then the completion flush) with no clock and no backend.
    pub fn build(traces: &[Trace], l1: CacheConfig, l2: CacheConfig) -> Self {
        let agents = traces
            .iter()
            .map(|trace| replay_agent(trace, l1, l2))
            .collect();
        MemSchedule {
            agents,
            l2_line: l2.line,
            l1,
            l2,
        }
    }

    /// Instructions across agents.
    pub fn instructions(&self) -> u64 {
        self.agents.iter().map(|a| a.instructions).sum()
    }

    /// Backend fills across agents.
    pub fn fills(&self) -> u64 {
        self.agents.iter().map(|a| a.fill_count()).sum()
    }

    /// Backend write-backs across agents.
    pub fn writebacks(&self) -> u64 {
        self.agents.iter().map(|a| a.writeback_count()).sum()
    }

    /// Bytes the backend would deliver (fills × line).
    pub fn bytes_from_mem(&self) -> u64 {
        self.fills() * self.l2_line as u64
    }

    /// Bytes the backend would absorb (write-backs × line).
    pub fn bytes_to_mem(&self) -> u64 {
        self.writebacks() * self.l2_line as u64
    }
}

fn replay_agent(trace: &Trace, l1_cfg: CacheConfig, l2_cfg: CacheConfig) -> AgentSchedule {
    let mut l1 = Cache::new(l1_cfg);
    let mut l2 = Cache::new(l2_cfg);
    let mut b = AgentBuilder::default();
    let line_bytes = l1_cfg.line as u64;
    // Pending hit run (L1 + fill-path L2 hits) since the last backend
    // event of the current memory op.
    let mut run_l1 = 0u64;
    let mut run_l2 = 0u64;
    for op in trace.iter() {
        match op {
            TraceOp::Compute(block) => {
                b.s.instructions += block.total();
                b.s.compute_cycles += block.cycles();
                b.push_compute(block.cycles(), block.total());
            }
            TraceOp::Load { addr, len } | TraceOp::Store { addr, len } => {
                let is_store = matches!(op, TraceOp::Store { .. });
                b.s.instructions += 1;
                if is_store {
                    b.s.stores += 1;
                } else {
                    b.s.loads += 1;
                }
                let events_before = b.s.events.len();
                let first = addr / line_bytes;
                let last = (addr + len.max(1) as u64 - 1) / line_bytes;
                for line in (first..=last).map(|l| l * line_bytes) {
                    let l1_out = l1.access(line, is_store);
                    if l1_out.hit {
                        b.s.l1_hits += 1;
                        run_l1 += 1;
                        continue;
                    }
                    if let Some(wb) = l1_out.writeback {
                        let out = l2.access(wb, true);
                        if let Some(fill) = out.fill {
                            b.push_hits(run_l1, run_l2);
                            (run_l1, run_l2) = (0, 0);
                            b.push_request(BackendOp::Fill(fill));
                        }
                        if let Some(l2wb) = out.writeback {
                            b.push_hits(run_l1, run_l2);
                            (run_l1, run_l2) = (0, 0);
                            b.push_request(BackendOp::Writeback(l2wb));
                        }
                    }
                    let out = l2.access(line, false);
                    if out.hit {
                        b.s.l2_hits += 1;
                        run_l2 += 1;
                    } else {
                        if let Some(l2wb) = out.writeback {
                            b.push_hits(run_l1, run_l2);
                            (run_l1, run_l2) = (0, 0);
                            b.push_request(BackendOp::Writeback(l2wb));
                        }
                        let fill = out.fill.expect("miss always fills");
                        b.push_hits(run_l1, run_l2);
                        (run_l1, run_l2) = (0, 0);
                        b.push_request(BackendOp::Fill(fill));
                    }
                }
                // Trailing hits stay inside this op's event window — an
                // op boundary is a timing boundary (per-op stall energy,
                // arbitration bound check).
                b.push_hits(run_l1, run_l2);
                (run_l1, run_l2) = (0, 0);
                b.push_mem(is_store, events_before);
            }
        }
    }
    // Completion flush: L1 dirty lines land in L2 (possibly filling or
    // evicting), then L2 dirty lines go to memory. No hit costs here —
    // the engine's flush only issues backend requests.
    b.s.flush_start = b.s.events.len();
    for addr in l1.flush() {
        let out = l2.access(addr, true);
        if let Some(fill) = out.fill {
            b.push_request(BackendOp::Fill(fill));
        }
        if let Some(l2wb) = out.writeback {
            b.push_request(BackendOp::Writeback(l2wb));
        }
    }
    for addr in l2.flush() {
        b.push_request(BackendOp::Writeback(addr));
    }
    b.s.l1_stats = *l1.stats();
    b.s.l2_stats = *l2.stats();
    b.s.store_targets = trace.store_targets(32);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{walker, AccelConfig, Accelerator};
    use crate::trace::InstrBlock;
    use sim_core::energy::EnergyBook;
    use sim_core::mem::{Access, MemoryBackend};
    use sim_core::time::Picos;

    /// Logs requests while serving a fixed latency.
    struct CountingMem {
        reads: Vec<u64>,
        writes: u64,
        ops: Vec<BackendOp>,
    }

    impl CountingMem {
        fn new() -> Self {
            CountingMem {
                reads: Vec::new(),
                writes: 0,
                ops: Vec::new(),
            }
        }
    }

    impl MemoryBackend for CountingMem {
        fn read(&mut self, at: Picos, addr: u64, _len: u32) -> Access {
            self.reads.push(addr);
            self.ops.push(BackendOp::Fill(addr));
            Access {
                start: at,
                end: at + Picos::from_ns(120),
            }
        }
        fn write(&mut self, at: Picos, addr: u64, _len: u32) -> Access {
            self.writes += 1;
            self.ops.push(BackendOp::Writeback(addr));
            Access {
                start: at,
                end: at + Picos::from_ns(180),
            }
        }
        fn energy(&self) -> EnergyBook {
            EnergyBook::new()
        }
        fn label(&self) -> &'static str {
            "counting"
        }
    }

    fn mixed_traces(agents: usize) -> Vec<Trace> {
        (0..agents)
            .map(|a| {
                let mut t = Trace::new();
                for i in 0..400u64 {
                    let base = (a as u64) << 24;
                    t.load(base + (i % 97) * 40, 8);
                    t.compute(InstrBlock::mac(3, 2));
                    if i % 3 == 0 {
                        t.store(base + (i % 53) * 72, 8);
                    }
                }
                t
            })
            .collect()
    }

    /// The walker's request stream for a single-agent trace.
    fn walker_ops(trace: &Trace) -> Vec<BackendOp> {
        let mut mem = CountingMem::new();
        let accel = Accelerator::new(AccelConfig::default());
        walker::run_at(&accel, Picos::ZERO, std::slice::from_ref(trace), &mut mem);
        mem.ops
    }

    #[test]
    fn schedule_matches_engine_counts_exactly() {
        // The schedule must agree with the per-op trace walker on every
        // count the analytic tier consumes: fills (addresses AND order
        // per agent), write-backs, cache stats, instructions.
        let cfg = AccelConfig::default();
        let traces = mixed_traces(3);
        let sched = MemSchedule::build(&traces, cfg.l1, cfg.l2);

        let mut mem = CountingMem::new();
        let report = walker::run_at(&Accelerator::new(cfg), Picos::ZERO, &traces, &mut mem);

        assert_eq!(sched.instructions(), report.instructions);
        assert_eq!(sched.fills(), mem.reads.len() as u64);
        assert_eq!(sched.writebacks(), mem.writes);
        assert_eq!(sched.bytes_from_mem(), report.bytes_from_mem);
        assert_eq!(sched.bytes_to_mem(), report.bytes_to_mem);
        let l1_hits: u64 = sched.agents.iter().map(|a| a.l1_stats.hits).sum();
        let l1_misses: u64 = sched.agents.iter().map(|a| a.l1_stats.misses).sum();
        let l2_hits: u64 = sched.agents.iter().map(|a| a.l2_stats.hits).sum();
        assert_eq!(l1_hits, report.l1.hits);
        assert_eq!(l1_misses, report.l1.misses);
        assert_eq!(l2_hits, report.l2.hits);
        for (i, a) in sched.agents.iter().enumerate() {
            assert_eq!(a.loads, report.pe_stats[i].loads, "agent {i}");
            assert_eq!(a.stores, report.pe_stats[i].stores, "agent {i}");
            assert_eq!(a.compute_cycles, report.pe_stats[i].compute_cycles);
        }
        // Single-agent run: the walker's full request stream — fills and
        // write-backs, interleaved with addresses — is the one `ops()`
        // reads back from the stored event words.
        let solo = mixed_traces(1);
        let sched1 = MemSchedule::build(&solo, cfg.l1, cfg.l2);
        let ops: Vec<BackendOp> = sched1.agents[0].ops().collect();
        assert_eq!(ops, walker_ops(&solo[0]));
    }

    #[test]
    fn addresses_past_62_bits_keep_every_bit() {
        // The packed event word holds 62 address bits; longer addresses
        // take the escape word and must come back whole, for fills and
        // for write-backs (the dirty line's flush).
        let mut t = Trace::new();
        t.load((1 << 62) | 4096, 8);
        t.store((1 << 63) | 8192, 8);
        t.load(u64::MAX - 1023, 8);
        t.load(4096, 8);
        let cfg = AccelConfig::default();
        let s = MemSchedule::build(std::slice::from_ref(&t), cfg.l1, cfg.l2);
        let ops: Vec<BackendOp> = s.agents[0].ops().collect();
        assert!(ops.contains(&BackendOp::Fill((1 << 62) | 4096)));
        assert!(ops.contains(&BackendOp::Writeback((1 << 63) | 8192)));
        assert_eq!(ops, walker_ops(&t));
        let fills = ops.iter().filter(|op| matches!(op, BackendOp::Fill(_)));
        assert_eq!(s.fills(), fills.count() as u64);
        assert_eq!(s.fills() + s.writebacks(), ops.len() as u64);
    }

    #[test]
    fn schedule_is_backend_independent() {
        // Same traces, same geometry — bit-identical schedule regardless
        // of anything else (this is what makes cross-system reuse sound).
        let cfg = AccelConfig::default();
        let traces = mixed_traces(2);
        let a = MemSchedule::build(&traces, cfg.l1, cfg.l2);
        let b = MemSchedule::build(&traces, cfg.l1, cfg.l2);
        assert_eq!(a, b);
    }

    #[test]
    fn single_hit_run_ops_carry_the_run_in_the_step_word() {
        let mut t = Trace::new();
        t.load(0, 8); // L1 + L2 miss: a fill
        t.store(8, 8); // same L1 line: one L1 hit
        t.load(0, 200); // four L1 lines in the filled L2 line: 1 + 3 hits
        t.load(0, 400); // seven L1 lines: hits, a fill at 256, hits
        let s = MemSchedule::build(
            std::slice::from_ref(&t),
            CacheConfig::l1(),
            CacheConfig::l2(),
        );
        let a = &s.agents[0];
        assert!(matches!(a.step(0), ReplayStep::Mem { store: false, .. }));
        assert_eq!(
            a.step(1),
            ReplayStep::HitRun {
                store: true,
                l1: 1,
                l2: 0
            }
        );
        assert_eq!(
            a.step(2),
            ReplayStep::HitRun {
                store: false,
                l1: 1,
                l2: 3
            }
        );
        assert!(matches!(
            a.step(3),
            ReplayStep::Mem {
                store: false,
                events: 3
            }
        ));
        // Only the two request-issuing ops store event words.
        assert_eq!(a.flush_start(), 1 + 3);
        // A replay reads only the two ops' stored words, so it issues
        // the walker's request stream exactly.
        let accel = Accelerator::new(AccelConfig::default());
        let mut mem = CountingMem::new();
        accel.run_schedule_at(Picos::ZERO, &s, &mut mem);
        assert_eq!(mem.ops, walker_ops(&t));
    }

    #[test]
    fn pure_compute_schedule_has_no_memory() {
        let mut t = Trace::new();
        t.compute(InstrBlock::alu(100));
        let s = MemSchedule::build(&[t], CacheConfig::l1(), CacheConfig::l2());
        assert_eq!(s.fills(), 0);
        assert_eq!(s.writebacks(), 0);
        assert_eq!(s.instructions(), 100);
    }
}
