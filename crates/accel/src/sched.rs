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
//! per-agent counts plus the ordered fill addresses. Unit tests hold it
//! to the per-op trace walker kept as a test reference in
//! `crate::exec`.
//!
//! The accurate tier replays this schedule through the real backend
//! ([`crate::exec::Accelerator::run_schedule_at`]); the analytic tier
//! ([`dramless::analytic`]) prices it with calibrated closed-form
//! coefficients instead of simulating every request. Because the
//! schedule is system-independent, both reuse one schedule across every
//! system of a sweep row.
//!
//! [`dramless::analytic`]: https://docs.rs/dramless

use crate::cache::{Cache, CacheConfig, CacheLevelStats};
use crate::trace::{Trace, TraceOp};

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
    /// A memory op (load or store) consuming the next `events` words of
    /// the agent's event stream.
    Mem {
        /// Whether the op is a store (loads otherwise).
        store: bool,
        /// Event-stream words this op consumes.
        events: u64,
    },
    /// A memory op served by a single run of cache hits, decoded from
    /// the step word itself. It still owns one event-stream word (the
    /// same [`ReplayEvent::Hits`]), so the executor steps past it
    /// without reading it.
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

// Packed word layout (one `u64` per step / event). Tag in bits[0:2].
const TAG_COMPUTE: u64 = 0; // cycles in bits[2:33], instrs in bits[33:64]
const TAG_LOAD: u64 = 1; // see MEM_HIT_RUN
const TAG_STORE: u64 = 2; // see MEM_HIT_RUN
const TAG_COMPUTE_BIG: u64 = 3; // index into `big` in bits[2:64]
const TAG_HITS: u64 = 0; // l1 count in bits[2:33], l2 count in bits[33:64]
const TAG_FILL: u64 = 1; // address in bits[2:64]
const TAG_WB: u64 = 2; // address in bits[2:64]
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

#[inline]
fn pack_addr(tag: u64, value: u64) -> u64 {
    debug_assert!(value < 1 << 62, "replay payload exceeds 62 bits");
    tag | (value << 2)
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
    /// Backend requests with addresses, in issue order — kept so
    /// buffered backends' page-cache behaviour (hits, misses, dirty
    /// evictions) can be replayed cheaply.
    pub ops: Vec<BackendOp>,
    /// Exact L1 counters the accurate engine would report.
    pub l1_stats: CacheLevelStats,
    /// Exact L2 counters the accurate engine would report.
    pub l2_stats: CacheLevelStats,
    /// Packed replay program: one word per trace op (decode with
    /// [`AgentSchedule::step`]).
    steps: Vec<u64>,
    /// Packed per-op event stream (decode with [`AgentSchedule::event`]);
    /// each `Mem` step consumes the next `events` words, each `HitRun`
    /// step one.
    events: Vec<u64>,
    /// Overflow storage for compute blocks whose cycles/instrs exceed the
    /// packed 31-bit fields.
    big: Vec<(u64, u64)>,
    /// Index into `events` where the completion-flush section starts
    /// (fills and write-backs issued after the last trace op).
    flush_start: usize,
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
    #[inline]
    pub fn step(&self, i: usize) -> ReplayStep {
        let w = self.steps[i];
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

    /// Decodes event-stream word `i`.
    #[inline]
    pub fn event(&self, i: usize) -> ReplayEvent {
        let w = self.events[i];
        match w & 3 {
            TAG_HITS => ReplayEvent::Hits {
                l1: (w >> 2) & HALF_MASK,
                l2: w >> (2 + HALF_BITS),
            },
            TAG_FILL => ReplayEvent::Fill(w >> 2),
            TAG_WB => ReplayEvent::Writeback(w >> 2),
            _ => unreachable!("unused event tag"),
        }
    }

    /// Where the completion-flush section of the event stream begins.
    pub fn flush_start(&self) -> usize {
        self.flush_start
    }

    /// Total event-stream words (flush section included).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    fn push_compute(&mut self, cycles: u64, instrs: u64) {
        let w = pack2(TAG_COMPUTE, cycles, instrs).unwrap_or_else(|| {
            self.big.push((cycles, instrs));
            pack_addr(TAG_COMPUTE_BIG, (self.big.len() - 1) as u64)
        });
        self.steps.push(w);
    }

    /// Closes a memory op whose event words start at `first_event`. An
    /// op that is a single hit run also carries the run in its step
    /// word (its event word stays, so event indices do not move).
    fn push_mem(&mut self, store: bool, first_event: usize) {
        let tag = if store { TAG_STORE } else { TAG_LOAD };
        let hit_run = match self.events[first_event..] {
            [w] if w & 3 == TAG_HITS => {
                let (l1, l2) = ((w >> 2) & HALF_MASK, w >> (2 + HALF_BITS));
                (l1 <= RUN_MASK && l2 <= RUN_MASK)
                    .then_some(tag | MEM_HIT_RUN | l1 << 3 | l2 << (3 + RUN_BITS))
            }
            _ => None,
        };
        let events = (self.events.len() - first_event) as u64;
        self.steps.push(hit_run.unwrap_or(tag | events << 3));
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
            self.events.push(pack2(TAG_HITS, c1, c2).expect("clamped"));
            l1 -= c1;
            l2 -= c2;
        }
        if l1 > 0 || l2 > 0 {
            self.events.push(pack2(TAG_HITS, l1, l2).expect("clamped"));
        }
    }
}

impl AgentSchedule {
    /// Backend reads (L2 line fills) this agent issues.
    pub fn fill_count(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, BackendOp::Fill(_)))
            .count() as u64
    }

    /// Backend write-backs this agent posts.
    pub fn writeback_count(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, BackendOp::Writeback(_)))
            .count() as u64
    }

    /// The fill addresses in issue order.
    pub fn fills(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.iter().filter_map(|op| match op {
            BackendOp::Fill(addr) => Some(*addr),
            BackendOp::Writeback(_) => None,
        })
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
    let mut s = AgentSchedule::default();
    let line_bytes = l1_cfg.line as u64;
    // Pending hit run (L1 + fill-path L2 hits) since the last backend
    // event of the current memory op.
    let mut run_l1 = 0u64;
    let mut run_l2 = 0u64;
    for op in trace.iter() {
        match op {
            TraceOp::Compute(block) => {
                s.instructions += block.total();
                s.compute_cycles += block.cycles();
                s.push_compute(block.cycles(), block.total());
            }
            TraceOp::Load { addr, len } | TraceOp::Store { addr, len } => {
                let is_store = matches!(op, TraceOp::Store { .. });
                s.instructions += 1;
                if is_store {
                    s.stores += 1;
                } else {
                    s.loads += 1;
                }
                let events_before = s.events.len();
                let first = addr / line_bytes;
                let last = (addr + len.max(1) as u64 - 1) / line_bytes;
                for line in (first..=last).map(|l| l * line_bytes) {
                    let l1_out = l1.access(line, is_store);
                    if l1_out.hit {
                        s.l1_hits += 1;
                        run_l1 += 1;
                        continue;
                    }
                    if let Some(wb) = l1_out.writeback {
                        let out = l2.access(wb, true);
                        if let Some(fill) = out.fill {
                            s.push_hits(run_l1, run_l2);
                            (run_l1, run_l2) = (0, 0);
                            s.ops.push(BackendOp::Fill(fill));
                            s.events.push(pack_addr(TAG_FILL, fill));
                        }
                        if let Some(l2wb) = out.writeback {
                            s.push_hits(run_l1, run_l2);
                            (run_l1, run_l2) = (0, 0);
                            s.ops.push(BackendOp::Writeback(l2wb));
                            s.events.push(pack_addr(TAG_WB, l2wb));
                        }
                    }
                    let out = l2.access(line, false);
                    if out.hit {
                        s.l2_hits += 1;
                        run_l2 += 1;
                    } else {
                        if let Some(l2wb) = out.writeback {
                            s.push_hits(run_l1, run_l2);
                            (run_l1, run_l2) = (0, 0);
                            s.ops.push(BackendOp::Writeback(l2wb));
                            s.events.push(pack_addr(TAG_WB, l2wb));
                        }
                        let fill = out.fill.expect("miss always fills");
                        s.push_hits(run_l1, run_l2);
                        (run_l1, run_l2) = (0, 0);
                        s.ops.push(BackendOp::Fill(fill));
                        s.events.push(pack_addr(TAG_FILL, fill));
                    }
                }
                // Trailing hits stay inside this op's event window — an
                // op boundary is a timing boundary (per-op stall energy,
                // arbitration bound check).
                s.push_hits(run_l1, run_l2);
                (run_l1, run_l2) = (0, 0);
                s.push_mem(is_store, events_before);
            }
        }
    }
    // Completion flush: L1 dirty lines land in L2 (possibly filling or
    // evicting), then L2 dirty lines go to memory. No hit costs here —
    // the engine's flush only issues backend requests.
    s.flush_start = s.events.len();
    for addr in l1.flush() {
        let out = l2.access(addr, true);
        if let Some(fill) = out.fill {
            s.ops.push(BackendOp::Fill(fill));
            s.events.push(pack_addr(TAG_FILL, fill));
        }
        if let Some(l2wb) = out.writeback {
            s.ops.push(BackendOp::Writeback(l2wb));
            s.events.push(pack_addr(TAG_WB, l2wb));
        }
    }
    for addr in l2.flush() {
        s.ops.push(BackendOp::Writeback(addr));
        s.events.push(pack_addr(TAG_WB, addr));
    }
    s.l1_stats = *l1.stats();
    s.l2_stats = *l2.stats();
    s.store_targets = trace.store_targets(32);
    s
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

    #[test]
    fn schedule_matches_engine_counts_exactly() {
        // The schedule must agree with the per-op trace walker on every
        // count the analytic tier consumes: fills (addresses AND order
        // per agent), write-backs, cache stats, instructions.
        let cfg = AccelConfig::default();
        let traces = mixed_traces(3);
        let sched = MemSchedule::build(&traces, cfg.l1, cfg.l2);

        let mut mem = CountingMem {
            reads: Vec::new(),
            writes: 0,
            ops: Vec::new(),
        };
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
        // write-backs, interleaved with addresses — is the schedule's.
        let solo = mixed_traces(1);
        let sched1 = MemSchedule::build(&solo, cfg.l1, cfg.l2);
        let mut mem1 = CountingMem {
            reads: Vec::new(),
            writes: 0,
            ops: Vec::new(),
        };
        walker::run_at(&Accelerator::new(cfg), Picos::ZERO, &solo, &mut mem1);
        assert_eq!(sched1.agents[0].ops, mem1.ops);
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
        let s = MemSchedule::build(&[t], CacheConfig::l1(), CacheConfig::l2());
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
        // The run's event word stays in the stream, so event indices and
        // cursor images do not depend on the inline copy.
        let ReplayStep::Mem { events, .. } = a.step(0) else {
            unreachable!()
        };
        assert_eq!(a.event(events as usize), ReplayEvent::Hits { l1: 1, l2: 0 });
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
