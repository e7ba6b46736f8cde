//! The accelerator execution engine.
//!
//! [`Accelerator::run_schedule_at`] executes one kernel by replaying its
//! [`MemSchedule`] against a [`MemoryBackend`], reproducing the paper's
//! execution model (Figure 9b): the server wakes each agent through the
//! PSC, plants the kernel boot address, and the agents then alternate
//! compute bursts with memory operations. The schedule already walked
//! every load and store through the agent's private L1/L2; the L2
//! misses cross the crossbar to the server's MCU and become backend
//! requests, which the replay issues in global time order through the
//! real backend. The engine records everything the paper's figures need
//! — per-agent IPC over time, power over time, execution-time
//! decomposition and an energy ledger.
//!
//! The same replay runs in resumable steps —
//! [`Accelerator::schedule_cursor`], [`Accelerator::advance_slice`],
//! [`Accelerator::finish_schedule`] — which is what record/replay
//! drives: it images the backend between steps and can run a step on
//! recorded completions, a [`Tape`], instead of the backend. Unit tests
//! check it against `walker`, a per-op trace walker kept only as a test
//! reference.

use crate::cache::{CacheConfig, CacheLevelStats};
use crate::pe::{PeConfig, PeStats};
use crate::psc::{PowerSleepController, PscParams};
use crate::sched::{MemSchedule, ReplayEvent, ReplayStep};
use sim_core::energy::{EnergyBook, Joules};
use sim_core::mem::{Access, MemoryBackend, StreamOp};
use sim_core::probe::{AttrScope, Probe};
use sim_core::snapshot::{SnapshotError, StateImage};
use sim_core::stats::TimeSeries;
use sim_core::time::Picos;
use util::fingerprint::Fnv64;
use util::telemetry::{LatencyHistogram, MetricSet, Track};

/// Accelerator construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Total processing elements (paper platform: 8; one is the server).
    pub pes: usize,
    /// Per-PE core parameters.
    pub pe: PeConfig,
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// PSC transition timing.
    pub psc: PscParams,
    /// Server work to schedule one agent (parse metadata, plant boot
    /// address).
    pub launch_overhead: Picos,
    /// Time-series bucket width for IPC/power curves.
    pub sample_bucket: Picos,
    /// Whether the server announces store targets to the backend
    /// (enables selective erasing on PRAM controllers).
    pub announce_stores: bool,
    /// Outstanding posted write-backs the server's MCU can hold before a
    /// PE must stall on further evictions.
    pub mcu_write_queue: usize,
}

util::json_struct!(AccelConfig {
    pes,
    pe,
    l1,
    l2,
    psc,
    launch_overhead,
    sample_bucket,
    announce_stores,
    mcu_write_queue,
});

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            pes: 8,
            pe: PeConfig::default(),
            l1: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            psc: PscParams::default(),
            launch_overhead: Picos::from_us(5),
            sample_bucket: Picos::from_us(20),
            announce_stores: true,
            mcu_write_queue: 16,
        }
    }
}

/// The result of one kernel execution.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Wall-clock completion (all agents done, caches flushed).
    pub total_time: Picos,
    /// Instructions retired across agents.
    pub instructions: u64,
    /// Σ agent compute time.
    pub compute_time: Picos,
    /// Σ agent memory-stall time.
    pub stall_time: Picos,
    /// Per-agent counters.
    pub pe_stats: Vec<PeStats>,
    /// Merged L1 counters.
    pub l1: CacheLevelStats,
    /// Merged L2 counters.
    pub l2: CacheLevelStats,
    /// Aggregate instructions retired per time bucket (divide by bucket
    /// cycles for the Fig. 18/19 IPC curves).
    pub ipc_series: TimeSeries,
    /// Joules dissipated per time bucket (divide by bucket width for the
    /// Fig. 20/21 power curves).
    pub power_series: TimeSeries,
    /// PE + PSC energy (backend energy is accounted by the caller, which
    /// owns the backend).
    pub energy: EnergyBook,
    /// Bytes fetched from the backend.
    pub bytes_from_mem: u64,
    /// Bytes written back to the backend.
    pub bytes_to_mem: u64,
    /// Backend requests issued (fills + write-backs).
    pub mem_requests: u64,
}

util::json_struct!(ExecReport {
    total_time,
    instructions,
    compute_time,
    stall_time,
    pe_stats,
    l1,
    l2,
    ipc_series,
    power_series,
    energy,
    bytes_from_mem,
    bytes_to_mem,
    mem_requests,
});

impl ExecReport {
    /// Aggregate average IPC (instructions per core-cycle summed over
    /// agents, as in Figs. 18–19's "total IPC").
    pub fn total_ipc(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.instructions as f64 / self.total_time.as_ns_f64()
    }

    /// Data-processing bandwidth: bytes exchanged with memory over total
    /// time (the Fig. 13/15 metric).
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        (self.bytes_from_mem + self.bytes_to_mem) as f64 / self.total_time.as_secs_f64()
    }

    /// Contributes the execution counters to a telemetry metric set
    /// under the `pe.` prefix.
    pub fn collect_metrics(&self, out: &mut MetricSet) {
        out.add("pe.instructions", self.instructions);
        out.add("pe.l1_hits", self.l1.hits);
        out.add("pe.l1_misses", self.l1.misses);
        out.add("pe.l2_hits", self.l2.hits);
        out.add("pe.l2_misses", self.l2.misses);
        out.add("pe.mem_requests", self.mem_requests);
        out.add("pe.bytes_from_mem", self.bytes_from_mem);
        out.add("pe.bytes_to_mem", self.bytes_to_mem);
        out.add("pe.compute_ns", self.compute_time.as_ps() / 1_000);
        out.add("pe.stall_ns", self.stall_time.as_ps() / 1_000);
        out.gauge("pe.ipc", self.total_ipc());
    }
}

/// The accelerator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AccelConfig,
    probe: Probe,
}

/// Replay cursor of one agent: where it is in its step stream. While
/// the cursor runs, `stats` leaves out the agent's request-free steps:
/// its [`Lane`] tallies those per class, and
/// [`Accelerator::finish_schedule`] folds them back in.
#[derive(Debug, Clone)]
struct SchedRun {
    step: usize,
    time: Picos,
    stats: PeStats,
    done: bool,
}

/// The state of a schedule replay between request batches — every loop
/// variable of [`Accelerator::run_schedule_at`], factored out so a
/// caller can act after each batch.
///
/// A cursor is created by [`Accelerator::schedule_cursor`], advanced
/// one request batch at a time by [`Accelerator::advance_slice`], and
/// turned into an [`ExecReport`] by
/// [`Accelerator::finish_schedule`]. While advancing it chains an
/// FNV-1a fingerprint over every backend request it issues (address,
/// kind, and the completion time the backend handed back), which is the
/// commitment record/replay verifies against. Its state is a function
/// of the schedule, the start time and the completion times its backend
/// returns, so record/replay keeps those completions, not the cursor.
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    start: Picos,
    agents: Vec<SchedRun>,
    wq: Vec<Picos>,
    psc: PowerSleepController,
    /// The closed IPC and power buckets; each lane holds its agent's
    /// open ones.
    ipc: Buckets,
    power: Buckets,
    bytes_from: u64,
    bytes_to: u64,
    mem_requests: u64,
    compute_e: Joules,
    compute_n: u64,
    stall_e: Joules,
    stall_n: u64,
    stream_fp: Fnv64,
    // Scheduling state and fast-path caches: the priced classes and the
    // memo depend only on the schedule and the configuration, so they
    // only skip re-deriving bit-identical values, never change them.
    /// The non-parked agents as `(clock ps, index)` keys in ascending
    /// order: the head runs next. Once an agent has run, its key is the
    /// start of its next ordered step (see [`Accelerator::advance_slice`]).
    order: Vec<(u64, usize)>,
    /// Per agent: its priced classes, free-step tallies, stored-event
    /// position and open IPC and power buckets.
    lanes: Vec<Lane>,
    memo_stall: StallMemo,
    buf: Vec<StreamOp>,
    /// `pe.mem_op` samples of the current call's ordered steps, filled
    /// only while the probe is live and drained into it before
    /// `advance_slice` returns — empty between calls.
    mem_op: LatencyHistogram,
}

/// What a request-free step is: which counters its tally folds into,
/// and which span the probe records for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FreeKind {
    Compute,
    Load,
    Store,
}

/// One distinct step of an agent's schedule, priced once per cursor with
/// the same conversions a per-step pricing would make, so every charged
/// and sampled value keeps its bits.
#[derive(Debug, Clone, Copy)]
enum Priced {
    /// A step that issues no backend request — a compute block, or a
    /// memory op served by one hit run: its duration, its energy, the
    /// instructions it retires (the block's count, or 1) and a block's
    /// issue cycles.
    Free {
        kind: FreeKind,
        dt: Picos,
        e: Joules,
        instrs: u64,
        cycles: u64,
    },
    /// A memory op that issues backend requests: its stored event words.
    Mem { store: bool, events: usize },
}

/// Prices one step class on `pe`.
fn price(pe: &PeConfig, step: ReplayStep) -> Priced {
    match step {
        ReplayStep::Compute { cycles, instrs } => {
            let (dt, e) = compute_energy(pe, cycles);
            Priced::Free {
                kind: FreeKind::Compute,
                dt,
                e,
                instrs,
                cycles,
            }
        }
        ReplayStep::HitRun { store, l1, l2 } => {
            // Hit service times are exact linear functions of the hit
            // count (`Picos * u64` is integer-exact).
            let dt = pe.clock.cycles_to_time(pe.l1_hit_cycles) * l1
                + pe.clock.cycles_to_time(pe.l2_hit_cycles) * l2;
            Priced::Free {
                kind: if store {
                    FreeKind::Store
                } else {
                    FreeKind::Load
                },
                dt,
                e: stall_energy(pe, dt.as_ps()),
                instrs: 1,
                cycles: 0,
            }
        }
        ReplayStep::Mem { store, events } => Priced::Mem {
            store,
            events: events as usize,
        },
    }
}

/// One agent's transient replay state.
#[derive(Debug, Clone)]
struct Lane {
    /// The agent's step classes, priced (indexed by class id).
    classes: Vec<Priced>,
    /// Free steps run per class since the cursor was opened
    /// (indexed by class id).
    runs: Vec<u64>,
    /// Position in the agent's stored event words.
    stored: usize,
    /// The agent's open IPC bucket: instructions retired, sampled at
    /// each step's end.
    ipc: OpenBucket,
    /// The agent's open power bucket: femtojoules, sampled at each
    /// step's start.
    power: OpenBucket,
}

impl Lane {
    fn new(classes: Vec<Priced>) -> Self {
        Lane {
            runs: vec![0; classes.len()],
            classes,
            stored: 0,
            ipc: OpenBucket::default(),
            power: OpenBucket::default(),
        }
    }
}

/// One agent's open sample bucket: its absolute end in picoseconds (0
/// while none is open) and the integer sum sampled into it.
#[derive(Debug, Clone, Copy, Default)]
struct OpenBucket {
    end: u64,
    sum: u128,
}

impl OpenBucket {
    /// Samples `v` at `at` into the open bucket, first closing it into
    /// `closed` once `at` has left it. Agent clocks never go back, so
    /// one bucket per agent is ever open.
    #[inline]
    fn sample(&mut self, at: Picos, v: u128, start: Picos, width: u64, closed: &mut Buckets) {
        if at.as_ps() >= self.end {
            self.reopen(at, start, width, closed);
        }
        self.sum += v;
    }

    /// Closes the open bucket into `closed` and opens the one that
    /// holds `at`.
    #[cold]
    fn reopen(&mut self, at: Picos, start: Picos, width: u64, closed: &mut Buckets) {
        self.close(start, width, closed);
        self.end = start.as_ps() + ((at - start).as_ps() / width + 1) * width;
        self.sum = 0;
    }

    /// Adds the open bucket, if any, to `closed`.
    fn close(&self, start: Picos, width: u64, closed: &mut Buckets) {
        if self.end != 0 {
            closed.add((self.end - start.as_ps()) / width - 1, self.sum);
        }
    }
}

/// Closed sample buckets as `(bucket index, integer sum)`, ascending by
/// index. The sums are exact, so the order buckets close in never
/// shows; each converts to f64 once, in [`Buckets::series`].
#[derive(Debug, Clone, Default)]
struct Buckets(Vec<(u64, u128)>);

impl Buckets {
    /// Adds `v` to bucket `idx`, which exists from then on even if `v`
    /// is 0. Agents close buckets in near time order, so the tail is
    /// tried first.
    fn add(&mut self, idx: u64, v: u128) {
        match self.0.last_mut() {
            Some((last, sum)) if *last == idx => *sum += v,
            Some(&mut (last, _)) if last > idx => {
                match self.0.binary_search_by_key(&idx, |&(i, _)| i) {
                    Ok(pos) => self.0[pos].1 += v,
                    Err(pos) => self.0.insert(pos, (idx, v)),
                }
            }
            _ => self.0.push((idx, v)),
        }
    }

    /// The buckets as a series of `width`-wide buckets, each sum
    /// converted by `value`.
    fn series(&self, width: Picos, value: impl Fn(u128) -> f64) -> TimeSeries {
        let mut series = TimeSeries::with_capacity(width, self.0.len());
        for &(idx, sum) in &self.0 {
            series.add(width * idx, value(sum));
        }
        series
    }
}

/// Slots of a [`StallMemo`] (a power of two).
const MEMO_SLOTS: usize = 64;

/// A direct-mapped memo of the stall energy of request-issuing memory
/// ops, keyed by stall duration. `Watts * Picos` rounds through f64 —
/// memoizing on the key reproduces the identical per-op values while
/// skipping the conversion for repeats. Every slot starts out holding
/// key 0's true value, so a lookup never needs a valid bit.
#[derive(Debug, Clone)]
struct StallMemo {
    slots: Box<[(u64, Joules); MEMO_SLOTS]>,
}

impl StallMemo {
    fn new(pe: &PeConfig) -> Self {
        StallMemo {
            slots: Box::new([(0, stall_energy(pe, 0)); MEMO_SLOTS]),
        }
    }

    #[inline]
    fn get(&mut self, ps: u64, pe: &PeConfig) -> Joules {
        let slot = &mut self.slots
            [(ps.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.ilog2())) as usize];
        if slot.0 != ps {
            *slot = (ps, stall_energy(pe, ps));
        }
        slot.1
    }
}

/// Re-files the agent at the head of `order` after it ran, at its new
/// clock `time`: moves its key back to its rank.
fn refile_head(order: &mut [(u64, usize)], time: u64) {
    let key = (time, order[0].1);
    let mut pos = 1;
    while pos < order.len() && order[pos] < key {
        order[pos - 1] = order[pos];
        pos += 1;
    }
    order[pos - 1] = key;
}

/// A compute block's duration and energy.
fn compute_energy(pe: &PeConfig, cycles: u64) -> (Picos, Joules) {
    let dt = pe.clock.cycles_to_time(cycles);
    (dt, pe.p_active * dt)
}

/// A memory op's stall energy over `ps` picoseconds.
fn stall_energy(pe: &PeConfig, ps: u64) -> Joules {
    pe.p_stall * Picos::from_ps(ps)
}

/// The largest instruction count a schedule may retire: each IPC bucket
/// sums its samples as an integer, which converts to f64 exactly up to
/// 2^53.
const MAX_EXACT_INSTRUCTIONS: u64 = 1 << 53;

impl ScheduleCursor {
    /// Backend requests issued so far (fills + write-backs) — the
    /// record layer's checkpoint cadence counter.
    pub fn mem_requests(&self) -> u64 {
        self.mem_requests
    }

    /// The chained FNV-1a digest over the backend request stream so
    /// far: per request its address and kind, plus the agent clock the
    /// backend returned after each batch.
    pub fn stream_fingerprint(&self) -> u64 {
        self.stream_fp.value()
    }

    /// Whether every agent has completed (the run can be finished).
    pub fn is_done(&self) -> bool {
        self.agents.iter().all(|a| a.done)
    }
}

/// A cursor's backend seam, and the tape it keeps: each backend
/// request's completion as an offset from its issue time, in request
/// order. With the schedule and the start time, the tape decides the
/// cursor's whole run.
///
/// Without a backend it serves each request from the tape (a request
/// past its end completes at once; the caller's request-count check
/// catches it). With one it passes each request on, writes down the
/// offset of a request past the tape's end, and keeps the first
/// completion that is not the tape's.
pub struct Tape<'a> {
    /// The backend requests pass to; none plays the tape back.
    pub real: Option<&'a mut dyn MemoryBackend>,
    /// The first request whose completion differed from the tape's: its
    /// index, the recorded offset and the replayed one.
    pub mismatch: Option<(u64, Picos, Picos)>,
    offsets: Vec<Picos>,
    /// Index of the next request.
    next: usize,
}

impl<'a> Tape<'a> {
    /// A tape of `offsets` in front of `real`.
    pub fn new(offsets: Vec<Picos>, real: Option<&'a mut dyn MemoryBackend>) -> Self {
        Tape {
            offsets,
            real,
            mismatch: None,
            next: 0,
        }
    }

    /// The offsets, recorded or played back.
    pub fn into_offsets(self) -> Vec<Picos> {
        self.offsets
    }

    fn serve(&mut self, at: Picos, pass: impl FnOnce(&mut dyn MemoryBackend) -> Access) -> Access {
        let i = self.next;
        self.next += 1;
        let recorded = self.offsets.get(i).copied();
        let Some(real) = self.real.as_deref_mut() else {
            return Access::instant(at + recorded.unwrap_or(Picos::ZERO));
        };
        let acc = pass(real);
        match recorded {
            None => self.offsets.push(acc.latency_from(at)),
            Some(offset) if acc.end != at + offset && self.mismatch.is_none() => {
                self.mismatch = Some((i as u64, offset, acc.latency_from(at)));
            }
            Some(_) => {}
        }
        acc
    }
}

impl MemoryBackend for Tape<'_> {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.serve(at, |real| real.read(at, addr, len))
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.serve(at, |real| real.write(at, addr, len))
    }

    fn announce_overwrites(&mut self, at: Picos, addrs: &[u64]) {
        if let Some(real) = self.real.as_deref_mut() {
            real.announce_overwrites(at, addrs);
        }
    }

    fn energy(&self) -> EnergyBook {
        EnergyBook::new()
    }

    fn label(&self) -> &'static str {
        "tape"
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        match &self.real {
            Some(real) => real.snapshot_state(),
            None => Err(SnapshotError::unsupported(self.label())),
        }
    }
}

impl Accelerator {
    /// Creates an accelerator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than two PEs (a server and
    /// at least one agent).
    pub fn new(config: AccelConfig) -> Self {
        assert!(config.pes >= 2, "need a server plus at least one agent");
        Accelerator {
            config,
            probe: Probe::disabled(),
        }
    }

    /// Installs a telemetry probe; execution records one `pe/<n>` trace
    /// lane per agent (PE numbering matches Fig. 9b: the server is PE 0,
    /// agents are PEs 1..).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Number of agent PEs available for kernels.
    pub fn agents(&self) -> usize {
        self.config.pes - 1
    }

    /// Executes one kernel by replaying a prebuilt [`MemSchedule`]
    /// (`sched.agents[i]` runs on agent `i`) starting at absolute
    /// simulated time `start`, so the execution phase composes with
    /// earlier phases (offload, staging) that already reserved backend
    /// resources. All report times (total, series timestamps) are
    /// relative to `start`.
    ///
    /// The schedule already froze the backend request stream and the
    /// per-op hit timing, so the replay keeps the closed-loop
    /// issue/completion arbitration of a per-op trace walk while
    /// skipping the trace decode, the cache simulation and the per-label
    /// energy map lookups. Backend requests cross the boundary through
    /// the batched [`MemoryBackend::run_stream`] entry, one batch per
    /// memory op.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or has more agents than PEs, or
    /// if its cache geometry differs from this accelerator's.
    pub fn run_schedule_at(
        &self,
        start: Picos,
        sched: &MemSchedule,
        backend: &mut dyn MemoryBackend,
    ) -> ExecReport {
        let mut cur = self.schedule_cursor(start, sched, backend);
        while self.advance_slice(&mut cur, sched, backend) {}
        self.finish_schedule(&cur, sched)
    }

    /// Opens a resumable [`ScheduleCursor`] over `sched`: performs the
    /// launch phase (server dispatch, PSC wakes, overwrite announces)
    /// and returns the replay state positioned before its first step.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`Accelerator::run_schedule_at`] (empty schedule, too many
    /// agents, mismatched cache geometry), and if the schedule retires
    /// more than 2^53 instructions, past which an IPC bucket's total
    /// may not convert to f64 exactly.
    pub fn schedule_cursor(
        &self,
        start: Picos,
        sched: &MemSchedule,
        backend: &mut dyn MemoryBackend,
    ) -> ScheduleCursor {
        assert!(!sched.agents.is_empty(), "no kernel traces supplied");
        assert!(
            sched.agents.len() <= self.agents(),
            "{} traces but only {} agents",
            sched.agents.len(),
            self.agents()
        );
        let cfg = &self.config;
        assert!(
            sched.l1 == cfg.l1 && sched.l2 == cfg.l2,
            "schedule built under a different cache geometry"
        );
        // Every IPC bucket's total is at most the schedule's.
        let instructions = sched
            .agents
            .iter()
            .try_fold(0u64, |n, a| n.checked_add(a.instructions));
        assert!(
            instructions.is_some_and(|n| n <= MAX_EXACT_INSTRUCTIONS),
            "schedule retires more than 2^53 instructions"
        );
        let mut psc = PowerSleepController::new(cfg.psc, cfg.pes);

        // Server (PE 0) schedules the agents (Fig. 9b steps 3-6); the
        // announce payload is memoized in the schedule.
        let mut launch = start;
        let agents: Vec<SchedRun> = sched
            .agents
            .iter()
            .enumerate()
            .map(|(i, sa)| {
                launch += cfg.launch_overhead;
                let ready = psc.wake(launch, i + 1);
                if cfg.announce_stores && !sa.store_targets.is_empty() {
                    backend.announce_overwrites(ready, &sa.store_targets);
                }
                SchedRun {
                    step: 0,
                    time: ready,
                    stats: PeStats::default(),
                    done: false,
                }
            })
            .collect();

        // The agents' `(clock ps, index)` keys in ascending order —
        // exactly the order a full rescan with lowest-index tie-breaking
        // would pick them in.
        let mut order: Vec<(u64, usize)> = agents
            .iter()
            .enumerate()
            .map(|(i, a)| (a.time.as_ps(), i))
            .collect();
        order.sort_unstable();
        // Each distinct step is priced once here, not on every step.
        let lanes = sched
            .agents
            .iter()
            .map(|sa| {
                Lane::new(
                    (0..sa.class_count())
                        .map(|c| price(&cfg.pe, sa.class(c)))
                        .collect(),
                )
            })
            .collect();
        ScheduleCursor {
            start,
            agents,
            // The MCU write queue, as a bare slot array for `run_stream`.
            wq: vec![Picos::ZERO; cfg.mcu_write_queue.max(1)],
            psc,
            ipc: Buckets::default(),
            power: Buckets::default(),
            bytes_from: 0,
            bytes_to: 0,
            mem_requests: 0,
            // Per-label energy is accumulated locally and flushed in one
            // `charge_many` per label — `Joules` is an integer femtojoule
            // count, so the batched sum is bit-equal to per-op charges.
            compute_e: Joules(0),
            compute_n: 0,
            stall_e: Joules(0),
            stall_n: 0,
            stream_fp: Fnv64::new(),
            order,
            lanes,
            memo_stall: StallMemo::new(&cfg.pe),
            // Reused request slice handed to the backend per memory op.
            buf: Vec::with_capacity(16),
            mem_op: LatencyHistogram::new(),
        }
    }

    /// Advances the cursor past the next ordered step that issues
    /// backend requests.
    ///
    /// An *ordered* step reaches state other agents share: a memory op
    /// that issues requests reaches the backend and the write queue, and
    /// an agent's completion (its cache flush, the write-queue drain and
    /// the PSC sleep) reaches all three. Ordered steps run in the global
    /// `(clock, agent index)` order a rescan per step would give them.
    /// Every other step is *free*: it touches only its own agent's clock,
    /// tallies and sample buckets, all integer sums. So once the head
    /// agent has run its ordered step, it runs every free step up to its
    /// next ordered one in one loop and is re-filed once, at that step's
    /// start. The backend, the write queue and the PSC see the same
    /// calls, in the same order, at the same times as on a per-step walk.
    ///
    /// A call returns after the first ordered step that issued requests,
    /// and with `false` once every agent is parked (nothing left to run).
    /// Call boundaries are where a caller may act — image the backend,
    /// or hand the next call another one: between two calls the cursor
    /// holds no borrowed or half-applied state, and the `pe.mem_op`
    /// samples of the call's ordered steps are already in the probe.
    ///
    /// Ordered steps offer their spans one call at a time. A free step
    /// does so only when the probe stores events; otherwise its span and
    /// its `pe.mem_op` sample are tallied per class (the lane's run
    /// counts) and reach the probe in [`Accelerator::finish_schedule`].
    pub fn advance_slice(
        &self,
        cur: &mut ScheduleCursor,
        sched: &MemSchedule,
        backend: &mut dyn MemoryBackend,
    ) -> bool {
        let cfg = &self.config;
        let l2_line = cfg.l2.line;
        // Hit service times are exact linear functions of the hit count
        // (`Picos * u64` is integer-exact), so a run of hits collapses
        // to one multiply without changing a single picosecond.
        let l1_hit = cfg.pe.clock.cycles_to_time(cfg.pe.l1_hit_cycles);
        let l2_hit = cfg.pe.clock.cycles_to_time(cfg.pe.l2_hit_cycles);
        let start = cur.start;
        let width = cfg.sample_bucket.as_ps();
        let issued_before = cur.mem_requests;
        let probed = self.probe.is_enabled();
        let stores = self.probe.stores_events();

        let more = loop {
            let Some(&(_, idx)) = cur.order.first() else {
                break false;
            };
            let sa = &sched.agents[idx];
            let lane = &mut cur.lanes[idx];
            let a = &mut cur.agents[idx];
            if a.step == sa.step_count() {
                // Kernel complete: the schedule's flush section holds
                // the dirty-line traffic of the cache flush.
                cur.buf.clear();
                for ei in sa.flush_start()..sa.event_count() {
                    match sa.event(ei) {
                        ReplayEvent::Fill(addr) => {
                            cur.buf.push(StreamOp {
                                advance: Picos::ZERO,
                                addr,
                                write: false,
                            });
                            cur.bytes_from += l2_line as u64;
                            cur.mem_requests += 1;
                        }
                        ReplayEvent::Writeback(addr) => {
                            cur.buf.push(StreamOp {
                                advance: Picos::ZERO,
                                addr,
                                write: true,
                            });
                            cur.bytes_to += l2_line as u64;
                            cur.mem_requests += 1;
                        }
                        ReplayEvent::Hits { .. } => {
                            unreachable!("flush section has no hits")
                        }
                    }
                }
                if !cur.buf.is_empty() {
                    // The batch base ordinal; `run_stream` steps the
                    // attribution cursor between ops, so per-request
                    // indices stay one per backend request.
                    self.probe
                        .attr_tag(AttrScope::Exec, cur.mem_requests - cur.buf.len() as u64);
                    a.time = backend.run_stream(
                        a.time,
                        l2_line,
                        cfg.pe.xbar_latency,
                        &cur.buf,
                        &mut cur.wq,
                    );
                    for op in &cur.buf {
                        cur.stream_fp.mix_u64(op.addr);
                        cur.stream_fp.mix_u64(op.write as u64);
                    }
                    cur.stream_fp.mix_u64(a.time.as_ps());
                }
                // Results must be durable before the completion
                // message: drain the whole write queue.
                let drain = cur.wq.iter().copied().fold(Picos::ZERO, Picos::max);
                a.time = a.time.max(drain);
                a.done = true;
                cur.psc.sleep(a.time, idx + 1);
                cur.order.remove(0);
            } else {
                // The ordered step, unless the agent has yet to reach its
                // first one.
                if let Priced::Mem { store, events } = lane.classes[sa.class_id(a.step)] {
                    let t0 = a.time;
                    // Fold hit runs into the next request's advance;
                    // trailing hits land after the batch returns.
                    let mut pending = Picos::ZERO;
                    cur.buf.clear();
                    for ei in lane.stored..lane.stored + events {
                        match sa.event(ei) {
                            ReplayEvent::Hits { l1, l2 } => {
                                pending += l1_hit * l1 + l2_hit * l2;
                            }
                            ReplayEvent::Fill(addr) => {
                                cur.buf.push(StreamOp {
                                    advance: pending,
                                    addr,
                                    write: false,
                                });
                                pending = Picos::ZERO;
                                cur.bytes_from += l2_line as u64;
                                cur.mem_requests += 1;
                            }
                            ReplayEvent::Writeback(addr) => {
                                cur.buf.push(StreamOp {
                                    advance: pending,
                                    addr,
                                    write: true,
                                });
                                pending = Picos::ZERO;
                                cur.bytes_to += l2_line as u64;
                                cur.mem_requests += 1;
                            }
                        }
                    }
                    lane.stored += events;
                    if !cur.buf.is_empty() {
                        self.probe
                            .attr_tag(AttrScope::Exec, cur.mem_requests - cur.buf.len() as u64);
                        a.time = backend.run_stream(
                            a.time,
                            l2_line,
                            cfg.pe.xbar_latency,
                            &cur.buf,
                            &mut cur.wq,
                        );
                        for op in &cur.buf {
                            cur.stream_fp.mix_u64(op.addr);
                            cur.stream_fp.mix_u64(op.write as u64);
                        }
                        cur.stream_fp.mix_u64(a.time.as_ps());
                    }
                    a.time += pending;
                    let dt = a.time - t0;
                    let e = cur.memo_stall.get(dt.as_ps(), &cfg.pe);
                    cur.stall_e += e;
                    cur.stall_n += 1;
                    lane.power.sample(t0, e.0, start, width, &mut cur.power);
                    if probed && !dt.is_zero() {
                        self.probe
                            .span(Track::new("pe", idx as u32 + 1), "mem", t0, a.time);
                        cur.mem_op.record_ps(dt.as_ps());
                    }
                    lane.ipc.sample(a.time, 1, start, width, &mut cur.ipc);
                    a.stats.instructions += 1;
                    a.stats.stall_time += dt;
                    if store {
                        a.stats.stores += 1;
                    } else {
                        a.stats.loads += 1;
                    }
                    a.step += 1;
                }
                // Then the free steps up to the next ordered one: a
                // compute block, or an op served by one hit run — no
                // backend traffic, no batch to assemble, priced with its
                // class. Its event word, if any, is counted, not stored.
                while a.step < sa.step_count() {
                    let class = sa.class_id(a.step);
                    let Priced::Free {
                        kind,
                        dt,
                        e,
                        instrs,
                        ..
                    } = lane.classes[class]
                    else {
                        break;
                    };
                    let t0 = a.time;
                    a.time += dt;
                    lane.power.sample(t0, e.0, start, width, &mut cur.power);
                    // Only a hub that keeps events needs this step's span;
                    // a counting hub gets the class tally and the mem-op
                    // samples from `finish_schedule`.
                    if stores && (kind == FreeKind::Compute || !dt.is_zero()) {
                        let name = if kind == FreeKind::Compute {
                            "compute"
                        } else {
                            "mem"
                        };
                        self.probe
                            .span(Track::new("pe", idx as u32 + 1), name, t0, a.time);
                    }
                    lane.runs[class] += 1;
                    lane.ipc
                        .sample(a.time, instrs.into(), start, width, &mut cur.ipc);
                    a.step += 1;
                }
                refile_head(&mut cur.order, a.time.as_ps());
            }
            if cur.mem_requests != issued_before {
                break true;
            }
        };
        if cur.mem_op.count() > 0 {
            self.probe.latencies("pe.mem_op", &cur.mem_op);
            cur.mem_op = LatencyHistogram::new();
        }
        more
    }

    /// Turns a completed cursor into the [`ExecReport`]
    /// [`Accelerator::run_schedule_at`] would have returned, and hands
    /// the probe the free steps' `pe.mem_op` samples (and, when it only
    /// counts events, their span tally) — so a probed cursor is finished
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if the cursor still has runnable agents.
    pub fn finish_schedule(&self, cur: &ScheduleCursor, sched: &MemSchedule) -> ExecReport {
        assert!(cur.is_done(), "cursor still has runnable agents");
        let cfg = &self.config;
        // Fold every lane's free-step tallies into the counters and its
        // open buckets into the series. Each tally scales its class's
        // values by an integer (`Picos * u64`, `Joules::scaled`, `u64`
        // products), so the fold is exact; every bucket is an integer
        // sum, so it holds the exact total whatever order its samples
        // land in, and converts to f64 once. The probe's span count and
        // histogram are sums too: `n` runs of a class offer `n` spans
        // and `n` samples of its `dt`.
        let (mut compute_e, mut compute_n) = (cur.compute_e, cur.compute_n);
        let (mut stall_e, mut stall_n) = (cur.stall_e, cur.stall_n);
        let (mut spans, mut mem_op) = (0u64, LatencyHistogram::new());
        let mut pe_stats: Vec<PeStats> = cur.agents.iter().map(|a| a.stats).collect();
        let (mut ipc, mut power) = (cur.ipc.clone(), cur.power.clone());
        let width = cfg.sample_bucket.as_ps();
        for (stats, lane) in pe_stats.iter_mut().zip(&cur.lanes) {
            lane.ipc.close(cur.start, width, &mut ipc);
            lane.power.close(cur.start, width, &mut power);
            for (&priced, &n) in lane.classes.iter().zip(&lane.runs) {
                let Priced::Free {
                    kind,
                    dt,
                    e,
                    instrs,
                    cycles,
                    ..
                } = priced
                else {
                    continue;
                };
                stats.instructions += instrs * n;
                match kind {
                    FreeKind::Compute => {
                        stats.compute_cycles += cycles * n;
                        stats.compute_time += dt * n;
                        compute_e += e.scaled(n);
                        compute_n += n;
                        spans += n;
                    }
                    FreeKind::Load | FreeKind::Store => {
                        stats.stall_time += dt * n;
                        if kind == FreeKind::Store {
                            stats.stores += n;
                        } else {
                            stats.loads += n;
                        }
                        stall_e += e.scaled(n);
                        stall_n += n;
                        if !dt.is_zero() {
                            spans += n;
                            mem_op.record_ps_n(dt.as_ps(), n);
                        }
                    }
                }
            }
        }
        if !self.probe.stores_events() {
            self.probe.count_events(spans);
        }
        if mem_op.count() > 0 {
            self.probe.latencies("pe.mem_op", &mem_op);
        }
        let mut energy = EnergyBook::new();
        energy.charge_many("pe.compute", compute_e, compute_n);
        energy.charge_many("pe.stall", stall_e, stall_n);
        let total_time = cur
            .agents
            .iter()
            .map(|a| a.time)
            .fold(Picos::ZERO, Picos::max)
            - cur.start;
        energy.charge("pe.server", cfg.pe.p_stall * total_time);
        let parked = (cfg.pes - 1 - cur.agents.len()) as u64;
        energy.charge("pe.sleep", (cfg.pe.p_sleep * total_time).scaled(parked));

        let mut l1 = CacheLevelStats::default();
        let mut l2 = CacheLevelStats::default();
        for sa in &sched.agents {
            l1.hits += sa.l1_stats.hits;
            l1.misses += sa.l1_stats.misses;
            l1.writebacks += sa.l1_stats.writebacks;
            l2.hits += sa.l2_stats.hits;
            l2.misses += sa.l2_stats.misses;
            l2.writebacks += sa.l2_stats.writebacks;
        }

        ExecReport {
            total_time,
            instructions: pe_stats.iter().map(|s| s.instructions).sum(),
            compute_time: pe_stats.iter().map(|s| s.compute_time).sum(),
            stall_time: pe_stats.iter().map(|s| s.stall_time).sum(),
            pe_stats,
            l1,
            l2,
            // Every IPC bucket is at most `MAX_EXACT_INSTRUCTIONS`.
            ipc_series: ipc.series(cfg.sample_bucket, |n| n as f64),
            power_series: power.series(cfg.sample_bucket, |fj| Joules(fj).as_j()),
            energy,
            bytes_from_mem: cur.bytes_from,
            bytes_to_mem: cur.bytes_to,
            mem_requests: cur.mem_requests,
        }
    }
}

/// The per-op trace walker: the reference the schedule replay is
/// checked against. It decodes each agent's trace and walks its L1/L2
/// op by op, issuing backend requests as misses and evictions occur,
/// and picks the next agent by a full earliest/runner-up rescan — what
/// [`MemSchedule::build`] and the replay's ordered agent list each
/// reproduce in a faster form.
#[cfg(test)]
pub(crate) mod walker {
    use super::*;
    use crate::cache::Cache;
    use crate::trace::{Trace, TraceIter, TraceOp};

    /// The server MCU's posted-write queue: slots hold the completion time
    /// of in-flight write-backs. Posting returns the instant the requester
    /// would have to wait for (the freed slot's previous occupancy) — zero
    /// backpressure while slots are free.
    struct WriteQueue {
        slots: Vec<Picos>,
    }

    impl WriteQueue {
        fn new(depth: usize) -> Self {
            WriteQueue {
                slots: vec![Picos::ZERO; depth.max(1)],
            }
        }

        /// Issues a posted write; returns when the PE may proceed (the time
        /// the reused slot freed).
        fn post(
            &mut self,
            backend: &mut dyn MemoryBackend,
            now: Picos,
            addr: u64,
            len: u32,
        ) -> Picos {
            let slot = (0..self.slots.len())
                .min_by_key(|&i| self.slots[i])
                .expect("queue is non-empty");
            let wait_until = self.slots[slot];
            let issue = now.max(wait_until);
            let acc = backend.write(issue, addr, len);
            self.slots[slot] = acc.end;
            wait_until
        }

        /// When every in-flight write has completed.
        fn drain_at(&self) -> Picos {
            self.slots.iter().copied().fold(Picos::ZERO, Picos::max)
        }
    }

    /// Per-agent execution state during a run. Ops decode straight off the
    /// packed trace stream — nothing materializes a `Vec<TraceOp>`.
    struct AgentRun<'t> {
        ops: TraceIter<'t>,
        time: Picos,
        l1: Cache,
        l2: Cache,
        stats: PeStats,
        done: bool,
    }

    /// Runs `traces[i]` on agent `i` from absolute time `start`; the
    /// report must equal [`Accelerator::run_schedule_at`]'s on the
    /// schedule built from the same traces, byte for byte.
    pub(crate) fn run_at(
        accel: &Accelerator,
        start: Picos,
        traces: &[Trace],
        backend: &mut dyn MemoryBackend,
    ) -> ExecReport {
        run_logged(accel, start, traces, backend, &mut Vec::new())
    }

    /// [`run_at`], also logging every step's start (after `start`) and
    /// energy in `steps`, in the order the walk runs them. The power
    /// series sums the log exactly per bucket.
    pub(crate) fn run_logged(
        accel: &Accelerator,
        start: Picos,
        traces: &[Trace],
        backend: &mut dyn MemoryBackend,
        steps: &mut Vec<(Picos, Joules)>,
    ) -> ExecReport {
        let cfg = &accel.config;
        let mut psc = PowerSleepController::new(cfg.psc, cfg.pes);
        let mut energy = EnergyBook::new();
        let mut ipc_series = TimeSeries::new(cfg.sample_bucket);

        // Server (PE 0) schedules the agents (Fig. 9b steps 3-6).
        let mut launch = start;
        let mut agents: Vec<AgentRun> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| {
                launch += cfg.launch_overhead;
                let ready = psc.wake(launch, i + 1);
                if cfg.announce_stores {
                    let targets = trace.store_targets(32);
                    if !targets.is_empty() {
                        backend.announce_overwrites(ready, &targets);
                    }
                }
                AgentRun {
                    ops: trace.iter(),
                    time: ready,
                    l1: Cache::new(cfg.l1),
                    l2: Cache::new(cfg.l2),
                    stats: PeStats::default(),
                    done: false,
                }
            })
            .collect();

        let mut bytes_from = 0u64;
        let mut bytes_to = 0u64;
        let mut mem_requests = 0u64;
        let l2_line = cfg.l2.line;
        let l1_line = cfg.l1.line;
        // The MCU write queue: posted write-backs drain in the
        // background; a PE only stalls when every slot is occupied past
        // its current time.
        let mut wq = WriteQueue::new(cfg.mcu_write_queue);

        // Advance the globally-earliest agent so backend arbitration sees
        // requests in time order. The scheduler keeps the agent clocks in
        // a flat array (structure-of-arrays: one cache-line scan instead
        // of striding over the fat per-agent structs) and finds the
        // earliest agent *and the runner-up* in a single pass — the
        // chosen agent can then batch-advance ops locally for as long as
        // it stays strictly ahead of the runner-up, which is exactly the
        // set of steps a rescan-per-op loop would have given it.
        let n = agents.len();
        let mut times: Vec<Picos> = agents.iter().map(|a| a.time).collect();
        let mut parked: Vec<bool> = vec![false; n];
        loop {
            let mut best = usize::MAX;
            let mut second = usize::MAX;
            for i in 0..n {
                if parked[i] {
                    continue;
                }
                if best == usize::MAX || times[i] < times[best] {
                    second = best;
                    best = i;
                } else if second == usize::MAX || times[i] < times[second] {
                    second = i;
                }
            }
            if best == usize::MAX {
                break;
            }
            let idx = best;
            let bound = (second != usize::MAX).then(|| (times[second], second));
            let a = &mut agents[idx];
            loop {
                let Some(op) = a.ops.next() else {
                    // Kernel complete: flush caches (dirty results must
                    // land in memory before the completion message).
                    let l1_dirty = a.l1.flush();
                    for addr in l1_dirty {
                        let out = a.l2.access(addr, true);
                        if let Some(fill) = out.fill {
                            accel.probe.attr_tag(AttrScope::Exec, mem_requests);
                            let acc = backend.read(a.time, fill, l2_line);
                            a.time = acc.end + cfg.pe.xbar_latency;
                            bytes_from += l2_line as u64;
                            mem_requests += 1;
                        }
                        if let Some(wb) = out.writeback {
                            accel.probe.attr_tag(AttrScope::Exec, mem_requests);
                            let free_at = wq.post(backend, a.time, wb, l2_line);
                            a.time = a.time.max(free_at);
                            bytes_to += l2_line as u64;
                            mem_requests += 1;
                        }
                    }
                    for addr in a.l2.flush() {
                        accel.probe.attr_tag(AttrScope::Exec, mem_requests);
                        let free_at = wq.post(backend, a.time, addr, l2_line);
                        a.time = a.time.max(free_at);
                        bytes_to += l2_line as u64;
                        mem_requests += 1;
                    }
                    // Results must be durable before the completion
                    // message: drain the whole write queue.
                    a.time = a.time.max(wq.drain_at());
                    a.done = true;
                    psc.sleep(a.time, idx + 1);
                    break;
                };
                match op {
                    TraceOp::Compute(block) => {
                        let dt = cfg.pe.clock.cycles_to_time(block.cycles());
                        let e = cfg.pe.p_active * dt;
                        energy.charge("pe.compute", e);
                        steps.push((a.time - start, e));
                        ipc_series.add(a.time + dt - start, block.total() as f64);
                        accel.probe.span(
                            Track::new("pe", idx as u32 + 1),
                            "compute",
                            a.time,
                            a.time + dt,
                        );
                        a.stats.instructions += block.total();
                        a.stats.compute_cycles += block.cycles();
                        a.stats.compute_time += dt;
                        a.time += dt;
                    }
                    TraceOp::Load { addr, len } | TraceOp::Store { addr, len } => {
                        let is_store = matches!(op, TraceOp::Store { .. });
                        let t0 = a.time;
                        // Touch every L1 line the access covers. The
                        // range is computed inline (same math as
                        // `Cache::lines_touched`) because borrowing the
                        // cache for an iterator here would alias the
                        // mutable accesses below — and collecting into a
                        // Vec per memory op dominated sweep allocations.
                        let line_bytes = l1_line as u64;
                        let first = addr / line_bytes;
                        let last = (addr + len.max(1) as u64 - 1) / line_bytes;
                        for line in (first..=last).map(|l| l * line_bytes) {
                            let l1_out = a.l1.access(line, is_store);
                            if l1_out.hit {
                                a.time += cfg.pe.clock.cycles_to_time(cfg.pe.l1_hit_cycles);
                                continue;
                            }
                            // L1 victim write-back goes to L2.
                            if let Some(wb) = l1_out.writeback {
                                let out = a.l2.access(wb, true);
                                if let Some(fill) = out.fill {
                                    accel.probe.attr_tag(AttrScope::Exec, mem_requests);
                                    let acc = backend.read(a.time, fill, l2_line);
                                    a.time = acc.end + cfg.pe.xbar_latency;
                                    bytes_from += l2_line as u64;
                                    mem_requests += 1;
                                }
                                if let Some(l2wb) = out.writeback {
                                    accel.probe.attr_tag(AttrScope::Exec, mem_requests);
                                    let free_at = wq.post(backend, a.time, l2wb, l2_line);
                                    a.time = a.time.max(free_at);
                                    bytes_to += l2_line as u64;
                                    mem_requests += 1;
                                }
                            }
                            // Fill the L1 line from L2.
                            let out = a.l2.access(line, false);
                            if out.hit {
                                a.time += cfg.pe.clock.cycles_to_time(cfg.pe.l2_hit_cycles);
                            } else {
                                if let Some(l2wb) = out.writeback {
                                    accel.probe.attr_tag(AttrScope::Exec, mem_requests);
                                    let free_at = wq.post(backend, a.time, l2wb, l2_line);
                                    a.time = a.time.max(free_at);
                                    bytes_to += l2_line as u64;
                                    mem_requests += 1;
                                }
                                let fill = out.fill.expect("miss always fills");
                                accel.probe.attr_tag(AttrScope::Exec, mem_requests);
                                let acc = backend.read(a.time, fill, l2_line);
                                a.time = acc.end + cfg.pe.xbar_latency;
                                bytes_from += l2_line as u64;
                                mem_requests += 1;
                            }
                        }
                        let dt = a.time - t0;
                        let e = cfg.pe.p_stall * dt;
                        energy.charge("pe.stall", e);
                        steps.push((t0 - start, e));
                        ipc_series.add(a.time - start, 1.0);
                        if !dt.is_zero() {
                            accel
                                .probe
                                .span(Track::new("pe", idx as u32 + 1), "mem", t0, a.time);
                            accel.probe.latency("pe.mem_op", dt);
                        }
                        a.stats.instructions += 1;
                        a.stats.stall_time += dt;
                        if is_store {
                            a.stats.stores += 1;
                        } else {
                            a.stats.loads += 1;
                        }
                    }
                }
                // Keep going while this agent would win the rescan: the
                // scheduler tie-breaks equal clocks by lowest index.
                match bound {
                    Some((bt, bi)) if !(a.time < bt || (a.time == bt && idx < bi)) => break,
                    _ => {}
                }
            }
            times[idx] = a.time;
            parked[idx] = a.done;
        }

        let total_time = agents.iter().map(|a| a.time).fold(Picos::ZERO, Picos::max) - start;
        let mut power = Buckets::default();
        for &(at, e) in steps.iter() {
            power.add(at.as_ps() / cfg.sample_bucket.as_ps(), e.0);
        }
        // Server PE: orchestration power over the whole run; parked PEs:
        // sleep power.
        energy.charge("pe.server", cfg.pe.p_stall * total_time);
        let parked = (cfg.pes - 1 - agents.len()) as u64;
        energy.charge("pe.sleep", (cfg.pe.p_sleep * total_time).scaled(parked));

        let mut l1 = CacheLevelStats::default();
        let mut l2 = CacheLevelStats::default();
        for a in &agents {
            l1.hits += a.l1.stats().hits;
            l1.misses += a.l1.stats().misses;
            l1.writebacks += a.l1.stats().writebacks;
            l2.hits += a.l2.stats().hits;
            l2.misses += a.l2.stats().misses;
            l2.writebacks += a.l2.stats().writebacks;
        }

        ExecReport {
            total_time,
            instructions: agents.iter().map(|a| a.stats.instructions).sum(),
            compute_time: agents.iter().map(|a| a.stats.compute_time).sum(),
            stall_time: agents.iter().map(|a| a.stats.stall_time).sum(),
            pe_stats: agents.iter().map(|a| a.stats).collect(),
            l1,
            l2,
            ipc_series,
            power_series: power.series(cfg.sample_bucket, |fj| Joules(fj).as_j()),
            energy,
            bytes_from_mem: bytes_from,
            bytes_to_mem: bytes_to,
            mem_requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{InstrBlock, Trace};
    use sim_core::energy::EnergyBook;
    use sim_core::mem::Access;

    /// A fixed-latency backend for engine tests.
    struct FixedMem {
        read_lat: Picos,
        write_lat: Picos,
        reads: u64,
        writes: u64,
        announced: usize,
    }

    impl FixedMem {
        fn new(read_lat: Picos, write_lat: Picos) -> Self {
            FixedMem {
                read_lat,
                write_lat,
                reads: 0,
                writes: 0,
                announced: 0,
            }
        }
    }

    impl MemoryBackend for FixedMem {
        fn read(&mut self, at: Picos, _addr: u64, _len: u32) -> Access {
            self.reads += 1;
            Access {
                start: at,
                end: at + self.read_lat,
            }
        }
        fn write(&mut self, at: Picos, _addr: u64, _len: u32) -> Access {
            self.writes += 1;
            Access {
                start: at,
                end: at + self.write_lat,
            }
        }
        fn announce_overwrites(&mut self, _at: Picos, addrs: &[u64]) {
            self.announced += addrs.len();
        }
        fn energy(&self) -> EnergyBook {
            EnergyBook::new()
        }
        fn label(&self) -> &'static str {
            "fixed"
        }
    }

    /// Runs `traces` on the default accelerator from time zero, the way
    /// every cell does: build the schedule, replay it.
    fn run(traces: &[Trace], mem: &mut FixedMem) -> ExecReport {
        let accel = Accelerator::new(AccelConfig::default());
        let sched = MemSchedule::build(traces, accel.config().l1, accel.config().l2);
        accel.run_schedule_at(Picos::ZERO, &sched, mem)
    }

    fn compute_trace(instrs: u64) -> Trace {
        let mut t = Trace::new();
        t.compute(InstrBlock {
            m: instrs / 4,
            l: instrs / 4,
            s: instrs / 4,
            d: instrs / 4,
        });
        t
    }

    #[test]
    fn pure_compute_has_no_memory_traffic() {
        let mut mem = FixedMem::new(Picos::from_ns(100), Picos::from_ns(100));
        let r = run(&[compute_trace(8_000)], &mut mem);
        assert_eq!(r.mem_requests, 0);
        assert_eq!(r.instructions, 8_000);
        assert!(r.stall_time.is_zero());
        // 8000 instrs / 8-wide = 1000 cycles = 1 us of compute.
        assert_eq!(r.compute_time, Picos::from_us(1));
    }

    #[test]
    fn loads_miss_then_hit() {
        let mut t = Trace::new();
        t.load(0, 8);
        t.load(8, 8); // same L1 line
        let mut mem = FixedMem::new(Picos::from_us(1), Picos::from_us(1));
        let r = run(&[t], &mut mem);
        assert_eq!(r.l1.misses, 1);
        assert_eq!(r.l1.hits, 1);
        assert_eq!(mem.reads, 1); // one L2 fill
        assert!(r.stall_time >= Picos::from_us(1));
    }

    #[test]
    fn slow_memory_dominates_total_time() {
        let mut t = Trace::new();
        for i in 0..64u64 {
            t.load(i * 4096, 8); // every load a fresh L2 line
        }
        let mut fast = FixedMem::new(Picos::from_ns(100), Picos::from_ns(100));
        let mut slow = FixedMem::new(Picos::from_us(50), Picos::from_us(50));
        let rf = run(&[t.clone()], &mut fast);
        let rs = run(&[t], &mut slow);
        assert!(rs.total_time > rf.total_time * 10);
        assert!(rs.total_ipc() < rf.total_ipc());
    }

    #[test]
    fn agents_run_in_parallel() {
        let t = compute_trace(80_000);
        let mut mem = FixedMem::new(Picos::from_ns(100), Picos::from_ns(100));
        let one = run(std::slice::from_ref(&t), &mut mem);
        let mut mem2 = FixedMem::new(Picos::from_ns(100), Picos::from_ns(100));
        let four = run(&[t.clone(), t.clone(), t.clone(), t.clone()], &mut mem2);
        // Four agents do 4x the work in barely more wall-clock time.
        assert_eq!(four.instructions, one.instructions * 4);
        assert!(four.total_time < one.total_time * 2);
    }

    #[test]
    fn dirty_data_flushes_at_completion() {
        let mut t = Trace::new();
        t.store(0, 8);
        let mut mem = FixedMem::new(Picos::from_ns(100), Picos::from_ns(100));
        let r = run(&[t], &mut mem);
        assert!(mem.writes >= 1, "dirty line must reach memory");
        assert!(r.bytes_to_mem >= 256);
    }

    #[test]
    fn store_targets_announced_to_backend() {
        let mut t = Trace::new();
        t.store(0, 32);
        t.store(4096, 32);
        let mut mem = FixedMem::new(Picos::from_ns(100), Picos::from_ns(100));
        run(&[t], &mut mem);
        assert_eq!(mem.announced, 2);
    }

    #[test]
    fn ipc_series_accumulates_all_instructions() {
        let t = compute_trace(4_000);
        let mut mem = FixedMem::new(Picos::from_ns(100), Picos::from_ns(100));
        let r = run(&[t.clone(), t], &mut mem);
        assert_eq!(r.ipc_series.total() as u64, r.instructions);
    }

    #[test]
    fn report_bandwidth_metric() {
        let mut t = Trace::new();
        for i in 0..16u64 {
            t.load(i * 256, 8);
        }
        let mut mem = FixedMem::new(Picos::from_us(1), Picos::from_us(1));
        let r = run(&[t], &mut mem);
        assert!(r.bandwidth_bytes_per_sec() > 0.0);
        assert_eq!(r.bytes_from_mem, 16 * 256);
    }

    #[test]
    #[should_panic(expected = "traces but only")]
    fn too_many_traces_rejected() {
        let t = compute_trace(1);
        let traces = vec![t; 8]; // 8 traces, 7 agents
        let mut mem = FixedMem::new(Picos::ZERO, Picos::ZERO);
        run(&traces, &mut mem);
    }

    #[test]
    #[should_panic(expected = "no kernel traces")]
    fn empty_run_rejected() {
        let mut mem = FixedMem::new(Picos::ZERO, Picos::ZERO);
        run(&[], &mut mem);
    }
}

#[cfg(test)]
mod sched_replay_tests {
    use super::*;
    use crate::trace::{InstrBlock, Trace};
    use sim_core::energy::EnergyBook;
    use sim_core::mem::Access;
    use util::json::ToJson;

    /// Fixed asymmetric latencies so fills and write-backs are
    /// distinguishable in the timeline.
    struct FixedMem;
    impl MemoryBackend for FixedMem {
        fn read(&mut self, at: Picos, _a: u64, _l: u32) -> Access {
            Access {
                start: at,
                end: at + Picos::from_ns(120),
            }
        }
        fn write(&mut self, at: Picos, _a: u64, _l: u32) -> Access {
            Access {
                start: at,
                end: at + Picos::from_ns(450),
            }
        }
        fn energy(&self) -> EnergyBook {
            EnergyBook::new()
        }
        fn label(&self) -> &'static str {
            "fixed"
        }
    }

    /// Agents with interleaved loads/stores, multi-line accesses (hit
    /// runs longer than one) and an oversized compute block that forces
    /// the packed program's escape path.
    fn stress_traces(agents: usize) -> Vec<Trace> {
        (0..agents)
            .map(|a| {
                let mut t = Trace::new();
                let base = (a as u64) << 24;
                for i in 0..300u64 {
                    t.load(base + (i % 89) * 48, 8);
                    t.compute(InstrBlock::mac(3, 2));
                    if i % 3 == 0 {
                        // Spans several L1 lines: exercises hit runs.
                        t.store(base + (i % 41) * 96, 100);
                    }
                    if i == 150 {
                        // cycles/instrs exceed the packed 31-bit fields.
                        t.compute(InstrBlock::alu(1 << 32));
                    }
                }
                t
            })
            .collect()
    }

    fn report_json(r: &ExecReport) -> String {
        r.to_json().render(false)
    }

    #[test]
    fn replay_is_bit_identical_on_fixed_backend() {
        let accel = Accelerator::new(AccelConfig::default());
        let traces = stress_traces(3);
        let sched = MemSchedule::build(&traces, accel.config().l1, accel.config().l2);

        let direct = walker::run_at(&accel, Picos::from_us(7), &traces, &mut FixedMem);
        let replay = accel.run_schedule_at(Picos::from_us(7), &sched, &mut FixedMem);
        assert_eq!(report_json(&direct), report_json(&replay));
    }

    #[test]
    fn replay_is_bit_identical_on_pram_controller() {
        // The real cycle-level controller is stateful (RNG tails, wear
        // counters, selective-erase windows, posted-program queues), so
        // this checks the closed loop: identical request streams must
        // leave two fresh controllers in identical states.
        use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
        let accel = Accelerator::new(AccelConfig::default());
        let traces = stress_traces(2);
        let sched = MemSchedule::build(&traces, accel.config().l1, accel.config().l2);

        let mut pram_a = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
        let direct = walker::run_at(&accel, Picos::ZERO, &traces, &mut pram_a);
        let mut pram_b = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
        let replay = accel.run_schedule_at(Picos::ZERO, &sched, &mut pram_b);

        assert_eq!(report_json(&direct), report_json(&replay));
        // Backend-side state (energy ledger, counters) matches too.
        assert_eq!(
            pram_a.energy().to_json().render(false),
            pram_b.energy().to_json().render(false)
        );
    }

    #[test]
    fn prop_tied_clocks_replay_like_the_rescan_walker() {
        // Every agent runs the same op sequence with no launch stagger,
        // so clocks start tied and stay tied through every hit-only
        // stretch, and the lowest-index rule decides most slices. Half
        // the cases first hold each agent back by 0–3 cycles, so agents
        // split into tied groups and a trailing agent keeps landing
        // exactly on a clock that others already share. Agents share one
        // address range or each work on their own; either way the order
        // tied agents reach the controller in shows up in its state and
        // in the write queue's. The replay's ordered agent list must pick
        // exactly what the trace walker's full rescan picks, down to the
        // last series sample.
        use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
        let accel = Accelerator::new(AccelConfig {
            launch_overhead: Picos::ZERO,
            ..AccelConfig::default()
        });
        util::for_each_case!(24, |rng| {
            let agents = rng.range_usize(1, accel.agents());
            let stride = if rng.chance(0.5) { 1 << 24 } else { 0 };
            let ops: Vec<(u64, u64, u32)> = (0..rng.range_u64(20, 240))
                .map(|_| {
                    (
                        rng.range_u64(0, 2),
                        rng.range_u64(0, 1 << 14),
                        rng.range_u64(1, 300) as u32,
                    )
                })
                .collect();
            let staggered = rng.chance(0.5);
            let traces: Vec<Trace> = (0..agents as u64)
                .map(|a| {
                    let mut t = Trace::new();
                    let held = if staggered { rng.range_u64(0, 3) } else { 0 };
                    if held > 0 {
                        // `alu(4k)` issues in exactly k cycles.
                        t.compute(InstrBlock::alu(4 * held));
                    }
                    for &(kind, addr, len) in &ops {
                        match kind {
                            0 => t.load(a * stride + addr, len),
                            1 => t.store(a * stride + addr, len),
                            _ => t.compute(InstrBlock::mac(len as u64 % 5, addr % 3)),
                        }
                    }
                    t
                })
                .collect();
            let sched = MemSchedule::build(&traces, accel.config().l1, accel.config().l2);
            let start = Picos::from_ns(rng.range_u64(0, 1_000));

            let direct = walker::run_at(&accel, start, &traces, &mut FixedMem);
            let replay = accel.run_schedule_at(start, &sched, &mut FixedMem);
            assert_eq!(
                report_json(&direct),
                report_json(&replay),
                "{agents} agents, fixed"
            );

            let mut pram_a = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
            let direct = walker::run_at(&accel, start, &traces, &mut pram_a);
            let mut pram_b = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
            let replay = accel.run_schedule_at(start, &sched, &mut pram_b);
            assert_eq!(
                report_json(&direct),
                report_json(&replay),
                "{agents} agents, pram"
            );
        });
    }

    #[test]
    fn replay_handles_single_agent_and_empty_compute() {
        let accel = Accelerator::new(AccelConfig::default());
        let mut t = Trace::new();
        t.compute(InstrBlock::alu(64));
        let traces = vec![t];
        let sched = MemSchedule::build(&traces, accel.config().l1, accel.config().l2);
        let direct = walker::run_at(&accel, Picos::ZERO, &traces, &mut FixedMem);
        let replay = accel.run_schedule_at(Picos::ZERO, &sched, &mut FixedMem);
        assert_eq!(report_json(&direct), report_json(&replay));
    }

    #[test]
    fn prop_power_buckets_are_exact_fj_sums_in_any_order() {
        // Random 1–7-agent schedules, with compute at zero power in half
        // the cases. Every step's `(start, energy)`, as the walker runs
        // them, folds in shuffled order into a map of exact femtojoule
        // sums, each converted to f64 once: the replay's power series
        // must hold exactly those buckets — zero-energy ones included —
        // with exactly those values, on both backends.
        use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
        use sim_core::energy::Watts;
        use std::collections::BTreeMap;
        let mut zero_buckets = 0;
        util::for_each_case!(24, |rng| {
            let mut cfg = AccelConfig {
                sample_bucket: Picos::from_ns(rng.range_u64(200, 5_000)),
                ..AccelConfig::default()
            };
            if rng.chance(0.5) {
                cfg.pe.p_active = Watts::from_w(0.0);
            }
            let accel = Accelerator::new(cfg);
            let traces: Vec<Trace> = (0..rng.range_u64(1, accel.agents() as u64))
                .map(|a| {
                    let mut t = Trace::new();
                    for _ in 0..rng.range_u64(1, 200) {
                        let addr = (a << 24) + rng.range_u64(0, 1 << 16);
                        match rng.range_u64(0, 3) {
                            0 => t.load(addr, rng.range_u64(1, 300) as u32),
                            1 => t.store(addr, rng.range_u64(1, 300) as u32),
                            2 => t.compute(InstrBlock::alu(rng.range_u64(0, 40))),
                            _ => t.compute(InstrBlock::mac(rng.range_u64(0, 9_000), 2)),
                        }
                    }
                    t
                })
                .collect();
            let sched = MemSchedule::build(&traces, cfg.l1, cfg.l2);
            let start = Picos::from_ns(rng.range_u64(0, 1_000));
            let fresh = || PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
            for pram in [false, true] {
                let mut steps = Vec::new();
                let replay = if pram {
                    walker::run_logged(&accel, start, &traces, &mut fresh(), &mut steps);
                    accel.run_schedule_at(start, &sched, &mut fresh())
                } else {
                    walker::run_logged(&accel, start, &traces, &mut FixedMem, &mut steps);
                    accel.run_schedule_at(start, &sched, &mut FixedMem)
                };
                for i in (1..steps.len()).rev() {
                    steps.swap(i, rng.range_usize(0, i));
                }
                let width = cfg.sample_bucket;
                let mut fold: BTreeMap<u64, u128> = BTreeMap::new();
                for (at, e) in steps {
                    *fold.entry(at.as_ps() / width.as_ps()).or_default() += e.0;
                }
                let want: Vec<(Picos, u64)> = fold
                    .iter()
                    .map(|(&i, &fj)| (width * i, Joules(fj).as_j().to_bits()))
                    .collect();
                let got: Vec<(Picos, u64)> = replay
                    .power_series
                    .buckets()
                    .into_iter()
                    .map(|(at, j)| (at, j.to_bits()))
                    .collect();
                assert_eq!(got, want, "pram {pram}");
                zero_buckets += fold.values().filter(|&&fj| fj == 0).count();
            }
        });
        assert!(zero_buckets > 0, "no case touched a bucket at zero energy");
    }

    #[test]
    #[should_panic(expected = "different cache geometry")]
    fn replay_rejects_mismatched_geometry() {
        let accel = Accelerator::new(AccelConfig::default());
        let traces = stress_traces(1);
        let sched = MemSchedule::build(&traces, CacheConfig::l1_paper(), accel.config().l2);
        accel.run_schedule_at(Picos::ZERO, &sched, &mut FixedMem);
    }

    #[test]
    fn mem_op_samples_reach_the_probe_by_every_call_boundary() {
        // The replay gathers its ordered steps' `pe.mem_op` samples per
        // `advance_slice` call and hands them to the probe before
        // returning: the cursor holds none between calls. The free
        // steps' samples follow in `finish_schedule`, and the hub ends
        // up with exactly the samples the per-op walker records.
        use sim_core::probe::Telemetry;
        let traces = stress_traces(3);
        let (walker_hub, replay_hub) = (Telemetry::new(0), Telemetry::new(0));
        let mut reference = Accelerator::new(AccelConfig::default());
        reference.set_probe(walker_hub.probe());
        walker::run_at(&reference, Picos::ZERO, &traces, &mut FixedMem);
        let mut accel = Accelerator::new(AccelConfig::default());
        accel.set_probe(replay_hub.probe());
        let sched = MemSchedule::build(&traces, accel.config().l1, accel.config().l2);
        let mut cur = accel.schedule_cursor(Picos::ZERO, &sched, &mut FixedMem);
        while accel.advance_slice(&mut cur, &sched, &mut FixedMem) {
            assert_eq!(cur.mem_op.count(), 0, "samples left in the cursor");
        }
        assert_eq!(cur.mem_op.count(), 0);
        accel.finish_schedule(&cur, &sched);
        let (want, got) = (walker_hub.finish().1, replay_hub.finish().1);
        let want = want
            .histogram("pe.mem_op")
            .expect("the walker recorded mem ops");
        assert_eq!(got.histogram("pe.mem_op"), Some(want));
    }

    #[test]
    fn counting_hubs_report_what_storing_hubs_report() {
        // A storing hub takes one call per span and per sample. Under a
        // counting hub the replay tallies its free steps per class and
        // the PRAM controller its words per request, while the walker
        // still calls once per step. All three must report the same
        // trace counters, `pe.mem_op` histogram and attribution, on the
        // fixed backend and on the controller, with and without
        // attribution.
        use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
        use sim_core::probe::Telemetry;
        for agents in [1, 3, 7] {
            let traces = stress_traces(agents);
            let config = AccelConfig::default();
            let sched = MemSchedule::build(&traces, config.l1, config.l2);
            for (pram, attribution) in [(false, false), (true, false), (true, true)] {
                let run = |hub: Telemetry, walk: bool| {
                    let mut accel = Accelerator::new(AccelConfig::default());
                    accel.set_probe(hub.probe());
                    let mut ctrl =
                        PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
                    ctrl.set_probe(hub.probe());
                    let backend: &mut dyn MemoryBackend =
                        if pram { &mut ctrl } else { &mut FixedMem };
                    if walk {
                        walker::run_at(&accel, Picos::ZERO, &traces, backend);
                    } else {
                        accel.run_schedule_at(Picos::ZERO, &sched, backend);
                    }
                    (hub.finish().1, hub.attribution())
                };
                let stored = run(
                    if attribution {
                        Telemetry::with_attribution(64)
                    } else {
                        Telemetry::new(64)
                    },
                    false,
                );
                let counted = run(Telemetry::counting(64, attribution), false);
                let walked = run(Telemetry::counting(64, attribution), true);
                let cell = format!("{agents} agents, pram {pram}, attribution {attribution}");
                assert_eq!(counted, stored, "{cell}: replay, counted vs stored");
                assert_eq!(counted, walked, "{cell}: replay vs walker, counted");
                let recorded = counted.0.counter("trace.events_recorded").unwrap();
                assert!(recorded > 64, "{cell}: {recorded} events fill no ring");
                assert!(counted.0.histogram("pe.mem_op").is_some(), "{cell}");
            }
        }
    }

    /// Records a run on the PRAM controller — its tape and a backend
    /// image at every `k`-th call boundary — then resumes from each
    /// image the way a window replay does: a fresh cursor plays the
    /// tape back up to the boundary, a fresh controller restores the
    /// image, and the run goes on against it, every completion checked
    /// against the tape. The report, the backend energy and the stream
    /// fingerprint must all match the straight run exactly, the straight
    /// run must match the walker's, and recording must not perturb the
    /// run.
    fn assert_resume_is_byte_identical(accel: &Accelerator, traces: &[Trace]) {
        use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
        let sched = MemSchedule::build(traces, accel.config().l1, accel.config().l2);
        let fresh = || PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
        let plain = accel.run_schedule_at(Picos::ZERO, &sched, &mut fresh());
        let walked = walker::run_at(accel, Picos::ZERO, traces, &mut fresh());
        assert_eq!(report_json(&walked), report_json(&plain), "walker");

        // The recorded run, counting its request-issuing slices.
        let mut pram_a = fresh();
        let mut rec = Tape::new(Vec::new(), Some(&mut pram_a));
        let mut cur = accel.schedule_cursor(Picos::ZERO, &sched, &mut rec);
        let mut boundaries = Vec::new();
        while accel.advance_slice(&mut cur, &sched, &mut rec) {
            boundaries.push((cur.mem_requests(), cur.stream_fingerprint()));
        }
        let straight = accel.finish_schedule(&cur, &sched);
        let tape = rec.into_offsets();
        assert_eq!(report_json(&plain), report_json(&straight));
        assert_eq!(tape.len() as u64, straight.mem_requests);
        let slices = boundaries.len();
        assert!(slices >= 2, "need a mid-run boundary, got {slices} slices");

        // The same run again, imaging the controller at every k-th
        // boundary.
        let k = slices.div_ceil(8);
        let mut pram_b = fresh();
        let mut cur = accel.schedule_cursor(Picos::ZERO, &sched, &mut pram_b);
        let mut images = Vec::new();
        for slice in 1..=slices {
            assert!(accel.advance_slice(&mut cur, &sched, &mut pram_b));
            if slice % k == 0 {
                images.push((slice, pram_b.snapshot_state().unwrap()));
            }
        }

        for (slice, image) in &images {
            let mut playback = Tape::new(tape.clone(), None);
            let mut cur = accel.schedule_cursor(Picos::ZERO, &sched, &mut playback);
            for _ in 0..*slice {
                assert!(accel.advance_slice(&mut cur, &sched, &mut playback));
            }
            let at = (cur.mem_requests(), cur.stream_fingerprint());
            assert_eq!(at, boundaries[slice - 1], "tape prefix of {slice} slices");
            let mut pram_c = fresh();
            pram_c.restore_state(image).expect("backend restore");
            playback.real = Some(&mut pram_c);
            while accel.advance_slice(&mut cur, &sched, &mut playback) {}
            assert_eq!(playback.mismatch, None, "resumed after {slice} slices");
            let resumed = accel.finish_schedule(&cur, &sched);

            assert_eq!(report_json(&straight), report_json(&resumed));
            assert_eq!(
                pram_a.energy().to_json().render(false),
                pram_c.energy().to_json().render(false)
            );
        }
    }

    /// Replays `traces` against the walker on the fixed backend and on
    /// `PramController` (reports and backend ledgers), then resumes
    /// from tape prefixes mid-run.
    fn assert_replays_like_the_walker(traces: &[Trace]) {
        use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
        let accel = Accelerator::new(AccelConfig::default());
        let sched = MemSchedule::build(traces, accel.config().l1, accel.config().l2);
        let direct = walker::run_at(&accel, Picos::from_us(3), traces, &mut FixedMem);
        let replay = accel.run_schedule_at(Picos::from_us(3), &sched, &mut FixedMem);
        assert_eq!(report_json(&direct), report_json(&replay), "fixed");

        let mut pram_a = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
        let direct = walker::run_at(&accel, Picos::ZERO, traces, &mut pram_a);
        let mut pram_b = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
        let replay = accel.run_schedule_at(Picos::ZERO, &sched, &mut pram_b);
        assert_eq!(report_json(&direct), report_json(&replay), "pram");
        assert_eq!(
            pram_a.energy().to_json().render(false),
            pram_b.energy().to_json().render(false)
        );
        assert_resume_is_byte_identical(&accel, traces);
    }

    #[test]
    fn tape_prefix_resume_is_byte_identical() {
        let accel = Accelerator::new(AccelConfig::default());
        assert_resume_is_byte_identical(&accel, &stress_traces(2));
        // Many boundaries, most inside an agent's open IPC bucket.
        let fine = Accelerator::new(AccelConfig {
            sample_bucket: Picos::from_ns(700),
            ..AccelConfig::default()
        });
        assert_resume_is_byte_identical(&fine, &missing_traces());
    }

    /// Four agents that miss often: loads stride through 1 MiB and
    /// stores through 512 KiB, so most slices issue requests.
    fn missing_traces() -> Vec<Trace> {
        (0..4u64)
            .map(|a| {
                let mut t = Trace::new();
                let base = a << 24;
                for i in 0..400u64 {
                    t.load(base + (i * 328 + a * 64) % (1 << 20), 8);
                    t.compute(InstrBlock::mac(3 + a, 2));
                    if i % 5 == a {
                        t.store(base + (i * 776) % (1 << 19), 100);
                    }
                }
                t
            })
            .collect()
    }

    #[test]
    fn ipc_series_stays_exact_up_to_2_pow_53_instructions() {
        // Two blocks of 2^52 instructions land in separate buckets as
        // exact integers; one instruction more is refused when the
        // cursor opens, since f64 sums of integers past 2^53 round.
        let accel = Accelerator::new(AccelConfig::default());
        let traces = |extra: u64| {
            let mut t = Trace::new();
            t.compute(InstrBlock::alu(1 << 52));
            t.compute(InstrBlock::alu((1 << 52) + extra));
            vec![t]
        };
        let exact = traces(0);
        let sched = MemSchedule::build(&exact, accel.config().l1, accel.config().l2);
        assert_eq!(sched.instructions(), MAX_EXACT_INSTRUCTIONS);
        let replay = accel.run_schedule_at(Picos::ZERO, &sched, &mut FixedMem);
        let direct = walker::run_at(&accel, Picos::ZERO, &exact, &mut FixedMem);
        assert_eq!(report_json(&direct), report_json(&replay));
        assert_eq!(replay.ipc_series.total(), MAX_EXACT_INSTRUCTIONS as f64);

        let sched = MemSchedule::build(&traces(1), accel.config().l1, accel.config().l2);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            accel.schedule_cursor(Picos::ZERO, &sched, &mut FixedMem);
        }))
        .expect_err("the cursor refuses the schedule");
        let msg = refused.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("more than 2^53 instructions"), "{msg}");
    }

    #[test]
    fn agents_past_256_step_classes_replay_like_the_walker() {
        // 300 distinct compute-block sizes push agent 0 onto wide class
        // ids; agent 1 keeps a handful of classes and one byte per step.
        let mut wide = Trace::new();
        for k in 0..300u64 {
            wide.compute(InstrBlock::alu(2 * (k + 1)));
            wide.load((k % 89) * 48, 8);
            if k % 7 == 0 {
                wide.store((k % 41) * 96, 100);
            }
        }
        let mut traces = stress_traces(2);
        traces[0] = wide;
        let cfg = AccelConfig::default();
        let sched = MemSchedule::build(&traces, cfg.l1, cfg.l2);
        assert!(sched.agents[0].class_count() > 256);
        assert_eq!(sched.agents[0].bytes_per_step(), 4);
        assert_eq!(sched.agents[1].bytes_per_step(), 1);
        assert_replays_like_the_walker(&traces);
    }

    /// [`FixedMem`] that also logs every request it serves.
    #[derive(Default)]
    struct LoggingMem {
        log: Vec<(u64, bool)>,
    }

    impl MemoryBackend for LoggingMem {
        fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
            self.log.push((addr, false));
            FixedMem.read(at, addr, len)
        }
        fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
            self.log.push((addr, true));
            FixedMem.write(at, addr, len)
        }
        fn energy(&self) -> EnergyBook {
            EnergyBook::new()
        }
        fn label(&self) -> &'static str {
            "logging"
        }
    }

    #[test]
    fn addresses_past_62_bits_replay_like_the_walker() {
        // Addresses at and above 2^62 do not fit the packed event word;
        // the replay must still issue them whole, fills and write-backs.
        let traces: Vec<Trace> = (0..2u64)
            .map(|a| {
                let mut t = Trace::new();
                for i in 0..120u64 {
                    t.load((a << 24) + (i % 23) * 256, 8);
                    t.compute(InstrBlock::mac(3, 2));
                    t.load((1 << 62) | (a << 24) | ((i % 37) * 4096), 8);
                    if i % 5 == 0 {
                        t.store((1 << 63) | (a << 24) | ((i % 11) * 8192), 8);
                    }
                }
                t
            })
            .collect();
        let accel = Accelerator::new(AccelConfig::default());
        let sched = MemSchedule::build(&traces, accel.config().l1, accel.config().l2);
        let (mut walked, mut replayed) = (LoggingMem::default(), LoggingMem::default());
        let direct = walker::run_at(&accel, Picos::ZERO, &traces, &mut walked);
        let replay = accel.run_schedule_at(Picos::ZERO, &sched, &mut replayed);
        assert_eq!(report_json(&direct), report_json(&replay));
        assert!(walked.log.contains(&((1 << 62) | 4096, false)));
        assert!(walked.log.contains(&((1 << 63) | 8192, true)));
        assert_eq!(walked.log, replayed.log);

        // The PRAM controller refuses an address past its capacity; the
        // replay must hand it the same full address the walker does,
        // not an in-range alias it would quietly serve.
        use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
        let refusal = |run: &dyn Fn(&mut PramController)| {
            let mut pram = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 4));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut pram)))
                .expect_err("the controller refuses the address");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let walker_refusal = refusal(&|pram| {
            walker::run_at(&accel, Picos::ZERO, &traces, pram);
        });
        let replay_refusal = refusal(&|pram| {
            accel.run_schedule_at(Picos::ZERO, &sched, pram);
        });
        assert!(
            walker_refusal.contains("beyond module capacity"),
            "{walker_refusal}"
        );
        assert_eq!(walker_refusal, replay_refusal);
    }
}
